"""Win/loss profiles over palette sizes and the named game parameters.

Profiles never assume monotonicity: every k in range is solved. A parameter
is the least k whose outcome is a Maker win, reported together with its full
profile so that losses above the minimum stay visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph
from .rules import GameSpec, Status, Variant
from .solver import solve


@dataclass(frozen=True)
class WinProfile:
    variant: Variant
    k_lo: int
    k_hi: int
    outcomes: tuple[Status, ...]

    def outcome(self, k: int) -> Status:
        if not self.k_lo <= k <= self.k_hi:
            raise ValueError(f"k={k} outside profile range [{self.k_lo},{self.k_hi}]")
        return self.outcomes[k - self.k_lo]

    def items(self):
        return [
            (self.k_lo + i, outcome) for i, outcome in enumerate(self.outcomes)
        ]

    def parameter_value(self) -> int | None:
        """The game parameter this profile determines: the least k with a
        Maker win, plus 1 for marking variants (a colouring number is 1 + the
        least winning back-degree bound); None when no k in range is a Maker
        win."""
        for k, outcome in self.items():
            if outcome is Status.MAKER_WIN:
                return k + 1 if self.variant.marking else k
        return None

    def monotonicity_violations(self) -> list[int]:
        """All k with a Maker win at k and a Breaker win at k+1."""
        return [
            self.k_lo + i
            for i in range(len(self.outcomes) - 1)
            if self.outcomes[i] is Status.MAKER_WIN
            and self.outcomes[i + 1] is Status.BREAKER_WIN
        ]

    def as_dict(self) -> dict[int, str]:
        return {k: outcome.value for k, outcome in self.items()}


def win_profile(
    g: Graph,
    variant: Variant,
    k_range: tuple[int, int],
    *,
    deadline: float | None = None,
) -> WinProfile:
    """Solve every k in the inclusive range; no outcome is inferred."""
    k_lo, k_hi = k_range
    if k_lo > k_hi:
        raise ValueError(f"empty k range [{k_lo},{k_hi}]")
    outcomes = []
    for k in range(k_lo, k_hi + 1):
        outcomes.append(solve(GameSpec(variant, k), g, deadline=deadline).winner)
    return WinProfile(variant, k_lo, k_hi, tuple(outcomes))


@dataclass(frozen=True)
class ParameterValue:
    name: str
    value: int | None
    applicable: bool
    profile: WinProfile | None = field(repr=False, default=None)
    note: str = ""


# parameter name -> variant; see WinProfile.parameter_value for the value.
PARAMETER_VARIANTS: dict[str, Variant] = {
    "chi_g": Variant.VERTEX,
    "chi_cg": Variant.CONNECTED_VERTEX,
    "gamma_g": Variant.GREEDY,
    "arboricity_game_number": Variant.ARBORICITY,
    "col_g": Variant.MARKING,
    "col_cg": Variant.CONNECTED_MARKING,
}


@dataclass(frozen=True)
class ParameterReport:
    n: int
    m: int
    values: dict[str, ParameterValue]

    def __getitem__(self, name: str) -> ParameterValue:
        return self.values[name]

    def as_dict(self) -> dict:
        out: dict = {"n": self.n, "m": self.m, "parameters": {}}
        for name, pv in self.values.items():
            out["parameters"][name] = {
                "value": pv.value,
                "applicable": pv.applicable,
                "determined": pv.value is not None,
                "note": pv.note,
                "profile": pv.profile.as_dict() if pv.profile else None,
            }
        return out


def default_k_range(g: Graph, variant: Variant) -> tuple[int, int]:
    """The palette sizes (marking bounds for marking variants) a profile
    covers by default, up to the trivial Maker win: Delta+1 colours for the
    vertex games, m colours for arboricity, the bound s = n-1 for marking."""
    if variant is Variant.ARBORICITY:
        return 1, max(g.m, 1)
    if variant.marking:
        return 0, max(g.n - 1, 0)
    return 1, g.max_degree() + 1


def named_parameter(
    g: Graph,
    name: str,
    k_max: int | None = None,
    *,
    deadline: float | None = None,
) -> ParameterValue:
    """One named parameter from a fresh profile of its variant over
    [1, k_max], or the variant's default range (marking bounds run over
    [0, k_max - 1] so col = 1 + s stays in range). A connectivity-restricted
    parameter of a disconnected graph is not applicable."""
    if k_max is not None and k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    variant = PARAMETER_VARIANTS[name]
    if variant.connectivity_restricted and not g.is_connected():
        return ParameterValue(
            name, None, applicable=False, note="graph is disconnected"
        )
    shift = 1 if variant.marking else 0
    if k_max is None:
        k_range = default_k_range(g, variant)
    else:
        k_range = (1 - shift, k_max - shift)
    profile = win_profile(g, variant, k_range, deadline=deadline)
    value = profile.parameter_value()
    note = (
        "" if value is not None
        else f"no Maker win found up to {k_range[1] + shift}"
    )
    return ParameterValue(name, value, applicable=True, profile=profile, note=note)


def parameter_report(g: Graph, k_max: int | None = None) -> ParameterReport:
    """Every named parameter; see ``named_parameter``."""
    values = {name: named_parameter(g, name, k_max) for name in PARAMETER_VARIANTS}
    return ParameterReport(g.n, g.m, values)
