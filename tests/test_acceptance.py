"""The paper-claims acceptance suite, one test per criterion.

Each check asserts exact game values (tolerance zero) and must finish within
its stated wall-clock budget. ``mbgames verify-paper`` runs the same checks
from the command line.
"""

import pytest

from mbgames import acceptance
from mbgames.acceptance import CHECKS, check_t6, check_t10, run_checks
from mbgames.search import NonMonotoneProfile


@pytest.mark.parametrize("check", CHECKS, ids=[c.check_id for c in CHECKS])
def test_acceptance(check):
    result = check.run()
    print(result.line())
    for line in result.details:
        print(f"    {line}")
    assert result.ok, f"{check.check_id} failed:\n" + "\n".join(result.details)
    assert result.elapsed <= result.budget_s, (
        f"{check.check_id} exceeded its budget: {result.elapsed:.1f}s > "
        f"{result.budget_s:.0f}s"
    )


@pytest.mark.parametrize("check_fn", [check_t6, check_t10], ids=["T6", "T10"])
def test_skipped_graphs_fail_the_check(monkeypatch, check_fn):
    def broken(self, g, deadline=None):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(NonMonotoneProfile, "evaluate", broken)
    details = []
    assert check_fn(details) is False
    assert any(
        line.startswith("SKIPPED ") and "RecursionError: maximum recursion" in line
        for line in details
    )


def test_unknown_ids_are_rejected_before_any_check_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(acceptance._Check, "run", lambda self: ran.append(self))
    with pytest.raises(ValueError, match=r"^unknown check ids: T99, t98$"):
        run_checks(["T1", "T99", "t98"])
    assert ran == []
    # ids are case-insensitive and run in the listed order
    run_checks(["t5", "T1"])
    assert [c.check_id for c in ran] == ["T1", "T5"]
