"""``python -m mbgames``: the command-line front end."""

from .cli import main

main()
