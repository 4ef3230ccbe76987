"""`python -m prodconj ...` runs the command-line front end (`prodconj.cli`)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
