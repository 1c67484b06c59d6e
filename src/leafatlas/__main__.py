"""Entry point for `python -m leafatlas`, the same command line as the
`leafatlas` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
