"""Entry point of ``python -m quasitrace`` and of the ``quasitrace`` script."""

import sys


def main() -> int:
    """Run the command line; a bad QUASITRACE_PRECISION_BITS exits 2.

    The precision is read when `phase` is imported, before `cli` can map the
    error to an exit code, so the import is checked here.
    """
    try:
        from . import phase  # noqa: F401
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .cli import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
