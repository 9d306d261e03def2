"""Program entry point (``python -m z2top`` and the ``z2top`` script): an
exception that ``cli.main`` maps to no exit code is a bug, so its traceback
goes to stderr and the exit code is EXIT_SOFTWARE (70, as BSD sysexits)."""

import sys
import traceback

from .cli import main

EXIT_SOFTWARE = 70


def run(argv=None) -> int:
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(run())
