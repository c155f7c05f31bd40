"""``python -m siegeljacobi``: the command-line harness of :mod:`siegeljacobi.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
