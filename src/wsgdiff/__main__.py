"""``python -m wsgdiff``: the same command as the ``wsgdiff`` entry point."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
