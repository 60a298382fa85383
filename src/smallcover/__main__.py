"""Entry point for ``python -m smallcover``; the same commands as ``smallcover``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
