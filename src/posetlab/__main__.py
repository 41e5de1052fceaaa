"""`python -m posetlab`: the command-line interface of `posetlab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
