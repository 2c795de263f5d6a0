"""``python -m aqss``: the batch experiment runner, same as the ``aqss`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
