"""`python -m sympair`: the command-line interface of sympair.cli."""

import sys

from .cli import main

sys.exit(main())
