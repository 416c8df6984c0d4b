"""python -m weylab: the weylab command line."""

import sys

from .cli import main

sys.exit(main())
