"""``python -m acmag <command> ...``: the study runner of ``acmag.cli``."""

import sys

from .cli import main

sys.exit(main())
