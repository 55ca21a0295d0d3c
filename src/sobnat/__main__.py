"""``python -m sobnat``: the same commands as the ``sobnat`` script."""

import sys

from .cli import main

sys.exit(main())
