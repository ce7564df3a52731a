"""``python -m qfimlab <experiment> --config file.json``: the ``qfimlab`` command."""

import sys

from .cli import main

sys.exit(main())
