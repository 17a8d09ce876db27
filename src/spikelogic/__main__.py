"""python -m spikelogic: the command-line interface, as cli.main."""

import sys

from .cli import main

sys.exit(main())
