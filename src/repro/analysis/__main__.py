"""``python -m repro.analysis``: the static analyzer (see :mod:`repro.analysis.static`)."""

import sys

from repro.analysis.static import main

if __name__ == "__main__":
    sys.exit(main())
