"""Set-up probe: imports the program and builds the reference tables of the
degrees given as arguments.

    python3 bench/setup_probe.py 2 3

The caller takes this process's CPU time as the set-up time.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bdmdarcy import cli  # noqa: E402,F401  (the import is part of set-up)
from bdmdarcy.assembly import reference_tables  # noqa: E402

for k in map(int, sys.argv[1:]):
    reference_tables(k, vol_degree=None, bnd_points=None)
