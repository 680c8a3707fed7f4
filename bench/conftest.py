"""Path setup for ``python -m pytest bench -q`` (tier-1 ``testpaths`` stays ``tests``)."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (HERE, HERE.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
