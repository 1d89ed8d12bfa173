"""Self-tests of the spine (``python -m pytest benchmarks/spine/tests``).

Tiny designs only; nothing here measures anything.
"""

import os
import sys
from pathlib import Path

# The harness refuses to measure with unpinned BLAS threads; pin them
# before anything imports numpy.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
