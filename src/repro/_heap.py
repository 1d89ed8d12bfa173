"""Keep freed NumPy temporaries in the heap instead of the kernel's hands.

glibc serves a request above its mmap threshold (128 KiB at start, then
raised to the largest freed mmapped block) with a fresh mapping and
unmaps it on free; it also returns a free heap top above its trim
threshold to the kernel.  A placement round allocates multi-MB NumPy
temporaries by the thousand, so every page of each one was faulted back
in and zeroed by the kernel: tens of thousands of minor faults per
V-P&R sweep.

:func:`keep_warm` fixes both thresholds once per process (the package's
``__init__`` calls it, so the CLI, the serve daemon and its zygote and
runners, and forked fleet workers all inherit it):

* ``M_MMAP_THRESHOLD`` at 32 MiB, glibc's ceiling for its own dynamic
  threshold on 64-bit hosts, so a temporary up to that size comes from
  the heap and goes back to it;
* ``M_TRIM_THRESHOLD`` at 64 MiB, the most free heap top a process keeps
  resident before glibc trims it.

Only where memory comes from changes, never what is computed with it.
The policy stands aside where the C library is not glibc, where
``mallopt`` is missing or refuses a value (it sets both thresholds or
neither), and where the user already chose a malloc policy through
glibc's environment variables or tunables.
"""

from __future__ import annotations

import ctypes
import os

#: glibc's ``mallopt`` parameter numbers (``malloc.h``).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20
#: glibc's initial mmap threshold, put back if the trim call is refused.
DEFAULT_MMAP_THRESHOLD = 128 << 10

#: Environment variables through which a user sets glibc's malloc policy.
USER_POLICY_VARS = (
    "MALLOC_MMAP_THRESHOLD_",
    "MALLOC_TRIM_THRESHOLD_",
    "MALLOC_TOP_PAD_",
)


def keep_warm() -> bool:
    """Set the warm-heap thresholds; True if both took effect."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):
        return False
    if any(name in os.environ for name in USER_POLICY_VARS) or (
        "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")
    ):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if not mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        return False
    if not mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD):
        mallopt(M_MMAP_THRESHOLD, DEFAULT_MMAP_THRESHOLD)
        return False
    return True
