"""Crash safety: stage checkpoint/resume and deterministic fault injection.

Long multi-stage placement runs die — a worker is OOM-killed, the job
scheduler preempts the process, a disk fills mid-write.  This package
makes those failures cheap instead of catastrophic:

* :mod:`repro.recovery.checkpoint` — :class:`CheckpointStore`, a
  versioned checkpoint directory with atomic (write-temp + fsync +
  rename) stage records and V-P&R item records stored under the same
  content address as the shared evaluation cache.  It keeps no RNG
  state: every stage draws from explicit seeded generators.  ``repro
  flow --checkpoint DIR [--resume]`` wires it through the flow; a
  resumed run restarts from the last completed unit of work and
  reproduces the uninterrupted run's QoR bit for bit.
* :mod:`repro.recovery.faults` — env/config-driven fault injection
  (kill a worker on a chosen item, raise in a named stage, corrupt a
  checkpoint file) so every recovery path is testable deterministically
  (``tests/recovery/``).

See ``docs/recovery.md`` for the checkpoint layout, resume semantics
and the fault-injection knobs.
"""

from repro.recovery import faults
from repro.recovery.checkpoint import (
    SCHEMA,
    STAGES,
    CheckpointError,
    CheckpointStore,
    atomic_write_bytes,
)
from repro.recovery.faults import FaultInjected, FaultSpecError

__all__ = [
    "SCHEMA",
    "STAGES",
    "CheckpointError",
    "CheckpointStore",
    "FaultInjected",
    "FaultSpecError",
    "atomic_write_bytes",
    "faults",
]
