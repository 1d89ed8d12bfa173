"""Deterministic fault injection for crash-safety testing.

Long flows die in ways unit tests rarely exercise: a worker is
OOM-killed mid-item, the whole process is SIGKILLed between stages, a
checkpoint file is half-written by a dying disk.  This module plants
named *sites* in the flow (``faults.check("vpr.item", key="3/7")``)
that normally cost one boolean test, and arms them from a spec string
(or the ``REPRO_FAULTS`` environment variable, so CLI subprocesses can
be crashed from the outside) to reproduce those failures on demand:

    REPRO_FAULTS="kill:vpr.item:0/3"      # worker evaluating cluster 0,
                                          # candidate 3 dies (os._exit)
    REPRO_FAULTS="raise:flow.clustering"  # clustering stage raises
    REPRO_FAULTS="abort:vpr.item:#5"      # whole process exits on the
                                          # 5th item (resume testing)
    REPRO_FAULTS="corrupt:checkpoint.save:clustering"

Spec grammar — comma-separated ``action:site[:selector]``:

* ``action`` — one of

  - ``raise``   raise :class:`FaultInjected` at the site;
  - ``oserror`` raise :class:`OSError` (executor-infrastructure failure);
  - ``kill``    ``os._exit`` — **worker processes only** (no-op in the
                parent, so a parent-side retry of the killed item
                survives);
  - ``hang``    sleep far past any timeout — worker processes only;
  - ``abort``   ``os._exit`` unconditionally (simulates a mid-run
                SIGKILL of the whole flow);
  - ``corrupt`` returned to the caller, which corrupts the artefact it
                just wrote (used by the checkpoint store).

* ``site`` — the instrumentation point name.
* ``selector`` — optional: ``#N`` fires on the N-th hit of the site in
  this process; any other string fires when it equals the site's
  ``key``; omitted fires on the first hit.

Each spec fires **once per process** and then disarms; forked workers
inherit an armed copy, which is exactly what makes "worker dies, parent
retry succeeds" reproducible: the worker's copy fires and kills it, the
parent's copy fires on the first retry attempt, and the second attempt
runs clean.

All checks are no-ops (a single module-level boolean) when no spec is
configured, so production runs pay nothing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Environment variable consulted on first use (CLI subprocess control).
ENV_VAR = "REPRO_FAULTS"

#: Exit codes of the process-terminating actions (distinct from normal
#: failures so tests can assert the fault actually fired).
KILL_EXIT_CODE = 117
ABORT_EXIT_CODE = 123

#: Sleep of the ``hang`` action — far past any sane item timeout.
HANG_SECONDS = 3600.0

_ACTIONS = ("raise", "oserror", "kill", "hang", "abort", "corrupt")


class FaultInjected(RuntimeError):
    """Raised at a site armed with the ``raise`` action."""


class FaultSpecError(ValueError):
    """Malformed fault spec string."""


@dataclass
class _Spec:
    action: str
    site: str
    count: Optional[int] = None  # "#N" selector
    key: Optional[str] = None  # exact-key selector
    armed: bool = True

    def matches(self, hit: int, key: Optional[str]) -> bool:
        if not self.armed:
            return False
        if self.count is not None:
            return hit == self.count
        if self.key is not None:
            return key is not None and str(key) == self.key
        return True  # first hit (callers disarm on fire)


@dataclass
class _State:
    specs: List[_Spec] = field(default_factory=list)
    hits: Dict[str, int] = field(default_factory=dict)
    in_worker: bool = False


#: None means "not yet configured" — the first check() consults ENV_VAR.
_state: Optional[_State] = None
_active: bool = False


def parse_specs(text: str) -> List[_Spec]:
    """Parse a spec string; raises :class:`FaultSpecError` when malformed."""
    specs: List[_Spec] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":", 2)
        if len(pieces) < 2:
            raise FaultSpecError(
                f"fault spec {part!r} must be action:site[:selector]"
            )
        action, site = pieces[0], pieces[1]
        if action not in _ACTIONS:
            raise FaultSpecError(
                f"unknown fault action {action!r} (one of {', '.join(_ACTIONS)})"
            )
        spec = _Spec(action=action, site=site)
        if len(pieces) == 3 and pieces[2]:
            selector = pieces[2]
            if selector.startswith("#"):
                try:
                    spec.count = int(selector[1:])
                except ValueError:
                    raise FaultSpecError(
                        f"fault selector {selector!r} is not #<int>"
                    ) from None
                if spec.count < 1:
                    raise FaultSpecError("fault hit counts are 1-based")
            else:
                spec.key = selector
        specs.append(spec)
    return specs


def configure(text: Optional[str]) -> None:
    """Arm the given spec string (None or "" disables injection)."""
    global _state, _active
    _state = _State(specs=parse_specs(text) if text else [])
    _active = bool(_state.specs)


def reset() -> None:
    """Disarm everything and forget the env var was ever read."""
    global _state, _active
    _state = None
    _active = False


def is_active() -> bool:
    """Whether any spec is armed (reads ``REPRO_FAULTS`` on first call)."""
    if _state is None:
        configure(os.environ.get(ENV_VAR))
    return _active


def mark_worker() -> None:
    """Tag this process as a fleet worker (enables kill/hang actions)."""
    if _state is None:
        configure(os.environ.get(ENV_VAR))
    _state.in_worker = True


def check(site: str, key: Optional[object] = None) -> Optional[str]:
    """Fire any armed spec matching this site.

    Side-effecting actions (raise/oserror/kill/hang/abort) happen here;
    ``"corrupt"`` is returned for the caller to apply.  Returns None
    when nothing fired.
    """
    if not is_active():
        return None
    state = _state
    hit = state.hits.get(site, 0) + 1
    state.hits[site] = hit
    for spec in state.specs:
        if spec.site != site or not spec.matches(hit, None if key is None else str(key)):
            continue
        spec.armed = False
        if spec.action == "raise":
            raise FaultInjected(f"injected fault at {site}" + (f" [{key}]" if key is not None else ""))
        if spec.action == "oserror":
            raise OSError(f"injected pool failure at {site}")
        if spec.action == "kill":
            if state.in_worker:
                os._exit(KILL_EXIT_CODE)
            continue  # parent-side retry of the killed item runs clean
        if spec.action == "hang":
            if state.in_worker:
                time.sleep(HANG_SECONDS)
            continue
        if spec.action == "abort":
            os._exit(ABORT_EXIT_CODE)
        if spec.action == "corrupt":
            return "corrupt"
    return None
