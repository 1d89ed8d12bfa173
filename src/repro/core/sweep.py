"""The V-P&R sweep scheduler: where each (cluster, candidate) item of
a sweep is resolved, and what happens when one fails.

* **Stored results first.**  Every item resolves in the sweep's own
  process through one :class:`~repro.cache.StoreChain` (the run's
  checkpoint, then the cross-run cache) keyed by its content address;
  only the misses become work items, and when none missed no executor
  is built.
* **One loop over an executor.**  The misses are chunked and run by
  one chunk evaluator (:func:`_evaluate_chunk`) on a
  :class:`~repro.core.fanout.SweepExecutor`: this process
  (``jobs == 1``) or a worker fleet, which gets the sweep state
  (:func:`_sweep_state`: config, and sub-netlists as snapshots) once
  and never sees a store.  Results land in (cluster, candidate) slots
  through one write-back site (:func:`_settle`), so the selected
  shapes are identical whatever ran them.
* **One failure rule.**  An item that fails or is lost on its executor
  is re-run inline, with no wait, until it has had :data:`ATTEMPTS`
  attempts in this process, then raises
  :class:`~repro.core.vpr.VPRSweepError`; ``item_timeout`` bounds an
  item in a fleet worker (:func:`_item_alarm`).  See
  ``docs/recovery.md``.
"""

from __future__ import annotations

import itertools
import signal
import time
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs, telemetry
from repro.cache import EvaluationCache, StoreChain, derive_cache_summary
from repro.core.fanout import (
    FleetExecutor,
    InlineExecutor,
    ItemOutcome,
    SweepExecutor,
)
from repro.core.vpr import (
    CandidateEvaluation,
    VPRConfig,
    VPRFramework,
    VPRSweepError,
    VPRSweepResult,
)
from repro.netlist.arrays import NetlistArrays
from repro.netlist.design import Design
from repro.netlist.snapshot import design_snapshot, netlist_from_snapshot
from repro.recovery import faults

#: Attempts a failed or lost work item gets in the sweep's own process
#: (an attempt in a worker process is not one of them) before it is
#: terminal.
ATTEMPTS = 2

Clusters = Dict[int, Tuple[NetlistArrays, float]]


def sweep_clusters(
    framework: VPRFramework, source: Design,
    members: Sequence[Sequence[int]], cluster_ids: Sequence[int],
) -> List[VPRSweepResult]:
    """Sweep ``cluster_ids`` of ``source`` with ``framework``:
    :meth:`VPRFramework.sweep_clusters`."""
    config = framework.config
    cluster_ids = list(cluster_ids)
    total = len(cluster_ids) * len(config.candidates)
    fans_out = bool(cluster_ids) and (
        config.jobs > 1 or config.fleet_listen is not None
    )
    make_executor = partial(_make_executor, framework) if fans_out else InlineExecutor
    # Every executor advances the same progress task per (cluster,
    # candidate) item, so the final accounting record does not
    # depend on where the items ran.
    obs.start_task("vpr.items", total, unit="items")
    cache = framework.cache
    if cache is not None:
        baseline = (cache.session_hits, cache.session_misses, cache.session_stores)
    try:
        clusters = {c: framework.induce(source, members[c]) for c in cluster_ids}
        slots = _sweep_on(framework, make_executor, clusters)
        sweeps: List[VPRSweepResult] = []
        for c in cluster_ids:
            evaluations = [evaluation for evaluation, _s in slots[c]]
            best = framework._best_of(evaluations, cluster_id=c)
            sweep = VPRSweepResult(
                cluster_id=c,
                evaluations=evaluations,
                best=best.candidate,
                runtime=sum(seconds for _e, seconds in slots[c]),
            )
            framework._record_sweep(sweep)
            sweeps.append(sweep)
        return sweeps
    finally:
        obs.complete("vpr.items")
        if cache is not None:
            _publish_cache_summary(cache, baseline)


def _make_executor(framework: VPRFramework) -> SweepExecutor:
    """Build the configured fleet (or the injected executor).  An
    unbindable port is an OSError."""
    if framework.executor_factory is not None:
        return framework.executor_factory()
    config = framework.config
    return FleetExecutor(
        workers=config.jobs,
        listen=config.fleet_listen,
        item_timeout=config.item_timeout,
    )


def _publish_cache_summary(
    cache: EvaluationCache, baseline: Tuple[int, int, int]
) -> None:
    """Fold this sweep's cache traffic into the store's lifetime
    totals and emit one ``vpr.cache.summary`` telemetry event with the
    derived hit ratio and bytes-on-disk (the same summary shape
    ``repro cache stats`` and the serve daemon's ``/stats`` report)."""
    hits = cache.session_hits - baseline[0]
    misses = cache.session_misses - baseline[1]
    stores = cache.session_stores - baseline[2]
    if not (hits or misses or stores):
        return
    try:
        cache.bump_totals(hits=hits, misses=misses, stores=stores)
        if telemetry.is_enabled():
            # cache.stats() walks the store: only for a listener.
            obs.event(
                "vpr.cache.summary",
                **derive_cache_summary(hits, misses, stores, cache.stats()),
            )
    except OSError:  # pragma: no cover - summary is best-effort
        return


# ----------------------------------------------------------------------
# Stored items
# ----------------------------------------------------------------------
def _read_item(store, key: str, cluster: int, candidate: int) -> Optional[dict]:
    """One store's record of an item; a cache probe also emits a
    ``cache.hit`` / ``cache.miss`` event, so run reports attribute
    reuse per (cluster, candidate)."""
    record = store.get(key)
    if isinstance(store, EvaluationCache):
        outcome = "cache.miss" if record is None else "cache.hit"
        obs.event(outcome, cluster=cluster, candidate=candidate, key=key)
    return record


def _item_record(evaluation: CandidateEvaluation, seconds: float) -> dict:
    """The persisted form of one finished item (checkpoint and cache)."""
    return {
        "ar": evaluation.candidate.aspect_ratio,
        "util": evaluation.candidate.utilization,
        "hpwl_cost": evaluation.hpwl_cost,
        "congestion_cost": evaluation.congestion_cost,
        "seconds": seconds,
    }


def _settle(
    chain: StoreChain, keys: Dict[Tuple[int, int], str], slots: Dict[int, list],
    c: int, k: int, evaluation: CandidateEvaluation, seconds: float,
    served_by: Optional[int] = None,
) -> None:
    """The one write-back site: a resolved item takes its slot and is
    written to the stores ahead of ``served_by``, the position of the
    store that served it (None: computed).  An invalid evaluation is
    persisted nowhere."""
    slots[c][k] = (evaluation, seconds)
    if evaluation.is_valid:
        chain.write_back(
            keys.get((c, k)), lambda: _item_record(evaluation, seconds), served_by
        )
    obs.advance("vpr.items")


# ----------------------------------------------------------------------
# The loop and its failure rule
# ----------------------------------------------------------------------
def _sweep_on(
    framework: VPRFramework,
    make_executor: Callable[[], SweepExecutor],
    clusters: Clusters,
) -> Dict[int, List[Tuple[CandidateEvaluation, float]]]:
    """Resolve every (cluster, candidate) item of ``clusters``: from
    the stores, what none holds on one executor, and what fails or is
    lost there on the inline executor, pass after pass, until each
    item has had :data:`ATTEMPTS` attempts in this process; returns
    ``(evaluation, seconds)`` slots; the only place a sweep probes a
    store.  An executor that cannot run (:class:`OSError` building it
    or from its ``map_chunks``) loses only the items it has not
    returned; an OSError raised here (a store write) propagates."""
    config = framework.config
    n_cand = len(config.candidates)
    chain = StoreChain(
        framework.checkpoint, framework.cache, _read_item,
        lambda store, key, record: store.put(key, record),
    )
    keys: Dict[Tuple[int, int], str] = {}
    slots: Dict[int, list] = {c: [None] * n_cand for c in clusters}
    settle = partial(_settle, chain, keys, slots)
    pending: List[Tuple[int, int]] = []
    for c, (sub, cell_area) in clusters.items():
        for k in range(n_cand):
            if chain.stores:
                keys[c, k] = framework._cache_key(sub, cell_area, k)
            record, position = chain.serve(keys.get((c, k)), cluster=c, candidate=k)
            if record is None:
                pending.append((c, k))
                continue
            # Both stores hand out finite-cost records only.
            evaluation = CandidateEvaluation(
                config.candidates[k],
                float(record["hpwl_cost"]), float(record["congestion_cost"]),
            )
            settle(c, k, evaluation, float(record.get("seconds", 0.0)), position)
    if not pending:
        return slots
    inline = InlineExecutor()
    try:
        executor = make_executor()
    except OSError as exc:
        _executor_failed(exc)
        executor = inline
    # Bundle work items into chunks so one dispatch amortises the
    # per-task submission/result overhead over several.
    chunk_size = config.chunk_size or executor.auto_chunk_size(
        len(pending), n_cand
    )
    with obs.stage(
        "vpr.sweep",
        executor=executor.name,
        jobs=executor.width(),
        items=len(clusters) * n_cand,
        chunk_size=chunk_size,
    ):
        try:
            failed = _collect(
                framework, executor, clusters, pending, chunk_size, settle
            )
        finally:
            executor.close()
        for c, k, error in failed:
            obs.count("vpr.worker.error")
            obs.event("worker.error", cluster=c, candidate=k, error=error)
        # An inline attempt is one of the item's ATTEMPTS in this
        # process; an attempt in a worker process is not.
        tried = 0 if executor.crosses_process else 1
        while failed:
            if tried == ATTEMPTS:
                for c, k, error in failed:
                    obs.count("vpr.item.terminal")
                    obs.event(
                        "vpr.item.failed", cluster=c, candidate=k,
                        attempts=ATTEMPTS, error=error,
                    )
                c, k, error = min(failed)
                raise VPRSweepError(
                    f"V-P&R evaluation of cluster {c}, candidate {k} "
                    f"({config.candidates[k]}) failed after {ATTEMPTS} "
                    f"attempt(s): {error}"
                )
            if tried:
                for c, k, _error in failed:
                    obs.count("vpr.item.retry")
                    obs.event(
                        "vpr.item.retry", cluster=c, candidate=k, attempt=tried
                    )
            failed = _collect(
                framework, inline, clusters, [(c, k) for c, k, _e in failed],
                config.chunk_size or n_cand, settle,
            )
            tried += 1
    return slots


def _collect(
    framework: VPRFramework, executor: SweepExecutor, clusters: Clusters,
    items: List[Tuple[int, int]], chunk_size: int, settle: Callable[..., None],
) -> List[Tuple[int, int, str]]:
    """One attempt at each of ``items`` on ``executor``: ``settle``
    what succeeds, return what failed or was lost as ``(cluster,
    candidate, error)``."""
    candidates = framework.config.candidates
    chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
    resolved = executor.map_chunks(
        _sweep_state(framework, executor, clusters), chunks, _evaluate_chunk
    )
    if executor.crosses_process:
        resolved = _until_executor_fails(resolved, chunks)
    failed: List[Tuple[int, int, str]] = []
    for index, outcomes in resolved:
        for (c, k), outcome in zip(chunks[index], outcomes):
            faults.check("vpr.collect", key=f"{c}/{k}")
            # A crashed item still contributes the partial counters
            # and spans its worker recorded up to the failure point.
            obs.merge_worker(outcome.recorded)
            if outcome.error is not None:
                failed.append((c, k, outcome.error))
                continue
            evaluation = CandidateEvaluation(
                candidates[k], outcome.hpwl_cost, outcome.congestion_cost
            )
            settle(c, k, evaluation, outcome.seconds)
    return failed


def _executor_failed(exc: OSError) -> None:
    """Record that the sweep's executor could not run (once a sweep)."""
    obs.count("vpr.executor.fallback")
    obs.event("vpr.executor_fallback", executor="fleet", error=repr(exc))


def _until_executor_fails(
    resolved: Iterator[Tuple[int, List[ItemOutcome]]],
    chunks: Sequence[Sequence[Tuple[int, int]]],
) -> Iterator[Tuple[int, List[ItemOutcome]]]:
    """An executor's ``(chunk_index, outcomes)`` pairs, then, should
    its iteration raise :class:`OSError`, lost outcomes for every chunk
    it has not returned.  What the consumer raises is not caught."""
    returned = set()
    try:
        for index, outcomes in resolved:
            returned.add(index)
            yield index, outcomes
    except OSError as exc:
        _executor_failed(exc)
        for index, chunk in enumerate(chunks):
            if index not in returned:
                yield index, [ItemOutcome.lost(repr(exc))] * len(chunk)


# ----------------------------------------------------------------------
# The chunk evaluator (every executor runs this) and worker set-up
# ----------------------------------------------------------------------
def _sweep_state(
    framework: VPRFramework, executor: SweepExecutor, clusters: Clusters
) -> dict:
    """What the chunk evaluator (:func:`_evaluate_chunk`) works on.

    In process that is the framework and the live sub-netlists.
    Across a process boundary it is the ``header`` and ``columns`` of
    one :mod:`repro.codec` frame each worker receives **once**, so a
    work item ships only two integers: the config's
    :meth:`VPRConfig.result_fingerprint`, and per cluster its cell area
    and the header of a snapshot of its flat form, whose columns go in
    as ``"<cluster>/<column>"``.  The snapshots are built here in the
    parent, so no worker walks a netlist.  Neither store is part of
    it: workers only compute.
    """
    config = framework.config
    if not executor.crosses_process:
        return {"_framework": framework, "config": config, "clusters": clusters}
    entries, columns = [], {}
    for c, (sub, area) in clusters.items():
        snap = design_snapshot(sub)
        entries.append(
            {
                "id": int(c),
                "area": float(area),
                "form": snap["form"],
                "header": snap["header"],
            }
        )
        columns.update((f"{c}/{n}", v) for n, v in snap["columns"].items())
    header = {
        "config": config.result_fingerprint(),
        "clusters": entries,
        "item_timeout": executor.item_timeout,
        "obs": obs.worker_descriptor(),
    }
    return {"header": header, "columns": columns}


@contextmanager
def _item_alarm(timeout: Optional[float]):
    """Bound a work item's wall-clock via SIGALRM (worker processes
    only — they run their items on the main thread, where signal
    delivery is guaranteed; the inline executor passes no timeout and
    never gets here).

    Nests correctly: a caller's pending ``ITIMER_REAL`` is captured on
    entry (``setitimer`` returns the old value) and re-armed on exit
    with the elapsed time deducted, so an outer timeout keeps ticking
    instead of being silently cancelled.  An outer timer that would
    have expired while this one was armed fires immediately after the
    outer handler is restored.
    """
    if not timeout or timeout <= 0:
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(f"V-P&R item exceeded item_timeout={timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outer_delay, outer_interval = signal.setitimer(
        signal.ITIMER_REAL, timeout
    )
    armed_at = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay > 0.0:
            remaining = outer_delay - (time.monotonic() - armed_at)
            # Already-overdue outer timers get an epsilon delay (zero
            # would disarm the timer entirely).
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining, 1e-6), outer_interval
            )


def _setup_worker(header: dict, columns: dict) -> dict:
    """A worker process's sweep state, rebuilt from the frame
    :func:`_sweep_state` shipped it: each sub's columns are decoded
    from its snapshot once per worker, with no object view.
    ``ValueError`` when the frame is not a well-formed sweep state."""
    subs: Dict[str, dict] = {}
    for name, column in columns.items():
        c, _, column_name = name.partition("/")
        subs.setdefault(c, {})[column_name] = column
    try:
        config = VPRConfig.from_result_fingerprint(dict(header["config"]))
        clusters = {}
        for entry in header["clusters"]:
            snapshot = {
                "form": entry["form"],
                "header": entry["header"],
                "columns": subs.get(str(entry["id"]), {}),
            }
            sub = netlist_from_snapshot(snapshot)
            clusters[int(entry["id"])] = (sub, float(entry["area"]))
        timeout = header["item_timeout"] and float(header["item_timeout"])
        descriptor = {k: bool(header["obs"][k]) for k in ("timers", "telemetry")}
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed sweep state: {exc!r}") from exc
    # From here on this process records only its own activity, in the
    # outputs the parent has on.
    obs.adopt_worker(descriptor)
    return {
        "_framework": VPRFramework(config),
        "_worker": True,
        "config": config,
        "clusters": clusters,
        "item_timeout": timeout,
    }


def _cluster_run_worker(
    state: dict, cluster_id: int, indices: Sequence[int]
) -> List[ItemOutcome]:
    """Evaluate a run of one cluster's work items: one attempt at
    each, in the calling process (inline) or a worker process.

    Per item, first, the ``vpr.item`` fault site fires.  The items
    left are evaluated as one lockstep batch; if the batch raises they
    are evaluated one by one — still the same attempt — so
    exceptions stay contained per item: a failed item reports ``error``
    with NaN costs instead of poisoning its batch-mates.  Nothing here
    reads or writes a store (stored items never become work items;
    :func:`_settle` does the writing).  In a worker process
    (``state["item_timeout"]``) each of those steps runs under the
    item's own SIGALRM timeout, the batch under the timeout times its
    size, and the counters and telemetry the whole run recorded (also
    up to a failure) ride back on its first item's ``recorded``.
    """
    framework: VPRFramework = state["_framework"]
    sub, cell_area = state["clusters"][cluster_id]
    candidates = state["config"].candidates
    item_timeout = state.get("item_timeout")
    heartbeat = state.get("_heartbeat")

    def outcome_of(evaluation, seconds):
        return ItemOutcome(
            evaluation.hpwl_cost,
            evaluation.congestion_cost,
            seconds,
            evaluation.error,
        )

    def contained(call):
        """``call()`` under the item timeout; a raise becomes an error
        outcome."""
        start = time.perf_counter()
        try:
            with _item_alarm(item_timeout):
                return call()
        except Exception as exc:
            return ItemOutcome.lost(repr(exc), time.perf_counter() - start)

    def admit(k):
        """The item's fault site; None admits it to the batch."""
        faults.check("vpr.item", key=f"{cluster_id}/{k}")

    def alone(k):
        start = time.perf_counter()
        evaluation = framework.evaluate_candidate(
            sub, cell_area, candidates[k], cluster_id=cluster_id
        )
        return outcome_of(evaluation, time.perf_counter() - start)

    outcome: Dict[int, Optional[ItemOutcome]] = {}
    for k in indices:
        if heartbeat is not None:
            heartbeat.beat("start", item=f"{cluster_id}/{k}")
        outcome[k] = contained(lambda: admit(k))
    batch = [k for k in indices if outcome[k] is None]
    if batch:
        start = time.perf_counter()
        try:
            with _item_alarm((item_timeout or 0) * len(batch)):
                faults.check("vpr.batch", key=cluster_id)
                evaluations = framework.evaluate_candidates(
                    sub,
                    cell_area,
                    [candidates[k] for k in batch],
                    cluster_id=cluster_id,
                )
        except Exception:
            for k in batch:
                outcome[k] = contained(lambda: alone(k))
        else:
            seconds = (time.perf_counter() - start) / len(batch)
            for k, evaluation in zip(batch, evaluations):
                outcome[k] = outcome_of(evaluation, seconds)

    results = [outcome[k] for k in indices]
    if heartbeat is not None:
        for k, result in zip(indices, results):
            heartbeat.beat(
                "done", item=f"{cluster_id}/{k}", error=result.error
            )
    if state.get("_worker"):
        results[0] = results[0]._replace(recorded=obs.worker_payload())
    return results


def _evaluate_chunk(
    state: dict, items: Sequence[Tuple[int, int]]
) -> List[ItemOutcome]:
    """Evaluate a chunk of (cluster, candidate) items on sweep state
    (:func:`_sweep_state`): each run of same-cluster items is one
    lockstep batch.  Chunking only changes scheduling granularity,
    never results."""
    results: List[ItemOutcome] = []
    for cluster_id, run in itertools.groupby(items, key=lambda item: item[0]):
        results.extend(
            _cluster_run_worker(state, cluster_id, [k for _c, k in run])
        )
    return results
