"""The global placer: B2B quadratic solves + density spreading.

Supports the three modes Algorithm 1 needs:

* full global placement (the "default flow" baseline),
* seeded + incremental placement (instances pre-seeded at their cluster
  centres, anchored to the seed, few refinement iterations),
* region-constrained placement (Innovus mode).

One run places K *systems* in lockstep: the K virtual dies of a stacked
:class:`PlacementProblem` (a V-P&R cluster's shape candidates), or the
single system of an ordinary one.  Every solve/spread round is one call
into the batch-native kernels for all systems still iterating (x and y
axes stacked, so 2K quadratic systems per solve); a system leaves the
lockstep at the round its own overflow test passes, exactly where a
lone run of it would stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from repro import obs, telemetry
from repro.place.b2b import b2b_edges, solve_axis
from repro.place.hpwl import hpwl_arrays
from repro.place.problem import PlacementProblem
from repro.place.regions import RegionConstraint, clamp_regions
from repro.place.spreading import DensityGrid, spread_displacement, spreading_targets


@dataclass
class PlacerConfig:
    """Placer knobs.

    Attributes:
        max_iterations: Upper bound on solve/spread rounds.
        min_iterations: Rounds run before the overflow exit can fire.
        target_overflow: Stop once bin overflow falls below this.
        target_density: Bin density ceiling used by the overflow metric.
        anchor_base: Initial pseudo-net anchor weight.
        anchor_growth: Multiplicative anchor ramp per iteration.
        spread_strength: Damping of the per-round spreading move.
        incremental: Start from the problem's current coordinates and
            anchor to them instead of running from scratch.
        incremental_anchor: Seed anchor weight in incremental mode.
        seed_decay: Per-iteration decay of the seed anchor.
        region_iterations: Enforce region constraints only for this
            many leading iterations (None = all iterations).  The
            Innovus-mode flow steers the early incremental rounds with
            the cluster regions, then releases them (Algorithm 1,
            line 20) so density resolution is unconstrained.
        soft_regions: Apply regions by clamping the anchor *targets*
            into the region (a soft spring toward the region interior,
            approximating how commercial placers treat region guides)
            instead of hard-clamping positions after every solve.
        telemetry: Prefix of the QoR streams this run emits per
            iteration (``<prefix>.hpwl``, ``<prefix>.overflow``,
            ``<prefix>.spread_move``) when :mod:`repro.telemetry` is
            enabled.  None mutes the run — the V-P&R engine mutes its
            hundreds of virtual-die placements so the flow-level
            ``gp.*`` convergence streams stay clean.
        seed: RNG seed for the initial jitter.
    """

    max_iterations: int = 44
    min_iterations: int = 6
    target_overflow: float = 0.08
    target_density: float = 1.0
    anchor_base: float = 2e-4
    anchor_growth: float = 1.30
    spread_strength: float = 0.8
    incremental: bool = False
    incremental_iterations: int = 18
    incremental_anchor: float = 2e-3
    incremental_growth: float = 1.5
    seed_decay: float = 0.6
    region_iterations: Optional[int] = None
    soft_regions: bool = True
    telemetry: Optional[str] = "gp"
    seed: int = 0


@dataclass
class PlacementResult:
    """Outcome of one placement run.

    Attributes:
        hpwl: Final unweighted HPWL (microns).
        iterations: Rounds executed.
        overflow: Final bin overflow.
        runtime: Wall-clock seconds.
        hpwl_trace: HPWL after every round (for convergence tests).
        error: Why the run was abandoned (a B2B solve went NaN/inf and
            the coordinates are not usable), None for a normal run.
    """

    hpwl: float
    iterations: int
    overflow: float
    runtime: float
    hpwl_trace: List[float] = field(default_factory=list)
    error: Optional[str] = None


class GlobalPlacer:
    """Analytical global placer over a :class:`PlacementProblem`."""

    def __init__(
        self,
        problem: PlacementProblem,
        config: Optional[PlacerConfig] = None,
        regions: Optional[Sequence[RegionConstraint]] = None,
    ) -> None:
        self.problem = problem
        self.config = config or PlacerConfig()
        self.regions = list(regions or [])
        self.grid = DensityGrid.for_problem(
            problem.core_boxes(), int(problem.movable.sum())
        )

    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        """Start all movables near the core centre with tiny jitter.

        The jitter is one standard-normal draw per axis scaled by each
        system's core size — ``rng.normal(0, s, n)`` is ``s`` times the
        same draw — so every system gets what a lone run seeds it with.
        """
        problem = self.problem
        cores = self.grid.floorplan
        rng = np.random.default_rng(self.config.seed)
        mask = problem.movable
        n = int(mask.sum())
        cx = 0.5 * (cores.core_llx + cores.core_urx)
        cy = 0.5 * (cores.core_lly + cores.core_ury)
        self._x[:, mask] = cx + 0.02 * cores.core_width * rng.standard_normal(n)
        self._y[:, mask] = cy + 0.02 * cores.core_height * rng.standard_normal(n)
        # Seed region members inside their regions.
        for region in self.regions:
            ids = np.asarray(region.vertex_ids, dtype=np.int64)
            if len(ids) == 0:
                continue
            rcx, rcy = region.center
            self._x[:, ids] = rcx + 0.1 * max(region.width, 1e-3) * rng.standard_normal(len(ids))
            self._y[:, ids] = rcy + 0.1 * max(region.height, 1e-3) * rng.standard_normal(len(ids))
        problem.clip_to_core()

    def _solve_round(
        self,
        anchor_x: Optional[np.ndarray],
        anchor_y: Optional[np.ndarray],
        anchor_w: Optional[np.ndarray],
        apply_regions: bool = True,
    ) -> None:
        """One B2B linearized quadratic solve of every active system's
        x and y axes (anchors are rows over the active systems)."""
        problem = self.problem
        active = self._active
        coords = np.concatenate([self._x[active], self._y[active]])
        anchors = None
        if anchor_x is not None:
            anchors = np.concatenate([anchor_x, anchor_y])
        u, v, w = b2b_edges(
            problem.pin_vertex, problem.net_offsets, problem.net_weights, coords
        )
        solved = solve_axis(u, v, w, coords, problem.fixed, anchors, anchor_w)
        self._x[active] = solved[: len(active)]
        self._y[active] = solved[len(active) :]
        failed = ~np.isfinite(solved).all(axis=1)
        if failed.any():
            failed = failed[: len(active)] | failed[len(active) :]
            for system in active[failed]:
                self._errors[system] = "non-finite B2B solve"
            self._active = active[~failed]
        problem.clip_to_core()
        if apply_regions:
            clamp_regions(self.regions, problem.x, problem.y)

    # ------------------------------------------------------------------
    def run(self) -> Union[PlacementResult, List[PlacementResult]]:
        """Run global placement.

        An ordinary problem gets its coordinates committed to the
        design and one :class:`PlacementResult` back; when its solve
        went non-finite, :class:`FloatingPointError` is raised instead
        and the design keeps its coordinates.  A stacked problem gets
        one result per system and no commit (its rows,
        ``problem.x[k]`` / ``problem.y[k]``, are the K placements).
        """
        problem = self.problem
        config = self.config
        mode = "incremental" if config.incremental else "full"
        stacked = problem.x.ndim == 2
        # Row views: every update below is in place, so an ordinary
        # problem's (n,) arrays follow along.
        self._x = np.atleast_2d(problem.x)
        self._y = np.atleast_2d(problem.y)
        systems = len(self._x)
        self._active = np.arange(systems)
        self._errors: List[Optional[str]] = [None] * systems
        self._traces: List[List[float]] = [[] for _ in range(systems)]
        self._iterations = np.zeros(systems, dtype=np.int64)
        self._overflow = np.ones(systems)

        # Progress mirrors the QoR-stream muting: the V-P&R engine's
        # hundreds of virtual-die placements (telemetry=None) stay
        # invisible; only the flow-level gp/gp.cluster runs report.
        # Rounds count the initial solve plus the bounded loop; an
        # early convergence exit clamps the total on complete().
        if config.telemetry is not None:
            bound = (
                config.incremental_iterations
                if config.incremental
                else config.max_iterations
            )
            obs.start_task(
                f"{config.telemetry}.iters", bound + 1, unit="rounds"
            )
        try:
            with obs.stage(
                "place.global",
                mode=mode,
                movable=int(problem.movable.sum()),
                systems=systems,
            ) as stage:
                if config.incremental:
                    self._run_incremental()
                else:
                    self._run_full()
        finally:
            if config.telemetry is not None:
                obs.complete(f"{config.telemetry}.iters")

        results = [
            PlacementResult(
                hpwl=float("nan") if error else trace[-1],
                iterations=int(iterations),
                overflow=float(overflow),
                runtime=stage.elapsed,
                hpwl_trace=trace,
                error=error,
            )
            for trace, iterations, overflow, error in zip(
                self._traces, self._iterations, self._overflow, self._errors
            )
        ]
        if config.telemetry is not None:
            for result in results:
                converged = result.overflow < config.target_overflow
                obs.event(
                    "placement.converged" if converged else "placement.diverged",
                    mode=mode,
                    iterations=result.iterations,
                    overflow=result.overflow,
                    hpwl=result.hpwl,
                )

        if stacked:
            return results
        if results[0].error is not None:
            raise FloatingPointError(results[0].error)
        problem.commit()
        return results[0]

    def _telemetry_on(self) -> bool:
        return self.config.telemetry is not None and telemetry.is_enabled()

    def _active_grid(self) -> DensityGrid:
        """The density grid over the active systems' core boxes."""
        return replace(self.grid, floorplan=self.grid.floorplan.take(self._active))

    def _spread(self):
        """Spreading targets of the active systems (rows), plus the
        ``spread_move`` signal when telemetry wants it."""
        problem = self.problem
        active = self._active
        x, y = self._x[active], self._y[active]
        target_x, target_y = spreading_targets(
            self._active_grid(),
            x,
            y,
            problem.areas,
            problem.movable,
            strength=self.config.spread_strength,
        )
        spread_move = None
        if self._telemetry_on():
            spread_move = dict(
                zip(
                    active.tolist(),
                    spread_displacement(target_x, target_y, x, y, problem.movable),
                )
            )
        return target_x, target_y, spread_move

    def _measure_round(self, iteration: int, spread_move=None) -> np.ndarray:
        """Record HPWL (and, past round 0, overflow) of the systems
        that just solved; returns their overflow."""
        problem = self.problem
        active = self._active
        if not len(active):
            return np.empty(0)
        x, y = self._x[active], self._y[active]
        hpwl = hpwl_arrays(problem.pin_vertex, problem.net_offsets, x, y)
        overflow = None
        if iteration:
            overflow = self._active_grid().overflow(
                x, y, problem.areas, problem.movable, self.config.target_density
            )
            self._overflow[active] = overflow
        self._iterations[active] = iteration
        for row, system in enumerate(active.tolist()):
            self._traces[system].append(float(hpwl[row]))
            self._observe_round(
                iteration,
                self._traces[system][-1],
                None if overflow is None else float(overflow[row]),
                None if spread_move is None else float(spread_move[system]),
            )
        return overflow

    def _observe_round(
        self,
        iteration: int,
        hpwl_value: float,
        overflow: Optional[float],
        spread_move: Optional[float],
    ) -> None:
        """Emit one iteration's QoR stream points (muted when
        ``config.telemetry`` is None or telemetry is disabled)."""
        prefix = self.config.telemetry
        if prefix is not None:
            obs.set_done(f"{prefix}.iters", iteration + 1)
        if not self._telemetry_on():
            return
        obs.observe(f"{prefix}.hpwl", hpwl_value, step=iteration)
        if overflow is not None:
            obs.observe(f"{prefix}.overflow", overflow, step=iteration)
        if spread_move is not None:
            obs.observe(f"{prefix}.spread_move", spread_move, step=iteration)

    def _run_full(self) -> None:
        problem = self.problem
        config = self.config
        self._initialize()

        # Round 0: pure wirelength solve (no anchors).
        self._solve_round(None, None, None)
        self._measure_round(0)

        anchor_w_scalar = config.anchor_base
        for iteration in range(1, config.max_iterations + 1):
            if not len(self._active):
                break
            target_x, target_y, spread_move = self._spread()
            weights = np.full(problem.num_vertices, anchor_w_scalar)
            self._solve_round(target_x, target_y, weights)
            overflow = self._measure_round(iteration, spread_move)
            if iteration >= config.min_iterations:
                self._active = self._active[~(overflow < config.target_overflow)]
            anchor_w_scalar *= config.anchor_growth

    def _run_incremental(self) -> None:
        """Refine from the problem's current (seeded) coordinates.

        Same solve/spread loop as the full run, but (i) the initial
        free solve is skipped (the seed already encodes the global
        structure), (ii) a decaying anchor to the seed positions keeps
        that structure while density resolves, and (iii) the spreading
        anchor starts strong so the run converges to the same overflow
        target in fewer rounds than a from-scratch placement.
        """
        problem = self.problem
        config = self.config
        problem.clip_to_core()
        clamp_regions(self.regions, problem.x, problem.y)
        seed_x = self._x.copy()
        seed_y = self._y.copy()
        seed_w = config.incremental_anchor

        self._measure_round(0)
        anchor_w_scalar = config.anchor_base * 32
        for iteration in range(1, config.incremental_iterations + 1):
            if not len(self._active):
                break
            active = self._active
            target_x, target_y, spread_move = self._spread()
            # Blend the (decaying) seed anchor with the (growing)
            # spreading anchor.
            total_w = anchor_w_scalar + seed_w
            blend = anchor_w_scalar / total_w
            anchor_x = blend * target_x + (1 - blend) * seed_x[active]
            anchor_y = blend * target_y + (1 - blend) * seed_y[active]
            weights = np.full(problem.num_vertices, total_w)
            regions_active = (
                config.region_iterations is None
                or iteration <= config.region_iterations
            )
            if regions_active and config.soft_regions:
                clamp_regions(self.regions, anchor_x, anchor_y)
            self._solve_round(
                anchor_x,
                anchor_y,
                weights,
                apply_regions=regions_active and not config.soft_regions,
            )
            overflow = self._measure_round(iteration, spread_move)
            if iteration >= 2:
                self._active = self._active[~(overflow < config.target_overflow)]
            anchor_w_scalar *= config.incremental_growth
            seed_w *= config.seed_decay
