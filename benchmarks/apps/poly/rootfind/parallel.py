"""The parallel rootfinder (paper section 4.3, Table I).

"A parallel version of this algorithm was created by making several
choices for the starting value and executing them in parallel."

:class:`ParallelRootfinder` races several angle-seeded Jenkins-Traub runs
as Multiple Worlds alternatives. :meth:`table_one` regenerates the
paper's Table I: for each process count, the sequential per-seed max /
min / avg CPU times, the number of failing seeds, and the parallel
wall-clock time (``par``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from apps.poly.rootfind.jenkins_traub import JTOptions, find_all_zeros
from apps.poly.rootfind.polynomial import Polynomial
from repro.core.alternative import Alternative, Guard
from repro.core.outcome import BlockOutcome
from repro.core.worlds import run_alternatives
from apps.errors import ConvergenceError


@dataclass
class RootfinderRun:
    """One angle-seeded full run of the zero finder."""

    seed: int
    elapsed_s: float
    failed: bool
    zeros: list[complex] = field(default_factory=list)
    angle_tries: int = 0


@dataclass
class TableOneRow:
    """One row of the paper's Table I."""

    procs: int
    max_s: float
    min_s: float
    avg_s: float
    fails: int
    par_s: float

    def as_tuple(self) -> tuple:
        return (self.procs, self.max_s, self.min_s, self.avg_s, self.fails, self.par_s)

    def __str__(self) -> str:
        return (
            f"{self.procs:>5} {self.max_s:8.3f} {self.min_s:8.3f} "
            f"{self.avg_s:8.3f} {self.fails:>5} {self.par_s:8.3f}"
        )


def default_table_polynomial(degree: int = 17, seed: int = 2026) -> Polynomial:
    """A test polynomial with clustered + scattered roots.

    Clusters make some starting angles converge slowly or fail, giving
    the per-angle runtime dispersion Table I depends on.
    """
    rng = np.random.default_rng(seed)
    roots = []
    # a tight cluster near 1+0.5j
    for _ in range(degree // 3):
        roots.append(1.0 + 0.5j + 0.01 * (rng.normal() + 1j * rng.normal()))
    # a ring of moderate roots
    while len(roots) < degree:
        theta = rng.uniform(0, 2 * np.pi)
        radius = rng.uniform(0.5, 3.0)
        roots.append(radius * np.exp(1j * theta))
    return Polynomial.from_roots(roots[:degree])


def _run_one(poly: Polynomial, seed: int, options: JTOptions) -> RootfinderRun:
    t0 = time.perf_counter()
    report = find_all_zeros(poly, options=options, seed=seed)
    return RootfinderRun(
        seed=seed,
        elapsed_s=time.perf_counter() - t0,
        failed=report.failed,
        zeros=report.zeros,
        angle_tries=report.angle_tries,
    )


class ParallelRootfinder:
    """Race angle-seeded Jenkins-Traub runs under Multiple Worlds."""

    def __init__(
        self,
        poly: Polynomial | None = None,
        options: JTOptions | None = None,
    ) -> None:
        self.poly = poly if poly is not None else default_table_polynomial()
        #: a deliberately tight budget so that, as in the paper's runs,
        #: some starting choices fail outright (Table I's ``fails``)
        self.options = options if options is not None else JTOptions(
            stage2_max_iterations=40,
            stage3_max_iterations=25,
            max_angle_tries=2,
        )

    # -- sequential measurements ------------------------------------------
    def sequential_run(self, seed: int) -> RootfinderRun:
        """One angle-seeded run, timed on this CPU."""
        return _run_one(self.poly, seed, self.options)

    def sequential_runs(self, seeds: Sequence[int]) -> list[RootfinderRun]:
        return [self.sequential_run(s) for s in seeds]

    # -- parallel execution ----------------------------------------------------
    def alternatives(self, seeds: Sequence[int]) -> list[Alternative]:
        alts = []
        for seed in seeds:
            def body(ws: dict, _seed=seed) -> float:
                report = find_all_zeros(self.poly, options=self.options, seed=_seed)
                if report.failed:
                    raise ConvergenceError(report.failure_reason)
                ws["zeros"] = report.zeros
                ws["seed"] = _seed
                return _seed

            alts.append(
                Alternative(
                    body,
                    name=f"angle-seed-{seed}",
                    guard=Guard(name="found-all-zeros"),
                )
            )
        return alts

    def parallel_run(
        self,
        seeds: Sequence[int],
        backend: str = "fork",
        timeout: float | None = None,
        **kwargs,
    ) -> BlockOutcome:
        """Race the seeds; the first complete zero set wins."""
        return run_alternatives(
            self.alternatives(seeds),
            initial={},
            timeout=timeout,
            backend=backend,
            **kwargs,
        )

    # -- Table I -------------------------------------------------------------------
    def _parallel_sim(
        self, runs: Sequence[RootfinderRun], processors: int, obs=None
    ) -> float:
        """Trace-driven parallel wall clock on a simulated machine.

        The paper ran on a 2-processor Ardent Titan; this host may have
        fewer CPUs than alternatives (often just one), so the parallel
        row is replayed on the simulation kernel: each alternative's
        *measured* sequential CPU time becomes its virtual compute cost
        (failing seeds abort after their measured time), ``processors``
        virtual CPUs timeshare them, and the calibrated fork/elimination
        overheads apply. See DESIGN.md section 3 for this substitution.
        """
        alternatives = []
        for run in runs:
            def body(ws: dict, _run=run):
                if _run.failed:
                    raise ConvergenceError("angle choice failed")
                ws["seed"] = _run.seed
                return _run.seed

            alternatives.append(
                Alternative(body, name=f"angle-seed-{run.seed}",
                            sim_cost=run.elapsed_s)
            )
        outcome = run_alternatives(
            alternatives, initial={}, backend="sim", cpus=processors, obs=obs
        )
        if outcome.failed:
            return float("nan")
        return outcome.elapsed_s

    def table_one_row(
        self,
        procs: int,
        base_seed: int = 0,
        backend: str = "sim",
        processors: int = 2,
        obs=None,
    ) -> TableOneRow:
        """One Table I row: sequential stats + parallel wall clock.

        ``backend="sim"`` (default) replays the measured per-seed times
        on a simulated ``processors``-CPU machine (the paper's 2-CPU
        Titan). ``backend="fork"`` really executes the race on this host,
        optionally pinned to ``processors`` CPUs when
        ``os.sched_setaffinity`` allows. ``obs`` (an
        :class:`~repro.obs.Observability`) traces the parallel race.
        """
        seeds = [base_seed + i for i in range(procs)]
        runs = self.sequential_runs(seeds)
        times = [r.elapsed_s for r in runs]
        fails = sum(1 for r in runs if r.failed)

        if backend == "sim":
            par = self._parallel_sim(runs, processors, obs=obs)
        else:
            restore_affinity = None
            if processors is not None and hasattr(os, "sched_setaffinity"):
                current = os.sched_getaffinity(0)
                if len(current) > processors:
                    restore_affinity = current
                    os.sched_setaffinity(0, set(list(current)[:processors]))
            try:
                t0 = time.perf_counter()
                outcome = self.parallel_run(seeds, backend=backend, obs=obs)
                par = time.perf_counter() - t0
                if outcome.failed:
                    par = float("nan")
            finally:
                if restore_affinity is not None:
                    os.sched_setaffinity(0, restore_affinity)

        return TableOneRow(
            procs=procs,
            max_s=max(times),
            min_s=min(times),
            avg_s=sum(times) / len(times),
            fails=fails,
            par_s=par,
        )

    def table_one(
        self,
        procs_list: Sequence[int] = (1, 2, 3, 4, 5, 6),
        base_seed: int = 0,
        backend: str = "sim",
        processors: int = 2,
    ) -> list[TableOneRow]:
        """The full Table I sweep."""
        return [
            self.table_one_row(p, base_seed=base_seed, backend=backend,
                               processors=processors)
            for p in procs_list
        ]


def render_table_one(rows: Sequence[TableOneRow]) -> str:
    """Fixed-width rendering matching the paper's column layout."""
    header = f"{'procs':>5} {'max':>8} {'min':>8} {'avg':>8} {'fails':>5} {'par':>8}"
    return "\n".join([header] + [str(r) for r in rows])
