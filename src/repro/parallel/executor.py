"""Thread-parallel IDG pipeline (paper Section V-B).

``ParallelIDG`` wraps a :class:`repro.core.IDG` and distributes *work groups*
over a thread pool: one future per work group computes that group's
Fourier-domain subgrids (the BLAS matrix products and FFTs inside release the
GIL), and the main thread merges results onto the master grid **in ascending
work-group order** — an in-order retirement loop over the futures, so the
pool acts as its own reorder buffer.  Because the adder therefore accumulates
groups in exactly the serial executor's plan order (and the row-partitioned
adder keeps each pixel's within-group addition order unchanged), the parallel
result is bit-identical to :meth:`repro.core.IDG.grid` — the property the
cross-executor conformance suite pins.  Degridding needs no merging at all —
work items write disjoint visibility blocks — mirroring the paper's
observation that the splitter/degridder side is trivially parallel.

Every work group runs the one stage program of
:mod:`repro.runtime.program`; this module only schedules it.  Failure
semantics come from that program's runner: by default the first failing
stage raises :class:`WorkGroupError` naming the work group and its plan
range, an abort flag stops not-yet-started groups from touching the backend
(so a doomed run does not grind through every remaining batch first), and
the causal error is chained.  ``KeyboardInterrupt`` during the merge loop
cancels the pool the same way.  With fault tolerance active
(``IDGConfig.max_retries > 0`` or an injected
:class:`~repro.runtime.faults.FaultPlan`) failures are instead retried and,
on budget exhaustion, quarantined per work group — see
:mod:`repro.runtime.recovery` and DESIGN.md §11.

.. note::
   This is the simple data-parallel executor kept for the Section V-B CPU
   comparison.  The pipelined successor — overlapping gridder, FFT and adder
   stages through bounded buffers, with telemetry — is
   :class:`repro.runtime.StreamingIDG`; the multi-process successor is
   :class:`repro.parallel.process.ProcessShardedIDG`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.core.pipeline import IDG
from repro.core.plan import Plan
from repro.runtime.faults import FaultPlan
from repro.runtime.program import WorkGroupProgram
from repro.runtime.recovery import FaultReport, WorkGroupError

__all__ = ["ParallelIDG", "WorkGroupError"]


class ParallelIDG:
    """Work-group-parallel gridding/degridding.

    Parameters
    ----------
    idg:
        The configured single-threaded pipeline to parallelise (also
        supplies the retry policy via ``IDGConfig.max_retries`` /
        ``retry_backoff_s``).
    n_workers:
        Worker threads; defaults to every logical core (the paper uses all
        of them).
    faults:
        Optional deterministic fault-injection plan (tests, benchmarks).

    The fault report of the most recent tolerant run is kept on
    ``last_fault_report`` (``None`` when the runner failed fast).
    """

    def __init__(
        self,
        idg: IDG,
        n_workers: int | None = None,
        faults: FaultPlan | None = None,
    ):
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.idg = idg
        self.n_workers = n_workers
        self.faults = faults
        self.last_fault_report: FaultReport | None = None

    # ------------------------------------------------------------- internal

    def _schedule(
        self,
        program: WorkGroupProgram,
        compute: Callable[[int], Any],
        retire: Callable[[int, Any], None],
    ) -> None:
        """Run ``compute(group)`` for every work group on the pool and hand
        each result to ``retire`` on this thread in ascending group order —
        the pool is its own reorder buffer."""
        abort = threading.Event()

        def task(group: int) -> Any:
            if abort.is_set():
                # The run is doomed; don't grind through the rest.  Groups
                # are retired in order, so the failure surfaces first.
                return None
            try:
                return compute(group)
            except BaseException:
                abort.set()
                raise

        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            futures = [pool.submit(task, g) for g in range(len(program.groups))]
            try:
                for group, future in enumerate(futures):
                    retire(group, future.result())
            except BaseException:  # noqa: B036 — incl. KeyboardInterrupt
                # Cancel queued futures and flag in-flight workers to stop
                # before touching the backend, then re-raise the causal error.
                abort.set()
                for future in futures:
                    future.cancel()
                raise

    # ------------------------------------------------------------- gridding

    def grid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        visibilities: np.ndarray,
        aterms: ATermGenerator | None = None,
        grid: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Parallel equivalent of :meth:`repro.core.IDG.grid` (same keywords).

        One future per work group computes its gridder + subgrid FFT; the
        merge loop retires futures in ascending group order, so the master
        grid accumulates contributions in exactly the serial plan order
        (bit-identical result; the row-parallel adder preserves each pixel's
        within-group addition order) while the pool keeps gridding ahead.
        """
        program = WorkGroupProgram.gridding(
            self.idg, plan, uvw_m, visibilities, aterms=aterms, grid=grid,
            flags=flags, aterm_fields=aterm_fields, faults=self.faults,
        )
        self.last_fault_report = program.fault_report

        def retire(group: int, fourier: Any) -> None:
            # Retired groups' mmap pages are dead weight; evict them so
            # resident memory tracks the groups in flight.
            program.drop_caches()
            program.adder(group, fourier, n_workers=self.n_workers)

        self._schedule(program, program.grid_group, retire)
        return program.finish()

    # ----------------------------------------------------------- degridding

    def degrid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        grid: np.ndarray,
        aterms: ATermGenerator | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Parallel equivalent of :meth:`repro.core.IDG.degrid` (same keywords).

        Work items cover disjoint (baseline, time, channel) blocks, so all
        workers write into the shared output without synchronisation (each
        visibility is written exactly once — no accumulation, hence
        bit-identical to serial regardless of completion order).
        """
        program = WorkGroupProgram.degridding(
            self.idg, plan, uvw_m, grid, aterms=aterms,
            aterm_fields=aterm_fields, out=out, faults=self.faults,
        )
        self.last_fault_report = program.fault_report
        self._schedule(program, program.degrid_group, lambda group, done: None)
        return program.finish()
