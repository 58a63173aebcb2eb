"""The per-work-group program every executor runs (paper Figs 4 and 6).

One grid call is, per work group, gridder -> subgrid FFT -> adder; one
degrid call is splitter -> subgrid iFFT -> degridder.  :class:`WorkGroupProgram`
holds that program once — prologue, stage calls, epilogue — and the four
executors only decide when each stage call runs: :class:`repro.core.IDG`
in a plain loop, :class:`~repro.parallel.executor.ParallelIDG` on a thread
pool, :class:`~repro.runtime.StreamingIDG` in a credit-gated stage graph,
:class:`~repro.parallel.process.ProcessShardedIDG` in worker processes.

Every stage call runs through the program's
:class:`~repro.runtime.recovery.WorkGroupRunner` (fail-fast by default).  A
stage handed a :class:`~repro.runtime.recovery.Quarantined` sentinel passes
it on without running, so a dead-lettered group flows through the remaining
stages of any schedule.  See DESIGN.md §8.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.constants import COMPLEX_DTYPE
from repro.core.pipeline import IDG, prepare_visibilities
from repro.core.plan import Plan
from repro.data.store import ChunkedVisibilitySource
from repro.runtime.faults import FaultPlan
from repro.runtime.recovery import (
    FaultReport,
    Quarantined,
    RetryPolicy,
    WorkGroupRunner,
    group_visibility_count,
)
from repro.runtime.telemetry import Telemetry

__all__ = ["WorkGroupProgram"]

Fields = dict[tuple[int, int], np.ndarray] | None


class WorkGroupProgram:
    """The stage program of one grid or degrid call, one work group at a time.

    Build it with :meth:`gridding` or :meth:`degridding`, which run the
    prologue; a worker process holding validated inputs calls the
    constructor.  ``groups`` lists each work group's ``(start, stop)`` plan
    items; ``grid`` is the adder's target (gridding) or the splitter's
    source (degridding); ``out`` the degridding output.
    """

    def __init__(
        self,
        idg: IDG,
        plan: Plan,
        uvw_m: np.ndarray,
        *,
        grid: np.ndarray | None = None,
        visibilities: Any = None,
        out: np.ndarray | None = None,
        aterms: ATermGenerator | None = None,
        aterm_fields: Fields = None,
        faults: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        config = idg.config
        if aterm_fields is None:
            aterm_fields = idg.aterm_fields(plan, aterms)
        self.idg = idg
        self.plan = plan
        self.uvw_m = uvw_m
        self.grid = grid
        self.visibilities = visibilities
        self.source = (
            visibilities
            if isinstance(visibilities, ChunkedVisibilitySource) else None
        )
        self.out = out
        self.aterm_fields = aterm_fields
        self.groups = list(plan.work_groups(config.work_group_size))
        self.runner = WorkGroupRunner(
            RetryPolicy(
                max_retries=config.max_retries, backoff_s=config.retry_backoff_s
            ),
            faults=faults,
            telemetry=telemetry,
        )
        self.runner.report.n_groups = len(self.groups)
        self._backend = idg.backend
        self._kernel_kw = dict(lmn=idg.lmn, aterm_fields=aterm_fields)

    # ------------------------------------------------------------- prologue

    @classmethod
    def gridding(
        cls,
        idg: IDG,
        plan: Plan,
        uvw_m: np.ndarray,
        visibilities: Any,
        *,
        aterms: ATermGenerator | None = None,
        grid: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        aterm_fields: Fields = None,
        faults: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
    ) -> "WorkGroupProgram":
        """Validate one grid call's inputs (the keywords of
        :meth:`repro.core.IDG.grid`) and build its program."""
        expected = _visibility_shape(plan, uvw_m)
        if visibilities.shape != expected:
            raise ValueError(
                f"visibilities shape {visibilities.shape} does not match {expected}"
            )
        _check_plan_shape(plan, expected)
        visibilities = prepare_visibilities(visibilities, flags)
        if grid is None:
            grid = idg.gridspec.allocate_grid(dtype=COMPLEX_DTYPE)
        return cls(
            idg, plan, uvw_m, grid=grid, visibilities=visibilities,
            aterms=aterms, aterm_fields=aterm_fields, faults=faults,
            telemetry=telemetry,
        )

    @classmethod
    def degridding(
        cls,
        idg: IDG,
        plan: Plan,
        uvw_m: np.ndarray,
        grid: np.ndarray,
        *,
        aterms: ATermGenerator | None = None,
        aterm_fields: Fields = None,
        out: np.ndarray | None = None,
        faults: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
    ) -> "WorkGroupProgram":
        """Validate one degrid call's inputs (the keywords of
        :meth:`repro.core.IDG.degrid`) — ``out`` before any work group
        runs — and build its program."""
        expected = _visibility_shape(plan, uvw_m)
        _check_plan_shape(plan, expected)
        if out is None:
            out = np.zeros(expected, dtype=COMPLEX_DTYPE)
        elif out.shape != expected:
            raise ValueError(f"out shape {out.shape} != {expected}")
        return cls(
            idg, plan, uvw_m, grid=grid, out=out, aterms=aterms,
            aterm_fields=aterm_fields, faults=faults, telemetry=telemetry,
        )

    # ---------------------------------------------------------- stage calls

    def _stage(
        self, stage: str, group: int, fn: Callable[..., Any], *inputs: Any
    ) -> Any:
        """Run ``fn(*inputs)`` as ``stage`` of ``group`` through the runner;
        a quarantined input is passed on instead."""
        for value in inputs:
            if isinstance(value, Quarantined):
                return value
        start, stop = self.groups[group]
        return self.runner.run(
            stage, group, lambda: fn(*inputs), start=start, stop=stop,
            n_visibilities=group_visibility_count(self.plan, start, stop),
        )

    def read(self, group: int) -> Any:
        """Reader: copy one group's visibility blocks off the store's map."""
        start, stop = self.groups[group]
        return self._stage(
            "reader", group,
            lambda: self.source.prefetch_group(self.plan, start, stop),
        )

    def gridder(self, group: int, visibilities: Any = None) -> Any:
        """Gridder: one group's image-domain subgrids (Algorithm 1), from
        ``visibilities`` (a prefetched block) or the call's input."""
        start, stop = self.groups[group]
        return self._stage(
            "gridder", group,
            lambda vis: self._backend.grid_work_group(
                self.plan, start, stop, self.uvw_m, vis, self.idg.taper,
                **self._kernel_kw,
            ),
            self.visibilities if visibilities is None else visibilities,
        )

    def subgrid_fft(self, group: int, subgrids: Any) -> Any:
        """Subgrid FFT: image-domain subgrids to uv-domain subgrids."""
        return self._stage(
            "subgrid_fft", group, self._backend.subgrids_to_fourier, subgrids
        )

    def adder(self, group: int, fourier: Any, n_workers: int = 1) -> bool:
        """Adder: accumulate one group's uv subgrids onto :attr:`grid`.
        True when the group is on the grid, False when quarantined."""
        start = self.groups[group][0]
        result = self._stage(
            "adder", group,
            lambda subgrids: self._backend.add_subgrids(
                self.grid, self.plan, subgrids, start=start, n_workers=n_workers
            ),
            fourier,
        )
        return not isinstance(result, Quarantined)

    def splitter(self, group: int) -> Any:
        """Splitter: cut one group's uv subgrids out of :attr:`grid`."""
        start, stop = self.groups[group]
        return self._stage(
            "subgrid_split", group,
            lambda: self._backend.split_subgrids(self.grid, self.plan, start, stop),
        )

    def subgrid_ifft(self, group: int, patches: Any) -> Any:
        """Subgrid iFFT: uv-domain subgrids to image-domain subgrids."""
        return self._stage(
            "subgrid_ifft", group, self._backend.subgrids_to_image, patches
        )

    def degridder(self, group: int, images: Any) -> bool:
        """Degridder: predict one group's visibilities into :attr:`out`
        (Algorithm 2).  True when written, False when quarantined."""
        start, stop = self.groups[group]
        result = self._stage(
            "degridder", group,
            lambda subgrids: self._backend.degrid_work_group(
                self.plan, start, stop, subgrids, self.uvw_m, self.out,
                self.idg.taper, **self._kernel_kw,
            ),
            images,
        )
        return not isinstance(result, Quarantined)

    def grid_group(self, group: int) -> Any:
        """Gridder then subgrid FFT: one group's uv subgrids, ready to add."""
        return self.subgrid_fft(group, self.gridder(group))

    def degrid_group(self, group: int) -> bool:
        """Splitter, subgrid iFFT and degridder for one group."""
        return self.degridder(group, self.subgrid_ifft(group, self.splitter(group)))

    def drop_caches(self) -> None:
        """Hand retired groups' store pages back to the OS (out-of-core
        input only) so resident memory tracks the groups in flight."""
        if self.source is not None:
            self.source.drop_caches()

    # ------------------------------------------------------------- epilogue

    @property
    def fault_report(self) -> FaultReport | None:
        """The run's fault report, or ``None`` when the runner fails fast."""
        return None if self.runner.fail_fast else self.runner.report

    def finish(self, skipped: frozenset[int] = frozenset()) -> np.ndarray:
        """Close the fault report and count the visibilities this call
        processed (every group except ``skipped`` ones — resumed from a
        checkpoint — and quarantined ones).  Returns the call's output."""
        report = self.runner.report
        report.n_groups_completed = report.n_groups - len(report.excluded_items())
        telemetry = self.runner.telemetry
        if telemetry is not None:
            n_visibilities = sum(
                group_visibility_count(self.plan, start, stop)
                for group, (start, stop) in enumerate(self.groups)
                if group not in skipped
            )
            telemetry.add_counter(
                "visibilities", n_visibilities - report.n_visibilities_lost
            )
        return self.grid if self.out is None else self.out


def _visibility_shape(plan: Plan, uvw_m: np.ndarray) -> tuple[int, ...]:
    n_bl, n_times, three = uvw_m.shape
    if three != 3:
        raise ValueError("uvw_m must have a trailing axis of 3")
    return (n_bl, n_times, plan.n_channels, 2, 2)


def _check_plan_shape(plan: Plan, expected: tuple[int, ...]) -> None:
    """Reject ``uvw_m`` of an observation the plan was not built for."""
    if plan.flagged.shape != expected[:3]:
        raise ValueError("plan was built for a different observation shape")
