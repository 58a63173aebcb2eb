"""The ``vectorized`` backend: the package's BLAS fast path.

This is the NumPy implementation the pipeline has always run — the phasor
expressed as one complex ``(N**2, M) @ (M, 4)`` matrix product dispatched to
``*gemm``, with the optional channel-phasor recurrence
(:func:`repro.core.gridder.gridder_subgrid_fast`) that trades sine/cosine
evaluations for FMAs exactly as the paper's Section V-B optimisation 2 does.
With ``batched=True`` (the :class:`~repro.core.pipeline.IDGConfig` default)
it executes each work group through the shape-bucketed batch-of-subgrids
drivers of :mod:`repro.parallel.bucketing` instead of the per-item loop:
one stacked ``(G, N**2, T) @ (G, T, 4)`` product per bucket and channel
step, with all scratch drawn from the calling thread's
:class:`~repro.core.scratch.ScratchArena`.  It is the performance yardstick
the default ``native`` backend is measured against in ``BENCH_kernels.json``,
and what ``native`` delegates to when it cannot be built.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import DEFAULT_VIS_BATCH, KernelBackend
from repro.core.degridder import degrid_work_group as _degrid_work_group
from repro.core.gridder import grid_work_group as _grid_work_group
from repro.core.plan import Plan
from repro.parallel.bucketing import (
    degrid_work_group_batched as _degrid_work_group_batched,
)
from repro.parallel.bucketing import (
    grid_work_group_batched as _grid_work_group_batched,
)


class VectorizedBackend(KernelBackend):
    """BLAS-dispatched NumPy kernels (the paper's SIMD reduction, in gemm)."""

    name = "vectorized"

    def grid_work_group(
        self,
        plan: Plan,
        start: int,
        stop: int,
        uvw_m: np.ndarray,
        visibilities: np.ndarray,
        taper: np.ndarray,
        lmn: np.ndarray | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        vis_batch: int = DEFAULT_VIS_BATCH,
        channel_recurrence: bool = False,
        batched: bool = False,
    ) -> np.ndarray:
        if batched:
            return _grid_work_group_batched(
                plan, start, stop, uvw_m, visibilities, taper,
                lmn=lmn, aterm_fields=aterm_fields,
                channel_recurrence=channel_recurrence,
            )
        return _grid_work_group(
            plan, start, stop, uvw_m, visibilities, taper,
            lmn=lmn, aterm_fields=aterm_fields, vis_batch=vis_batch,
            channel_recurrence=channel_recurrence,
        )

    def degrid_work_group(
        self,
        plan: Plan,
        start: int,
        stop: int,
        subgrid_images: np.ndarray,
        uvw_m: np.ndarray,
        visibilities_out: np.ndarray,
        taper: np.ndarray,
        lmn: np.ndarray | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        vis_batch: int = DEFAULT_VIS_BATCH,
        channel_recurrence: bool = False,
        batched: bool = False,
    ) -> None:
        if batched:
            _degrid_work_group_batched(
                plan, start, stop, subgrid_images, uvw_m, visibilities_out,
                taper, lmn=lmn, aterm_fields=aterm_fields,
                channel_recurrence=channel_recurrence,
            )
            return
        _degrid_work_group(
            plan, start, stop, subgrid_images, uvw_m, visibilities_out, taper,
            lmn=lmn, aterm_fields=aterm_fields, vis_batch=vis_batch,
            channel_recurrence=channel_recurrence,
        )
