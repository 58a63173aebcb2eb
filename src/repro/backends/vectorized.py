"""The ``vectorized`` backend: the package's BLAS fast path.

This is the NumPy implementation of the batch-of-subgrids execution model:
each work group runs through the shape-bucketed drivers of
:mod:`repro.parallel.bucketing`, one stacked ``(G, N**2, T) @ (G, T, 4)``
product per bucket and channel step, with the channel-phasor recurrence
that trades sine/cosine evaluations for FMAs exactly as the paper's
Section V-B optimisation 2 does, and all scratch drawn from the calling
thread's :class:`~repro.core.scratch.ScratchArena`.  An unevenly spaced
channel ladder, which the recurrence cannot take, runs the bucketed direct
sum instead.  It is the performance yardstick the default ``native``
backend is measured against in ``BENCH_kernels.json``; ``native`` is this
backend with compiled phasor-sum cores.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import KernelBackend
from repro.core.degridder import DegridderCore
from repro.core.gridder import GridderCore
from repro.core.plan import Plan
from repro.parallel.bucketing import degrid_work_group_batched, grid_work_group_batched


class VectorizedBackend(KernelBackend):
    """BLAS-dispatched NumPy kernels (the paper's SIMD reduction, in gemm)."""

    name = "vectorized"

    #: Phasor-sum cores of the channel-recurrence kernels; ``None`` runs the
    #: NumPy :func:`~repro.core.gridder.gridder_bucket_core` and
    #: :func:`~repro.core.degridder.degridder_bucket_core`.
    gridder_core: GridderCore | None = None
    degridder_core: DegridderCore | None = None

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
    ) -> np.ndarray:
        return grid_work_group_batched(
            plan, start, stop, uvw_m, visibilities, taper,
            lmn=lmn, aterm_fields=aterm_fields, core=self.gridder_core,
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
    ) -> None:
        degrid_work_group_batched(
            plan, start, stop, subgrid_images, uvw_m, visibilities_out, taper,
            lmn=lmn, aterm_fields=aterm_fields, core=self.degridder_core,
        )
