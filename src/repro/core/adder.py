"""Adder and splitter (paper Fig 4, step 3, and Section V-B-d / V-C-e).

The adder accumulates Fourier-domain subgrids into the master grid at their
integer corner positions; because subgrids overlap, concurrent adds to the
same pixels must be serialised (the paper parallelises over grid *rows* on
the CPU and uses atomics on the GPU — :mod:`repro.parallel.partition`
implements the row strategy).  The splitter is the read-only reverse used in
degridding, trivially parallel over subgrids.

Grid layout: ``(4, grid_size, grid_size)`` with polarisation order
XX, XY, YX, YY; the first pixel axis is v (rows), the second u (columns).
Subgrids use the same pol-major order, ``(k, 4, N, N)``, so adding one is a
plain slice add ``grid[:, v:v+N, u:u+N] += subgrid`` and splitting one is a
plain slice copy: no transpose on either side.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import shape_checked
from repro.core.plan import Plan


@shape_checked(grid="(4, G, G)", subgrids_fourier="(k, 4, N, N)")
def add_subgrids(
    grid: np.ndarray,
    plan: Plan,
    subgrids_fourier: np.ndarray,
    start: int = 0,
) -> None:
    """Accumulate Fourier-domain subgrids into the master grid, in place.

    Parameters
    ----------
    grid:
        ``(4, G, G)`` master grid, modified in place.
    plan:
        The execution plan (supplies each subgrid's corner).
    subgrids_fourier:
        ``(k, 4, N, N)`` pol-major uv-domain subgrids for work items
        ``start .. start+k-1``.
    start:
        Index of the first work item in the batch.
    """
    n = plan.subgrid_size
    if grid.shape != (4, plan.gridspec.grid_size, plan.gridspec.grid_size):
        raise ValueError(f"grid shape {grid.shape} does not match plan")
    for k in range(subgrids_fourier.shape[0]):
        row = plan.items[start + k]
        cu, cv = int(row["corner_u"]), int(row["corner_v"])
        grid[:, cv : cv + n, cu : cu + n] += subgrids_fourier[k]


@shape_checked(grid="(4, G, G)", returns="(k, 4, N, N)")
def split_subgrids(
    grid: np.ndarray,
    plan: Plan,
    start: int,
    stop: int,
) -> np.ndarray:
    """Extract the ``(stop-start, 4, N, N)`` uv-domain subgrids for a
    work-item range (read-only on the grid; safe to run concurrently)."""
    n = plan.subgrid_size
    if grid.shape != (4, plan.gridspec.grid_size, plan.gridspec.grid_size):
        raise ValueError(f"grid shape {grid.shape} does not match plan")
    out = np.empty((stop - start, 4, n, n), dtype=grid.dtype)
    for k, index in enumerate(range(start, stop)):
        row = plan.items[index]
        cu, cv = int(row["corner_u"]), int(row["corner_v"])
        out[k] = grid[:, cv : cv + n, cu : cu + n]
    return out
