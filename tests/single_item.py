"""The bucketed kernels at G=1: one work item per call.

Unit tests state their cases per work item — a ``(M, 2, 2)`` visibility
block or a ``(T, C, 2, 2)`` channel block and one ``(N, N, 2, 2)`` subgrid,
the layout of the ``core.reference`` oracle — while the kernels take stacked
pol-major ``(G, 4, N, N)`` buckets.  These wrappers add and drop the bucket
axis and convert the subgrid layout.  Each call gets a fresh scratch arena,
so a returned array is never overwritten by a later call.
"""

import numpy as np

from repro.core.degridder import degridder_bucket, degridder_bucket_fast
from repro.core.gridder import gridder_bucket, gridder_bucket_fast
from repro.core.scratch import ScratchArena


def _stack(field):
    return None if field is None else np.asarray(field)[np.newaxis]


def to_pol_major(subgrid):
    """``(..., N, N, 2, 2)`` subgrid(s) -> ``(..., 4, N, N)`` copy."""
    subgrid = np.asarray(subgrid)
    n = subgrid.shape[-3]
    flat = subgrid.reshape(*subgrid.shape[:-4], n * n, 4)
    return np.ascontiguousarray(np.swapaxes(flat, -1, -2)).reshape(
        *subgrid.shape[:-4], 4, n, n
    )


def to_pol_minor(subgrid):
    """``(..., 4, N, N)`` subgrid(s) -> ``(..., N, N, 2, 2)`` copy."""
    subgrid = np.asarray(subgrid)
    n = subgrid.shape[-1]
    flat = subgrid.reshape(*subgrid.shape[:-3], 4, n * n)
    return np.ascontiguousarray(np.swapaxes(flat, -1, -2)).reshape(
        *subgrid.shape[:-3], n, n, 2, 2
    )


def _step(scales):
    return float(scales[1] - scales[0]) if len(scales) > 1 else 0.0


def grid_item(vis, uvw_rel_wl, lmn, taper, aterm_p=None, aterm_q=None):
    """Direct-sum gridder: ``(M, 2, 2)`` block -> ``(N, N, 2, 2)`` subgrid."""
    vis = np.asarray(vis, dtype=np.complex128).reshape(1, -1, 4)
    return to_pol_minor(gridder_bucket(
        vis, np.asarray(uvw_rel_wl)[np.newaxis], lmn, taper,
        aterm_p=_stack(aterm_p), aterm_q=_stack(aterm_q), arena=ScratchArena(),
    )[0])


def grid_item_fast(vis, uvw_m, scales, offset, lmn, taper, aterm_p=None, aterm_q=None):
    """Recurrence gridder: ``(T, C, 2, 2)`` block with evenly spaced
    ``scales`` (``f/c``) -> ``(N, N, 2, 2)`` subgrid."""
    t, c = vis.shape[:2]
    return to_pol_minor(gridder_bucket_fast(
        np.asarray(vis, dtype=np.complex128).reshape(1, t, c, 4),
        uvw_m[np.newaxis], scales[:1].copy(), _step(scales),
        np.asarray(offset, dtype=np.float64)[np.newaxis], lmn, taper,
        aterm_p=_stack(aterm_p), aterm_q=_stack(aterm_q), arena=ScratchArena(),
    )[0])


def degrid_item(subgrid, uvw_rel_wl, lmn, taper, aterm_p=None, aterm_q=None):
    """Direct-sum degridder: ``(N, N, 2, 2)`` subgrid -> ``(M, 2, 2)``."""
    out = degridder_bucket(
        to_pol_major(subgrid)[np.newaxis], np.asarray(uvw_rel_wl)[np.newaxis],
        lmn, taper, aterm_p=_stack(aterm_p), aterm_q=_stack(aterm_q),
        arena=ScratchArena(),
    )
    return out[0].reshape(-1, 2, 2)


def degrid_item_fast(subgrid, uvw_m, scales, offset, lmn, taper):
    """Recurrence degridder: ``(N, N, 2, 2)`` subgrid -> ``(T, C, 2, 2)``."""
    out = degridder_bucket_fast(
        to_pol_major(subgrid)[np.newaxis], uvw_m[np.newaxis], scales[:1].copy(),
        _step(scales), len(scales), np.asarray(offset, dtype=np.float64)[np.newaxis],
        lmn, taper, arena=ScratchArena(),
    )
    return out[0].reshape(uvw_m.shape[0], len(scales), 2, 2)
