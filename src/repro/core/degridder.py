"""The degridder kernel (paper Algorithm 2), vectorised.

The degridder is the forward direction: given an image-domain subgrid (split
from the model grid and inverse-FFT'd), it first applies the taper and the
measurement-equation A-term sandwich ``A_p S A_q^H`` per pixel, then predicts
every visibility of the work item as

``V(t, c) = sum_{y,x} S_corr(y, x) * exp(-2*pi*i * ((u-u_mid) l_x
+ (v-v_mid) m_y + (w-w_off) n(l_x, m_y)))``

— the exact conjugate of the gridder's phase, making gridding/degridding an
adjoint pair (a property the test suite checks as an inner-product identity).
As in the gridder, the hot loop is one ``phasor(M, N**2) @ S(N**2, 4)``
complex matrix product plus the ``exp`` (sine/cosine) evaluation.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.analysis.contracts import shape_checked
from repro.aterms.jones import apply_sandwich, identity_jones_field
from repro.constants import ACCUM_DTYPE, COMPLEX_DTYPE, SPEED_OF_LIGHT
from repro.core.gridder import (
    DEFAULT_VIS_BATCH,
    PHASOR_RENORM_INTERVAL,
    _offset_phase_matrix,
    _phase_tensor,
    _sincos_into,
    relative_uvw_wavelengths,
    subgrid_lmn,
    uniform_channel_step,
)
from repro.core.plan import Plan
from repro.core.scratch import ScratchArena, thread_arena


@shape_checked(
    subgrid_image="(N, N, 2, 2)",
    uvw_rel_wl="(M, 3)",
    lmn="(N**2, 3)",
    taper="(N, N)",
    aterm_p="(N, N, 2, 2)",
    aterm_q="(N, N, 2, 2)",
    returns="(M, 2, 2)",
)
def degridder_subgrid(
    subgrid_image: np.ndarray,
    uvw_rel_wl: np.ndarray,
    lmn: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
    vis_batch: int = DEFAULT_VIS_BATCH,
) -> np.ndarray:
    """Algorithm 2 for a single work item.

    Parameters
    ----------
    subgrid_image:
        ``(N, N, 2, 2)`` image-domain subgrid (after the inverse subgrid FFT).
    uvw_rel_wl:
        ``(M, 3)`` relative uvw in wavelengths.
    lmn:
        ``(N**2, 3)`` pixel directions (:func:`repro.core.gridder.subgrid_lmn`).
    taper:
        ``(N, N)`` taper.
    aterm_p, aterm_q:
        Optional ``(N, N, 2, 2)`` Jones fields; ``None`` means identity.

    Returns
    -------
    ``(M, 2, 2)`` complex64 predicted visibilities.
    """
    n = subgrid_image.shape[0]
    if subgrid_image.shape != (n, n, 2, 2):
        raise ValueError(f"subgrid must be (N, N, 2, 2), got {subgrid_image.shape}")
    if lmn.shape != (n * n, 3):
        raise ValueError(f"lmn shape {lmn.shape} does not match subgrid size {n}")

    corrected = subgrid_image.astype(ACCUM_DTYPE)
    if aterm_p is not None or aterm_q is not None:
        a_p = aterm_p if aterm_p is not None else identity_jones_field(n)
        a_q = aterm_q if aterm_q is not None else identity_jones_field(n)
        corrected = apply_sandwich(a_p, corrected, a_q)
    corrected = corrected * taper[:, :, np.newaxis, np.newaxis]
    pixels_flat = corrected.reshape(n * n, 4)

    m_total = uvw_rel_wl.shape[0]
    out = np.empty((m_total, 4), dtype=ACCUM_DTYPE)
    for start in range(0, m_total, vis_batch):
        stop = min(start + vis_batch, m_total)
        phase = (-2.0 * np.pi) * (uvw_rel_wl[start:stop] @ lmn.T)  # (batch, N^2)
        phasor = np.exp(1j * phase)
        out[start:stop] = phasor @ pixels_flat
    return out.reshape(m_total, 2, 2).astype(COMPLEX_DTYPE)


@shape_checked(
    subgrid_image="(N, N, 2, 2)",
    uvw_m="(T, 3)",
    scales="(C,)",
    offset="(3,)",
    lmn="(N**2, 3)",
    taper="(N, N)",
    aterm_p="(N, N, 2, 2)",
    aterm_q="(N, N, 2, 2)",
    returns="(T, C, 2, 2)",
)
def degridder_subgrid_fast(
    subgrid_image: np.ndarray,
    uvw_m: np.ndarray,
    scales: np.ndarray,
    offset: np.ndarray,
    lmn: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
) -> np.ndarray:
    """Algorithm 2 with the channel phasor recurrence.

    The degridding phasor is the conjugate of the gridder's, so the same
    separation ``phi(x, t, c) = s_c * A[x, t] - B[x]`` applies: one
    exponential pair per (pixel, timestep) plus a complex multiply per
    channel step (see :func:`repro.core.gridder.gridder_subgrid_fast`).

    Returns ``(T, C, 2, 2)`` predicted visibilities.
    """
    n = subgrid_image.shape[0]
    t_total = uvw_m.shape[0]
    c_total = int(np.asarray(scales).size)
    if c_total > 1:
        steps = np.diff(scales)
        if not np.allclose(steps, steps[0], rtol=1e-9):
            raise ValueError("channel scales must be evenly spaced for the fast path")
        ds = float(steps[0])
    else:
        ds = 0.0

    corrected = subgrid_image.astype(ACCUM_DTYPE)
    if aterm_p is not None or aterm_q is not None:
        a_p = aterm_p if aterm_p is not None else identity_jones_field(n)
        a_q = aterm_q if aterm_q is not None else identity_jones_field(n)
        corrected = apply_sandwich(a_p, corrected, a_q)
    corrected = corrected * taper[:, :, np.newaxis, np.newaxis]
    pixels_flat = corrected.reshape(n * n, 4)

    base = (2.0 * np.pi) * (lmn @ uvw_m.T)  # (N^2, T)
    offset_phase = (2.0 * np.pi) * (lmn @ np.asarray(offset, dtype=np.float64))
    # conjugate of the gridding phasor
    phasor = np.exp(-1j * (float(scales[0]) * base - offset_phase[:, np.newaxis]))
    step = np.exp(-1j * (ds * base)) if c_total > 1 else None

    out = np.empty((t_total, c_total, 4), dtype=ACCUM_DTYPE)
    magnitude = np.empty(phasor.shape) if c_total > PHASOR_RENORM_INTERVAL else None
    for c in range(c_total):
        if c > 0:
            phasor *= step
            if c % PHASOR_RENORM_INTERVAL == 0:
                # same magnitude-drift guard as the gridder fast path
                np.abs(phasor, out=magnitude)
                phasor /= magnitude
        out[:, c] = phasor.T @ pixels_flat
    return out.reshape(t_total, c_total, 2, 2).astype(COMPLEX_DTYPE)


def _corrected_pixels_bucket(
    subgrid_images: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None,
    aterm_q: np.ndarray | None,
    arena: ScratchArena,
) -> np.ndarray:
    """Taper + A-term-corrected pixels of a bucket, as ``(G, N**2, 4)``
    complex128 (the shared preamble of both batched degridder kernels)."""
    g_total, n = subgrid_images.shape[:2]
    corrected = arena.take("degridder.corrected", (g_total, n, n, 2, 2), ACCUM_DTYPE)
    corrected[...] = subgrid_images
    if aterm_p is not None or aterm_q is not None:
        corrected = apply_sandwich(aterm_p, corrected, aterm_q)
    corrected *= taper[np.newaxis, :, :, np.newaxis, np.newaxis]
    return corrected.reshape(g_total, n * n, 4)


#: Signature of a degridder core: ``(pixels, uvw_m, scale0, ds, n_channels,
#: offsets, lmn, arena) -> (G, T, C, 4)`` complex128 predictions, an arena
#: view; ``pixels`` are the ``(G, N**2, 4)`` taper- and A-term-corrected
#: subgrid pixels.
DegridderCore = Callable[
    [np.ndarray, np.ndarray, np.ndarray, float, int, np.ndarray, np.ndarray, ScratchArena],
    np.ndarray,
]


@shape_checked(
    subgrid_images="(G, N, N, 2, 2)",
    uvw_m="(G, T, 3)",
    scale0="(G,)",
    offsets="(G, 3)",
    lmn="(N**2, 3)",
    taper="(N, N)",
    aterm_p="(G, N, N, 2, 2)",
    aterm_q="(G, N, N, 2, 2)",
    returns="(G, T, C, 4)",
)
def degridder_bucket_fast(
    subgrid_images: np.ndarray,
    uvw_m: np.ndarray,
    scale0: np.ndarray,
    ds: float,
    n_channels: int,
    offsets: np.ndarray,
    lmn: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
    arena: ScratchArena | None = None,
    core: DegridderCore | None = None,
) -> np.ndarray:
    """Algorithm 2 with the channel phasor recurrence, over a whole bucket.

    The batched form of :func:`degridder_subgrid_fast` — the exact phase
    conjugate of :func:`repro.core.gridder.gridder_bucket_fast`: the taper
    and A-term sandwich correct the pixels, then ``core``
    (:func:`degridder_bucket_core` in NumPy by default) sums phasor x pixel
    per visibility.

    Parameters
    ----------
    subgrid_images:
        ``(G, N, N, 2, 2)`` stacked image-domain subgrids.
    uvw_m:
        ``(G, T, 3)`` stacked uvw in metres.
    scale0:
        ``(G,)`` first-channel ``f/c`` per item.
    ds:
        Shared channel step of the ``f/c`` ladder (0 for one channel).
    n_channels:
        Channels per item (``C`` of the bucket shape).
    offsets:
        ``(G, 3)`` per-item subgrid offsets ``u_mid, v_mid, w_offset`` in
        wavelengths.
    lmn, taper, aterm_p, aterm_q:
        As in :func:`gridder_bucket_fast`.
    arena:
        Scratch arena (defaults to the calling thread's).
    core:
        The phasor x pixel sum (:data:`DegridderCore`); defaults to the
        NumPy :func:`degridder_bucket_core`.  The ``native`` backend passes
        its compiled core here, so taper and A-terms stay shared.

    Returns
    -------
    ``(G, T, C, 4)`` complex128 predicted visibilities (an arena view —
    the work-group driver scatters it into the output before the next
    batched call on this thread).
    """
    if arena is None:
        arena = thread_arena()
    pixels = _corrected_pixels_bucket(subgrid_images, taper, aterm_p, aterm_q, arena)
    return (core or degridder_bucket_core)(
        pixels, uvw_m, scale0, ds, n_channels, offsets, lmn, arena
    )


def degridder_bucket_core(
    pixels: np.ndarray,
    uvw_m: np.ndarray,
    scale0: np.ndarray,
    ds: float,
    n_channels: int,
    offsets: np.ndarray,
    lmn: np.ndarray,
    arena: ScratchArena,
) -> np.ndarray:
    """The phasor x pixel sum of :func:`degridder_bucket_fast`, in NumPy.

    ``out[g, t, c, p] = sum_i exp(-i alpha_c[g, i, t]) pixels[g, i, p]`` for
    the ``(G, N**2, 4)`` corrected pixels, with the channel recurrence and
    one stacked ``(G, T, N**2) @ (G, N**2, 4)`` product per channel step.
    Returns the ``(G, T, C, 4)`` complex128 predictions as an arena view.
    """
    g_total, t_total = uvw_m.shape[:2]
    n_pixels2 = lmn.shape[0]
    base = _phase_tensor(lmn, uvw_m, arena, "bucket.base")
    offset_phase = _offset_phase_matrix(lmn, offsets, arena, "bucket.offset_phase")
    phase = arena.take("bucket.phase", (g_total, n_pixels2, t_total), np.float64)
    phasor = arena.take("bucket.phasor", (g_total, n_pixels2, t_total), ACCUM_DTYPE)
    # conjugate of the gridding phasor: exp(-1j (s0 base - offset))
    np.multiply(base, scale0[:, np.newaxis, np.newaxis], out=phase)
    np.subtract(offset_phase[:, :, np.newaxis], phase, out=phase)
    _sincos_into(phase, phasor)
    if n_channels > 1:
        step = arena.take("bucket.step", (g_total, n_pixels2, t_total), ACCUM_DTYPE)
        np.multiply(base, -ds, out=phase)
        _sincos_into(phase, step)

    out = arena.take("degridder.out", (g_total, t_total, n_channels, 4), ACCUM_DTYPE)
    prod = arena.take("degridder.prod", (g_total, t_total, 4), ACCUM_DTYPE)
    phasor_t = np.swapaxes(phasor, 1, 2)
    np.matmul(phasor_t, pixels, out=prod)
    out[:, :, 0] = prod
    for c in range(1, n_channels):
        np.multiply(phasor, step, out=phasor)
        if c % PHASOR_RENORM_INTERVAL == 0:
            # same magnitude-drift guard as the gridder bucket kernel
            np.abs(phasor, out=phase)
            phasor /= phase
        np.matmul(phasor_t, pixels, out=prod)
        out[:, :, c] = prod
    return out


@shape_checked(
    subgrid_images="(G, N, N, 2, 2)",
    uvw_rel_wl="(G, M, 3)",
    lmn="(N**2, 3)",
    taper="(N, N)",
    aterm_p="(G, N, N, 2, 2)",
    aterm_q="(G, N, N, 2, 2)",
    returns="(G, M, 4)",
)
def degridder_bucket(
    subgrid_images: np.ndarray,
    uvw_rel_wl: np.ndarray,
    lmn: np.ndarray,
    taper: np.ndarray,
    aterm_p: np.ndarray | None = None,
    aterm_q: np.ndarray | None = None,
    arena: ScratchArena | None = None,
) -> np.ndarray:
    """Algorithm 2 as a direct sum, over a whole bucket.

    The batched form of :func:`degridder_subgrid`: one broadcast matmul for
    the stacked ``(G, M, N**2)`` phase, one batched sine/cosine evaluation,
    one stacked ``(G, M, N**2) @ (G, N**2, 4)`` matrix product.

    Parameters
    ----------
    subgrid_images:
        ``(G, N, N, 2, 2)`` stacked image-domain subgrids.
    uvw_rel_wl:
        ``(G, M, 3)`` stacked relative uvw in wavelengths.
    lmn, taper, aterm_p, aterm_q:
        As in :func:`gridder_bucket_fast`.
    arena:
        Scratch arena (defaults to the calling thread's).

    Returns
    -------
    ``(G, M, 4)`` complex128 predicted visibilities (an arena view).
    """
    g_total, m_total = uvw_rel_wl.shape[:2]
    n_pixels2 = lmn.shape[0]
    if arena is None:
        arena = thread_arena()
    pixels = _corrected_pixels_bucket(subgrid_images, taper, aterm_p, aterm_q, arena)

    phase = arena.take("bucket.phase", (g_total, m_total, n_pixels2), np.float64)
    np.matmul(uvw_rel_wl, lmn.T, out=phase)
    phase *= -2.0 * np.pi
    phasor = arena.take("bucket.phasor", (g_total, m_total, n_pixels2), ACCUM_DTYPE)
    _sincos_into(phase, phasor)

    out = arena.take("degridder.out", (g_total, m_total, 4), ACCUM_DTYPE)
    np.matmul(phasor, pixels, out=out)
    return out


def degrid_work_group(
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
) -> None:
    """Run the degridder over work items ``start .. stop-1``, writing into
    ``visibilities_out`` (shape ``(n_baselines, n_times, n_channels, 2, 2)``).

    ``subgrid_images`` holds the ``(stop-start, N, N, 2, 2)`` image-domain
    subgrids produced by the splitter + inverse subgrid FFT.
    ``channel_recurrence`` selects :func:`degridder_subgrid_fast` when the
    channels are evenly spaced, as in
    :func:`repro.core.gridder.grid_work_group`.
    """
    n = plan.subgrid_size
    if lmn is None:
        lmn = subgrid_lmn(n, plan.gridspec.image_size)
    if channel_recurrence:
        channel_recurrence = uniform_channel_step(plan.frequencies_hz) is not None
    for k, index in enumerate(range(start, stop)):
        item = plan.work_item(index)
        u_mid, v_mid = plan.subgrid_centre_uv(index)
        freqs = plan.frequencies_hz[item.channel_start : item.channel_end]
        uvw_block = uvw_m[item.baseline, item.time_start : item.time_end]
        a_p = a_q = None
        if aterm_fields is not None:
            a_p = aterm_fields.get((item.station_p, item.aterm_interval))
            a_q = aterm_fields.get((item.station_q, item.aterm_interval))
        if channel_recurrence:
            vis = degridder_subgrid_fast(
                subgrid_images[k], uvw_block, freqs / SPEED_OF_LIGHT,
                np.array([u_mid, v_mid, plan.w_offset]), lmn, taper,
                aterm_p=a_p, aterm_q=a_q,
            )
        else:
            rel = relative_uvw_wavelengths(
                uvw_block, freqs, u_mid, v_mid, plan.w_offset
            )
            vis = degridder_subgrid(
                subgrid_images[k], rel, lmn, taper, aterm_p=a_p, aterm_q=a_q,
                vis_batch=vis_batch,
            ).reshape(item.n_times, item.n_channels, 2, 2)
        visibilities_out[
            item.baseline,
            item.time_start : item.time_end,
            item.channel_start : item.channel_end,
        ] = vis
