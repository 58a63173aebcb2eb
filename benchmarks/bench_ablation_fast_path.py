"""Ablation: the channel phasor recurrence.

This package's own optimisation in the spirit of the paper's Section V-B
batch sincos precomputation: with evenly spaced channels, the phasor
factorises as ``exp(i s_0 A) * exp(i ds A)**c``, trading one sincos per
(pixel, visibility) for one sincos pair per (pixel, timestep) plus a
complex multiply per channel step — a ~C-fold cut in transcendental work.
On sincos-*limited* architectures (HASWELL, FIJI — the Fig 11 dashed
bounds) the model says this recovers most of the gap to the FMA peak; this
bench times the NumPy direct-sum bucket kernel against the NumPy recurrence
kernel on the same gathered buckets and pins the accuracy.
"""

import time

import numpy as np
from _util import print_series

from repro.core.gridder import gridder_bucket, gridder_bucket_fast, uniform_channel_step
from repro.core.scratch import ScratchArena
from repro.parallel.bucketing import (
    bucket_work_items,
    gather_offsets,
    gather_rel_uvw,
    gather_scale0,
    gather_uvw,
    gather_visibilities,
    iter_bucket_chunks,
    max_bucket_items,
)
from repro.perfmodel.architectures import FIJI, HASWELL
from repro.perfmodel.opcount import FMAS_PER_PIXEL_VIS
from repro.perfmodel.sincos import mixed_throughput_ops


def _gathered_chunks(plan, stop, uvw_m, vis, n_pixels2):
    """Items ``0 .. stop-1`` as the driver chunks them for the recurrence,
    gathered once (copied out of the arena) so both kernels see the same
    inputs."""
    arena = ScratchArena()
    chunks = []
    for bucket in bucket_work_items(plan, 0, stop):
        for idx in iter_bucket_chunks(bucket, max_bucket_items(n_pixels2, bucket.n_times)):
            chunks.append({
                "vis": gather_visibilities(plan, idx, vis, arena, dtype=np.complex128).copy(),
                "uvw": gather_uvw(plan, idx, uvw_m, arena).copy(),
                "rel": gather_rel_uvw(plan, idx, uvw_m, arena).copy(),
                "scale0": gather_scale0(plan, idx),
                "offsets": gather_offsets(plan, idx, arena).copy(),
            })
    return chunks


def test_ablation_phasor_recurrence(benchmark, bench_plan, bench_obs, bench_vis,
                                   bench_idg):
    stop = min(16, bench_plan.n_subgrids)
    n_vis = sum(bench_plan.work_item(i).n_visibilities for i in range(stop))
    lmn, taper = bench_idg.lmn, bench_idg.taper
    ds = uniform_channel_step(bench_plan.frequencies_hz)
    chunks = _gathered_chunks(bench_plan, stop, bench_obs.uvw_m, bench_vis, lmn.shape[0])

    def direct(chunk):
        g = chunk["vis"].shape[0]
        return gridder_bucket(chunk["vis"].reshape(g, -1, 4), chunk["rel"], lmn, taper)

    def recurrence(chunk):
        return gridder_bucket_fast(
            chunk["vis"], chunk["uvw"], chunk["scale0"], ds, chunk["offsets"], lmn, taper
        )

    def measure():
        results = {}
        grids = {}
        for name, kernel in (("direct", direct), ("recurrence", recurrence)):
            t0 = time.perf_counter()
            grids[name] = np.concatenate([kernel(chunk).copy() for chunk in chunks])
            results[name] = time.perf_counter() - t0
        scale = float(np.abs(grids["direct"]).max())
        results["max_diff"] = float(
            np.abs(grids["recurrence"] - grids["direct"]).max()
        ) / scale
        return results

    results = benchmark(measure)
    speedup = results["direct"] / results["recurrence"]
    rows = [
        ("direct", results["direct"], n_vis / results["direct"] / 1e6),
        ("recurrence", results["recurrence"], n_vis / results["recurrence"] / 1e6),
    ]
    print_series(
        "Ablation: channel phasor recurrence (measured gridder, this host)",
        ["variant", "seconds", "MVis/s"],
        rows,
    )
    # model-side: the equivalent rho change on sincos-limited architectures.
    c = bench_plan.n_channels
    rho_fast = FMAS_PER_PIXEL_VIS * c + 4.0 * (c - 1)  # FMAs per remaining sincos
    model_rows = []
    for arch in (HASWELL, FIJI):
        before = mixed_throughput_ops(arch, 17.0) / arch.peak_ops
        after = mixed_throughput_ops(arch, rho_fast) / arch.peak_ops
        model_rows.append((arch.name, before, after))
    print_series(
        "Model: peak fraction at the kernel mix, before/after recurrence",
        ["arch", "rho=17", f"rho={rho_fast:.0f}"],
        model_rows,
    )

    assert results["max_diff"] < 1e-5
    assert speedup > 2.0  # the measured win on this host
    # the model agrees the win is biggest for software-sincos architectures
    assert mixed_throughput_ops(HASWELL, rho_fast) > 2 * mixed_throughput_ops(
        HASWELL, 17.0
    )
