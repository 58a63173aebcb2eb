"""Per-backend kernel throughput, machine-readable.

Times every registered production kernel backend on the same work-group
batch, each called as ``IDG`` calls it, and writes ``benchmarks/results/BENCH_kernels.json``
— per-backend visibilities/s for gridding and degridding, each backend's
speedup over ``vectorized``, the ``threads`` executor's scaling from 1 to 2
workers with ``native``, and the configuration and host info needed to
compare runs across machines — next to the usual ASCII table.  Every
``native`` call runs on one thread; the ``vectorized`` rows use the BLAS
library's default thread count.  The loop-level ``reference`` oracle is
not timed: it runs three orders of magnitude slower than ``vectorized``,
no gate reads its throughput, and ``tests/backends/test_differential.py``
already checks it for correctness.  The CI perf-smoke job gates
``native >= 2.5x vectorized`` on this JSON; humans read the table.
"""

import json
import os
import platform
import time
from dataclasses import replace

import numpy as np

from repro.backends import available_backends, get_backend
from repro.core.pipeline import IDG
from repro.parallel.executor import ParallelIDG

from _util import RESULTS_DIR, print_series

GROUP = 16
REPEATS = 3

#: Backends left out of the timed set (see the module docstring).
UNTIMED = ("reference",)

#: Work items per work group in the scaling run: the bench plan's 267
#: subgrids make ~9 groups, enough to keep 2 workers busy.
SCALING_GROUP_SIZE = 32
SCALING_WORKERS = (1, 2)


def _visibilities_in(plan, stop):
    return sum(
        plan.work_item(i).n_times * plan.work_item(i).n_channels
        for i in range(stop)
    )


def _time_best(fn):
    """Best wall-clock of REPEATS runs, after one warmup."""
    fn()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_backend_kernels(bench_plan, bench_obs, bench_vis, bench_idg):
    plan, uvw = bench_plan, bench_obs.uvw_m
    stop = min(GROUP, plan.n_subgrids)
    n_vis = _visibilities_in(plan, stop)
    assert n_vis > 0

    backends = {}
    rows = []
    for name in available_backends():
        if name in UNTIMED:
            continue
        backend = get_backend(name)
        backend.ready()
        fallback = getattr(backend, "is_fallback", False)

        def run_grid(backend=backend):
            return backend.grid_work_group(
                plan, 0, stop, uvw, bench_vis, bench_idg.taper, lmn=bench_idg.lmn
            )

        t_grid = _time_best(run_grid)
        subgrids = run_grid()
        images = backend.subgrids_to_image(backend.subgrids_to_fourier(subgrids))
        out = np.zeros_like(bench_vis)

        def run_degrid(backend=backend, images=images, out=out):
            backend.degrid_work_group(
                plan, 0, stop, images, uvw, out, bench_idg.taper, lmn=bench_idg.lmn
            )

        t_degrid = _time_best(run_degrid)
        backends[name] = {
            "gridder_seconds": t_grid,
            "gridder_visibilities_per_s": n_vis / t_grid,
            "degridder_seconds": t_degrid,
            "degridder_visibilities_per_s": n_vis / t_degrid,
            "fallback_to": "vectorized" if fallback else None,
        }
        rows.append(
            (name, os.cpu_count(), n_vis / t_grid / 1e6, n_vis / t_degrid / 1e6,
             "vectorized" if fallback else "-")
        )

    for row in backends.values():
        row["speedup_vs_vectorized"] = {
            kernel: row[f"{kernel}_visibilities_per_s"]
            / backends["vectorized"][f"{kernel}_visibilities_per_s"]
            for kernel in ("gridder", "degridder")
        }
    scaling = _threads_scaling(plan, uvw, bench_vis, bench_idg)

    payload = {
        "benchmark": "backend_kernels",
        "generated_by": "benchmarks/bench_backend_kernels.py",
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "work_items": stop,
            "n_visibilities": n_vis,
            "subgrid_size": bench_idg.config.subgrid_size,
            "kernel_support": bench_idg.config.kernel_support,
            "time_max": bench_idg.config.time_max,
            "n_baselines": int(uvw.shape[0]),
            "n_times": int(uvw.shape[1]),
            "n_channels": int(plan.n_channels),
            "repeats": REPEATS,
            "native_threads_per_call": 1,
        },
        "backends": backends,
        "threads_scaling": scaling,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_kernels.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")

    print_series(
        "Backend kernel throughput",
        ["backend", "cpus", "grid Mvis/s", "degrid Mvis/s", "fallback"],
        rows,
    )
    print_series(
        "Threads executor scaling, native backend",
        ["workers", "cpus", "grid s", "degrid s", "grid speedup", "degrid speedup"],
        [
            (w, scaling["cpu_count"], r["grid_seconds"], r["degrid_seconds"],
             r["grid_speedup_vs_1"], r["degrid_speedup_vs_1"])
            for w, r in scaling["workers"].items()
        ],
    )
    assert json.loads(path.read_text())["backends"].keys() == backends.keys()


def _threads_scaling(plan, uvw, vis, bench_idg):
    """Whole-plan grid and degrid on the ``threads`` executor with
    ``native`` at 1 and 2 workers: real multi-core work, not emulated."""
    idg = IDG(
        bench_idg.gridspec,
        replace(bench_idg.config, backend="native",
                work_group_size=SCALING_GROUP_SIZE),
    )
    workers = {}
    for n_workers in SCALING_WORKERS:
        engine = ParallelIDG(idg, n_workers=n_workers)
        t_grid = _time_best(lambda engine=engine: engine.grid(plan, uvw, vis))
        grid = engine.grid(plan, uvw, vis)
        t_degrid = _time_best(
            lambda engine=engine, grid=grid: engine.degrid(plan, uvw, grid)
        )
        workers[str(n_workers)] = {"grid_seconds": t_grid, "degrid_seconds": t_degrid}
    one = workers[str(SCALING_WORKERS[0])]
    for row in workers.values():
        row["grid_speedup_vs_1"] = one["grid_seconds"] / row["grid_seconds"]
        row["degrid_speedup_vs_1"] = one["degrid_seconds"] / row["degrid_seconds"]
    return {
        "executor": "threads",
        "backend": "native",
        "native_fallback": idg.backend.is_fallback,
        "cpu_count": os.cpu_count(),
        "work_group_size": SCALING_GROUP_SIZE,
        "n_subgrids": plan.n_subgrids,
        "workers": workers,
    }

