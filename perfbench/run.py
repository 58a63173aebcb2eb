"""Repository benchmark: one imaging-cycle workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload via-cycle --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no hooks installed;
``--trace 1`` alternates untraced cycles with traced set-up + cycle pairs and
reports the per-layer split (see tracing.py).  Each invocation is one
workload in a fresh process, so ``peak_rss_mb`` is that workload's own
high-water mark.  The last stdout line is the result JSON
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before it
print every metric with its unit, the host fingerprint and the checks, and
the same report is written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Final

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"

#: Environment variables that select another code path than the default.
FORBIDDEN_ENV = ("IDG_BACKEND", "IDG_SANITIZE", "IDGLINT_SHAPE_CHECKS")
#: Set-ups timed before the first cycle; one more is timed before every
#: untraced cycle, so ``setup_s`` (their median) samples the whole run.
N_SETUPS = 3
#: Fewest timed cycles per run, whatever ``--seconds`` says.
MIN_CYCLES = 3

#: End-to-end metric name -> unit (BENCHMARK.json order).
END_TO_END: Final = {
    "cycle_s": "s", "vis_per_s": "vis/s", "setup_s": "s", "peak_rss_mb": "MB",
    "pass_ratio": "ratio", "image_rel_err": "ratio", "predict_rel_err": "ratio",
    "dynamic_range": "ratio",
}


def fingerprint() -> dict:
    """Host, library and thread settings every result is recorded with."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    blas_threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            blas_threads = get()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_effect": blas_threads,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (reaped) child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    return 100.0 * (1.0 - 10.0 / n) if n > 10 else None


class Run:
    """One workload measured for ``seconds``; collects cycles and failures."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.ref_failures: list[str] = []

    def _setup(self):
        t0 = time.perf_counter()
        state = self.w.setup()
        self.setups.append(time.perf_counter() - t0)
        return state

    def _timed_cycle(self, state, reference) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outputs = self.w.cycle(state)
        except Exception:  # a failing cycle is counted, not fatal
            self.failed += 1
            self.notes.append(traceback.format_exc(limit=3))
            return
        self.times.append(time.perf_counter() - t0)
        self._compare(outputs, reference)

    def _compare(self, outputs, reference) -> None:
        if self.ref_failures or not self.w.same(outputs, reference):
            self.failed += 1
            if not self.ref_failures:
                self.notes.append("cycle output differs from the first cycle's")
        self.w.discard(outputs)

    def measure(self) -> dict:
        import tracing

        self.w.setup()  # untimed: first-call costs are not set-up cost
        for _ in range(N_SETUPS):
            state = self._setup()
        # Warm-up cycle (untimed): fills caches and lazy set-up, gives the
        # reference output, and counts the visibilities each cycle grids and
        # degrids from the executor calls.
        tracer = tracing.Tracer()
        hooks = tracing.Hooks(tracer, tracing.ShardMeter()).install()
        try:
            for engine in self.w.engines(state):
                hooks.instrument_engine(engine)
            reference = self.w.cycle(state)
        finally:
            hooks.remove()
        vis_per_cycle = sum(
            s["counts"].get("vis", 0.0) for s in tracer.spans
            if s["name"].endswith((".grid", ".degrid")))
        self.ref_failures, accuracy = self.w.check(reference, state)
        self.attempted += 1
        if self.ref_failures:
            self.failed += 1
            self.notes.extend(self.ref_failures)
        layers = []
        tracer = tracing.Tracer()
        meter = tracing.ShardMeter()
        start = time.perf_counter()
        while True:
            self._timed_cycle(self._setup(), reference)
            if self.trace:
                layers.append(self._traced_cycle(tracer, meter, reference))
            elapsed = time.perf_counter() - start
            per_step = elapsed / max(1, len(self.times))
            if not self.times and self.attempted > MIN_CYCLES + 1:
                break
            if len(self.times) >= MIN_CYCLES and elapsed + per_step > self.seconds:
                break
        rss = peak_rss_mb()
        if not self.times:
            raise RuntimeError("no cycle completed:\n" + "\n".join(self.notes))
        cycle_s = statistics.median(self.times)
        result = {
            "cycle_s": cycle_s,
            "vis_per_s": vis_per_cycle / cycle_s,
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": rss,
            "pass_ratio": (self.attempted - self.failed) / self.attempted,
            "image_rel_err": accuracy["image_rel_err"],
            "predict_rel_err": accuracy["predict_rel_err"],
            "dynamic_range": accuracy["dynamic_range"],
        }
        info = {
            "cycle_samples": len(self.times), "cycle_times_s": self.times,
            "tail_percentile": tail_percentile(len(self.times)),
            "setup_times_s": self.setups, "vis_per_cycle": vis_per_cycle,
            "accuracy": accuracy, "notes": self.notes,
            "attempted": self.attempted, "failed": self.failed,
        }
        if self.trace:
            measured = {name: statistics.median(c[name] for c in layers) for name in layers[0]}
            measured["trace.overhead"] = statistics.median(self.traced_times) / cycle_s
            measured["selfcal.cycles"] = accuracy.get("selfcal_cycles", 0.0)
            measured["selfcal.gain_amp_err"] = accuracy.get("gain_amp_err", 0.0)
            per_layer = {name: measured[name] for name in tracing.PER_LAYER}
            OUT_DIR.mkdir(exist_ok=True)
            trace_path = OUT_DIR / f"trace-{self.w.name}.json"
            tracer.write(str(trace_path))
            info["trace_file"] = str(trace_path.relative_to(ROOT))
            info["traced_cycle_times_s"] = self.traced_times
            return {"metrics": per_layer, "end_to_end": result, "info": info}
        return {"metrics": result, "info": info}

    def _traced_cycle(self, tracer, meter, reference) -> dict:
        """A traced set-up followed by a traced cycle; returns its layers."""
        import tracing

        tracer.cycle = len(self.traced_times) + 1
        hooks = tracing.Hooks(tracer, meter).install()
        try:
            state = self.w.setup(backend=tracing.TracedBackend(tracer, meter))
            for engine in self.w.engines(state):
                hooks.instrument_engine(engine)
            self.attempted += 1
            t0 = time.perf_counter()
            with tracer.span("cycle"):
                outputs = self.w.cycle(state)
            self.traced_times.append(time.perf_counter() - t0)
        finally:
            hooks.remove()
        self._compare(outputs, reference)
        spans = [s for s in tracer.spans if s["cycle"] == tracer.cycle]
        tracing.check_coverage(self.w.name, spans)
        return tracing.cycle_layers(spans)


def stop_children() -> None:
    """Stop and reap every process this run started.

    Worker processes are joined by their executors; what outlives them is
    the ``multiprocessing`` resource tracker that the first shared-memory
    segment launched.  Left alone it would outlast this process and stay
    behind as an orphan (or an unreaped zombie).
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem size (tiny: the benchmark's own smoke tests)")
    args = parser.parse_args(argv)

    set_env = [name for name in FORBIDDEN_ENV if name in os.environ]
    if set_env:
        print(f"refusing to run: {', '.join(set_env)} selects another code path "
              "than the default", file=sys.stderr)
        return 2
    # Measure the checkout's own program, never an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size, work_dir=str(OUT_DIR))
    try:
        report = Run(workload, args.seconds, bool(args.trace)).measure()
        run = report["info"]
    finally:
        workload.close()
    host = fingerprint()  # after the run: its git child must not count in peak RSS
    units = dict(END_TO_END)
    if args.trace:
        import tracing

        units = tracing.PER_LAYER
    attempted, failed = run["attempted"], run["failed"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {run['cycle_samples']}  tail percentile {run['tail_percentile']}")
    print("# host " + json.dumps(host))
    for name, value in report["metrics"].items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    for note in run["notes"]:
        print("# note: " + note.strip().replace("\n", "\n#   "))
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "size": args.size, "host": host, **report}
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, default=float))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
