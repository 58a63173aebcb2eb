"""Spans around the calls into each layer, recorded from the benchmark's side.

Nothing under ``src/`` changes for the trace.  Three kinds of hook record a
span (name, start, end, parent, cycle id) plus counts at each layer boundary:

* **Kernels** — :class:`TracedBackend` delegates to whatever
  ``resolve_backend(None)`` returns and is passed as ``IDGConfig(backend=...)``,
  so the traced run uses the program's default backend.
* **Module-level layers** — the callable is replaced where its caller looks
  it up (CLEAN, StEFCal, the grid FFTs, ``save_checkpoint``, ``Plan.create``,
  ``make_engine``, ``make_ftprocessor``, ``DatasetWriter.finalize`` and the
  workloads' ``open_store``) and restored afterwards.
* **Executors and IDG instances** — ``grid``/``degrid``/``aterm_fields`` are
  wrapped on the instance; after each call the executor's public
  ``last_telemetry`` is read for the streaming stages and process shards.

Spans recorded inside forked process shards never reach the parent, so the
kernels there add their seconds and counts to a :class:`ShardMeter` in
memory shared across the fork.  Spans stay in memory and are written out at
the end in the Chrome-trace format of
:meth:`repro.runtime.telemetry.Telemetry.chrome_trace`.

A hook point that no longer exists raises :class:`TraceError` at install
time, and :func:`check_coverage` raises when a layer a workload exercises
records no calls: a refactor must never silently turn a layer's time to 0.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import mmap
import multiprocessing
import os
import resource
import threading
import time
from typing import Any, Callable, Final

import numpy as np

from repro.backends import resolve_backend
from repro.backends.base import KernelBackend
from repro.data.store import ChunkedVisibilitySource
from repro.perfmodel import opcount
from repro.runtime.recovery import group_visibility_count


#: The kernel entry points of :class:`repro.backends.base.KernelBackend`.
KERNELS = ("gridder", "degridder", "subgrid_fft", "subgrid_ifft", "adder", "splitter")


class TraceError(RuntimeError):
    """A hook point is missing or a layer a workload exercises recorded nothing."""


# --------------------------------------------------------------- recording


class Tracer:
    """Append-only span recorder.

    A span's parent is the innermost open span of its thread; work started
    in a helper thread (executor pools, streaming stages) with no open span
    of its own is attributed to the main thread's innermost open span.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.cycle = "warmup"
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self.t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, **counts: float):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        record = {"id": next(self._ids), "name": name, "parent": parent,
                  "cycle": self.cycle, "tid": threading.get_ident(),
                  "counts": dict(counts)}
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace events (``ph: X``, microseconds)."""
        tids = {tid: k for k, tid in enumerate(sorted({s["tid"] for s in self.spans}))}
        events = [
            {"name": s["name"], "cat": "layer", "ph": "X", "pid": 1,
             "tid": tids[s["tid"]], "ts": (s["start"] - self.t0) * 1e6,
             "dur": (s["end"] - s["start"]) * 1e6,
             "args": {"id": s["id"], "parent": s["parent"], "cycle": s["cycle"],
                      **s["counts"]}}
            for s in sorted(self.spans, key=lambda s: s["start"])
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


class ShardMeter:
    """Totals that forked process shards add to.

    The values live in an anonymous shared mapping made before the fork, so
    the parent reads what the shards added once the call returns.
    """

    NAMES = tuple(f"{kernel}.{count}" for kernel in KERNELS
                  for count in ("s", "calls", "vis", "subgrids")
                  ) + ("store_read.s", "store_read.calls", "store_read.bytes")

    def __init__(self) -> None:
        self._map = mmap.mmap(-1, 8 * len(self.NAMES))
        self._values = np.frombuffer(self._map, dtype=np.float64)
        self._lock = multiprocessing.get_context("fork").Lock()
        self.pid = os.getpid()

    def in_shard(self) -> bool:
        return os.getpid() != self.pid

    def add(self, values: dict[str, float]) -> None:
        with self._lock:
            for name, value in values.items():
                self._values[self.NAMES.index(name)] += value

    def take(self) -> dict[str, float]:
        with self._lock:
            out = dict(zip(self.NAMES, self._values.tolist()))
            self._values[:] = 0.0
        return out


# ------------------------------------------------------------------ kernels


class _MeteredSource:
    """A store-backed visibility source whose block reads are timed."""

    def __init__(self, source, meter: ShardMeter):
        self._source = source
        self._meter = meter
        self.shape, self.dtype, self.ndim = source.shape, source.dtype, source.ndim

    def __getitem__(self, key):
        t0 = time.perf_counter()
        block = self._source[key]
        self._meter.add({"store_read.s": time.perf_counter() - t0, "store_read.calls": 1,
                         "store_read.bytes": block.nbytes})
        return block

    def reshape(self, *shape):
        return _MeteredSource(self._source.reshape(*shape), self._meter)

    def __getattr__(self, name):
        return getattr(self._source, name)


class TracedBackend(KernelBackend):
    """Delegates every kernel entry point to the default backend, in a span."""

    def __init__(self, tracer: Tracer, meter: ShardMeter):
        self.inner = resolve_backend(None)
        self.name = f"traced-{self.inner.name}"
        self.tracer = tracer
        self.meter = meter

    @contextlib.contextmanager
    def _layer(self, name: str, **counts: float):
        """A span in this process; in a forked shard, totals on the meter."""
        if not self.meter.in_shard():
            with self.tracer.span(name, calls=1, **counts):
                yield
            return
        t0 = time.perf_counter()
        yield
        self.meter.add({f"{name}.s": time.perf_counter() - t0, f"{name}.calls": 1,
                        **{f"{name}.{k}": v for k, v in counts.items()}})

    def grid_work_group(self, plan, start, stop, uvw_m, visibilities, *args, **kw):
        if self.meter.in_shard() and isinstance(visibilities, ChunkedVisibilitySource):
            visibilities = _MeteredSource(visibilities, self.meter)
        with self._layer("gridder", vis=group_visibility_count(plan, start, stop)):
            return self.inner.grid_work_group(plan, start, stop, uvw_m, visibilities, *args, **kw)

    def degrid_work_group(self, plan, start, stop, *args, **kw):
        with self._layer("degridder", vis=group_visibility_count(plan, start, stop)):
            return self.inner.degrid_work_group(plan, start, stop, *args, **kw)

    def subgrids_to_fourier(self, subgrid_images):
        with self._layer("subgrid_fft", subgrids=len(subgrid_images)):
            return self.inner.subgrids_to_fourier(subgrid_images)

    def subgrids_to_image(self, subgrid_fourier):
        with self._layer("subgrid_ifft", subgrids=len(subgrid_fourier)):
            return self.inner.subgrids_to_image(subgrid_fourier)

    def add_subgrids(self, grid, plan, subgrids_fourier, start=0, n_workers=1):
        with self._layer("adder", subgrids=len(subgrids_fourier)):
            return self.inner.add_subgrids(grid, plan, subgrids_fourier, start=start,
                                           n_workers=n_workers)

    def split_subgrids(self, grid, plan, start, stop):
        with self._layer("splitter", subgrids=stop - start):
            return self.inner.split_subgrids(grid, plan, start, stop)


# -------------------------------------------------------------------- hooks


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Hooks:
    """Installs and removes every module-level and instance hook of a run."""

    ENGINE_LABELS = {"IDG": "serial", "ParallelIDG": "threads",
                     "StreamingIDG": "stream", "ProcessShardedIDG": "procs"}

    def __init__(self, tracer: Tracer, meter: ShardMeter):
        self.tracer = tracer
        self.meter = meter
        self._undo: list[Callable[[], None]] = []
        self._opcounts: dict[int, tuple[Any, dict]] = {}

    # -- patching primitives

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        if not hasattr(owner, attr):
            raise TraceError(f"hook point {getattr(owner, '__name__', owner)!r}.{attr} is missing")
        in_dict = isinstance(owner, type) or attr in getattr(owner, "__dict__", {})
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(getattr(owner, attr)))
        if in_dict:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def _timed(self, name: str, counts: Callable[..., dict] | None = None):
        tracer = self.tracer

        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name) as span_counts:
                    span_counts["calls"] = 1
                    result = fn(*args, **kwargs)
                    if counts is not None:
                        span_counts.update(counts(result, *args, **kwargs))
                    return result
            return wrapper
        return make

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- the hook set

    def install(self) -> "Hooks":
        import repro.calibration.selfcal as selfcal
        import repro.core.plan as core_plan
        import repro.data.store as store
        import repro.imaging.cycle as cycle
        import repro.imaging.image as image
        import repro.imaging.pipeline as pipeline
        import repro.parallel.process as process

        import workloads

        clean_counts = lambda r, *a, **k: {"components": len(r.components)}  # noqa: E731
        for module in (cycle, selfcal):
            self._patch(module, "hogbom_clean", self._timed("clean", clean_counts))
        self._patch(selfcal, "stefcal", self._timed(
            "stefcal", lambda r, *a, **k: {"iterations": float(np.sum(r.n_iterations))}))
        for module in (image, pipeline):
            for fn in ("centered_fft2", "centered_ifft2"):
                self._patch(module, fn, self._timed("grid_fft"))
        self._patch(process, "save_checkpoint", self._timed(
            "checkpoint", lambda written, *a, **k: {"mb": os.path.getsize(written) / 1e6}))
        self._patch_plan_create(core_plan.Plan)
        self._patch(workloads, "open_store", self._timed("store.open"))
        self._patch(store.DatasetWriter, "finalize", self._timed(
            "store.write", lambda written, *a, **k: {
                "mb": (written.visibility_nbytes + written.uvw_m.nbytes) / 1e6}))
        self._patch(pipeline, "make_engine", self._engine_factory)
        self._patch(selfcal, "make_ftprocessor", self._processor_factory)
        return self

    def _patch_plan_create(self, plan_cls) -> None:
        def counts(plan, *a, **k):
            return {"subgrids": plan.n_subgrids,
                    "vis": float(plan.statistics.n_visibilities_gridded)}

        timed = self._timed("plan", counts)
        self._patch(plan_cls, "create", lambda bound: classmethod(timed(bound.__func__)))

    def _engine_factory(self, make_engine):
        def wrapper(*args, **kwargs):
            return self.instrument_engine(make_engine(*args, **kwargs))
        return wrapper

    def _processor_factory(self, make_ftprocessor):
        def wrapper(*args, **kwargs):
            processor = make_ftprocessor(*args, **kwargs)
            self._patch(processor, "invert", self._timed("invert"))
            self._patch(processor, "predict", self._timed("predict"))
            return processor
        return wrapper

    def instrument_engine(self, engine):
        """Wrap an executor's (or a serial IDG's) grid and degrid."""
        label = self.ENGINE_LABELS.get(type(engine).__name__)
        if label is None:
            raise TraceError(f"unknown executor type {type(engine).__name__}")
        idg = engine if label == "serial" else engine.idg
        if "aterm_fields" not in idg.__dict__:  # executors can share one IDG
            self._patch(idg, "aterm_fields", self._timed(
                "aterm", lambda fields, *a, **k: {"fields": len(fields or ())}))
        for method in ("grid", "degrid"):
            self._patch(engine, method, self._engine_call(engine, label, method))
        return engine

    def _plan_counts(self, plan, kernel: str) -> dict:
        key = id(plan)
        if key not in self._opcounts:
            self._opcounts[key] = (plan, {
                "gridder": opcount.gridder_counts(plan),
                "degridder": opcount.degridder_counts(plan),
                "adder": opcount.adder_counts(plan),
                "splitter": opcount.splitter_counts(plan),
            })
        counts = self._opcounts[key][1]
        side = "adder" if kernel == "gridder" else "splitter"
        return {f"{kernel}.flop": counts[kernel].flops,
                f"{kernel}.sincos": counts[kernel].sincos_evals,
                f"{kernel}.bytes": counts[kernel].bytes_device,
                f"{side}.bytes": counts[side].bytes_device}

    def _engine_call(self, engine, label: str, method: str):
        tracer = self.tracer
        kernel = "gridder" if method == "grid" else "degridder"

        def make(fn):
            def wrapper(plan, *args, **kwargs):
                self.meter.take()
                with tracer.span(f"{label}.{method}") as counts:
                    cpu0, child0 = time.process_time(), _children_cpu_s()
                    result = fn(plan, *args, **kwargs)
                    counts.update(calls=1, vis=float(plan.statistics.n_visibilities_gridded),
                                  cpu_s=time.process_time() - cpu0,
                                  child_cpu_s=_children_cpu_s() - child0,
                                  workers=float(getattr(engine, "n_workers", 1)),
                                  **self._plan_counts(plan, kernel))
                    counts.update(_executor_telemetry(engine, label))
                    counts.update({f"shard.{k}": v for k, v in self.meter.take().items() if v})
                return result
            return wrapper
        return make


def _executor_telemetry(engine, label: str) -> dict:
    """Counts read from an executor's public ``last_telemetry``/fault report."""
    out: dict[str, float] = {}
    report = getattr(engine, "last_fault_report", None)
    if report is not None:
        out["retries"] = float(report.n_retries)
        out["dead_letters"] = float(report.n_dead_letters)
    telemetry = getattr(engine, "last_telemetry", None)
    if telemetry is None:
        return out
    if label == "stream":
        # The source stage's span includes its wait on the credit gate.
        source = telemetry.stages[0] if telemetry.stages else None
        out["source_busy_s"] = telemetry.stage_busy_seconds(source) if source else 0.0
        out["stage_busy_s"] = sum(
            telemetry.stage_busy_seconds(s) for s in telemetry.stages if s != source)
        out["queue_wait_s"] = sum(
            q.blocked_put_seconds + q.blocked_get_seconds for q in telemetry.queues)
    elif label == "procs":
        per_shard: dict[str, float] = {}
        for s in telemetry.spans("shard_compute"):
            per_shard[s.worker] = per_shard.get(s.worker, 0.0) + s.duration
        out["shard_busy_s"] = sum(per_shard.values())
        out["largest_shard_s"] = max(per_shard.values(), default=0.0)
    return out


# ----------------------------------------------------------------- analysis


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _union(children.get(s["id"], []), s["start"], s["end"]) for s in spans}


#: Per-layer metric name -> unit, in BENCHMARK.json order.
PER_LAYER: Final = {
    "plan.s": "s", "plan.subgrids": "count", "plan.vis_per_subgrid": "vis",
    "aterm.s": "s", "aterm.fields": "count",
    "gridder.s": "s", "gridder.calls": "count", "gridder.vis_per_s": "vis/s",
    "gridder.flop_per_s": "flop/s", "gridder.sincos_per_s": "1/s",
    "gridder.flop_per_byte": "flop/B",
    "degridder.s": "s", "degridder.calls": "count", "degridder.vis_per_s": "vis/s",
    "degridder.flop_per_s": "flop/s", "degridder.sincos_per_s": "1/s",
    "degridder.flop_per_byte": "flop/B",
    "subgrid_fft.s": "s", "subgrid_ifft.s": "s", "subgrid_fft.subgrids": "count",
    "adder.s": "s", "splitter.s": "s", "adder.mb": "MB",
    "grid_fft.s": "s", "grid_fft.calls": "count",
    "clean.s": "s", "clean.components": "count",
    "invert.self_s": "s", "predict.self_s": "s", "invert.calls": "count",
    "predict.calls": "count",
    "stefcal.s": "s", "stefcal.iterations": "count",
    "selfcal.cycles": "count", "selfcal.gain_amp_err": "ratio",
    "serial.self_s": "s",
    "threads.wall_s": "s", "threads.kernel_busy_s": "s", "threads.parallel_eff": "ratio",
    "threads.cpu_s": "s",
    "stream.busy_s": "s", "stream.queue_wait_s": "s", "stream.gate_wait_s": "s",
    "stream.cpu_s": "s",
    "procs.shard_busy_s": "s", "procs.overhead_s": "s", "procs.cpu_s": "s",
    "store.read_s": "s", "store.read_mb": "MB", "store.write_s": "s", "store.write_mb": "MB",
    "checkpoint.s": "s", "checkpoint.count": "count", "checkpoint.mb": "MB",
    "retries": "count", "dead_letters": "count",
    "cycle.traced_s": "s", "cycle.unattributed_s": "s", "trace.overhead": "ratio",
    "fig9.kernel_share": "ratio",
}



def cycle_layers(spans: list[dict]) -> dict[str, float]:
    """The per-layer values of one traced set-up plus cycle (one cycle id)."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    selfs = self_times(spans)

    def span_count(name: str, key: str = "calls") -> float:
        return sum(s["counts"].get(key, 0.0) for s in by_name.get(name, ()))

    def engine_sum(key: str, labels=("serial", "threads", "stream", "procs")) -> float:
        return sum(span_count(f"{label}.{m}", key) for label in labels for m in ("grid", "degrid"))

    # What kernels in forked shards added to the meter, per engine call.
    shard = {k: engine_sum(f"shard.{k}") for k in ShardMeter.NAMES}

    def total(name: str) -> float:
        spans_s = sum(s["end"] - s["start"] for s in by_name.get(name, ()))
        return spans_s + shard.get(f"{name}.s", 0.0)

    def count(name: str, key: str = "calls") -> float:
        return span_count(name, key) + shard.get(f"{name}.{key}", 0.0)

    def self_s(name: str) -> float:
        return sum(selfs[s["id"]] for s in by_name.get(name, ()))

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    out: dict[str, float] = {}
    out["plan.s"] = total("plan")
    out["plan.subgrids"] = count("plan", "subgrids")
    out["plan.vis_per_subgrid"] = ratio(count("plan", "vis"), out["plan.subgrids"])
    out["aterm.s"] = total("aterm")
    out["aterm.fields"] = count("aterm", "fields")
    for kernel in ("gridder", "degridder"):
        seconds = total(kernel)
        flop = engine_sum(f"{kernel}.flop")
        out[f"{kernel}.s"] = seconds
        out[f"{kernel}.calls"] = count(kernel)
        out[f"{kernel}.vis_per_s"] = ratio(count(kernel, "vis"), seconds)
        out[f"{kernel}.flop_per_s"] = ratio(flop, seconds)
        out[f"{kernel}.sincos_per_s"] = ratio(engine_sum(f"{kernel}.sincos"), seconds)
        out[f"{kernel}.flop_per_byte"] = ratio(flop, engine_sum(f"{kernel}.bytes"))
    out["subgrid_fft.s"] = total("subgrid_fft")
    out["subgrid_ifft.s"] = total("subgrid_ifft")
    out["subgrid_fft.subgrids"] = count("subgrid_fft", "subgrids") + count("subgrid_ifft", "subgrids")
    out["adder.s"] = total("adder")
    out["splitter.s"] = total("splitter")
    out["adder.mb"] = engine_sum("adder.bytes") / 1e6
    out["grid_fft.s"] = total("grid_fft")
    out["grid_fft.calls"] = count("grid_fft")
    out["clean.s"] = total("clean")
    out["clean.components"] = count("clean", "components")
    for name in ("invert", "predict"):
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.calls"] = count(name)
    out["stefcal.s"] = total("stefcal")
    out["stefcal.iterations"] = count("stefcal", "iterations")
    out["serial.self_s"] = self_s("serial.grid") + self_s("serial.degrid")

    wall = total("threads.grid") + total("threads.degrid")
    busy = sum(
        s["end"] - s["start"] for s in spans if s["name"] in KERNELS
        and s["parent"] in {t["id"] for t in by_name.get("threads.grid", ())
                            + by_name.get("threads.degrid", ())})
    out["threads.wall_s"] = wall
    out["threads.kernel_busy_s"] = busy
    workers = max((s["counts"].get("workers", 1.0) for s in by_name.get("threads.grid", ())),
                  default=1.0)
    out["threads.parallel_eff"] = ratio(busy, wall * workers)
    out["threads.cpu_s"] = engine_sum("cpu_s", ("threads",))

    out["stream.busy_s"] = engine_sum("stage_busy_s", ("stream",))
    out["stream.queue_wait_s"] = engine_sum("queue_wait_s", ("stream",))
    out["stream.gate_wait_s"] = engine_sum("source_busy_s", ("stream",))
    out["stream.cpu_s"] = engine_sum("cpu_s", ("stream",))

    procs_wall = total("procs.grid") + total("procs.degrid")
    out["procs.shard_busy_s"] = engine_sum("shard_busy_s", ("procs",))
    out["procs.overhead_s"] = procs_wall - engine_sum("largest_shard_s", ("procs",))
    out["procs.cpu_s"] = (engine_sum("cpu_s", ("procs",))
                          + engine_sum("child_cpu_s", ("procs",)))

    out["store.read_s"] = total("store.open") + total("store_read")
    out["store.read_mb"] = count("store_read", "bytes") / 1e6
    out["store.write_s"] = total("store.write")
    out["store.write_mb"] = count("store.write", "mb")
    out["checkpoint.s"] = total("checkpoint")
    out["checkpoint.count"] = count("checkpoint")
    out["checkpoint.mb"] = count("checkpoint", "mb")
    out["retries"] = engine_sum("retries")
    out["dead_letters"] = engine_sum("dead_letters")

    roots = by_name.get("cycle", ())
    cycle_s = total("cycle")
    out["cycle.traced_s"] = cycle_s
    out["cycle.unattributed_s"] = sum(
        (r["end"] - r["start"]) - _union(
            [(s["start"], s["end"]) for s in spans if s is not r], r["start"], r["end"])
        for r in roots)
    out["fig9.kernel_share"] = ratio(out["gridder.s"] + out["degridder.s"], cycle_s)
    return out


#: Span names each workload must record at least once per traced cycle.
EXPECTED: Final = {
    "via-cycle": ("plan", "aterm", "serial.grid", "serial.degrid", "gridder", "degridder",
                  "subgrid_fft", "subgrid_ifft", "adder", "splitter", "grid_fft", "clean"),
    "selfcal-wstack": ("plan", "aterm", "threads.grid", "threads.degrid", "gridder",
                       "degridder", "subgrid_fft", "subgrid_ifft", "adder", "splitter",
                       "grid_fft", "clean", "stefcal", "invert", "predict"),
    "ooc-roundtrip": ("plan", "aterm", "store.open", "procs.grid", "gridder", "subgrid_fft",
                      "store_read", "checkpoint", "adder", "grid_fft", "stream.degrid",
                      "splitter", "subgrid_ifft", "degridder", "store.write"),
}


def check_coverage(workload: str, spans: list[dict]) -> None:
    """Raise :class:`TraceError` when an expected layer recorded no calls,
    neither as a span nor on the shard meter."""
    names = {s["name"] for s in spans}
    shard_calls = {key[len("shard."):-len(".calls")] for s in spans
                   for key, value in s["counts"].items()
                   if key.startswith("shard.") and key.endswith(".calls") and value > 0}
    missing = [n for n in EXPECTED[workload] if n not in names | shard_calls]
    if missing:
        raise TraceError(
            f"{workload}: traced cycle recorded no calls at {', '.join(missing)} "
            "(a hook point moved or a layer stopped running)")
