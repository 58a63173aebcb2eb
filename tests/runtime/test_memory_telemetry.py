"""Memory gauges: rss/peak-rss/arena sampling and their export as Chrome
trace counter events."""

import os
import subprocess
import sys

import repro
from repro.runtime import peak_rss_bytes, record_memory_gauges, rss_bytes
from repro.runtime.telemetry import Telemetry


def test_rss_probes_report_plausible_values():
    rss = rss_bytes()
    peak = peak_rss_bytes()
    # A running CPython interpreter holds at least a few MB and the peak
    # high-water mark can never undercut current residency (modulo the
    # probes reading /proc and getrusage at slightly different instants).
    assert rss > 1 << 20
    assert peak > 1 << 20
    assert peak >= rss // 2


def test_rss_tracks_a_large_allocation():
    """Measured in a fresh interpreter.  In the long-lived test process the
    allocator may serve the ballast from pages that are already resident
    (glibc raises its mmap threshold after large frees), so the growth
    would not show."""
    script = (
        "import numpy as np\n"
        "from repro.runtime import rss_bytes\n"
        "before = rss_bytes()\n"
        "ballast = np.ones(32 << 20, dtype=np.uint8)  # 32 MB, touched\n"
        "print(rss_bytes() - before)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, check=True,
    )
    assert int(result.stdout) > 16 << 20


def test_record_memory_gauges_exports_counter_events():
    tm = Telemetry()
    record_memory_gauges(tm)
    record_memory_gauges(tm)  # gauges are time series, not single samples
    trace = tm.chrome_trace()
    counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
    by_name = {}
    for event in counters:
        by_name.setdefault(event["name"], []).append(event)
    for name in ("rss_bytes", "peak_rss_bytes", "arena_bytes"):
        assert len(by_name[name]) == 2, f"gauge {name} missing from trace"
        for event in by_name[name]:
            (value,) = event["args"].values()
            assert value >= 0


def test_record_memory_gauges_tolerates_no_telemetry():
    record_memory_gauges(None)  # must be a no-op, not an AttributeError
