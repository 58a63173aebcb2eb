"""The benchmark's own tests: ``python -m pytest perfbench -q`` from the root.

Smoke runs use ``--size tiny``; they check the result contract, not speed.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
from typing import Final

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLEAN_ENV: Final = {k: v for k, v in os.environ.items() if k not in run.FORBIDDEN_ENV}


def bench(*args: str, cwd: pathlib.Path = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170, env=CLEAN_ENV if env is None else env)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_every_check(workload, trace):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", trace, "--size", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = tracing.PER_LAYER if trace == "1" else run.END_TO_END
    assert list(res["metrics"]) == list(names)
    for name, metric in res["metrics"].items():
        assert metric["unit"] == names[name]
        assert np.isfinite(metric["value"])
    if trace == "0":
        assert res["metrics"]["pass_ratio"]["value"] == 1.0


def test_two_seeds_give_the_same_metric_names():
    a = result_of(bench("--workload", "via-cycle", "--seed", "1", "--seconds", "1",
                        "--size", "tiny"))
    b = result_of(bench("--workload", "via-cycle", "--seed", "2", "--seconds", "1",
                        "--size", "tiny"))
    assert list(a["metrics"]) == list(b["metrics"])


class _CorruptingViaCycle(workloads.ViaCycle):
    """Writes a NaN into a copy of every output after the first cycle."""

    calls = 0

    def cycle(self, state):
        outputs = super().cycle(state)
        self.calls += 1
        if self.calls > 1:
            outputs = {k: v.copy() for k, v in outputs.items()}
            outputs["residual"][0, 0] = np.nan
        return outputs


def test_corrupted_output_counts_as_failed():
    w = _CorruptingViaCycle(1, "tiny")
    state = w.setup()
    good = w.cycle(state)
    bad = w.cycle(state)
    assert w.check(good, state)[0] == []
    assert any("non-finite" in f for f in w.check(bad, state)[0])
    assert not w.same(bad, good)

    report = run.Run(_CorruptingViaCycle(1, "tiny"), seconds=0.1, trace=False).measure()
    info = report["info"]
    assert info["failed"] == info["attempted"] - 1  # all but the reference cycle
    assert report["metrics"]["pass_ratio"] < 1.0


def test_refuses_a_non_default_code_path():
    proc = bench("--workload", "via-cycle", "--seed", "1", "--seconds", "1", "--size",
                 "tiny", env={**CLEAN_ENV, "IDG_BACKEND": "reference"})
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = bench("--workload", "via-cycle", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_stop_children_reaps_the_resource_tracker():
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=16)
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run.stop_children()
    with pytest.raises(ProcessLookupError):  # exited and reaped, not a zombie
        os.kill(pid, 0)


def test_trace_fails_loudly_when_a_layer_goes_missing(monkeypatch):
    import repro.calibration.selfcal as selfcal

    monkeypatch.delattr(selfcal, "stefcal")
    with pytest.raises(tracing.TraceError, match="stefcal"):
        tracing.Hooks(tracing.Tracer(), tracing.ShardMeter()).install()

    spans = [{"name": n, "counts": {}} for n in tracing.EXPECTED["via-cycle"]
             if n != "clean"]
    with pytest.raises(tracing.TraceError, match="clean"):
        tracing.check_coverage("via-cycle", spans)


def test_hooks_are_removed_after_a_traced_cycle():
    import repro.core.plan as core_plan
    import repro.imaging.cycle as cycle

    before = (cycle.hogbom_clean, core_plan.Plan.__dict__["create"])
    hooks = tracing.Hooks(tracing.Tracer(), tracing.ShardMeter()).install()
    assert cycle.hogbom_clean is not before[0]
    hooks.remove()
    assert (cycle.hogbom_clean, core_plan.Plan.__dict__["create"]) == before


def test_self_time_subtracts_overlapping_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},  # overlaps id 2
    ]
    assert tracing.self_times(spans) == {1: 5.0, 2: 3.0, 3: 3.0}
