"""The call surface every executor shares.

All four engines run one work-group program (``repro.runtime.program``), so
they accept one keyword set — ``grid(plan, uvw, vis, aterms=, grid=,
flags=, aterm_fields=)`` and ``degrid(plan, uvw, grid, aterms=,
aterm_fields=, out=)`` — with bit-identical results, and fail the same way:
by default the first failing stage raises ``WorkGroupError`` naming the
work group and its plan range, with the cause chained.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import COMPLEX_DTYPE
from repro.imaging.pipeline import EXECUTORS, make_engine
from repro.parallel.executor import WorkGroupError


def _engine(idg, executor):
    return make_engine(idg, executor, n_workers=2, start_method="fork")


@pytest.fixture(scope="module")
def aterm_case(conformance):
    case = next(c for c in conformance.cases if c.name == "aterms")
    w = conformance.workload(case)
    # Evaluated once and passed as an override: no engine evaluates its own.
    w = dict(w, fields=w["idg"].aterm_fields(w["plan"], w["aterms"]))
    rng = np.random.default_rng(3)
    w["start_grid"] = (
        rng.standard_normal(w["model"].shape)
        + 1j * rng.standard_normal(w["model"].shape)
    ).astype(COMPLEX_DTYPE)
    return w


def _grid(engine, w):
    into = w["start_grid"].copy()
    result = engine.grid(
        w["plan"], w["obs"].uvw_m, w["vis"], aterms=None, grid=into,
        flags=w["flags"], aterm_fields=w["fields"],
    )
    assert result is into
    return result


def _degrid(engine, w):
    out = np.zeros(w["vis"].shape, dtype=COMPLEX_DTYPE)
    result = engine.degrid(
        w["plan"], w["obs"].uvw_m, w["model"], aterms=None,
        aterm_fields=w["fields"], out=out,
    )
    assert result is out
    return result


@pytest.mark.parametrize("executor", EXECUTORS)
def test_one_keyword_set_bit_identical_to_serial(aterm_case, executor):
    w = aterm_case
    serial = _engine(w["idg"], "serial")
    engine = _engine(w["idg"], executor)
    assert np.array_equal(_grid(engine, w), _grid(serial, w))
    assert np.array_equal(_degrid(engine, w), _degrid(serial, w))


def test_keywords_are_not_ignored(aterm_case):
    """The override and the accumulation change the answer, so the parity
    above proves they reach every engine."""
    w = aterm_case
    serial = _engine(w["idg"], "serial")
    args = (w["plan"], w["obs"].uvw_m, w["vis"])
    identity = serial.grid(*args, flags=w["flags"])
    with_fields = serial.grid(*args, flags=w["flags"], aterm_fields=w["fields"])
    assert not np.allclose(with_fields, identity)
    assert not np.allclose(_grid(serial, w), with_fields)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_failfast_parity(conformance, executor, monkeypatch):
    """A kernel exception with ``max_retries=0`` surfaces from every
    executor as ``WorkGroupError`` with the group and plan range, the cause
    chained, and no fault report."""
    case = next(c for c in conformance.cases if c.name == "baseline")
    w = conformance.workload(case)
    idg = w["idg"].with_config(work_group_size=5)
    assert idg.config.max_retries == 0
    backend_cls = type(idg.backend)
    original = backend_cls.grid_work_group

    def failing(self, plan, start, stop, *args, **kwargs):
        if start == 10:
            raise ValueError("synthetic kernel failure")
        return original(self, plan, start, stop, *args, **kwargs)

    monkeypatch.setattr(backend_cls, "grid_work_group", failing)
    engine = _engine(idg, executor)
    with pytest.raises(
        WorkGroupError, match=r"work group 2 \(plan items \[10, 15\)\)"
    ) as info:
        engine.grid(w["plan"], w["obs"].uvw_m, w["vis"])
    assert info.value.__cause__ is not None
    assert "synthetic kernel failure" in str(info.value)
    assert info.value.stage == "gridder"
    if executor != "processes":  # the worker's exception is carried as text
        assert isinstance(info.value.__cause__, ValueError)
    assert engine.last_fault_report is None


@pytest.mark.parametrize("executor", EXECUTORS)
def test_wrong_out_rejected_before_any_work(aterm_case, executor, monkeypatch):
    """``out`` is validated in the shared prologue: a wrong shape raises
    before any stage runs — and, for processes, before any worker spawns."""
    from repro.parallel import process

    def refuse(*args, **kwargs):
        raise AssertionError("work started before out was validated")

    w = aterm_case
    monkeypatch.setattr(process._ShardSupervisor, "_spawn", refuse)
    monkeypatch.setattr(type(w["idg"].backend), "split_subgrids", refuse)
    wrong = np.zeros(w["vis"].shape[:-1], dtype=COMPLEX_DTYPE)
    with pytest.raises(ValueError, match="out shape"):
        _engine(w["idg"], executor).degrid(
            w["plan"], w["obs"].uvw_m, w["model"], out=wrong
        )


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("axis", [0, 1], ids=["baselines", "timesteps"])
def test_wrong_uvw_rejected_before_any_work(aterm_case, executor, axis, monkeypatch):
    """A ``uvw_m`` the plan was not built for (more baselines or timesteps)
    is rejected in the degrid prologue, as in the grid one: before any stage
    runs or any worker spawns, not answered with zeros."""
    from repro.parallel import process

    def refuse(*args, **kwargs):
        raise AssertionError("work started before uvw_m was validated")

    w = aterm_case
    monkeypatch.setattr(process._ShardSupervisor, "_spawn", refuse)
    monkeypatch.setattr(type(w["idg"].backend), "split_subgrids", refuse)
    uvw_m = w["obs"].uvw_m
    doubled = np.concatenate([uvw_m, uvw_m], axis=axis)
    with pytest.raises(ValueError, match="different observation shape"):
        _engine(w["idg"], executor).degrid(w["plan"], doubled, w["model"])
