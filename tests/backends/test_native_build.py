"""Building, caching and loading the ``native`` backend's C library.

Each test points ``XDG_CACHE_HOME`` (and, where it matters, ``CC`` and the
temp dir) at its own directory and uses a fresh :class:`NativeBackend`, so
the process-wide registered instance is never touched.
"""

from __future__ import annotations

import logging
import os
import stat
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.native import NativeBackend, NativeBuildError, cache_dir
from repro.core.pipeline import IDG, IDGConfig
from repro.telescope.observation import ska1_low_observation

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _grid(backend):
    """Grid a small observation through ``backend`` (resolved by ``IDG``)."""
    obs = ska1_low_observation(
        n_stations=4, n_times=4, n_channels=3, integration_time_s=60.0,
        max_radius_m=300.0, seed=3,
    )
    idg = IDG(
        obs.fitting_gridspec(64),
        IDGConfig(subgrid_size=8, kernel_support=2, time_max=4, backend=backend),
    )
    plan = idg.make_plan(obs.uvw_m, obs.frequencies_hz, obs.array.baselines())
    rng = np.random.default_rng(3)
    shape = (obs.array.n_baselines, 4, 3, 2, 2)
    vis = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64
    )
    return idg.grid(plan, obs.uvw_m, vis)


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache directory holding a library built by the default compiler."""
    root = tmp_path_factory.mktemp("warm-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(root))
        backend = NativeBackend()
        if backend.is_fallback:
            pytest.skip("no working C compiler available")
    return root


def _failing_compiler(tmp_path):
    script = tmp_path / "broken-cc"
    script.write_text("#!/bin/sh\necho 'broken-cc: internal error' >&2\nexit 1\n")
    script.chmod(0o755)
    return str(script)


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_no_compiler_gives_vectorized_results_and_one_warning(
    compiler, tmp_path, monkeypatch, caplog
):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    cc = str(tmp_path / "no-such-cc") if compiler == "missing" else _failing_compiler(tmp_path)
    monkeypatch.setenv("CC", cc)
    backend = NativeBackend()
    with caplog.at_level(logging.WARNING, logger="repro.backends.native"):
        grids = [_grid(backend), _grid(backend)]
    warnings = [r for r in caplog.records if "falls back" in r.getMessage()]
    assert len(warnings) == 1, caplog.text
    assert backend.is_fallback
    np.testing.assert_array_equal(grids[0], _grid(get_backend("vectorized")))
    np.testing.assert_array_equal(grids[1], grids[0])
    # a failed build publishes nothing and leaves no temp file behind
    assert not any(cache_dir().iterdir())


def test_warm_cache_runs_no_subprocess(warm_cache, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(warm_cache))
    spawned = []
    real_popen = subprocess.Popen

    def spy(*args, **kwargs):
        spawned.append(args)
        return real_popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", spy)
    backend = NativeBackend()
    backend.ready()
    assert not backend.is_fallback
    assert backend.kernels.path.parent == warm_cache / "repro" / "native"
    assert spawned == []


def test_racing_processes_on_an_empty_cache_both_load(tmp_path):
    script = textwrap.dedent(
        """
        import numpy as np
        from repro.backends import resolve_backend
        from repro.core.gridder import gridder_bucket_core, subgrid_lmn
        from repro.core.scratch import ScratchArena

        backend = resolve_backend("native")
        assert not backend.is_fallback
        rng = np.random.default_rng(0)
        vis = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
        args = (vis, rng.standard_normal((2, 3, 3)) * 100.0, np.full(2, 0.5),
                1e-3, rng.standard_normal((2, 3)), subgrid_lmn(6, 0.1))
        got = backend.kernels.gridder_core(*args, ScratchArena())
        want = gridder_bucket_core(*args, ScratchArena())
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * abs(want).max())
        print(backend.kernels.path)
        """
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    results = [p.communicate(timeout=300) for p in procs]
    for p, (out, err) in zip(procs, results):
        assert p.returncode == 0, err
    paths = {out.strip() for out, _ in results}
    assert len(paths) == 1
    built = sorted((tmp_path / "repro" / "native").iterdir())
    assert [str(p) for p in built] == list(paths)  # no stray temp files


def test_unwritable_cache_dir_falls_back_to_temp_dir(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
    expected = temp_root / f"repro-{os.getuid()}-native"
    assert cache_dir() == expected
    assert stat.S_IMODE(expected.stat().st_mode) == 0o700
    backend = NativeBackend()
    if backend.is_fallback:
        pytest.skip("no working C compiler available")
    assert backend.kernels.path.parent == expected


@pytest.mark.parametrize("planted", ["world-writable", "symlink", "foreign-owned"])
def test_planted_temp_cache_dir_is_refused(planted, tmp_path, monkeypatch, caplog):
    """The temp dir is shared: a fallback directory that another user could
    have filled with a library is not trusted, and the backend falls back."""
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
    target = temp_root / f"repro-{os.getuid()}-native"
    if planted == "world-writable":
        target.mkdir()
        target.chmod(0o777)
    elif planted == "symlink":
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir(mode=0o700)
        target.symlink_to(elsewhere)
    else:
        if os.getuid() != 0:
            pytest.skip("giving a directory to another user needs root")
        target.mkdir(mode=0o700)
        os.chown(target, 12345, -1)
    with pytest.raises(NativeBuildError, match="refusing cache directory"):
        cache_dir()
    backend = NativeBackend()
    with caplog.at_level(logging.WARNING, logger="repro.backends.native"):
        assert backend.is_fallback
    assert "refusing cache directory" in caplog.text
    np.testing.assert_array_equal(_grid(backend), _grid(get_backend("vectorized")))


def test_direct_sum_setting_bypasses_the_cores(warm_cache, monkeypatch):
    """An unevenly spaced (geometric) channel ladder takes the NumPy direct
    sum under ``native``: the compiled cores are never called and results
    are bit-equal to ``vectorized``."""
    from dataclasses import replace

    monkeypatch.setenv("XDG_CACHE_HOME", str(warm_cache))
    backend = NativeBackend()
    assert not backend.is_fallback

    def no_core(*args, **kwargs):
        raise AssertionError("compiled core called on an uneven channel ladder")

    monkeypatch.setattr(backend, "gridder_core", no_core)
    monkeypatch.setattr(backend, "degridder_core", no_core)
    obs = ska1_low_observation(
        n_stations=4, n_times=4, n_channels=3, integration_time_s=60.0,
        max_radius_m=300.0, seed=3,
    )
    obs = replace(obs, frequencies_hz=obs.frequencies_hz[0] * 1.002 ** np.arange(3))
    results = []
    for chosen in (backend, get_backend("vectorized")):
        idg = IDG(
            obs.fitting_gridspec(64),
            IDGConfig(subgrid_size=8, kernel_support=2, time_max=4, backend=chosen),
        )
        plan = idg.make_plan(obs.uvw_m, obs.frequencies_hz, obs.array.baselines())
        rng = np.random.default_rng(3)
        shape = (obs.array.n_baselines, 4, 3, 2, 2)
        vis = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            np.complex64
        )
        grid = idg.grid(plan, obs.uvw_m, vis)
        results.append((grid, idg.degrid(plan, obs.uvw_m, grid)))
    for got, want in zip(results[0], results[1]):
        np.testing.assert_array_equal(got, want)
    assert np.abs(results[0][1]).max() > 0


def test_sincos_within_two_ulp_of_numpy(warm_cache, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(warm_cache))
    kernels = NativeBackend().kernels
    rng = np.random.default_rng(1)
    x = np.concatenate([
        rng.uniform(-1e4, 1e4, 100_000),
        rng.uniform(-4.0, 4.0, 20_000),
        np.arange(-64, 65) * (np.pi / 4),
    ])
    s, c = kernels.sincos(x)
    for got, want in ((s, np.sin(x)), (c, np.cos(x))):
        # ulp of the larger of the two values and of 1/2, so results that
        # cancel to ~0 near multiples of pi are held to an absolute bound
        ulp = np.spacing(np.maximum(np.abs(want), 0.5))
        assert np.max(np.abs(got - want) / ulp) <= 2.0
    special = np.array([np.nan, np.inf, -np.inf])
    s, c = kernels.sincos(special)
    assert np.isnan(s).all() and np.isnan(c).all()


def test_cores_reject_mismatched_shapes(warm_cache, monkeypatch):
    """Extents are checked in Python before any pointer reaches C."""
    from repro.core.gridder import subgrid_lmn
    from repro.core.scratch import ScratchArena

    monkeypatch.setenv("XDG_CACHE_HOME", str(warm_cache))
    kernels = NativeBackend().kernels
    lmn = subgrid_lmn(6, 0.1)
    vis = np.zeros((2, 3, 4, 4), dtype=np.complex128)
    uvw = np.zeros((2, 3, 3))
    with pytest.raises(ValueError, match="inconsistent"):
        kernels.gridder_core(vis, uvw[:1], np.ones(2), 0.0, np.zeros((2, 3)), lmn, ScratchArena())
    with pytest.raises(ValueError, match="pixels"):
        kernels.degridder_core(
            np.zeros((2, 35, 4), dtype=np.complex128), uvw, np.ones(2), 0.0, 4,
            np.zeros((2, 3)), lmn, ScratchArena(),
        )


def test_cores_write_only_their_output(warm_cache, monkeypatch):
    """N**2 = 100 is not a multiple of the 8-pixel block: the padded last
    block must not write past the item, nor past the last item."""
    from repro.core.gridder import subgrid_lmn
    from repro.core.scratch import ScratchArena

    monkeypatch.setenv("XDG_CACHE_HOME", str(warm_cache))
    kernels = NativeBackend().kernels
    rng = np.random.default_rng(5)
    lmn = subgrid_lmn(10, 0.1)
    g, t, c = 2, 3, 4
    uvw = rng.standard_normal((g, t, 3)) * 100.0
    args = (uvw, np.full(g, 0.5), 1e-3)
    offsets = rng.standard_normal((g, 3))
    arena = ScratchArena()
    acc_buffer = arena.take("gridder.acc", (g + 1, 100, 4), np.complex128)
    out_buffer = arena.take("degridder.out", (g + 1, t, c, 4), np.complex128)
    acc_buffer[...] = out_buffer[...] = 7.0
    vis = rng.standard_normal((g, t, c, 4)) + 0j
    kernels.gridder_core(vis, *args, offsets, lmn, arena)
    pixels = rng.standard_normal((g, 100, 4)) + 0j
    kernels.degridder_core(pixels, *args, c, offsets, lmn, arena)
    assert (acc_buffer[g] == 7.0).all()
    assert (out_buffer[g] == 7.0).all()
