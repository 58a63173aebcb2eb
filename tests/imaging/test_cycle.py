"""Integration tests for the imaging major cycle (paper Fig 2)."""

import numpy as np
import pytest

import repro.imaging.pipeline as pipeline
from repro.core.pipeline import IDG
from repro.imaging.cycle import ImagingCycle
from repro.imaging.image import find_peak
from repro.sky.model import SkyModel
from repro.sky.simulate import predict_visibilities


@pytest.fixture(scope="module")
def cycle(small_idg, small_obs, small_baselines):
    return ImagingCycle(
        small_idg, small_obs.uvw_m, small_obs.frequencies_hz, small_baselines
    )


def test_psf_properties(cycle, small_gridspec):
    psf = cycle.make_psf()
    g = small_gridspec.grid_size
    assert psf.shape == (g, g)
    assert psf[g // 2, g // 2] == pytest.approx(1.0)
    assert np.abs(psf).max() == pytest.approx(1.0)


def test_dirty_image_peak(cycle, single_source_vis, snapped_source, small_gridspec):
    l0, m0, flux = snapped_source
    dirty = cycle.make_dirty_image(single_source_vis)
    row, col, value = find_peak(dirty)
    g, dl = small_gridspec.grid_size, small_gridspec.pixel_scale
    assert (row, col) == (round(m0 / dl) + g // 2, round(l0 / dl) + g // 2)
    assert value == pytest.approx(flux, rel=0.01)


def test_predict_of_point_model_matches_oracle(cycle, snapped_source, small_obs,
                                               small_baselines, small_gridspec):
    l0, m0, flux = snapped_source
    g, dl = small_gridspec.grid_size, small_gridspec.pixel_scale
    model = np.zeros((g, g))
    model[round(m0 / dl) + g // 2, round(l0 / dl) + g // 2] = flux
    predicted = cycle.predict(model)
    oracle = predict_visibilities(
        small_obs.uvw_m, small_obs.frequencies_hz,
        SkyModel.single(l0, m0, flux=flux), baselines=small_baselines,
    )
    mask = ~cycle.plan.flagged
    rms = np.sqrt((np.abs(predicted[mask] - oracle[mask]) ** 2).mean())
    assert rms / np.sqrt((np.abs(oracle[mask]) ** 2).mean()) < 1e-3


def test_major_cycle_reduces_residual(cycle, single_source_vis):
    result = cycle.run(single_source_vis, n_major=3, minor_iterations=100)
    rms = result.residual_rms_history
    assert len(rms) >= 2
    assert rms[-1] < rms[0]
    assert result.n_major_cycles <= 3


def test_major_cycle_locates_source(cycle, single_source_vis, snapped_source, small_gridspec):
    l0, m0, _ = snapped_source
    result = cycle.run(single_source_vis, n_major=3, minor_iterations=100)
    row, col, _ = find_peak(result.model_image)
    g, dl = small_gridspec.grid_size, small_gridspec.pixel_scale
    assert abs(row - (round(m0 / dl) + g // 2)) <= 1
    assert abs(col - (round(l0 / dl) + g // 2)) <= 1


def test_major_cycle_recovers_most_flux(cycle, single_source_vis, snapped_source):
    _, _, flux = snapped_source
    result = cycle.run(
        single_source_vis, n_major=6, minor_iterations=300, threshold_factor=1.5
    )
    recovered = result.total_clean_flux()
    assert 0.7 * flux <= recovered <= 1.3 * flux


def test_noise_only_input_cleans_nothing_much(cycle, single_source_vis):
    rng = np.random.default_rng(0)
    noise = (
        0.001 * (rng.standard_normal(single_source_vis.shape)
                 + 1j * rng.standard_normal(single_source_vis.shape))
    ).astype(np.complex64)
    result = cycle.run(noise, n_major=2, minor_iterations=50)
    assert abs(result.total_clean_flux()) < 0.05


def test_restored_product(cycle, single_source_vis, snapped_source, small_gridspec):
    """MajorCycleResult.restored: peak reads the flux, beam is sane."""
    result = cycle.run(single_source_vis, n_major=3, minor_iterations=150,
                       threshold_factor=1.5)
    restored, beam = result.restored()
    l0, m0, flux = snapped_source
    g, dl = small_gridspec.grid_size, small_gridspec.pixel_scale
    row, col = round(m0 / dl) + g // 2, round(l0 / dl) + g // 2
    assert restored[row, col] == pytest.approx(flux, rel=0.1)
    assert beam.fwhm_major_px >= beam.fwhm_minor_px > 0


def test_bad_major_gain_raises_before_any_gridding(small_idg, small_obs,
                                                   small_baselines,
                                                   single_source_vis,
                                                   monkeypatch):
    idg = IDG(small_idg.gridspec, small_idg.config)
    calls = []
    grid = idg.grid
    monkeypatch.setattr(idg, "grid",
                        lambda *a, **k: calls.append(1) or grid(*a, **k))
    cycle = ImagingCycle(
        idg, small_obs.uvw_m, small_obs.frequencies_hz, small_baselines
    )
    for bad in (0.0, 1.5):
        with pytest.raises(ValueError, match="major_gain"):
            cycle.run(single_source_vis, n_major=1, major_gain=bad)
    assert calls == []


def test_default_processor_grids_on_idg_itself(small_idg, small_obs,
                                               small_baselines,
                                               single_source_vis, monkeypatch):
    """The default 2-D processor grids on the given gridder itself and
    builds no executor through ``make_engine`` (a tracer that wraps both
    would otherwise see every grid call twice)."""
    calls = []
    make_engine = pipeline.make_engine
    monkeypatch.setattr(pipeline, "make_engine",
                        lambda *a, **k: calls.append(1) or make_engine(*a, **k))
    cycle = ImagingCycle(
        small_idg, small_obs.uvw_m, small_obs.frequencies_hz, small_baselines
    )
    cycle.run(single_source_vis, n_major=1, minor_iterations=20)
    assert calls == []
