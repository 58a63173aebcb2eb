"""FTProcessor variants: 2-D, w-stacked, faceted, and their predict duals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import IDG, IDGConfig
from repro.imaging.cycle import ImagingCycle, psf_image
from repro.imaging.pipeline import (
    ImagingContext,
    make_ftprocessor,
    plan_coverage,
)
from repro.sky.model import SkyModel
from repro.sky.simulate import predict_visibilities
from repro.telescope.observation import ska1_low_observation

GRID = 128
KINDS = ("2d", "wstack", "facets", "wstack_facets")


@pytest.fixture(scope="module")
def setup():
    obs = ska1_low_observation(
        n_stations=8, n_times=16, n_channels=2, integration_time_s=120.0,
        max_radius_m=2000.0, seed=1,
    )
    gridspec = obs.fitting_gridspec(GRID, fill_factor=1.2)
    idg = IDG(gridspec, IDGConfig(subgrid_size=16, kernel_support=6, time_max=8))
    baselines = obs.array.baselines()
    dl = gridspec.pixel_scale
    # off-centre so the source sits in a non-central facet
    sky = SkyModel.single(20 * dl, -14 * dl, flux=5.0)
    vis = predict_visibilities(obs.uvw_m, obs.frequencies_hz, sky,
                               baselines=baselines)
    return obs, idg, baselines, sky, vis


def _context(setup, zero_w: bool = False) -> ImagingContext:
    obs, idg, baselines, _, _ = setup
    uvw = obs.uvw_m
    if zero_w:
        uvw = np.array(uvw, copy=True)
        uvw[:, :, 2] = 0.0
    return ImagingContext(
        idg=idg, uvw_m=uvw, frequencies_hz=obs.frequencies_hz,
        baselines=baselines,
    )


def _source_pixel(setup):
    _, idg, _, sky, _ = setup
    dl = idg.gridspec.pixel_scale
    row = int(round(sky.m[0] / dl)) + GRID // 2
    col = int(round(sky.l[0] / dl)) + GRID // 2
    return row, col


@pytest.mark.parametrize("kind", KINDS)
def test_invert_recovers_source_flux(setup, kind):
    ctx = _context(setup)
    image = make_ftprocessor(ctx, kind).invert(setup[4]).stokes_i
    row, col = _source_pixel(setup)
    peak = image[row, col]
    assert peak == pytest.approx(5.0, rel=0.05)
    # the source pixel is the image maximum
    assert np.unravel_index(np.argmax(image), image.shape) == (row, col)


@pytest.mark.parametrize("kind", ("wstack", "facets", "wstack_facets"))
def test_invert_agrees_with_2d_at_zero_w(setup, kind):
    """All wide-field decompositions degenerate to plain IDG when w == 0.

    The w-stack screen is unity at w = 0, so that variant matches the master
    image everywhere.  Faceted dirty images wrap sidelobes that fall outside
    the (smaller) facet field — inherent to mosaicing dirty images — so the
    facet variants are held to tight agreement in the signal region around
    the source and loose agreement globally.
    """
    ctx = _context(setup, zero_w=True)
    reference = make_ftprocessor(ctx, "2d").invert(setup[4]).stokes_i
    image = make_ftprocessor(ctx, kind).invert(setup[4]).stokes_i
    peak = float(np.abs(reference).max())
    difference = np.abs(image - reference)
    if kind == "wstack":
        assert difference.max() < 0.02 * peak
    else:
        row, col = _source_pixel(setup)
        assert difference[row - 10 : row + 10, col - 10 : col + 10].max() < 0.005 * peak
        assert difference.max() < 0.25 * peak


@pytest.mark.parametrize("kind", ("wstack", "facets", "wstack_facets"))
def test_predict_agrees_with_2d_at_zero_w(setup, kind):
    ctx = _context(setup, zero_w=True)
    row, col = _source_pixel(setup)
    model = np.zeros((GRID, GRID))
    model[row, col] = 5.0
    processor = make_ftprocessor(ctx, kind="2d")
    covered = plan_coverage(processor.plan)
    reference = processor.predict(model)[..., 0, 0][covered]
    predicted = make_ftprocessor(ctx, kind).predict(model)[..., 0, 0][covered]
    assert np.abs(predicted - reference).max() < 0.02 * np.abs(reference).max()


@pytest.mark.parametrize("kind", KINDS)
def test_predict_matches_direct_evaluation(setup, kind):
    """Degridding a point-source model reproduces Eq.-1 visibilities on the
    samples the plan covers."""
    ctx = _context(setup)
    row, col = _source_pixel(setup)
    model = np.zeros((GRID, GRID))
    model[row, col] = 5.0
    processor = make_ftprocessor(ctx, kind=kind)
    covered = plan_coverage(processor.plan)
    predicted = processor.predict(model)[..., 0, 0][covered]
    truth = setup[4][..., 0, 0][covered]
    err = np.abs(predicted - truth).max() / np.abs(truth).max()
    assert err < 0.02


def test_invert_matches_imaging_cycle_dirty_path(setup):
    """ImagingCycle's default processor is the 2-D processor, bit for bit:
    dirty image, PSF and predict."""
    obs, idg, baselines, _, vis = setup
    processor = make_ftprocessor(_context(setup), kind="2d")
    cycle = ImagingCycle(idg, obs.uvw_m, obs.frequencies_hz, baselines)
    result = processor.invert(vis)
    np.testing.assert_array_equal(cycle.make_dirty_image(vis), result.stokes_i)
    np.testing.assert_array_equal(
        cycle.make_psf(),
        psf_image(lambda unit: processor.invert(unit).stokes_i,
                  processor.plan.flagged.shape),
    )
    row, col = _source_pixel(setup)
    model = np.zeros((GRID, GRID))
    model[row, col] = 5.0
    np.testing.assert_array_equal(cycle.predict(model), processor.predict(model))
    assert result.weight_sum == float(cycle.plan.statistics.n_visibilities_gridded)


def test_imaging_cycle_delegates_to_processor(setup):
    obs, idg, baselines, _, vis = setup
    ctx = _context(setup)
    processor = make_ftprocessor(ctx, kind="2d")
    cycle = ImagingCycle(
        idg, obs.uvw_m, obs.frequencies_hz, baselines, processor=processor
    )
    np.testing.assert_array_equal(
        cycle.make_dirty_image(vis), processor.invert(vis).stokes_i
    )
    row, col = _source_pixel(setup)
    model = np.zeros((GRID, GRID))
    model[row, col] = 5.0
    np.testing.assert_array_equal(cycle.predict(model), processor.predict(model))


def test_uniform_weights_cancel_in_normalisation(setup):
    ctx = _context(setup)
    vis = setup[4]
    processor = make_ftprocessor(ctx, kind="2d")
    plain = processor.invert(vis)
    weights = np.full(vis.shape[:3], 2.0)
    weighted = processor.invert(vis, weights=weights)
    np.testing.assert_allclose(
        weighted.stokes_i, plain.stokes_i, atol=1e-6
    )
    assert weighted.weight_sum == pytest.approx(2.0 * plain.weight_sum)


def test_flags_exclude_samples(setup):
    ctx = _context(setup)
    vis = np.array(setup[4], copy=True)
    flags = np.zeros(vis.shape[:3], dtype=bool)
    flags[0] = True
    # corrupt the flagged block: it must not leak into the image
    vis[0] = 1e6
    image = make_ftprocessor(ctx, kind="2d").invert(vis, flags=flags).stokes_i
    row, col = _source_pixel(setup)
    assert image[row, col] == pytest.approx(5.0, rel=0.05)


def test_make_ftprocessor_rejects_unknown_kind(setup):
    ctx = _context(setup)
    with pytest.raises(ValueError, match="kind"):
        make_ftprocessor(ctx, kind="chirp-z")


@pytest.mark.parametrize("kind, option", [
    ("2d", "n_w_planes"), ("2d", "n_facets"), ("wstack", "n_facets"),
    ("wstack", "padding"), ("facets", "n_w_planes"), ("wstack_facets", "chirp"),
])
def test_make_ftprocessor_rejects_options_of_other_kinds(setup, kind, option):
    with pytest.raises(TypeError, match=option):
        make_ftprocessor(_context(setup), kind=kind, **{option: 2})


@pytest.mark.parametrize("kind", ["wstack", "wstack_facets"])
def test_make_ftprocessor_rejects_non_positive_w_planes(setup, kind):
    with pytest.raises(ValueError, match="n_w_planes"):
        make_ftprocessor(_context(setup), kind=kind, n_w_planes=0)


def test_context_rejects_unknown_executor(setup):
    obs, idg, baselines, _, _ = setup
    with pytest.raises(ValueError, match="executor"):
        ImagingContext(
            idg=idg, uvw_m=obs.uvw_m, frequencies_hz=obs.frequencies_hz,
            baselines=baselines, executor="gpu",
        )


@pytest.mark.parametrize("n_w_planes", [1, 2, 4])
@pytest.mark.parametrize("kind", ["wstack", "wstack_facets"])
def test_wstack_grids_exactly_n_w_planes_layers(setup, kind, n_w_planes):
    """``n_w_planes`` w layers, no more: one plane is one mean-w layer."""
    processor = make_ftprocessor(_context(setup), kind=kind, n_w_planes=n_w_planes)
    fields = processor._fields if kind == "wstack_facets" else [processor._field]
    for field in fields:
        assert len(field.layers) == n_w_planes
