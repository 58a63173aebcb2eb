"""Tests for multi-subband (spectral) imaging."""

import numpy as np
import pytest

from repro.core.pipeline import IDG, IDGConfig
from repro.imaging.image import find_peak
from repro.imaging.spectral import (
    SpectralImager,
    SubbandImage,
    fit_spectral_index,
    make_subbands,
)
from repro.sky.model import SkyModel
from repro.sky.simulate import predict_visibilities
from repro.telescope.observation import ska1_low_observation


@pytest.fixture(scope="module")
def spectral_setup():
    base = ska1_low_observation(
        n_stations=12, n_times=32, n_channels=4,
        integration_time_s=240.0, max_radius_m=2_000.0,
        start_frequency_hz=120e6, seed=6,
    )
    subbands = make_subbands(base, n_subbands=3, subband_width_hz=30e6)
    # grid sized to the HIGHEST subband (largest uv extent)
    gridspec = subbands[-1].fitting_gridspec(256)
    idg = IDG(gridspec, IDGConfig(subgrid_size=24, kernel_support=8, time_max=8))
    dl = gridspec.pixel_scale
    l0 = round(0.12 * gridspec.image_size / dl) * dl
    m0 = round(0.08 * gridspec.image_size / dl) * dl
    return base, subbands, gridspec, idg, (l0, m0)


def test_make_subbands_contiguous(spectral_setup):
    base, subbands, *_ = spectral_setup
    assert len(subbands) == 3
    for sb in subbands:
        assert sb.n_channels == base.n_channels
        assert sb.array is base.array
    # contiguous coverage: each subband starts 30 MHz after the previous
    starts = [sb.frequencies_hz[0] for sb in subbands]
    np.testing.assert_allclose(np.diff(starts), 30e6)


def test_make_subbands_validation(spectral_setup):
    base, *_ = spectral_setup
    with pytest.raises(ValueError):
        make_subbands(base, 0)


def _flat_spectrum_images(spectral_setup, alpha=0.0, flux=2.0):
    base, subbands, gridspec, idg, (l0, m0) = spectral_setup
    imager = SpectralImager(idg)
    nu0 = subbands[0].frequencies_hz.mean()
    images = []
    for sb in subbands:
        scale = (sb.frequencies_hz.mean() / nu0) ** alpha
        sky = SkyModel.single(l0, m0, flux=flux * scale)
        vis = predict_visibilities(
            sb.uvw_m, sb.frequencies_hz, sky, baselines=sb.array.baselines()
        )
        images.append(imager.image_subband(sb, vis))
    return images


def test_subband_images_recover_source(spectral_setup):
    base, subbands, gridspec, idg, (l0, m0) = spectral_setup
    images = _flat_spectrum_images(spectral_setup)
    g, dl = gridspec.grid_size, gridspec.pixel_scale
    expected = (round(m0 / dl) + g // 2, round(l0 / dl) + g // 2)
    for sub in images:
        row, col, value = find_peak(sub.image)
        assert (row, col) == expected
        assert value == pytest.approx(2.0, rel=0.02)


def test_mfs_combines_with_weights(spectral_setup):
    _, _, gridspec, idg, (l0, m0) = spectral_setup
    images = _flat_spectrum_images(spectral_setup)
    imager = SpectralImager(idg)
    mfs = imager.mfs_image(images)
    g, dl = gridspec.grid_size, gridspec.pixel_scale
    assert mfs[round(m0 / dl) + g // 2, round(l0 / dl) + g // 2] == pytest.approx(
        2.0, rel=0.02
    )
    with pytest.raises(ValueError):
        imager.mfs_image([])


def test_spectral_index_recovered(spectral_setup):
    _, _, gridspec, idg, (l0, m0) = spectral_setup
    alpha_true = -0.8  # typical synchrotron slope
    images = _flat_spectrum_images(spectral_setup, alpha=alpha_true)
    alpha_map = fit_spectral_index(images, threshold=0.5)
    g, dl = gridspec.grid_size, gridspec.pixel_scale
    alpha_at_source = alpha_map[round(m0 / dl) + g // 2, round(l0 / dl) + g // 2]
    assert alpha_at_source == pytest.approx(alpha_true, abs=0.1)
    # pixels below threshold are NaN
    assert np.isnan(alpha_map[5, 5])


def test_spectral_index_validation(spectral_setup):
    images = _flat_spectrum_images(spectral_setup)
    with pytest.raises(ValueError):
        fit_spectral_index(images[:1], threshold=0.1)


def test_ftprocessor_kind_matches_direct_path(spectral_setup):
    """The default kind (None) is the 2-D processor, bit for bit."""
    base, subbands, gridspec, idg, (l0, m0) = spectral_setup
    sb = subbands[0]
    sky = SkyModel.single(l0, m0, flux=2.0)
    vis = predict_visibilities(
        sb.uvw_m, sb.frequencies_hz, sky, baselines=sb.array.baselines()
    )
    direct = SpectralImager(idg).image_subband(sb, vis)
    piped = SpectralImager(idg, kind="2d").image_subband(sb, vis)
    np.testing.assert_array_equal(piped.image, direct.image)
    assert piped.weight == direct.weight
    assert piped.frequency_hz == direct.frequency_hz
    weights = np.linspace(0.5, 2.0, vis[..., 0, 0].size).reshape(vis.shape[:3])
    direct = SpectralImager(idg).image_subband(sb, vis, weights=weights)
    piped = SpectralImager(idg, kind="2d").image_subband(sb, vis, weights=weights)
    np.testing.assert_array_equal(piped.image, direct.image)
    assert piped.weight == direct.weight


def test_wstack_kind_recovers_source(spectral_setup):
    base, subbands, gridspec, idg, (l0, m0) = spectral_setup
    sb = subbands[0]
    sky = SkyModel.single(l0, m0, flux=2.0)
    vis = predict_visibilities(
        sb.uvw_m, sb.frequencies_hz, sky, baselines=sb.array.baselines()
    )
    image = SpectralImager(idg, kind="wstack", n_w_planes=4).image_subband(
        sb, vis
    ).image
    _, _, peak_value = find_peak(image)
    assert peak_value == pytest.approx(2.0, rel=0.05)


def test_uniform_weights_cancel_in_both_paths(spectral_setup):
    base, subbands, gridspec, idg, (l0, m0) = spectral_setup
    sb = subbands[0]
    sky = SkyModel.single(l0, m0, flux=2.0)
    vis = predict_visibilities(
        sb.uvw_m, sb.frequencies_hz, sky, baselines=sb.array.baselines()
    )
    weights = np.full(vis.shape[:3], 3.0)
    for imager in (SpectralImager(idg), SpectralImager(idg, kind="2d")):
        plain = imager.image_subband(sb, vis)
        weighted = imager.image_subband(sb, vis, weights=weights)
        # complex64 rounding: the weights scale the visibilities before
        # gridding, so cancellation is exact only to float32 precision
        np.testing.assert_allclose(weighted.image, plain.image, atol=1e-3)
        assert weighted.weight == pytest.approx(3.0 * plain.weight)
