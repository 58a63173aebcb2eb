"""Unit tests for the batched subgrid FFTs (pol-major ``(G, 4, N, N)``)."""

import numpy as np
import pytest

from repro.core.subgrid_fft import subgrids_to_fourier, subgrids_to_image
from repro.kernels.fft import centered_fft2, centered_ifft2


def _random_subgrids(k=3, n=16, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((k, 4, n, n)) + 1j * rng.standard_normal((k, 4, n, n))
    ).astype(np.complex64)


def test_forward_matches_per_pol_fft():
    subs = _random_subgrids()
    out = subgrids_to_fourier(subs)
    n = subs.shape[-1]
    for k in range(subs.shape[0]):
        for p in range(4):
            np.testing.assert_allclose(
                out[k, p],
                (centered_fft2(subs[k, p].astype(np.complex128)) / n**2).astype(
                    np.complex64
                ),
                atol=1e-5,
            )


@pytest.mark.parametrize("n", [8, 16, 24])
@pytest.mark.parametrize("direction", ["to_fourier", "to_image"])
def test_single_precision_matches_complex128_centered_fft(n, direction):
    """The complex64 checkerboard FFTs agree with the complex128 centered
    FFTs to single precision, and return a fresh C-contiguous complex64
    ``(G, 4, N, N)`` array (numpy's ``ifft2`` ignores ``out=``, so a path
    through it would hand back an unwritten buffer)."""
    subs = _random_subgrids(5, n, seed=n)
    wide = subs.astype(np.complex128)
    if direction == "to_fourier":
        out = subgrids_to_fourier(subs)
        expected = centered_fft2(wide) / n**2
    else:
        out = subgrids_to_image(subs)
        expected = centered_ifft2(wide)
    assert out.dtype == np.complex64
    assert out.shape == (5, 4, n, n)
    assert out.flags.c_contiguous
    assert not np.shares_memory(out, subs)
    rel = np.linalg.norm(out - expected) / np.linalg.norm(expected)
    assert rel <= 1e-6


def test_input_is_not_modified():
    subs = _random_subgrids(2, 8, seed=6)
    before = subs.copy()
    subgrids_to_image(subgrids_to_fourier(subs))
    np.testing.assert_array_equal(subs, before)


def test_odd_subgrid_size_is_rejected():
    with pytest.raises(ValueError, match="even"):
        subgrids_to_fourier(np.zeros((1, 4, 7, 7), dtype=np.complex64))


def test_constant_image_becomes_central_delta():
    """A constant image (on-centre visibility) transforms to a single uv cell
    holding exactly the constant — the flux-preservation convention."""
    n = 16
    subs = np.zeros((1, 4, n, n), dtype=np.complex64)
    subs[0, 0] = 2.5
    out = subgrids_to_fourier(subs)
    assert out[0, 0, n // 2, n // 2] == pytest.approx(2.5)
    mask = np.ones((n, n), dtype=bool)
    mask[n // 2, n // 2] = False
    assert np.abs(out[0, 0][mask]).max() < 1e-6


def test_adjoint_identity():
    """<F x, y> == <x, F^H y> with F^H = subgrids_to_image."""
    x = _random_subgrids(1, 8, seed=1).astype(np.complex128)
    y = _random_subgrids(1, 8, seed=2).astype(np.complex128)
    lhs = np.vdot(subgrids_to_fourier(x.astype(np.complex64)).astype(np.complex128), y)
    rhs = np.vdot(x, subgrids_to_image(y.astype(np.complex64)).astype(np.complex128))
    assert lhs == pytest.approx(rhs, rel=1e-5)


def test_composition_scale():
    """to_image(to_fourier(x)) = x / N**2 (adjoint pair, not inverse)."""
    subs = _random_subgrids(2, 8, seed=3)
    back = subgrids_to_image(subgrids_to_fourier(subs))
    np.testing.assert_allclose(back, subs / 64.0, atol=1e-6)


def test_preserves_dtype_and_shape():
    subs = _random_subgrids(4, 12, seed=4)
    out = subgrids_to_fourier(subs)
    assert out.shape == subs.shape
    assert out.dtype == subs.dtype
    back = subgrids_to_image(out)
    assert back.shape == subs.shape
    assert back.dtype == subs.dtype
