"""Precision checks for the normal cdf/quantile kernels against independent
references (libm erfc, scipy)."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from spcop import rng
from spcop.dist import Normal
from spcop.rng import BLOCK
from spcop.special import erfc, normal_cdf, normal_pdf, normal_quantile


def test_erfc_matches_libm():
    xs = np.concatenate([np.linspace(-27.0, 27.0, 40001), [0.0, 0.46875, -0.46875, 4.0, -4.0]])
    mine = erfc(xs)
    ref = np.array([math.erfc(float(t)) for t in xs])
    assert np.max(np.abs(mine - ref)) < 5e-15
    finite = np.abs(ref) > 1e-280
    assert np.max(np.abs(mine[finite] - ref[finite]) / np.abs(ref[finite])) < 5e-14


def test_erfc_saturation():
    assert np.array_equal(erfc(np.array([0.0, 30.0, -30.0])), [1.0, 0.0, 2.0])


def test_erfc_nan_in_nan_out():
    got = erfc(np.array([1e300, np.nan, np.nan, 2.0, np.nan]))
    assert np.array_equal(np.isnan(got), [False, True, True, False, True])
    assert got[0] == 0.0 and got[3] == erfc(np.array([2.0]))[0]
    cdf = Normal(0.0, 1.0).cdf(np.array([np.nan, 0.0]))
    assert math.isnan(cdf[0]) and cdf[1] == 0.5


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_kernel_bits_are_pinned():
    """sha256 of the kernels' output bytes, recorded before the kernels were
    made in-place: each region boundary and its neighbours, +-0, +-inf, a
    dense sweep, and for the quantile both tails down to subnormals."""
    bounds = np.array([0.46875, 4.0, 26.6, 27.0])
    near = np.concatenate([bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, np.inf)])
    xs = np.concatenate([near, -near, [0.0, -0.0, np.inf, -np.inf],
                         np.linspace(-30.0, 30.0, 200001)])
    ps = np.concatenate([[0.0, 1.0, 0.5, 0.02425, 1.0 - 0.02425, 5e-324, 1e-310],
                         np.linspace(0.0, 1.0, 200001), 10.0 ** -np.linspace(1.0, 320.0, 2001)])
    assert _sha256(erfc(xs)) == "eac0d5257eebf8f60c8bb90b41215dd25ff9f7565df98943e81601838551890c"
    assert (_sha256(normal_cdf(xs))
            == "cdcd864dcb06ecbddbd18995813ca36a4a463535cc96de8f21627538e9bb93b1")
    assert (_sha256(normal_quantile(ps))
            == "79ff10be37b5c6078973175fc1ba4df17f0e09af6eb1ab33009b586c0d6adb47")


def test_normal_cdf_accuracy():
    xs = np.linspace(-37.0, 37.0, 20001)
    assert np.max(np.abs(normal_cdf(xs) - stats.norm.cdf(xs))) < 1e-13
    assert abs(normal_cdf(np.array([1.5]), mean=1.5, sd=3.0)[0] - 0.5) < 1e-15


def test_normal_quantile_absolute_error_below_1e10():
    ps = np.concatenate([
        np.linspace(1e-9, 1 - 1e-9, 40001),
        10.0 ** np.linspace(-300, -10, 400),
        1.0 - 10.0 ** np.linspace(-15, -2, 100),
    ])
    err = np.abs(normal_quantile(ps) - stats.norm.ppf(ps))
    assert np.nanmax(err) < 1e-10


def test_normal_quantile_roundtrip_within_1e12():
    ps = np.linspace(1e-12, 1 - 1e-12, 20001)
    assert np.max(np.abs(normal_cdf(normal_quantile(ps)) - ps)) < 1e-12


def test_normal_quantile_edges():
    assert np.array_equal(normal_quantile(np.array([0.0, 1.0, 0.5])), [-np.inf, np.inf, 0.0])
    # NaN in, NaN out; Distribution.quantile is where a NaN probability is refused
    got = normal_quantile(np.array([np.nan, 0.3, np.nan]), mean=1.0, sd=2.0)
    assert np.array_equal(np.isnan(got), [True, False, True])
    assert got[1] == normal_quantile(np.array([0.3]), mean=1.0, sd=2.0)[0]


def test_normal_pdf():
    assert abs(normal_pdf(np.array([0.0]))[0] - 1.0 / math.sqrt(2 * math.pi)) < 1e-15
    xs = np.linspace(-5, 5, 101)
    assert np.max(np.abs(normal_pdf(xs) - stats.norm.pdf(xs))) < 1e-14


def _seam_inputs(low, high, specials):
    """2 blocks + 37 points, with `specials` written across both block seams."""
    x = np.random.default_rng(17).uniform(low, high, 2 * BLOCK + 37)
    for seam in (BLOCK, 2 * BLOCK):
        x[seam - len(specials) // 2:seam - len(specials) // 2 + len(specials)] = specials
    return x


NORMAL = Normal(1.5, 3.0)
SEAM_CASES = {
    "normal_cdf": (normal_cdf, -40.0, 40.0, [np.nan, np.inf, -np.inf, 0.0, 1.0, -0.0]),
    "normal_cdf_shifted": (lambda x: normal_cdf(x, mean=1.5, sd=3.0), -40.0, 40.0,
                           [np.nan, np.inf, -np.inf, 0.0, 1.0]),
    "normal_quantile": (normal_quantile, 0.0, 1.0, [np.nan, 0.0, 1.0, 0.5, np.inf, -np.inf]),
    "Normal.cdf": (NORMAL.cdf, -40.0, 40.0, [np.nan, np.inf, -np.inf, 0.0, 1.0]),
    "Normal.survival": (NORMAL.survival, -40.0, 40.0, [np.nan, np.inf, -np.inf, 0.0, 1.0]),
    "Normal.quantile": (NORMAL.quantile, 0.0, 1.0, [0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16]),
}


# erfc's region edges, as normal_cdf's argument and as erfc's own (x / sqrt 2),
# each with its neighbours on both sides
_ERFC_EDGES = [t for e in (0.46875, 4.0, 26.6) for x in (e, e * math.sqrt(2.0)) for s in (1.0, -1.0)
               for t in (s * np.nextafter(x, 0.0), s * x, s * np.nextafter(x, np.inf))]
RAGGED_CASES = {
    "normal_cdf": (normal_cdf, -40.0, 40.0, [np.nan, 0.0, -0.0, np.inf, -np.inf, *_ERFC_EDGES]),
    "normal_quantile": (normal_quantile, 0.0, 1.0,
                        [np.nan, 0.0, -0.0, 1.0, np.inf, -np.inf, 0.5, 0.02425, 1.0 - 0.02425,
                         5e-324, 1e-300, 1.0 - 1e-16]),
}


class TestBlocks:
    """Inputs longer than BLOCK points run in BLOCK-point slices, on the pool."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", RAGGED_CASES)
    def test_ragged_input_on_the_pool_keeps_bits(self, monkeypatch, threads, name):
        monkeypatch.setattr(rng, "pool_size", lambda calls: min(calls, threads))
        fn, low, high, specials = RAGGED_CASES[name]
        # three whole blocks and a ragged 17; specials across two seams and at the end
        x = np.random.default_rng(29).uniform(low, high, 3 * BLOCK + 17)
        for start in (BLOCK - 7, 2 * BLOCK - 20, x.size - len(specials)):
            x[start:start + len(specials)] = specials
        whole = fn(x)
        slices = np.concatenate([fn(x[k:k + BLOCK]) for k in range(0, x.size, BLOCK)])
        assert np.array_equal(whole.view(np.int64), slices.view(np.int64))

    @pytest.mark.parametrize("name", SEAM_CASES)
    def test_seams_keep_bits(self, name):
        fn, low, high, specials = SEAM_CASES[name]
        x = _seam_inputs(low, high, specials)
        whole = fn(x)
        pieces = np.concatenate([fn(x[k:k + 1000]) for k in range(0, x.size, 1000)])
        assert whole.dtype == np.float64 and whole.shape == x.shape
        assert np.array_equal(whole.view(np.int64), pieces.view(np.int64))

    @pytest.mark.parametrize("fn,low,high", [(normal_cdf, -9.0, 9.0), (normal_quantile, 0.0, 1.0)])
    def test_large_2d_input_keeps_its_shape(self, fn, low, high):
        x = np.random.default_rng(19).uniform(low, high, (3, BLOCK // 2 + 11))
        for arr in (x, x.T):  # C and Fortran order
            got = fn(arr)
            assert got.shape == arr.shape
            assert np.array_equal(got, fn(arr.ravel()).reshape(arr.shape))

    def test_large_integer_input_gives_floats(self):
        k = np.arange(-BLOCK, BLOCK + 37) % 15 - 7
        got = normal_cdf(k)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), normal_cdf(k.astype(float)).view(np.int64))

    def test_quantile_memory_is_bounded(self):
        p = np.random.default_rng(23).random(1_000_000)
        normal_quantile(p)
        tracemalloc.start()
        try:
            normal_quantile(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 8 MB output and one block's temporaries; one pass over all the
        # points held about 75 MB
        assert peak < 24 * 2 ** 20
