"""High-precision normal cdf / quantile kernels on float arrays: each returns
an array of its input's shape, NaN where the input is NaN. `dist.elementwise`
converts scalars and `Distribution.quantile` checks probabilities. An input
longer than `_BLOCK` points runs through the kernel in `_BLOCK`-point slices,
so its temporaries stay cache-sized; every kernel is pointwise, so the slices
give the same bits as one pass.

The cdf goes through a rational-approximation erfc (Cody's split: small-|x|
series-like rational, mid-range rational, large-|x| continued-fraction-style
asymptotic rational), absolute error below 1e-14 against libm. The quantile is
Acklam's rational approximation polished by one Halley step of the cdf, which
brings the absolute error under 1e-13 on (0,1). Closed-form registry
comparisons need this headroom; Monte Carlo noise does not.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["erfc", "normal_cdf", "normal_quantile", "normal_pdf"]

# points per kernel pass on large inputs: 512 KiB float64 slices, whose
# temporaries stay near a 2 MiB L2; 16k, 32k and 128k points were slower on
# the mc_eta benchmark's Gaussian requests
_BLOCK = 65536

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Cody (1969) coefficients, regions |x|<=0.46875, 0.46875<|x|<=4, |x|>4.
_ERF_A = np.array([3.16112374387056560e00, 1.13864154151050156e02,
                   3.77485237685302021e02, 3.20937758913846947e03,
                   1.85777706184603153e-1])
_ERF_B = np.array([2.36012909523441209e01, 2.44024637934444173e02,
                   1.28261652607737228e03, 2.84423683343917062e03])
_ERFC_C = np.array([5.64188496988670089e-1, 8.88314979438837594e00,
                    6.61191906371416295e01, 2.98635138197400131e02,
                    8.81952221241769090e02, 1.71204761263407058e03,
                    2.05107837782607147e03, 1.23033935479799725e03,
                    2.15311535474403846e-8])
_ERFC_D = np.array([1.57449261107098347e01, 1.17693950891312499e02,
                    5.37181101862009858e02, 1.62138957456669019e03,
                    3.29079923573345963e03, 4.36261909014324716e03,
                    3.43936767414372164e03, 1.23033935480374942e03])
_ERFC_P = np.array([3.05326634961232344e-1, 3.60344899949804439e-1,
                    1.25781726111229246e-1, 1.60837851487422766e-2,
                    6.58749161529837803e-4, 1.63153871373020978e-2])
_ERFC_Q = np.array([2.56852019228982242e00, 1.87295284992346047e00,
                    5.27905102951428412e-1, 6.05183413124413191e-2,
                    2.33520497626869185e-3])
_INV_SQRT_PI = 5.6418958354775628695e-1
# Each Cody pair as _horner's (numerator, denominator): a numerator's leading
# coefficient is listed last, and a denominator's leading 1 is left out.
_ERF_SMALL, _ERFC_MID, _ERFC_LARGE = (
    ((c[-1], *c[:-1]), (1.0, *d))
    for c, d in ((_ERF_A, _ERF_B), (_ERFC_C, _ERFC_D), (_ERFC_P, _ERFC_Q)))


def _horner(coeffs, y):
    """coeffs[0] * y^m + ... + coeffs[m] by Horner's rule, in place on one array."""
    acc = coeffs[0] * y
    for c in coeffs[1:-1]:
        acc += c
        acc *= y
    acc += coeffs[-1]
    return acc


def _exp_split(y, frac):
    """exp(-y^2) * frac, with exp(-y^2) split to keep the argument reduction
    exact in the tail: exp(-ysq^2) * exp(-(y - ysq)(y + ysq))."""
    ysq = y * 16.0
    np.trunc(ysq, out=ysq)
    ysq /= 16.0
    delta = y - ysq
    delta *= y + ysq  # its own temporary: ysq += y then ysq -= y is not exact
    ysq *= ysq
    np.exp(np.negative(ysq, out=ysq), out=ysq)
    ysq *= np.exp(np.negative(delta, out=delta), out=delta)
    ysq *= frac
    return ysq


def _erf_small(y2):
    num = _horner(_ERF_SMALL[0], y2)
    num /= _horner(_ERF_SMALL[1], y2)
    return num


def _erfc_mid(y):
    num = _horner(_ERFC_MID[0], y)
    num /= _horner(_ERFC_MID[1], y)
    return _exp_split(y, num)


def _erfc_large(y):
    y2 = y * y
    np.divide(1.0, y2, out=y2)
    num = _horner(_ERFC_LARGE[0], y2)
    num *= y2  # y2 * num / den, in this order
    num /= _horner(_ERFC_LARGE[1], y2)
    np.subtract(_INV_SQRT_PI, num, out=num)
    num /= y
    return _exp_split(y, num)


def erfc(x):
    """Complementary error function, elementwise."""
    y = np.abs(x)
    out = np.full_like(y, np.nan)  # NaN fails every region mask below

    small = y <= 0.46875
    mid = (y > 0.46875) & (y <= 4.0)
    large = y > 4.0

    if small.any():
        ys = y[small]
        out[small] = 1.0 - ys * _erf_small(ys * ys)
    if mid.any():
        out[mid] = _erfc_mid(y[mid])
    if large.any():
        yl = np.minimum(y[large], 27.0)  # erfc underflows past 26.6; avoids inf-inf
        with np.errstate(under="ignore"):
            res = _erfc_large(yl)
        res[yl > 26.6] = 0.0
        out[large] = res

    neg = x < 0.0
    out[neg] = 2.0 - out[neg]
    return out


def _blocked(kernel):
    """kernel(x, mean, sd) on consecutive _BLOCK-point slices of a larger x,
    written into one float64 output of x's shape; mean and sd are scalars."""
    @functools.wraps(kernel)
    def run(x, mean=0.0, sd=1.0):
        if np.size(x) <= _BLOCK:
            return kernel(x, mean, sd)
        flat = np.ravel(x)
        out = np.empty(flat.size)
        for k in range(0, flat.size, _BLOCK):
            out[k:k + _BLOCK] = kernel(flat[k:k + _BLOCK], mean, sd)
        return out.reshape(np.shape(x))
    return run


@_blocked
def normal_cdf(x, mean=0.0, sd=1.0):
    """Standard (or shifted/scaled) normal cdf."""
    z = (x - mean) / sd
    return 0.5 * erfc(-z / _SQRT2)


def normal_pdf(x, mean=0.0, sd=1.0):
    z = (x - mean) / sd
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z) / sd


# Acklam's inverse normal cdf coefficients, highest degree first as _horner
# takes them; each denominator ends in its constant 1.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02,
          -2.759285104469687e+02, 1.383577518672690e+02,
          -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02,
          -1.556989798598866e+02, 6.680131188771972e+01,
          -1.328068155288572e+01, 1.0)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01,
          -2.400758277161838e+00, -2.549732539343734e+00,
          4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01,
          2.445134137142996e+00, 3.754408661907416e+00, 1.0)
_PPF_SPLIT = 0.02425


def _ppf_tail(q):
    # q = sqrt(-2 log p_tail), valid for the lower tail; caller mirrors.
    return _horner(_PPF_C, q) / _horner(_PPF_D, q)


def _ppf_central(p):
    q = p - 0.5
    r = q * q
    return q * _horner(_PPF_A, r) / _horner(_PPF_B, r)


@_blocked
def normal_quantile(p, mean=0.0, sd=1.0):
    """Inverse normal cdf; p=0/1 map to -inf/+inf sentinels, NaN to NaN."""

    # Fold to the lower tail: the Halley correction needs Phi(x) - q without
    # cancellation, which only the small-q side of erfc provides.
    upper = p > 0.5
    q = np.where(upper, 1.0 - p, p)

    x = np.full_like(p, np.nan)  # NaN fails every region mask below
    tail = (q > 0.0) & (q < _PPF_SPLIT)
    mid = q >= _PPF_SPLIT
    if tail.any():
        x[tail] = _ppf_tail(np.sqrt(-2.0 * np.log(q[tail])))
    if mid.any():
        x[mid] = _ppf_central(q[mid])

    # One Halley step; skipped where exp(x^2/2) would overflow (q < ~5e-310).
    interior = (q > 0.0) & (np.abs(x) < 37.6)
    if interior.any():
        xi = x[interior]
        err = 0.5 * erfc(-xi / _SQRT2) - q[interior]
        u = err * np.sqrt(2.0 * np.pi) * np.exp(0.5 * xi * xi)
        x[interior] = xi - u / (1.0 + 0.5 * xi * u)

    x[upper] = -x[upper]
    x[p == 0.0] = -np.inf
    x[p == 1.0] = np.inf
    return mean + sd * x
