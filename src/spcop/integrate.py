"""Adaptive Simpson quadrature for the 1-D reductions used by eta estimates."""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeLimit, SpecError

__all__ = ["integrate_adaptive", "LOOK_AHEAD", "MAX_DEPTH", "MAX_EVALS"]

MAX_DEPTH = 52
MAX_EVALS = 2 ** 20
LOOK_AHEAD = 2


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _cat(left, right, s=slice(None)):
    """left[s], then right[s]: the left children, then the right ones."""
    return np.concatenate((left[s], right[s]))


def integrate_adaptive(f, a: float, b: float, tol: float) -> float:
    """Integrate f, which maps a float array to a float array, on [a,b] to
    absolute tolerance tol.

    Classic adaptive Simpson with Richardson correction, walked breadth
    first. A call of f also takes the next LOOK_AHEAD levels' midpoints as if
    every panel split, so L levels take at most ceil(L / (LOOK_AHEAD + 1)) + 1
    calls. The tree, its points, its leaf test and the order of the sums are
    those of the depth-first recursion, so the integral is the same to the
    bit. MAX_DEPTH bounds work near endpoint kinks (order statistics' sqrt).
    A level that would take the points the tree uses past MAX_EVALS raises
    SizeLimit; a call looks less far ahead where needed to evaluate at most
    2 * MAX_EVALS points.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise SpecError(f"quadrature tolerance must be finite and > 0, got {tol}")
    if not (b > a):
        return 0.0
    x = np.array([a, 0.5 * (a + b), b])
    fx = np.asarray(f(x), dtype=float)
    a, m, b = x[0:1], x[1:2], x[2:3]
    fa, fm, fb = fx[0:1], fx[1:2], fx[2:3]
    whole = _simpson(fa, fm, fb, b - a)
    evals, spent, depth, levels, ahead = 3, 3, MAX_DEPTH, [], []
    while a.size:
        n = a.size
        if evals + 2 * n > MAX_EVALS:
            raise SizeLimit(f"adaptive Simpson would pass {MAX_EVALS} integrand points")
        evals += 2 * n
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        if not ahead:
            # k more levels add 4n(2^k - 1) points; those never used stay within MAX_EVALS
            room = evals + MAX_EVALS - spent - 2 * n
            k = min(LOOK_AHEAD, depth, (1 + room // (4 * n)).bit_length() - 1)
            xs, pa, pm, pb = [], a, m, b
            for _ in range(k + 1):
                xs.append(_cat(0.5 * (pa + pm), 0.5 * (pm + pb)))
                pa, pm, pb = _cat(pa, pm), xs[-1], _cat(pm, pb)
            fx = np.asarray(f(np.concatenate(xs)), dtype=float)
            spent += fx.size
            ahead = np.split(fx, np.cumsum([x.size for x in xs[:-1]]))
        fx = ahead.pop(0)
        flm, frm = fx[:n], fx[n:]
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        leaf = (np.abs(delta) <= 15.0 * tol) | (depth <= 0)
        levels.append((leaf, left + right + delta / 15.0))
        # the next level: left children of the split panels, then right ones
        s = ~leaf
        a, m, b = _cat(a, m, s), _cat(lm, rm, s), _cat(m, b, s)
        fa, fm, fb = _cat(fa, fm, s), _cat(flm, frm, s), _cat(fm, fb, s)
        whole = _cat(left, right, s)
        ahead = [y[np.tile(s, y.size // n)] for y in ahead]
        tol = 0.5 * tol
        depth -= 1
    # bottom-up: a split panel's value is its left child's plus its right's
    below = np.empty(0)
    for leaf, value in reversed(levels):
        half = below.size // 2
        value[~leaf] = below[:half] + below[half:]
        below = value
    return float(below[0])
