"""Adaptive Simpson quadrature for the 1-D reductions used by eta estimates."""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeLimit, SpecError

__all__ = ["integrate_adaptive", "MAX_DEPTH", "MAX_EVALS"]

MAX_DEPTH = 52
MAX_EVALS = 2 ** 20


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def integrate_adaptive(f, a: float, b: float, tol: float) -> float:
    """Integrate f, which maps a float array to a float array, on [a,b] to
    absolute tolerance tol.

    Classic adaptive Simpson with Richardson correction, walked breadth
    first: one call of f per level of the interval tree. The tree, its leaf
    test and the order of the sums are those of the depth-first recursion,
    so the integral and the point count are the same to the bit. Depth is
    capped at MAX_DEPTH, which bounds work near endpoint derivative
    singularities (the sqrt-type kinks the order-statistics family produces);
    a level that would take the points past MAX_EVALS raises SizeLimit.
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
    evals, depth, levels = 3, MAX_DEPTH, []
    while a.size:
        n = a.size
        if evals + 2 * n > MAX_EVALS:
            raise SizeLimit(f"adaptive Simpson would pass {MAX_EVALS} integrand points")
        evals += 2 * n
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        fx = np.asarray(f(np.concatenate((lm, rm))), dtype=float)
        flm, frm = fx[:n], fx[n:]
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        leaf = (np.abs(delta) <= 15.0 * tol) | (depth <= 0)
        levels.append((leaf, left + right + delta / 15.0))
        # the next level: left children of the split panels, then right ones
        s = ~leaf
        a, m, b = np.r_[a[s], m[s]], np.r_[lm[s], rm[s]], np.r_[m[s], b[s]]
        fa, fm, fb = np.r_[fa[s], fm[s]], np.r_[flm[s], frm[s]], np.r_[fm[s], fb[s]]
        whole = np.r_[left[s], right[s]]
        tol = 0.5 * tol
        depth -= 1
    # bottom-up: a split panel's value is its left child's plus its right's
    below = np.empty(0)
    for leaf, value in reversed(levels):
        half = below.size // 2
        value[~leaf] = below[:half] + below[half:]
        below = value
    return float(below[0])
