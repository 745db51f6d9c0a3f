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


def integrate_adaptive(f, a: float, b: float, tol: float) -> float:
    """Integrate f, which maps a float array to a float array, on [a,b] to
    absolute tolerance tol.

    Classic adaptive Simpson with Richardson correction, walked breadth
    first. A level's panels are rows of nodes x and values fx on a dyadic
    grid of w = 2^j + 1 points: Simpson reads columns 0, w/4, w/2, 3w/4 and
    w - 1, and a panel splits into its halves. One call of f refines rows of
    3 points LOOK_AHEAD + 1 times, as if every panel split, so L levels take
    at most ceil(L / (LOOK_AHEAD + 1)) + 1 calls. The tree, its points, its
    leaf test and the order of the sums are those of the depth-first
    recursion, so the integral is the same to the bit. MAX_DEPTH bounds work
    near endpoint kinks (order statistics' sqrt). A level that would take the
    points the tree uses past MAX_EVALS raises SizeLimit; a call refines less
    where needed to evaluate at most 2 * MAX_EVALS points.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise SpecError(f"quadrature tolerance must be finite and > 0, got {tol}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise SpecError(f"quadrature bounds must be finite, got [{a}, {b}]")
    if a > b:
        raise SpecError(f"quadrature bounds must satisfy a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0
    x = np.array([[a, 0.5 * (a + b), b]])
    fx = np.asarray(f(x[0]), dtype=float)[None]
    whole = _simpson(*fx.T, x[:, 2] - x[:, 0])
    evals, spent, depth, levels = 3, 3, MAX_DEPTH, []
    while len(x):
        n, w = x.shape
        if evals + 2 * n > MAX_EVALS:
            raise SizeLimit(f"adaptive Simpson would pass {MAX_EVALS} integrand points")
        evals += 2 * n
        if w == 3:
            # k more levels add 4n(2^k - 1) points; those never used stay within MAX_EVALS
            room = evals + MAX_EVALS - spent - 2 * n
            k = min(LOOK_AHEAD, depth, (1 + room // (4 * n)).bit_length() - 1)
            w = 2 ** (k + 2) + 1   # every row refined k + 1 times; f takes the new columns
            x0, f0, x, fx = x, fx, np.empty((n, w)), np.empty((n, w))
            h = w // 2
            x[:, ::h], fx[:, ::h] = x0, f0
            new = np.arange(w) % h > 0
            while h > 1:   # a new node is the midpoint of its neighbours h apart
                x[:, h // 2::h] = 0.5 * (x[:, :-1:h] + x[:, h::h])
                h //= 2
            fx[:, new] = np.asarray(f(x[:, new].ravel()), dtype=float).reshape(n, -1)
            spent += n * (w - 3)
        fa, flm, fm, frm, fb = fx[:, ::w // 4].T
        a, m, b = x[:, ::w // 2].T
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        leaf = (np.abs(delta) <= 15.0 * tol) | (depth <= 0)
        levels.append((leaf, left + right + delta / 15.0))
        # the next level: left children of the split panels, then right ones
        s, h = ~leaf, w // 2
        x = np.concatenate((x[s, :h + 1], x[s, h:]))
        fx = np.concatenate((fx[s, :h + 1], fx[s, h:]))
        whole = np.concatenate((left[s], right[s]))
        tol = 0.5 * tol
        depth -= 1
    # bottom-up: a split panel's value is its left child's plus its right's
    below = np.empty(0)
    for leaf, value in reversed(levels):
        half = below.size // 2
        value[~leaf] = below[:half] + below[half:]
        below = value
    return float(below[0])
