"""Marginal distributions: cdf, generalized-inverse quantile, densities and
stochastic-order checks.

Every distribution value is a frozen dataclass; all operations are pure and
accept scalars or numpy arrays. Quantiles follow the generalized inverse
G^-1(p) = inf{x : G(x) >= p}; p=0 and p=1 map to the infimum/supremum of the
support (+-inf sentinels on unbounded sides, never produced by samplers).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .codec import decode, encode
from .errors import SpecError
from .special import normal_cdf, normal_pdf, normal_quantile

__all__ = [
    "Distribution", "Uniform", "Exponential", "Normal", "DiscreteAtoms",
    "PiecewiseLinearCdf", "UniformPower", "OrderCheckResult", "check_order",
    "order_holds_at", "dist_to_json", "dist_from_json",
    "quantile_grid", "DIST_KINDS",
]

_EPS = 1e-12


def elementwise(kernel, *args):
    """kernel(*args) on equal-length flat float arrays, returned in the
    broadcast shape of args, or as a float when every argument is a scalar."""
    arrays = [np.asarray(a, dtype=float) for a in args]
    shape = arrays[0].shape
    # quantile_grid's bisection makes about 120 equal-shape calls a check_order,
    # and np.broadcast_arrays costs about 3 us each (2-core Xeon, numpy 2.4)
    if any(a.shape != shape for a in arrays):
        arrays = np.broadcast_arrays(*arrays)
        shape = arrays[0].shape
    out = kernel(*[a.reshape(-1) for a in arrays])
    return out.reshape(shape) if shape else float(out[0])


class Distribution:
    """Base marginal law. cdf, quantile, density and survival take scalars or
    arrays and give a float for a scalar; a subclass writes them as the array
    kernels _cdf and _quantile, optionally _density and _survival."""

    kind: str = ""
    # continuous and strictly increasing where the cdf is in (0,1)
    is_class_g: bool = False

    def cdf(self, x):
        return elementwise(self._cdf, x)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.isnan(p).any():
            raise SpecError("quantile probability must not be NaN")
        if (p < 0.0).any() or (p > 1.0).any():
            raise SpecError("quantile probability must lie in [0,1]")
        return elementwise(self._quantile, p)

    def density(self, x):
        return elementwise(self._density, x)

    def survival(self, x):
        return elementwise(self._survival, x)

    def _cdf(self, x):
        raise NotImplementedError

    def _quantile(self, p):
        raise NotImplementedError

    def _density(self, x):
        raise NotImplementedError(f"{self.kind} has no density")

    def _survival(self, x):
        return 1.0 - self._cdf(x)

    @property
    def has_density(self) -> bool:
        cls = type(self)
        return cls._density is not Distribution._density or cls.density is not Distribution.density

    def discontinuities(self) -> np.ndarray:
        """Atoms / kinks that grid-based checks must probe explicitly."""
        return np.empty(0)


@dataclass(frozen=True)
class Uniform(Distribution):
    a: float
    b: float
    kind = "uniform"
    is_class_g = True

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b
                and np.isfinite(self.b - self.a)):
            raise SpecError(f"uniform needs a < b and a finite b - a, got ({self.a}, {self.b})")

    def discontinuities(self):
        return np.array([self.a, self.b])

    def _cdf(self, x):
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def _quantile(self, p):
        return self.a + p * (self.b - self.a)

    def _density(self, x):
        inside = (x >= self.a) & (x <= self.b)
        return np.where(np.isnan(x), x, np.where(inside, 1.0 / (self.b - self.a), 0.0))


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float
    kind = "exponential"
    is_class_g = True

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise SpecError(f"exponential rate must be > 0, got {self.rate}")

    def _cdf(self, x):
        return np.where(x < 0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def _survival(self, x):
        return np.where(x < 0, 1.0, np.exp(-self.rate * np.maximum(x, 0.0)))

    def _quantile(self, p):
        with np.errstate(divide="ignore"):
            return -np.log1p(-p) / self.rate

    def _density(self, x):
        return np.where(x < 0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))

    def discontinuities(self):
        return np.array([0.0])


@dataclass(frozen=True)
class Normal(Distribution):
    mean: float
    sd: float
    kind = "normal"
    is_class_g = True

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.sd) and self.sd > 0):
            raise SpecError(f"normal needs finite mean and sd > 0, got ({self.mean}, {self.sd})")

    def _cdf(self, x):
        return normal_cdf(x, self.mean, self.sd)

    def _survival(self, x):
        return normal_cdf(-x, -self.mean, self.sd)

    def _quantile(self, p):
        return normal_quantile(p, self.mean, self.sd)

    def _density(self, x):
        return normal_pdf(x, self.mean, self.sd)


@dataclass(frozen=True)
class UniformPower(Distribution):
    """cdf x**k on [0,1], or its reflection 1-(1-x)**k.

    These are the laws of the extremes of k iid uniforms (max for the plain
    form, min for the reflected one), which is exactly what target/prospect
    constructions built from order statistics need as first-class marginals.
    """

    k: float
    reflected: bool = False
    kind = "uniform_power"
    is_class_g = True

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0):
            raise SpecError(f"uniform_power exponent must be > 0, got {self.k}")

    def _cdf(self, x):
        t = np.clip(x, 0.0, 1.0)
        return 1.0 - (1.0 - t) ** self.k if self.reflected else t ** self.k

    def _quantile(self, p):
        if self.reflected:
            return 1.0 - (1.0 - p) ** (1.0 / self.k)
        return p ** (1.0 / self.k)

    def _density(self, x):
        inside = (x >= 0.0) & (x <= 1.0)
        t = np.clip(x, 0.0, 1.0)
        if self.reflected:
            v = self.k * (1.0 - t) ** (self.k - 1.0)
        else:
            v = self.k * t ** (self.k - 1.0)
        return np.where(np.isnan(x), x, np.where(inside, v, 0.0))

    def discontinuities(self):
        return np.array([0.0, 1.0])


@dataclass(frozen=True)
class DiscreteAtoms(Distribution):
    points: tuple[tuple[float, float], ...]
    kind = "atoms"

    def __post_init__(self):
        pts = tuple((float(x), float(p)) for x, p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise SpecError("atoms need at least one point")
        if not np.isfinite(pts).all():
            raise SpecError("atom points and probabilities must be finite")
        xs = np.array([x for x, _ in pts])
        ps = np.array([p for _, p in pts])
        if not np.all(np.diff(xs) > 0):
            raise SpecError("atom points must be strictly increasing")
        if (ps <= 0).any():
            raise SpecError("atom probabilities must be positive")
        if abs(ps.sum() - 1.0) > 1e-12:
            raise SpecError(f"atom probabilities sum to {ps.sum()}, expected 1 within 1e-12")

    @cached_property
    def _xs(self):
        return np.array([x for x, _ in self.points])

    @cached_property
    def _cum(self):
        """The cdf at each atom: capped at 1, with the last edge exactly 1,
        which absorbs the <=1e-12 rounding slack of the probabilities."""
        c = np.minimum(np.cumsum([p for _, p in self.points]), 1.0)
        c[-1] = 1.0
        return c

    @cached_property
    def _edges(self):
        """The cdf left of the first atom, then at each atom."""
        return np.concatenate([[0.0], self._cum])

    def _cdf(self, x):  # NaN sorts past every atom
        return np.where(np.isnan(x), x, self._edges[np.searchsorted(self._xs, x, side="right")])

    def _quantile(self, p):  # _cum[0] > 0 and _cum[-1] == 1: p=0 and p=1 find an atom
        return self._xs[np.searchsorted(self._cum, p, side="left")]

    def discontinuities(self):
        return self._xs.copy()


@dataclass(frozen=True)
class PiecewiseLinearCdf(Distribution):
    knots: tuple[tuple[float, float], ...]
    kind = "pwl"

    def __post_init__(self):
        kn = tuple((float(x), float(p)) for x, p in self.knots)
        object.__setattr__(self, "knots", kn)
        if len(kn) < 2:
            raise SpecError("pwl cdf needs at least two knots")
        if not np.isfinite(kn).all():
            raise SpecError("pwl knots must be finite")
        xs = np.array([x for x, _ in kn])
        ps = np.array([p for _, p in kn])
        if (np.diff(xs) < 0).any():
            raise SpecError("pwl knot x-values must be nondecreasing")
        if (np.diff(ps) < -1e-12).any():
            raise SpecError("pwl knot p-values must be nondecreasing")
        if abs(ps[0]) > 1e-12 or abs(ps[-1] - 1.0) > 1e-12:
            raise SpecError("pwl cdf must start at p=0 and end at p=1")

    @cached_property
    def _xs(self):
        return np.array([x for x, _ in self.knots])

    @cached_property
    def _ps(self):
        p = np.clip(np.array([q for _, q in self.knots]), 0.0, 1.0)
        p[0], p[-1] = 0.0, 1.0
        return np.maximum.accumulate(p)

    def _cdf(self, x):
        xs, ps = self._xs, self._ps
        idx = np.searchsorted(xs, x, side="right")
        out = np.full_like(x, np.nan)  # NaN sorts past every knot but fails x >= xs[-1]
        out[idx == 0] = 0.0
        out[x >= xs[-1]] = 1.0
        mid = (idx > 0) & (idx < len(xs))
        if mid.any():
            i = idx[mid]
            x0, x1 = xs[i - 1], xs[i]
            p0, p1 = ps[i - 1], ps[i]
            t = (x[mid] - x0) / (x1 - x0)
            out[mid] = p0 + t * (p1 - p0)
        return out

    def _quantile(self, p):
        xs, ps = self._xs, self._ps
        idx = np.searchsorted(ps, p, side="left")  # ps[-1] = 1 >= p
        out = np.empty_like(p)
        first = idx == 0
        out[first] = xs[0]
        rest = ~first
        if rest.any():
            i = idx[rest]
            p0, p1 = ps[i - 1], ps[i]
            x0, x1 = xs[i - 1], xs[i]
            t = (p[rest] - p0) / (p1 - p0)
            out[rest] = x0 + t * (x1 - x0)
        # p=0 -> infimum of support (last knot still at p=0); p=1 -> first knot at p=1
        zero = p == 0.0
        if zero.any():
            out[zero] = xs[np.max(np.nonzero(ps == 0.0)[0])]
        one = p == 1.0
        if one.any():
            out[one] = xs[np.min(np.nonzero(ps == 1.0)[0])]
        return out

    @property
    def is_class_g(self):
        xs, ps = self._xs, self._ps
        jump = (np.diff(xs) == 0) & (np.diff(ps) > 0)
        if jump.any():
            return False
        flat = np.diff(ps) == 0
        interior = (ps[:-1] > 0.0) & (ps[:-1] < 1.0)
        return not (flat & interior).any()

    def discontinuities(self):
        return self._xs.copy()


# ---------------------------------------------------------------------------
# stochastic-order checks


@dataclass(frozen=True)
class OrderCheckResult:
    relation: str
    holds: bool
    witness: Optional[float]
    grid_size: int


def _midpoint(lo, hi):
    """0.5 * (lo + hi), or 0.5 * lo + 0.5 * hi where the sum overflows, so
    every finite midpoint keeps its bits."""
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    return np.where(np.isfinite(mid), mid, 0.5 * lo + 0.5 * hi)


def quantile_grid(dists, m):
    """m quantile-spaced points of the equal-weight mixture of `dists`,
    plus every atom/knot (and its left limit)."""
    p = (np.arange(m) + 0.5) / m
    # p[0] = 0.5/m stays above 1e-9 for every grid below 5e8 points
    tails = [d.quantile(np.array([1e-9, 1.0 - 1e-9])) for d in dists]
    lo = min(t[0] for t in tails)
    hi = max(t[1] for t in tails)
    if not np.isfinite(lo):
        lo = min((q for d in dists if np.isfinite(q := d.quantile(1e-12))), default=None)
    if not np.isfinite(hi):
        hi = max((q for d in dists if np.isfinite(q := d.quantile(1.0 - 1e-12))), default=None)
    if lo is None or hi is None:
        raise SpecError("cannot grid these laws: none has a finite quantile in one of the tails")
    lo_v = np.full(m, lo)
    hi_v = np.full(m, hi)
    for _ in range(60):
        mid = _midpoint(lo_v, hi_v)
        fmid = sum(d.cdf(mid) for d in dists) / len(dists)
        go_right = fmid < p
        lo_v = np.where(go_right, mid, lo_v)
        hi_v = np.where(go_right, hi_v, mid)
    pts = [_midpoint(lo_v, hi_v)]
    for d, t in zip(dists, tails):
        disc = d.discontinuities()
        if disc.size:
            pts.append(disc)
            # both one-sided limits: left for jumps, right for support ends
            # whose density is positive at the endpoint and zero past it
            pts.append(np.nextafter(disc, -np.inf))
            pts.append(np.nextafter(disc, np.inf))
        pts.append(t[np.isfinite(t)])
    return np.unique(np.concatenate(pts))


def _st_verdict(g1, g2, grid):
    ts = quantile_grid((g1, g2), grid)
    c1, c2 = g1.cdf(ts), g2.cdf(ts)
    gap = c1 - c2
    bad = gap < -_EPS
    if not bad.any():
        return True, None
    return False, float(ts[np.argmin(gap)])


def _same_family_st(g1, g2):
    """(holds, witness) when an analytic criterion pins the verdict, else None.
    Exponential, normal and uniform pairs are st, hr and lr ordered alike."""
    if isinstance(g1, Exponential) and isinstance(g2, Exponential):
        if g1.rate >= g2.rate:
            return True, None
        return False, 1.0 / g1.rate
    if isinstance(g1, Normal) and isinstance(g2, Normal):
        if g1.sd == g2.sd:
            if g1.mean <= g2.mean:
                return True, None
            return False, 0.5 * (g1.mean + g2.mean)
        # unequal sd: the cdfs cross, pick the violating side of the crossing
        x_star = (g2.mean * g1.sd - g1.mean * g2.sd) / (g1.sd - g2.sd)
        if not np.isfinite(x_star):  # the products overflow, not the crossing
            s1, s2 = g1.sd / max(g1.sd, g2.sd), g2.sd / max(g1.sd, g2.sd)
            x_star = (g2.mean * s1 - g1.mean * s2) / (s1 - s2)
        span = 3.0 * (g1.sd + g2.sd)
        for t in (x_star - span, x_star + span, x_star - 5 * span, x_star + 5 * span):
            if g1.cdf(t) < g2.cdf(t) - _EPS:
                return False, t
        return False, x_star  # degenerate near-tangency; caller re-grids
    if isinstance(g1, Uniform) and isinstance(g2, Uniform):
        if g1.a <= g2.a and g1.b <= g2.b:
            return True, None
        if g1.a > g2.a:
            return False, 0.5 * (g2.a + min(g1.a, g2.b))
        return False, 0.5 * (g2.b + min(g1.b, g2.b + (g1.b - g2.b)))
    return None


def _ratio_monotone(ts, ratio):
    """Check that the log-ratio `ratio` is nondecreasing on the grid ts;
    infs encode zero densities. nan entries (both inputs vanish there, e.g. a
    gap between disjoint supports) sit outside the comparison domain and are
    dropped, so a drop across such a gap is still caught. On failure, bisect
    the violating pair down to a point where the local decrease is
    re-observable."""
    vals = ratio(ts)
    keep = ~np.isnan(vals)
    vals = vals[keep]
    ts = ts[keep]
    if len(vals) < 2:
        return True, None
    with np.errstate(invalid="ignore"):
        bad = vals[1:] < vals[:-1] - 1e-12
    if not bad.any():
        return True, None
    i = int(np.argmax(bad))
    a, b = float(ts[i]), float(ts[i + 1])
    ra, rb = ratio(a), ratio(b)
    for _ in range(80):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        rm = ratio(m)
        if not np.isnan(rm) and rm < ra - 1e-12:
            b, rb = m, rm
        elif not np.isnan(rm) and rb < rm - 1e-12:
            a, ra = m, rm
        else:
            break
    return False, a


def _log_ratio(relation, g1, g2, t):
    """log(f2 / f1) at t, of the densities (lr) or the survival functions
    (hr); nan where both vanish."""
    with np.errstate(divide="ignore", invalid="ignore"):
        f1, f2 = (g.density(t) if relation == "lr" else np.maximum(g.survival(t), 0.0)
                  for g in (g1, g2))
        return np.log(f2) - np.log(f1)


def check_order(relation: str, g1: Distribution, g2: Distribution, grid: int = 512) -> OrderCheckResult:
    """Verify g1 <= g2 in the st / hr / lr sense on a quantile-spaced grid.

    st compares cdfs pointwise; hr the survival ratio's monotonicity; lr the
    density ratio's monotonicity (both on the log scale). Same-family
    exponential / normal / uniform pairs take the analytic criterion, so
    those verdicts are exact. A failing pair takes its witness from the grid,
    since the closed-form witness need not show the ratio drop (or, for st,
    may show no gap in double precision), and keeps the closed-form witness
    when the grid sees no violation either. A failing st pair whose
    closed-form witness shows its gap needs no grid.
    """
    if relation not in ("st", "hr", "lr"):
        raise SpecError(f"unknown order relation {relation!r}")
    if grid < 64:
        raise SpecError("order-check grid must be at least 64")
    if relation != "st" and not (g1.has_density and g2.has_density):
        raise SpecError(f"{relation} ordering needs closed-form densities")

    analytic = _same_family_st(g1, g2)
    if analytic is not None:
        holds, witness = analytic
        if holds or (relation == "st" and not order_holds_at("st", g1, g2, witness)):
            return OrderCheckResult(relation, holds, witness, grid)
    if relation == "st":
        holds, witness = _st_verdict(g1, g2, grid if analytic is None else max(grid, 4096))
    else:
        holds, witness = _ratio_monotone(quantile_grid((g1, g2), grid),
                                         partial(_log_ratio, relation, g1, g2))
    if holds and analytic is not None:
        holds, witness = analytic
    return OrderCheckResult(relation, holds, witness, grid)


def order_holds_at(relation: str, g1: Distribution, g2: Distribution, t: float) -> bool:
    """Re-evaluate the defining inequality of `relation` at t.

    st is pointwise; for hr/lr the defining monotonicity is probed forward
    from t across several step scales (a witness may sit at a support edge,
    where only a crossing step reveals the ratio drop)."""
    if relation == "st":
        return g1.cdf(t) >= g2.cdf(t) - _EPS
    ratio = partial(_log_ratio, relation, g1, g2)
    r0 = ratio(t)
    scale = max(1.0, abs(t))
    for step in (1e-12, 1e-9, 1e-6, 1e-3, 1e-1):
        r1 = ratio(t + step * scale)
        if np.isnan(r0) or np.isnan(r1):
            continue
        if r1 < r0 - 1e-12:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON codec

DIST_KINDS = {cls.kind: cls for cls in (
    Uniform, Exponential, Normal, DiscreteAtoms, PiecewiseLinearCdf, UniformPower)}


def dist_to_json(d: Distribution) -> dict:
    return encode(d, "kind")


def dist_from_json(doc) -> Distribution:
    return decode(DIST_KINDS, "kind", doc, "distribution")
