"""Bivariate copula families, transforms, evaluation, sampling, validation.

Specs are immutable node trees. Each node knows its cdf, a component-tagged
sampler, its singular mass, the closed-form pair (eta, xi) = (measure of
{u<=v}, measure of the diagonal) and its value for any marginals the family
knows, and, for absolutely continuous families, the conditional cdfs d1C and
d2C used by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import decode, encode
from .dist import Exponential, Normal, UniformPower, elementwise
from .errors import SpecError, UnknownMass
from .rng import clip_open, map_chunks, open_uniform
from .special import normal_cdf, normal_quantile

__all__ = [
    "CopulaSpec", "Independence", "Comonotone", "Countermonotone", "Shuffle",
    "Gaussian", "MarshallOlkinSurvival", "MarshallOlkinConnecting",
    "OrderStatistics", "Mixture", "Transpose", "SurvivalOf",
    "cell_masses", "copula_sample", "sample_uv", "transpose", "survival_of",
    "validate_copula",
    "copula_to_json", "copula_from_json", "COPULA_NODES",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_T = 0.5 * (_GL_NODES + 1.0)           # nodes on (0,1)
_GL_W = 0.5 * _GL_WEIGHTS
_TAIL_DEPTH = 16.6                         # phi mass beyond it is < 1e-19
_UV_CLAMP = 1e-13                          # copulas are 1-Lipschitz per argument
_CDF_BLOCK = 128                           # Gaussian cdf points per panel pass
_AXIOM_TOL = 1e-9                          # validate_copula's allowance per check
_MAX_VIOLATIONS = 50                       # violation records validate_copula keeps


class CopulaSpec:
    """Base node. All copula operations are pure; specs are hashable values."""

    node: str = ""
    # True: no singular part, so singular mass 0 and the conditional cdfs exist
    absolutely_continuous: bool = False

    def cdf(self, u, v):
        """C(u, v) elementwise over the broadcast of u and v; a float for scalars."""
        return elementwise(self._cdf, u, v)

    def conditional_cdf(self, u, v):
        """d/du C(u,v); defined only for absolutely continuous families."""
        return elementwise(self._d1, u, v)

    # Kernels: C, d/du C and d/dv C on equal-length 1-D float arrays.
    def _cdf(self, u, v):
        raise NotImplementedError

    def _d1(self, u, v):
        raise SpecError(f"{self.node} has a singular component")

    def _d2(self, u, v):
        raise SpecError(f"{self.node} has a singular component")

    def sample_arrays(self, rng, n):
        """Return (u, v, singular_component, structural_tie) arrays."""
        raise NotImplementedError

    def singular_mass(self) -> float:
        if self.absolutely_continuous:
            return 0.0
        raise UnknownMass(self.node)

    def closed_eta_xi(self):
        """(C-measure of {u<=v}, C-measure of the diagonal), closed form."""
        raise UnknownMass(self.node)

    def closed_eta_xi_with(self, g1, g2):
        """(P(X1 <= X2), P(X1 = X2)) for X1 ~ g1, X2 ~ g2 joined by this
        copula, closed form; only families that know these marginals have one."""
        raise UnknownMass(f"{self.node} with {g1.kind}/{g2.kind} marginals")

    def simplified(self) -> "CopulaSpec":
        """This node with a transform applied twice in a row removed."""
        return self


@dataclass(frozen=True)
class Independence(CopulaSpec):
    node = "independence"
    absolutely_continuous = True

    def _cdf(self, u, v):
        return u * v

    def sample_arrays(self, rng, n):
        u = open_uniform(rng, n)
        v = open_uniform(rng, n)
        z = np.zeros(n, dtype=bool)
        return u, v, z, z.copy()

    def closed_eta_xi(self):
        return 0.5, 0.0

    def _d1(self, u, v):
        return v.copy()

    def _d2(self, u, v):
        return u.copy()


@dataclass(frozen=True)
class Comonotone(CopulaSpec):
    node = "comonotone"

    def _cdf(self, u, v):
        return np.minimum(u, v)

    def sample_arrays(self, rng, n):
        u = open_uniform(rng, n)
        ones = np.ones(n, dtype=bool)
        return u, u.copy(), ones, ones.copy()

    def singular_mass(self):
        return 1.0

    def closed_eta_xi(self):
        return 1.0, 1.0


@dataclass(frozen=True)
class Countermonotone(CopulaSpec):
    node = "countermonotone"

    def _cdf(self, u, v):
        return np.maximum(u + v - 1.0, 0.0)

    def sample_arrays(self, rng, n):
        u = open_uniform(rng, n)
        v = clip_open(1.0 - u)
        ones = np.ones(n, dtype=bool)
        return u, v, ones, np.zeros(n, dtype=bool)

    def singular_mass(self):
        return 1.0

    def closed_eta_xi(self):
        return 0.5, 0.0


@dataclass(frozen=True)
class Shuffle(CopulaSpec):
    """Straight shuffle: v = u+1-gamma below gamma, v = u-gamma above."""

    gamma: float
    node = "shuffle"

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise SpecError(f"shuffle gamma must lie in (0,1], got {self.gamma}")

    def _cdf(self, u, v):
        g = self.gamma
        return np.minimum(np.minimum(u, v),
                          np.maximum(u - g, 0.0) + np.maximum(v + g - 1.0, 0.0))

    def sample_arrays(self, rng, n):
        u = open_uniform(rng, n)
        g = self.gamma
        v = np.where(u <= g, u + (1.0 - g), u - g)
        ones = np.ones(n, dtype=bool)
        tie = np.zeros(n, dtype=bool)
        return u, v, ones, tie

    def singular_mass(self):
        return 1.0

    def closed_eta_xi(self):
        # gamma=1 degenerates to the comonotone copula: all mass on u=v
        return self.gamma, (1.0 if self.gamma == 1.0 else 0.0)


def _gauss_panels(a, b, rho, s):
    """Integral of phi(z) Phi((b - rho z)/s) over z < a, per point."""
    # composite 64-node Gauss-Legendre in y = a - z: coarse bell panels
    # plus panels straddling the conditional's transition layer, whose
    # width collapses like s/|rho| as |rho| -> 1
    y0 = a - b / rho
    w = 8.0 * s / max(abs(rho), 0.125)
    edges = np.column_stack([
        np.zeros_like(a),
        np.full_like(a, 1.5),
        np.full_like(a, 6.0),
        np.clip(y0 - w, 0.0, _TAIL_DEPTH),
        np.clip(y0 + w, 0.0, _TAIL_DEPTH),
        np.full_like(a, _TAIL_DEPTH),
    ])
    edges.sort(axis=1)
    acc = np.zeros_like(a)
    for p in range(edges.shape[1] - 1):
        lo_e = edges[:, p]
        width = edges[:, p + 1] - lo_e
        if not width.any():  # adds +0.0 at every point; a NaN width is kept
            continue
        y = lo_e[:, None] + width[:, None] * _GL_T[None, :]
        z = a[:, None] - y
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        cond = normal_cdf((b[:, None] - rho * z) / s)
        acc += width * np.einsum("mk,k->m", phi * cond, _GL_W)
    return acc


@dataclass(frozen=True)
class Gaussian(CopulaSpec):
    rho: float
    node = "gaussian"
    absolutely_continuous = True

    def __post_init__(self):
        if not (-1.0 < self.rho < 1.0):
            raise SpecError(f"gaussian rho must lie in (-1,1), got {self.rho}")

    def _cdf(self, u, v):
        rho = self.rho
        if abs(rho) < 1e-15:
            return u * v
        # exact on the boundary, then clamp interior points: |dC| <= |du|
        out = np.empty_like(u)
        uz = (u <= 0.0) | (v <= 0.0)
        u1 = u >= 1.0
        v1 = v >= 1.0
        out[uz] = 0.0
        out[u1 & ~uz] = v[u1 & ~uz]
        out[v1 & ~uz & ~u1] = u[v1 & ~uz & ~u1]
        inner = ~(uz | u1 | v1)
        if inner.any():
            ui = np.clip(u[inner], _UV_CLAMP, 1.0 - _UV_CLAMP)
            vi = np.clip(v[inner], _UV_CLAMP, 1.0 - _UV_CLAMP)
            # integrate the conditional factorization over the smaller tail
            lo = np.minimum(ui, vi)
            hi = np.maximum(ui, vi)
            a = normal_quantile(lo)
            b = normal_quantile(hi)
            s = math.sqrt(1.0 - rho * rho)
            # fixed blocks keep every (points x nodes) temporary cache-sized
            out[inner] = np.concatenate([
                _gauss_panels(a[k:k + _CDF_BLOCK], b[k:k + _CDF_BLOCK], rho, s)
                for k in range(0, a.size, _CDF_BLOCK)])
        return out

    def sample_arrays(self, rng, n):
        z1 = rng.standard_normal(n)
        z2 = self.rho * z1 + math.sqrt(1.0 - self.rho ** 2) * rng.standard_normal(n)
        u = clip_open(normal_cdf(z1))
        v = clip_open(normal_cdf(z2))
        z = np.zeros(n, dtype=bool)
        return u, v, z, z.copy()

    def closed_eta_xi(self):
        return 0.5, 0.0

    def closed_eta_xi_with(self, g1, g2):
        if isinstance(g1, Normal) and isinstance(g2, Normal):  # X2 - X1 is normal
            try:
                denom = math.sqrt(g1.sd ** 2 + g2.sd ** 2 - 2.0 * self.rho * g1.sd * g2.sd)
            except OverflowError:  # an sd past 1.3e154: no closed form in floats
                denom = 0.0
            if denom > 0.0:
                z = (g2.mean - g1.mean) / denom
                return 0.5 * math.erfc(-z / math.sqrt(2.0)), 0.0
        return super().closed_eta_xi_with(g1, g2)

    def _d1(self, u, v):
        u = np.clip(u, _UV_CLAMP, 1.0 - _UV_CLAMP)
        s = math.sqrt(1.0 - self.rho ** 2)
        vc = np.clip(v, _UV_CLAMP, 1.0 - _UV_CLAMP)
        raw = normal_cdf((normal_quantile(vc) - self.rho * normal_quantile(u)) / s)
        return np.where(v <= 0.0, 0.0, np.where(v >= 1.0, 1.0, raw))

    def _d2(self, u, v):
        return self._d1(v, u)


def _mo_validate(alpha1, alpha2):
    if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
        raise SpecError(f"Marshall-Olkin alphas must lie in (0,1), got ({alpha1}, {alpha2})")


def _mo_construction(rng, n, a1, a2, to_unit):
    """(u, v, tie): each shock minimum x_i mapped to to_unit(-x_i / a_i) and
    clipped into (0,1), in place in its own shock's memory."""
    v_shock = rng.exponential(scale=1.0 / (1.0 / a1 - 1.0), size=n)
    w_shock = rng.exponential(scale=1.0 / (1.0 / a2 - 1.0), size=n)
    z_shock = rng.exponential(scale=1.0, size=n)
    # the tie flag first, so the two minima can overwrite their own shocks
    tie = z_shock <= np.minimum(v_shock, w_shock)
    for shock, a in ((v_shock, a1), (w_shock, a2)):
        x = np.minimum(shock, z_shock, out=shock)
        x /= -a  # x/(-a) is -(x/a) exactly
        clip_open(to_unit(x, out=x), out=x)
    return v_shock, w_shock, tie


@dataclass(frozen=True)
class MarshallOlkinSurvival(CopulaSpec):
    """u v min(u^-a1, v^-a2); singular part on the curve u^a1 = v^a2."""

    alpha1: float
    alpha2: float
    node = "mo_survival"

    def __post_init__(self):
        _mo_validate(self.alpha1, self.alpha2)

    def _cdf(self, u, v):
        return np.minimum(u ** (1.0 - self.alpha1) * v, u * v ** (1.0 - self.alpha2))

    def sample_arrays(self, rng, n):
        u, v, tie = _mo_construction(rng, n, self.alpha1, self.alpha2, np.exp)
        return u, v, tie.copy(), tie

    def singular_mass(self):
        a1, a2 = self.alpha1, self.alpha2
        return a1 * a2 / (a1 + a2 - a1 * a2)

    def closed_eta_xi(self):
        # measured at alpha1=alpha2: continuous from the alpha1<=alpha2 branch,
        # where the singular curve u^a1=v^a2 sits on/above the diagonal
        a1, a2 = self.alpha1, self.alpha2
        xi = self.singular_mass() if a1 == a2 else 0.0
        eta = 1.0 / (2.0 - a1) if a1 <= a2 else (1.0 - a2) / (2.0 - a2)
        return eta, xi


@dataclass(frozen=True)
class OrderStatistics(CopulaSpec):
    """Connecting copula of (min, max) of two iid continuous draws.

    Fully absolutely continuous: the density 1/(2 sqrt(v) sqrt(1-u)) on
    {v > (1-sqrt(1-u))^2} integrates to exactly 1, so the boundary curve
    carries no mass and the singular mass is 0.
    """

    node = "order_statistics"
    absolutely_continuous = True

    def _cdf(self, u, v):
        r = 1.0 - np.sqrt(np.maximum(1.0 - u, 0.0))
        sv = np.sqrt(np.maximum(v, 0.0))
        return np.where(sv < r, v, 2.0 * r * sv - r * r)  # NaN takes the formula

    def sample_arrays(self, rng, n):
        a = open_uniform(rng, n)
        b = open_uniform(rng, n)
        s = np.minimum(a, b)
        t = np.maximum(a, b)
        u = s * (2.0 - s)
        v = t * t
        z = np.zeros(n, dtype=bool)
        return u, v, z, z.copy()

    def closed_eta_xi(self):
        return 2.0 - math.pi / 2.0, 0.0

    def closed_eta_xi_with(self, g1, g2):
        # its own marginals, the laws of the min and the max: min <= max
        if (g1, g2) == (UniformPower(2.0, reflected=True), UniformPower(2.0)):
            return 1.0, 0.0
        return super().closed_eta_xi_with(g1, g2)

    def _d1(self, u, v):
        u = np.clip(u, 0.0, 1.0 - 1e-15)
        v = np.clip(v, 0.0, 1.0)
        w = np.sqrt(1.0 - u)
        r = 1.0 - w
        sv = np.sqrt(v)
        return np.where(sv < r, 0.0, np.clip((sv - r) / w, 0.0, 1.0))

    def _d2(self, u, v):
        u = np.clip(u, 0.0, 1.0)
        v = np.clip(v, 1e-30, 1.0)
        r = 1.0 - np.sqrt(1.0 - u)
        sv = np.sqrt(v)
        return np.where(sv < r, 1.0, np.clip(r / sv, 0.0, 1.0))


@dataclass(frozen=True)
class Mixture(CopulaSpec):
    components: tuple[CopulaSpec, ...]
    weights: tuple[float, ...]
    node = "mixture"

    def __post_init__(self):
        comps = tuple(self.components)
        ws = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", ws)
        if not comps or len(comps) != len(ws):
            raise SpecError("mixture needs matching non-empty components and weights")
        if not all(math.isfinite(w) for w in ws):
            raise SpecError(f"mixture weights must be finite, got {ws}")
        if any(w < -1e-12 for w in ws) or abs(sum(ws) - 1.0) > 1e-12:
            raise SpecError(f"mixture weights must form a simplex, got {ws}")

    def _weighted(self, values):
        return sum(w * x for w, x in zip(self.weights, values))

    def _weighted_eta_xi(self, pairs):
        etas, xis = zip(*pairs)
        return self._weighted(etas), self._weighted(xis)

    def _cdf(self, u, v):
        return self._weighted(c._cdf(u, v) for c in self.components)

    def sample_arrays(self, rng, n):
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(n), side="right")  # draws < 1 = cum[-1]
        u = np.empty(n)
        v = np.empty(n)
        sing = np.empty(n, dtype=bool)
        tie = np.empty(n, dtype=bool)
        for i, comp in enumerate(self.components):
            mask = idx == i
            m = int(mask.sum())
            if m == 0:
                continue
            cu, cv, cs, ct = comp.sample_arrays(rng, m)
            u[mask], v[mask], sing[mask], tie[mask] = cu, cv, cs, ct
        return u, v, sing, tie

    def singular_mass(self):
        return self._weighted(c.singular_mass() for c in self.components)

    def closed_eta_xi(self):
        return self._weighted_eta_xi(c.closed_eta_xi() for c in self.components)

    def closed_eta_xi_with(self, g1, g2):
        return self._weighted_eta_xi(c.closed_eta_xi_with(g1, g2) for c in self.components)

    def _d1(self, u, v):
        return self._weighted(c._d1(u, v) for c in self.components)

    def _d2(self, u, v):
        return self._weighted(c._d2(u, v) for c in self.components)

    @property
    def absolutely_continuous(self):
        return all(c.absolutely_continuous for c in self.components)


def _flipped(eta, xi):
    """(eta, xi) of the transpose: the measure of {u>=v}, and the same ties."""
    return 1.0 - eta + xi, xi


class _Involution:
    """A transform of self.inner that, applied twice, gives it back. Both
    transforms keep the singular mass and map (eta, xi) to (1-eta+xi, xi)."""

    def simplified(self):
        return self.inner.inner if type(self.inner) is type(self) else self

    def singular_mass(self):
        return self.inner.singular_mass()

    def closed_eta_xi(self):
        return _flipped(*self.inner.closed_eta_xi())

    @property
    def absolutely_continuous(self):
        return self.inner.absolutely_continuous


@dataclass(frozen=True)
class Transpose(_Involution, CopulaSpec):
    inner: CopulaSpec
    node = "transpose"

    def _cdf(self, u, v):
        return self.inner._cdf(v, u)

    def sample_arrays(self, rng, n):
        u, v, sing, tie = self.inner.sample_arrays(rng, n)
        return v, u, sing, tie

    def closed_eta_xi_with(self, g1, g2):
        return _flipped(*self.inner.closed_eta_xi_with(g2, g1))

    def _d1(self, u, v):
        return self.inner._d2(v, u)

    def _d2(self, u, v):
        return self.inner._d1(v, u)


@dataclass(frozen=True)
class SurvivalOf(_Involution, CopulaSpec):
    inner: CopulaSpec
    node = "survival"

    def _cdf(self, u, v):
        return u + v - 1.0 + self.inner._cdf(1.0 - u, 1.0 - v)

    def sample_arrays(self, rng, n):
        u, v, sing, tie = self.inner.sample_arrays(rng, n)
        return clip_open(1.0 - u), clip_open(1.0 - v), sing, tie

    def _d1(self, u, v):
        return 1.0 - self.inner._d1(1.0 - u, 1.0 - v)

    def _d2(self, u, v):
        return 1.0 - self.inner._d2(1.0 - u, 1.0 - v)


@dataclass(frozen=True)
class MarshallOlkinConnecting(_Involution, CopulaSpec):
    """Connecting copula of the common-shock minima: the survival transform
    of the mo_survival node, sampled straight from the shocks."""

    alpha1: float
    alpha2: float
    node = "mo_connecting"
    _cdf = SurvivalOf._cdf

    def __post_init__(self):
        _mo_validate(self.alpha1, self.alpha2)

    @property
    def inner(self):
        return MarshallOlkinSurvival(self.alpha1, self.alpha2)

    def sample_arrays(self, rng, n):
        u, v, tie = _mo_construction(rng, n, self.alpha1, self.alpha2,
                                     lambda x, out: np.negative(np.expm1(x, out=out), out=out))
        return u, v, tie.copy(), tie

    def closed_eta_xi_with(self, g1, g2):
        # its own marginals: X_i = min(shock_i, common shock) ~ Exp(1/alpha_i)
        if not (isinstance(g1, Exponential) and isinstance(g2, Exponential)
                and math.isclose(g1.rate, 1.0 / self.alpha1, rel_tol=1e-12)
                and math.isclose(g2.rate, 1.0 / self.alpha2, rel_tol=1e-12)):
            return super().closed_eta_xi_with(g1, g2)
        a1, a2 = self.alpha1, self.alpha2
        den = a1 + a2 - a1 * a2
        return a2 / den, a1 * a2 / den


# ---------------------------------------------------------------------------
# operations


def cell_masses(cc):
    """C-mass of every cell of a cdf lattice cc[i, j] = C(u_i, v_j), by
    inclusion-exclusion: cell (i, j) is [u_i, u_i+1] x [v_j, v_j+1]."""
    return cc[1:, 1:] - cc[:-1, 1:] - cc[1:, :-1] + cc[:-1, :-1]


def sample_uv(spec: CopulaSpec, n: int, seed: int, workers: int = 1):
    """Array-form sampler: (u, v, singular_mask, tie_mask), worker-chunked."""
    parts = map_chunks(spec.sample_arrays, n, seed, workers)
    u = np.concatenate([p[0] for p in parts])
    v = np.concatenate([p[1] for p in parts])
    sing = np.concatenate([p[2] for p in parts])
    tie = np.concatenate([p[3] for p in parts])
    return u, v, sing, tie


def copula_sample(spec: CopulaSpec, n: int, seed: int, workers: int = 1) -> dict[str, list]:
    """Sampled columns as plain lists: u, v, component and structural_tie."""
    u, v, sing, tie = sample_uv(spec, n, seed, workers)
    return {"u": u.tolist(), "v": v.tolist(),
            "component": np.where(sing, "singular", "absolutely_continuous").tolist(),
            "structural_tie": tie.tolist()}


def transpose(spec: CopulaSpec) -> CopulaSpec:
    return Transpose(spec).simplified()


def survival_of(spec: CopulaSpec) -> CopulaSpec:
    return SurvivalOf(spec).simplified()


def validate_copula(spec: CopulaSpec, grid: int = 64) -> list[dict]:
    """Numerically check the copula axioms on a (grid+1)^2 lattice.

    Returns a list of violation records, empty on pass: boundary identities,
    2-increasingness of every lattice cell, and the Frechet-Hoeffding bounds.
    """
    if grid < 8:
        raise SpecError("validation grid must be at least 8")
    ts = np.linspace(0.0, 1.0, grid + 1)
    out = []

    def report(check, u, v, value):
        if len(out) < _MAX_VIOLATIONS:
            out.append({"check": check, "u": float(u), "v": float(v), "value": float(value)})

    uu, vv = np.meshgrid(ts, ts, indexing="ij")
    cc = spec.cdf(uu, vv)
    # the boundary values are the lattice's edges, as every cdf is pointwise
    c_u0, c_0v, c_u1, c_1v = cc[:, 0], cc[0, :], cc[:, -1], cc[-1, :]
    for i, t in enumerate(ts):
        if abs(c_u0[i]) > _AXIOM_TOL:
            report("boundary C(u,0)=0", t, 0.0, c_u0[i])
        if abs(c_0v[i]) > _AXIOM_TOL:
            report("boundary C(0,v)=0", 0.0, t, c_0v[i])
        if abs(c_u1[i] - t) > _AXIOM_TOL:
            report("boundary C(u,1)=u", t, 1.0, c_u1[i])
        if abs(c_1v[i] - t) > _AXIOM_TOL:
            report("boundary C(1,v)=v", 1.0, t, c_1v[i])

    masses = cell_masses(cc)
    bad = np.argwhere(masses < -_AXIOM_TOL)
    for i, j in bad[:_MAX_VIOLATIONS]:
        report("2-increasing", ts[i], ts[j], masses[i, j])

    lower = np.maximum(uu + vv - 1.0, 0.0)
    upper = np.minimum(uu, vv)
    low_bad = np.argwhere(cc < lower - _AXIOM_TOL)
    for i, j in low_bad[:_MAX_VIOLATIONS]:
        report("frechet lower", ts[i], ts[j], cc[i, j] - lower[i, j])
    up_bad = np.argwhere(cc > upper + _AXIOM_TOL)
    for i, j in up_bad[:_MAX_VIOLATIONS]:
        report("frechet upper", ts[i], ts[j], cc[i, j] - upper[i, j])
    return out


# ---------------------------------------------------------------------------
# JSON codec

COPULA_NODES = {cls.node: cls for cls in (
    Independence, Comonotone, Countermonotone, Shuffle, Gaussian,
    MarshallOlkinSurvival, MarshallOlkinConnecting, OrderStatistics, Mixture,
    Transpose, SurvivalOf)}


def copula_to_json(spec: CopulaSpec) -> dict:
    return encode(spec, "node")


def copula_from_json(doc) -> CopulaSpec:
    return decode(COPULA_NODES, "node", doc, "copula", copula_from_json).simplified()
