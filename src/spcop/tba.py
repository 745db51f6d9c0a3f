"""Target-based ranking of prospects.

Each prospect is a marginal law plus what is known about its dependence on
the target: either the connecting copula of (target, prospect), in which case
P(T <= X) is computed outright, or only a level-class bound gamma, in which
case gamma is a valid floor exactly when the target st-precedes the prospect.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from .copula import CopulaSpec, copula_from_json, copula_to_json
from .dist import Distribution, check_order, dist_from_json, dist_to_json
from .errors import SpecError
from .precedence import best_eta_report

__all__ = ["Prospect", "RankingRow", "RankingTable", "rank_prospects",
           "MixedComparabilityWarning"]


class MixedComparabilityWarning(UserWarning):
    """Exact rows and bound rows are interleaved; their semantics differ."""


@dataclass(frozen=True)
class Prospect:
    name: str
    marginal: Distribution
    copula: Optional[CopulaSpec] = None
    gamma_bound: Optional[float] = None

    def __post_init__(self):
        if (self.copula is None) == (self.gamma_bound is None):
            raise SpecError(f"prospect {self.name!r} needs exactly one of copula / gamma_bound")
        if self.gamma_bound is not None and not (0.0 <= self.gamma_bound <= 1.0):
            raise SpecError(f"gamma_bound must lie in [0,1], got {self.gamma_bound}")

    @staticmethod
    def from_json(doc) -> "Prospect":
        if not isinstance(doc, dict) or "name" not in doc or "marginal" not in doc:
            raise SpecError(f"prospect document needs name and marginal: {doc!r}")
        cop = copula_from_json(doc["copula"]) if "copula" in doc else None
        try:
            gb = float(doc["gamma_bound"]) if "gamma_bound" in doc else None
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"prospect gamma_bound must be a number: {exc}") from exc
        return Prospect(str(doc["name"]), dist_from_json(doc["marginal"]), cop, gb)

    def to_json(self) -> dict:
        out = {"name": self.name, "marginal": dist_to_json(self.marginal)}
        if self.copula is not None:
            out["copula"] = copula_to_json(self.copula)
        if self.gamma_bound is not None:
            out["gamma_bound"] = self.gamma_bound
        return out


@dataclass(frozen=True)
class RankingRow:
    name: str
    eta_or_bound: float
    kind: str  # exact | estimate | lower_bound
    stderr: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class RankingTable:
    rows: tuple[RankingRow, ...]
    warnings: tuple[str, ...] = ()

    def to_csv_rows(self) -> list[list[str]]:
        head = ["name", "eta_or_bound", "kind", "stderr", "flags"]
        body = [[r.name, f"{r.eta_or_bound:.12g}", r.kind, f"{r.stderr:.12g}",
                 "|".join(r.flags)] for r in self.rows]
        return [head] + body


_EXACT_METHODS = ("closed_form", "quadrature", "discrete_exact")


def rank_prospects(target: Distribution, prospects, n: int = 10 ** 6,
                   seed: int = 0, workers: int = 1) -> RankingTable:
    """Rank prospects by P(T <= X), best first.

    Copula prospects get the best-available eta; gamma_bound prospects
    contribute their gamma as a lower bound, valid only when the target
    st-precedes the prospect's marginal (otherwise the bound collapses to 0
    and the row is flagged incomparable). Rows are sorted descending, ties
    broken by name; mixing exact and bound rows is reported, not fatal.
    """
    prospects = list(prospects)
    if not prospects:
        raise SpecError("need at least one prospect")
    rows = []
    for i, p in enumerate(prospects):
        if p.copula is not None:
            report = best_eta_report(p.copula, target, p.marginal,
                                     n=n, seed=seed + i, workers=workers)
            kind = "exact" if report.method in _EXACT_METHODS else "estimate"
            rows.append(RankingRow(p.name, report.eta, kind, report.stderr_eta))
        else:
            order = check_order("st", target, p.marginal)
            if order.holds:
                rows.append(RankingRow(p.name, float(p.gamma_bound), "lower_bound", 0.0))
            else:
                rows.append(RankingRow(p.name, 0.0, "lower_bound", 0.0,
                                       ("st_check_failed", "incomparable")))
    rows.sort(key=lambda r: (-r.eta_or_bound, r.name))

    notes = []
    kinds = {r.kind for r in rows}
    if "lower_bound" in kinds and kinds != {"lower_bound"}:
        msg = ("ranking mixes exact/estimated eta values with lower bounds; "
               "bound rows are floors, not point values")
        warnings.warn(msg, MixedComparabilityWarning, stacklevel=2)
        notes.append(msg)
    for r in rows:
        if "incomparable" in r.flags:
            notes.append(f"prospect {r.name!r}: no st-ordering against the target; "
                         "its gamma bound is vacuous")
    return RankingTable(tuple(rows), tuple(notes))
