"""Target-based ranking of prospects.

Each prospect is a marginal law plus what is known about its dependence on
the target: either the connecting copula of (target, prospect), in which case
P(T <= X) is computed outright, or only a level-class bound gamma, in which
case gamma is a valid floor exactly when the target st-precedes the prospect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .codec import number
from .copula import CopulaSpec, copula_from_json
from .dist import Distribution, check_order, dist_from_json
from .errors import SpecError
from .precedence import Plan, best_eta_report

__all__ = ["Prospect", "RankingRow", "RankingTable", "rank_prospects"]


@dataclass(frozen=True)
class Prospect:
    name: str
    marginal: Distribution
    copula: Optional[CopulaSpec] = None
    gamma_bound: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise SpecError(f"prospect name must be a string, got {self.name!r}")
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
            gb = number(doc["gamma_bound"]) if "gamma_bound" in doc else None
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"prospect gamma_bound must be a number: {exc}") from exc
        return Prospect(doc["name"], dist_from_json(doc["marginal"]), cop, gb)


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


def rank_prospects(target: Distribution, prospects, plan: Plan = Plan()) -> RankingTable:
    """Rank prospects by P(T <= X), best first.

    Copula prospect i gets the best-available eta under plan, seeded plan.seed + i;
    gamma_bound prospects contribute their gamma as a lower bound, valid only when
    the target st-precedes the prospect's marginal (otherwise the bound collapses to
    0 and the row is flagged incomparable). Rows are sorted descending, ties broken
    by name; mixing exact and bound rows is noted in the warnings, not fatal.
    """
    prospects = list(prospects)
    if not prospects:
        raise SpecError("need at least one prospect")
    rows = []
    for i, p in enumerate(prospects):
        if p.copula is not None:
            report = best_eta_report(p.copula, target, p.marginal,
                                     replace(plan, seed=plan.seed + i))
            kind = "estimate" if report.samples > 0 else "exact"
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
        notes.append("ranking mixes exact/estimated eta values with lower bounds; "
                     "bound rows are floors, not point values")
    for r in rows:
        if "incomparable" in r.flags:
            notes.append(f"prospect {r.name!r}: no st-ordering against the target; "
                         "its gamma bound is vacuous")
    return RankingTable(tuple(rows), tuple(notes))
