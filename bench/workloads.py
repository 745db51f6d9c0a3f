"""Request pools for the three benchmark workloads and the seeded request
sequence each run replays.

A workload is a list of slots. Every round of the closed loop issues one
request per slot, in a seeded order; each slot takes its variants round-robin
from a seeded phase. The variants of a slot share a structure and roughly a
cost, so every run carries nearly the same mix of work whatever the seed.
Reference answers are stored per variant in ``refs.json`` (see
``make_refs.py``).

The seed also picks, per request: a common power-of-two scale of both
marginals (eta and xi are invariant under it, so the stored reference holds),
the command alias (``eta``/``xi``) and the ``--seed`` given to Monte Carlo
requests; and, in ``mc_eta``, which copy of each Gaussian slot passes
``--gamma`` in which round. Byte-checked requests (sample, curve, order,
classify, verify) keep their stored arguments exactly, since their digests
depend on them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

MC_SAMPLES = 1_000_000
ORDER_GRID = 512
SAMPLE_ROWS = 100_000
GAMMA_OFFSET = 0.05   # >= 90 stderr of a 1e6-sample estimate: never inconclusive


# ---------------------------------------------------------------------------
# document builders


def normal(mean, sd):
    return {"kind": "normal", "mean": mean, "sd": sd}


def expo(rate):
    return {"kind": "exponential", "rate": rate}


def unif(a, b):
    return {"kind": "uniform", "a": a, "b": b}


def upow(k, reflected=False):
    return {"kind": "uniform_power", "k": k, "reflected": reflected}


def pwl(knots):
    return {"kind": "pwl", "knots": [list(k) for k in knots]}


def atoms(count, seed, shift=0.0):
    """`count` atoms on a quarter grid; weights are small integers over their
    sum, so every location is exact in binary and the weights sum to 1."""
    rng = random.Random(seed)
    xs = sorted(rng.sample(range(4 * count), count))
    ws = [rng.randint(1, 9) for _ in xs]
    total = sum(ws)
    ps = [w / total for w in ws]
    ps[-1] = 1.0 - math.fsum(ps[:-1])
    return {"kind": "atoms", "points": [[x / 4.0 + shift, p] for x, p in zip(xs, ps)]}


def gauss(rho):
    return {"node": "gaussian", "rho": rho}


def shuffle(gamma):
    return {"node": "shuffle", "gamma": gamma}


def mo(a1, a2, node="mo_connecting"):
    return {"node": node, "alpha1": a1, "alpha2": a2}


def mixture(weights, components):
    return {"node": "mixture", "weights": list(weights), "components": list(components)}


def transpose(inner):
    return {"node": "transpose", "inner": inner}


def survival(inner):
    return {"node": "survival", "inner": inner}


COMONOTONE = {"node": "comonotone"}
COUNTERMONOTONE = {"node": "countermonotone"}
INDEPENDENCE = {"node": "independence"}
ORDER_STATS = {"node": "order_statistics"}


# ---------------------------------------------------------------------------
# variants and slots


@dataclass(frozen=True)
class Variant:
    """One input document plus the fixed part of its command line.

    check: "eta" (value against the reference), "digest" (stdout bytes),
    "rank" (each row against its prospect's reference) or "probe" (an invalid
    document that must end in exit 1 with an ``error:`` line).
    """

    id: str
    command: str
    doc: dict
    check: str
    argv: tuple = ()
    scalable: bool = False   # marginals may take a seeded common scale change


@dataclass(frozen=True)
class Slot:
    name: str
    variants: tuple
    gaussian: bool = False   # has a Gaussian copula part or a normal marginal


@dataclass
class Request:
    index: int
    variant: Variant
    argv: list
    doc: dict
    gamma: float | None = None
    expect_holds: bool | None = None


def _eta(vid, copula, g1, g2, scalable=True):
    return Variant(vid, "eta", {"copula": copula, "g1": g1, "g2": g2}, "eta",
                   scalable=scalable)


def _mc_slots():
    s = []
    s.append(Slot("mo_exp", (
        _eta("mc.mo_exp.a", mo(0.4, 0.2), expo(2.0), expo(3.0)),
        _eta("mc.mo_exp.b", mo(0.3, 0.6), expo(1.0), expo(1.5)),
        _eta("mc.mo_exp.c", mo(0.5, 0.25), expo(0.7), expo(2.0)),
    )))
    s.append(Slot("shuffle_ue", (
        _eta("mc.shuffle_ue.a", shuffle(0.25), unif(0.0, 1.0), expo(1.5)),
        _eta("mc.shuffle_ue.b", shuffle(0.45), unif(0.0, 1.0), expo(1.5)),
        _eta("mc.shuffle_ue.c", shuffle(0.7), unif(0.0, 1.0), expo(1.5)),
    )))
    s.append(Slot("frechet_mix", (
        _eta("mc.frechet_mix.a", mixture((0.3, 0.3, 0.4), (COMONOTONE, COUNTERMONOTONE, shuffle(0.35))),
             expo(1.0), unif(0.0, 2.0)),
        _eta("mc.frechet_mix.b", mixture((0.2, 0.5, 0.3), (COMONOTONE, COUNTERMONOTONE, shuffle(0.6))),
             expo(1.0), unif(0.0, 2.0)),
        _eta("mc.frechet_mix.c", mixture((0.4, 0.2, 0.4), (COMONOTONE, COUNTERMONOTONE, shuffle(0.8))),
             expo(1.0), unif(0.0, 2.0)),
    )))
    s.append(Slot("wrapped_singular", (
        _eta("mc.wrapped.a", transpose(mo(0.3, 0.5)), expo(1.2), expo(0.8)),
        _eta("mc.wrapped.b", survival(mo(0.6, 0.2)), expo(1.0), expo(2.0)),
        _eta("mc.wrapped.c", survival(shuffle(0.4)), expo(1.0), unif(0.0, 3.0)),
    )))
    s.append(Slot("mo_normal", (
        _eta("mc.mo_normal.a", mo(0.4, 0.2), normal(0.0, 1.0), normal(0.3, 1.2)),
        _eta("mc.mo_normal.b", mo(0.3, 0.6), normal(0.0, 1.0), normal(-0.2, 0.8)),
        _eta("mc.mo_normal.c", mo(0.5, 0.25), normal(1.0, 1.0), normal(0.5, 2.0)),
    ), gaussian=True))
    s.append(Slot("gauss_shuffle_mix", (
        _eta("mc.gauss_shuffle.a", mixture((0.5, 0.5), (gauss(0.6), shuffle(0.3))),
             normal(0.0, 1.0), normal(0.2, 1.5)),
        _eta("mc.gauss_shuffle.b", mixture((0.5, 0.5), (gauss(-0.4), shuffle(0.5))),
             normal(0.0, 1.0), normal(0.2, 1.5)),
        _eta("mc.gauss_shuffle.c", mixture((0.5, 0.5), (gauss(0.9), shuffle(0.7))),
             normal(0.0, 1.0), normal(0.2, 1.5)),
    ), gaussian=True))
    s.append(Slot("shuffle_normal", (
        _eta("mc.shuffle_normal.a", shuffle(0.3), normal(0.0, 1.0), normal(0.3, 1.5)),
        _eta("mc.shuffle_normal.b", shuffle(0.55), normal(0.0, 1.0), normal(-0.2, 0.8)),
        _eta("mc.shuffle_normal.c", shuffle(0.8), normal(0.0, 1.0), normal(0.3, 1.5)),
    ), gaussian=True))
    s.append(Slot("gauss_atoms", (
        _eta("mc.gauss_atoms.a", gauss(0.5), atoms(16, 11), normal(8.0, 4.0)),
        _eta("mc.gauss_atoms.b", gauss(-0.3), atoms(16, 12), normal(8.0, 4.0)),
        _eta("mc.gauss_atoms.c", gauss(0.8), atoms(16, 13), normal(8.0, 4.0)),
    ), gaussian=True))
    s.append(Slot("wrapped_gauss_frechet", (
        _eta("mc.wrapped_gauss.a", survival(mixture((0.5, 0.5), (gauss(0.5), COUNTERMONOTONE))),
             expo(1.0), normal(1.0, 1.0)),
        _eta("mc.wrapped_gauss.b", transpose(mixture((0.5, 0.5), (gauss(-0.5), COMONOTONE))),
             normal(1.0, 1.0), expo(1.0)),
        _eta("mc.wrapped_gauss.c", survival(mixture((0.5, 0.5), (gauss(0.2), shuffle(0.4)))),
             expo(1.0), normal(1.0, 1.0)),
    ), gaussian=True))
    return s


def _det_slots():
    s = []
    s.append(Slot("gauss_en", (
        _eta("det.gauss_en.a", gauss(0.4), expo(1.0), normal(1.0, 1.0)),
        _eta("det.gauss_en.b", gauss(0.5), expo(1.0), normal(1.0, 1.0)),
        _eta("det.gauss_en.c", gauss(0.6), expo(1.0), normal(1.0, 1.0)),
        _eta("det.gauss_en.d", gauss(0.99), expo(1.0), normal(1.0, 1.0)),
    )))
    s.append(Slot("gauss_ue", (
        _eta("det.gauss_ue.a", gauss(0.3), unif(0.0, 1.0), expo(2.0)),
        _eta("det.gauss_ue.b", gauss(0.7), unif(0.0, 1.0), expo(2.0)),
        _eta("det.gauss_ue.c", gauss(0.9), unif(0.0, 1.0), expo(2.0)),
        _eta("det.gauss_ue.d", gauss(-0.5), unif(0.0, 1.0), expo(2.0)),
    )))
    s.append(Slot("survival_gauss_nn", (
        _eta("det.survival_nn.a", survival(gauss(0.2)), normal(0.0, 1.0), normal(0.1, 1.0)),
        _eta("det.survival_nn.b", survival(gauss(0.4)), normal(0.0, 1.0), normal(0.1, 1.0)),
        _eta("det.survival_nn.c", survival(gauss(0.3)), normal(0.0, 1.0), normal(0.2, 1.0)),
        _eta("det.survival_nn.d", survival(gauss(0.5)), normal(0.0, 1.0), normal(0.3, 1.2)),
    )))
    s.append(Slot("survival_gauss_ue", (
        _eta("det.survival_ue.a", survival(gauss(0.3)), unif(0.0, 1.0), expo(2.0)),
        _eta("det.survival_ue.b", survival(gauss(0.5)), unif(0.0, 1.0), expo(2.0)),
        _eta("det.survival_ue.c", survival(gauss(0.7)), unif(0.0, 1.0), expo(2.0)),
        _eta("det.survival_ue.d", survival(gauss(-0.3)), unif(0.0, 1.0), expo(2.0)),
    )))
    s.append(Slot("transpose_gauss_ne", (
        _eta("det.transpose_ne.a", transpose(gauss(0.5)), normal(0.0, 1.0), expo(1.0)),
        _eta("det.transpose_ne.b", transpose(gauss(0.7)), normal(0.0, 1.0), expo(1.0)),
        _eta("det.transpose_ne.c", transpose(gauss(0.6)), normal(0.0, 1.0), expo(1.0)),
        _eta("det.transpose_ne.d", transpose(gauss(-0.5)), normal(0.0, 1.0), expo(1.0)),
    )))
    s.append(Slot("order_statistics", (
        _eta("det.order_stats.a", ORDER_STATS, expo(1.0), normal(1.0, 1.0)),
        _eta("det.order_stats.b", ORDER_STATS, unif(0.0, 1.0), expo(2.0)),
        _eta("det.order_stats.c", ORDER_STATS, normal(0.0, 1.0), unif(-1.0, 2.0)),
        _eta("det.order_stats.d", ORDER_STATS, normal(0.5, 1.0), expo(1.0)),
    )))
    s.append(Slot("gauss_indep_mix", (
        _eta("det.gauss_indep.a", mixture((0.5, 0.5), (gauss(0.5), INDEPENDENCE)), unif(0.0, 1.0), expo(2.0)),
        _eta("det.gauss_indep.b", mixture((0.6, 0.4), (gauss(0.4), INDEPENDENCE)), unif(0.0, 1.0), expo(2.0)),
        _eta("det.gauss_indep.c", mixture((0.5, 0.5), (gauss(0.3), INDEPENDENCE)), unif(0.0, 1.0), expo(2.0)),
        _eta("det.gauss_indep.d", mixture((0.7, 0.3), (gauss(0.5), INDEPENDENCE)), unif(0.0, 1.0), expo(2.0)),
    )))
    s.append(Slot("atoms_gauss_small", (
        _eta("det.atoms_small.a", gauss(0.7), atoms(16, 21), atoms(24, 22, 0.5)),
        _eta("det.atoms_small.b", gauss(-0.5), atoms(24, 23), atoms(16, 24, 0.5)),
        _eta("det.atoms_small.c", gauss(0.3), atoms(32, 25), atoms(32, 26, 0.5)),
        _eta("det.atoms_small.d", gauss(0.9), atoms(20, 27), atoms(20, 28, 0.5)),
    )))
    s.append(Slot("atoms_gauss_large", (
        _eta("det.atoms_large.a", gauss(0.7), atoms(128, 31), atoms(128, 32, 0.5)),
        _eta("det.atoms_large.b", gauss(-0.6), atoms(128, 33), atoms(128, 34, 0.5)),
        _eta("det.atoms_large.c", gauss(0.95), atoms(128, 35), atoms(128, 36, 0.5)),
        _eta("det.atoms_large.d", gauss(-0.2), atoms(128, 37), atoms(128, 38, 0.5)),
    )))
    s.append(Slot("atoms_mixture", (
        _eta("det.atoms_mix.a", mixture((0.3, 0.7), (gauss(-0.4), shuffle(0.6))),
             atoms(96, 41), atoms(96, 42, 0.5)),
        _eta("det.atoms_mix.b", mixture((0.6, 0.4), (gauss(0.8), mo(0.3, 0.6))),
             atoms(96, 43), atoms(96, 44, 0.5)),
        _eta("det.atoms_mix.c", mixture((0.5, 0.5), (gauss(0.2), COUNTERMONOTONE)),
             atoms(96, 45), atoms(96, 46, 0.5)),
        _eta("det.atoms_mix.d", mixture((0.4, 0.3, 0.3), (gauss(0.5), COUNTERMONOTONE, shuffle(0.3))),
             atoms(96, 47), atoms(96, 48, 0.5)),
    )))
    return s


# A quadrature case that adaptive Simpson takes more than 10 s on at this
# commit. It runs once per run, early, so the latency defect stays visible.
SLOW_VARIANT = _eta("det.slow.survival_gauss_0.9", survival(gauss(0.9)),
                    normal(0.0, 1.0), normal(0.1, 1.0), scalable=False)
SLOW_MAX_INDEX = 4


def _digest(vid, command, doc, *argv):
    return Variant(vid, command, doc, "digest", tuple(str(a) for a in argv))


def _probe(vid, command, doc, *argv):
    return Variant(vid, command, doc, "probe", tuple(str(a) for a in argv))


def _io_slots():
    rows = ("--samples", SAMPLE_ROWS)
    sample_specs = {
        "shuffle": {"copula": shuffle(0.3)},
        "mo": {"copula": mo(0.4, 0.2)},
        "mix": {"copula": mixture((0.5, 0.3, 0.2), (shuffle(0.6), mo(0.3, 0.5, "mo_survival"),
                                                     COUNTERMONOTONE))},
        "wrapped": {"copula": transpose(mixture((0.6, 0.4), (mo(0.5, 0.25), COMONOTONE)))},
    }

    def sample_slot(name, output, picks):
        return Slot(name, tuple(
            _digest(f"io.{name}.{spec}.s{seed}w{w}", "sample", sample_specs[spec], *rows,
                    "--output", output, "--seed", seed, "--workers", w)
            for spec, seed, w in picks))

    s = [
        sample_slot("sample_json_1", "json",
                    (("shuffle", 1, 1), ("mo", 2, 2), ("mix", 3, 1), ("wrapped", 16, 1))),
        sample_slot("sample_json_2", "json",
                    (("wrapped", 4, 2), ("mix", 5, 2), ("shuffle", 6, 1), ("mo", 17, 2))),
        sample_slot("sample_json_3", "json",
                    (("mo", 13, 1), ("wrapped", 14, 2), ("shuffle", 15, 1), ("mix", 18, 2))),
        sample_slot("sample_csv_1", "csv",
                    (("shuffle", 7, 2), ("mo", 8, 1), ("mix", 9, 1), ("wrapped", 19, 2))),
        sample_slot("sample_csv_2", "csv",
                    (("wrapped", 10, 1), ("mix", 11, 2), ("mo", 12, 2), ("shuffle", 20, 1))),
    ]
    rank_docs = {
        "a": {"target": expo(1.0), "prospects": [
            {"name": "quad", "marginal": normal(1.0, 1.0), "copula": gauss(0.3)},
            {"name": "mc_mo", "marginal": expo(0.5), "copula": mo(0.4, 0.2)},
            {"name": "mc_shuffle", "marginal": normal(1.0, 1.0), "copula": shuffle(0.4)},
            {"name": "bound_ok", "marginal": expo(0.5), "gamma_bound": 0.6},
            {"name": "bound_fails", "marginal": expo(2.0), "gamma_bound": 0.7}]},
        "b": {"target": normal(0.0, 1.0), "prospects": [
            {"name": "closed", "marginal": normal(0.5, 1.0), "copula": gauss(-0.2)},
            {"name": "mc_mix", "marginal": expo(1.0),
             "copula": mixture((0.5, 0.5), (shuffle(0.3), COUNTERMONOTONE))},
            {"name": "mc_mo", "marginal": expo(0.8), "copula": survival(mo(0.3, 0.6))},
            {"name": "bound_ok", "marginal": normal(0.5, 1.0), "gamma_bound": 0.55},
            {"name": "bound_fails", "marginal": normal(-0.5, 1.0), "gamma_bound": 0.4}]},
    }
    s.append(Slot("rank", tuple(Variant(f"io.rank.{k}", "rank", d, "rank", scalable=True)
                                for k, d in rank_docs.items())))
    s.append(Slot("verify", tuple(_digest(f"io.verify.s{seed}", "verify", {}, "--seed", seed)
                                  for seed in (0, 1, 2, 3))))
    s.append(Slot("curve", (
        _digest("io.curve.gaussian_range", "curve",
                {"family": "gaussian", "start": -0.9, "stop": 0.9, "step": 0.05}),
        _digest("io.curve.shuffle_range", "curve",
                {"family": "shuffle", "start": 0.05, "stop": 1.0, "step": 0.025}, "--output", "csv"),
        _digest("io.curve.gaussian_values", "curve",
                {"family": "gaussian", "values": [-0.95, -0.5, 0.0, 0.25, 0.5, 0.99]}, "--output", "csv"),
        _digest("io.curve.shuffle_values", "curve",
                {"family": "shuffle", "values": [0.1, 0.2, 0.3, 0.5, 0.8, 1.0]}),
    )))
    grid = ("--grid", ORDER_GRID)
    s.append(Slot("order", (
        _digest("io.order.st_pwl_atoms", "order",
                {"g1": pwl([(0.0, 0.0), (1.0, 0.4), (2.5, 0.9), (4.0, 1.0)]), "g2": atoms(64, 51, 0.5)},
                *grid, "--relation", "st"),
        _digest("io.order.hr_exp_normal", "order", {"g1": expo(2.0), "g2": normal(1.0, 1.0)},
                *grid, "--relation", "hr"),
        _digest("io.order.lr_unif_power", "order", {"g1": unif(0.0, 1.0), "g2": upow(2.0)},
                *grid, "--relation", "lr"),
        _digest("io.order.st_atoms_exp", "order", {"g1": atoms(32, 52), "g2": expo(0.1)},
                *grid, "--relation", "st", "--output", "csv"),
        _digest("io.order.hr_unif_exp", "order", {"g1": unif(0.0, 1.0), "g2": expo(1.0)},
                *grid, "--relation", "hr", "--output", "csv"),
        _digest("io.order.lr_normal_exp", "order", {"g1": normal(0.0, 1.0), "g2": expo(1.0)},
                *grid, "--relation", "lr"),
    )))
    s.append(Slot("classify", (
        _digest("io.classify.shuffle", "classify", {"copula": shuffle(0.3)}, "--gamma", 0.3),
        _digest("io.classify.mo", "classify", {"copula": mo(0.4, 0.2, "mo_survival")}, "--gamma", 0.5),
        _digest("io.classify.mo_connecting", "classify", {"copula": mo(0.3, 0.6)}, "--gamma", 0.6),
        _digest("io.classify.mix", "classify",
                {"copula": mixture((0.5, 0.5), (shuffle(0.2), gauss(0.4)))}, "--gamma", 0.35,
                "--output", "csv"),
    )))
    s.append(Slot("invalid", (
        _probe("io.invalid.curve_step_zero", "curve",
               {"family": "shuffle", "start": 0.1, "stop": 0.9, "step": 0}),
        _probe("io.invalid.curve_step_negative", "curve",
               {"family": "gaussian", "start": -0.5, "stop": 0.5, "step": -0.1}),
        _probe("io.invalid.pwl_nan_knot", "order",
               {"g1": pwl([(0.0, 0.0), (float("nan"), 0.5), (2.0, 1.0)]), "g2": expo(1.0)}),
        _probe("io.invalid.atoms_inf", "eta",
               {"copula": gauss(0.5), "g1": {"kind": "atoms", "points": [[0.0, 0.5], [float("inf"), 0.5]]},
                "g2": {"kind": "atoms", "points": [[0.5, 0.5], [1.5, 0.5]]}}),
    )))
    return s


WORKLOADS = {
    "mc_eta": _mc_slots,
    "deterministic_eta": _det_slots,
    "report_io": _io_slots,
}


def all_variants():
    """Every variant of every workload, for reference generation."""
    out = [SLOW_VARIANT]
    for build in WORKLOADS.values():
        for slot in build():
            out.extend(slot.variants)
    return out


# ---------------------------------------------------------------------------
# seeded scale change of both marginals


# Powers of two: scaling is exact in binary, so the quadrature integrand and
# its cost are unchanged and atom/knot grids stay exact.
_SCALES = (0.5, 1.0, 2.0, 4.0)


def _scale_dist(d, k):
    kind = d["kind"]
    if kind == "normal":
        return normal(k * d["mean"], k * d["sd"])
    if kind == "uniform":
        return unif(k * d["a"], k * d["b"])
    if kind == "exponential":
        return expo(d["rate"] / k)
    if kind == "atoms":
        return {"kind": "atoms", "points": [[k * x, p] for x, p in d["points"]]}
    raise ValueError(f"no scale change for {kind}")


def _scale_doc(doc, k):
    """Multiply every marginal of the document by k > 0. P(X1 <= X2) and
    P(X1 = X2) do not change, so the stored reference still holds."""
    out = dict(doc)
    for key in ("g1", "g2", "target"):
        if key in doc:
            out[key] = _scale_dist(doc[key], k)
    if "prospects" in doc:
        out["prospects"] = [dict(p, marginal=_scale_dist(p["marginal"], k))
                            for p in doc["prospects"]]
    return out


# ---------------------------------------------------------------------------
# request sequence


# Nominal round lengths at this commit on a 2-core Xeon: --seconds buys
# ceil(seconds / round) whole rounds. The work per run is fixed by
# --seconds, so every run of a workload issues the same number of requests
# with the same mix, and counts repeat exactly.
ROUND_SECONDS = {"mc_eta": 10.0, "deterministic_eta": 5.0, "report_io": 8.5}
SLOW_SECONDS = 13.0


def rounds_for(workload, seconds):
    budget = seconds - (SLOW_SECONDS if workload == "deterministic_eta" else 0.0)
    return max(1, math.ceil(budget / ROUND_SECONDS[workload]))


def _round(workload, slots, rng, round_no, phases, refs, max_workers):
    """One request per slot (two per slot in mc_eta), in seeded order, each
    slot taking its variants round-robin from a seeded phase.

    In mc_eta the second copy of each slot runs at --workers 2, and one copy
    of each slot with a Gaussian part passes --gamma, alternating between the
    copies from round to round: the --workers 2 half and the --gamma quarter
    hold the same mix of specs whatever the seed."""
    copies = 2 if workload == "mc_eta" else 1
    jobs = [(i, c) for i in range(len(slots)) for c in range(copies)]
    rng.shuffle(jobs)
    out = []
    for i, c in jobs:
        slot = slots[i]
        variant = slot.variants[(phases[i] + copies * round_no + c) % len(slot.variants)]
        two_workers = copies == 2 and c == 1
        with_gamma = copies == 2 and slot.gaussian and (phases[i] + round_no) % 2 == c
        out.append(_request(variant, rng, refs, two_workers, with_gamma, max_workers))
    return out


def _request(variant, rng, refs, two_workers, with_gamma, max_workers):
    doc = _scale_doc(variant.doc, rng.choice(_SCALES)) if variant.scalable else variant.doc
    argv = [variant.command]
    req = Request(0, variant, argv, doc)
    if variant.check == "eta":
        argv[0] = rng.choice(("eta", "xi"))
        argv += ["--samples", str(MC_SAMPLES), "--seed", str(rng.randrange(1 << 31))]
        if two_workers:
            argv += ["--workers", str(min(2, max_workers))]
        if with_gamma:
            eta = refs[variant.id]["eta"]["value"]
            side = rng.choice((-1.0, 1.0))
            gamma = round(min(max(eta + side * GAMMA_OFFSET, 0.0), 1.0), 6)
            argv += ["--gamma", repr(gamma)]
            req.gamma = gamma
            req.expect_holds = eta >= gamma
    elif variant.check == "rank":
        argv += ["--samples", str(MC_SAMPLES), "--seed", str(rng.randrange(1 << 31))]
    else:
        argv += list(variant.argv)
    return req


def request_sequence(workload, seed, seconds, refs, max_workers):
    """The run's whole request sequence: its rounds, one after another.

    For deterministic_eta the slow quadrature case is inserted once, at a
    seeded index among the first SLOW_MAX_INDEX + 1 requests."""
    slots = WORKLOADS[workload]()
    rng = random.Random(f"{workload}:{seed}")
    phases = [rng.randrange(1 << 16) for _ in slots]
    rounds = [_round(workload, slots, rng, r, phases, refs, max_workers)
              for r in range(rounds_for(workload, seconds))]
    if workload == "deterministic_eta":
        rounds[0].insert(rng.randrange(SLOW_MAX_INDEX + 1),
                         _request(SLOW_VARIANT, rng, refs, False, False, max_workers))
    sequence = [req for batch in rounds for req in batch]
    for index, req in enumerate(sequence):
        req.index = index
    return sequence
