"""Command-line front end.

Reads a JSON spec document, dispatches to the library, and emits a
machine-readable result (JSON envelope or CSV with '#' metadata lines).
Output is byte-identical for identical (command, input, seed, workers):
no timestamps, no environment leakage, floats printed at 12 significant
digits in CSV and full repr in JSON.

Exit codes: 0 success, 1 schema/domain violation, 2 inconclusive verdict.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import asdict

from . import __version__
from .codec import sole_float_field
from .copula import COPULA_NODES, copula_from_json, copula_sample
from .dist import check_order, dist_from_json
from .errors import Inconclusive, SpcopError, SpecError
from .oracle import run_verification
from .precedence import best_eta_report, classify, sp_level
from .rng import resolve_workers
from .tba import Prospect, rank_prospects

__all__ = ["main", "run"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _load_doc(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise SpecError(f"cannot read spec document {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError(f"spec document {path} must be a JSON object")
    return doc


def _need(doc, key):
    if key not in doc:
        raise SpecError(f"input document is missing {key!r}")
    return doc[key]


def _marginals(doc):
    has1, has2 = "g1" in doc, "g2" in doc
    if has1 != has2:
        raise SpecError("provide both marginals g1 and g2, or neither")
    if not has1:
        return None, None
    return dist_from_json(doc["g1"]), dist_from_json(doc["g2"])


def _metadata(args, method):
    return {"command": args.command, "tool_version": __version__, "seed": args.seed,
            "samples": args.samples, "workers": resolve_workers(args.workers),
            "method": method}


def _emit_json(stream, args, result, method):
    envelope = _metadata(args, method)
    envelope["result"] = result
    stream.write(json.dumps(envelope, indent=2))
    stream.write("\n")


def _emit_csv(stream, args, rows, method):
    for key, value in _metadata(args, method).items():
        stream.write(f"# {key}={value}\n")
    for row in rows:
        stream.write(",".join(_fmt(c) for c in row))
        stream.write("\n")


def _emit_record(stream, args, record, method):
    """One result object: the JSON envelope, or a CSV header and value row."""
    if args.output == "csv":
        values = [json.dumps(v) if isinstance(v, dict) else v for v in record.values()]
        _emit_csv(stream, args, [list(record), values], method)
    else:
        _emit_json(stream, args, record, method)


def _cmd_eta(args, doc, stream):
    spec = copula_from_json(_need(doc, "copula"))
    g1, g2 = _marginals(doc)
    workers = resolve_workers(args.workers)
    exit_code = 0
    level = None
    if args.gamma is not None and g1 is not None:
        try:
            checked = sp_level(spec, g1, g2, args.gamma, n=args.samples, seed=args.seed,
                               workers=workers, tol=args.tol)
            report = checked.report
            level = {"gamma": args.gamma, "holds": checked.holds}
        except Inconclusive as exc:
            report = exc.report
            level = {"gamma": args.gamma, "holds": None, "inconclusive": str(exc)}
            exit_code = 2
    else:
        report = best_eta_report(spec, g1, g2, n=args.samples, seed=args.seed,
                                 tol=args.tol, workers=workers)
    result = asdict(report)
    if level is not None:
        result["sp_level"] = level
    _emit_record(stream, args, result, report.method)
    return exit_code


def _cmd_classify(args, doc, stream):
    spec = copula_from_json(_need(doc, "copula"))
    if args.gamma is None:
        raise SpecError("classify needs --gamma")
    _emit_record(stream, args, asdict(classify(spec, args.gamma, tol=args.tol)), "closed_form")
    return 0


def _cmd_order(args, doc, stream):
    g1 = dist_from_json(_need(doc, "g1"))
    g2 = dist_from_json(_need(doc, "g2"))
    _emit_record(stream, args, asdict(check_order(args.relation, g1, g2, grid=args.grid)),
                 "order_check")
    return 0


def _cmd_rank(args, doc, stream):
    target = dist_from_json(_need(doc, "target"))
    prospects = _need(doc, "prospects")
    if not isinstance(prospects, list):
        raise SpecError(f"'prospects' must be an array, got {prospects!r}")
    prospects = [Prospect.from_json(p) for p in prospects]
    table = rank_prospects(target, prospects, n=args.samples, seed=args.seed,
                           workers=resolve_workers(args.workers))
    if args.output == "csv":
        _emit_csv(stream, args, table.to_csv_rows(), "ranking")
    else:
        _emit_json(stream, args, asdict(table), "ranking")
    return 0


def _cmd_sample(args, doc, stream):
    spec = copula_from_json(_need(doc, "copula"))
    samples = copula_sample(spec, args.seed, args.samples,
                            workers=resolve_workers(args.workers))
    if args.output == "json":
        _emit_json(stream, args, [vars(s) for s in samples], "philox_sampler")
    else:
        body = [["u", "v", "component", "structural_tie"]]
        body += [[s.u, s.v, s.component, s.structural_tie] for s in samples]
        _emit_csv(stream, args, body, "philox_sampler")
    return 0


def _cmd_verify(args, doc, stream):
    report = run_verification(n=args.samples, seed=args.seed)
    if args.output == "csv":
        body = [["check", "passed"]]
        body += [[c["name"], c["passed"]] for c in report["checks"]]
        _emit_csv(stream, args, body, "oracle_suite")
    else:
        _emit_json(stream, args, report, "oracle_suite")
    return 0


def _cmd_curve(args, doc, stream):
    family = _need(doc, "family")
    # every node whose only field is a float is a one-parameter family
    families = {node: param for node, cls in COPULA_NODES.items()
                if (param := sole_float_field(cls)) is not None}
    param = families.get(family) if isinstance(family, str) else None
    if param is None:
        names = " and ".join(sorted(families))
        raise SpecError(f"curve supports {names} families, not {family!r}")
    g1, g2 = _marginals(doc)
    if "values" in doc:
        values = doc["values"]
        if not isinstance(values, list):
            raise SpecError(f"'values' must be an array, got {values!r}")
    else:
        bounds = [_need(doc, k) for k in ("start", "stop", "step")]
        try:
            start, stop, step = map(float, bounds)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"start, stop and step must be numbers, got {bounds!r}") from exc
        span = (stop - start) / step if step else math.nan
        if not (math.isfinite(span) and span >= 0.0):
            raise SpecError("need finite start and stop and a nonzero step toward stop, "
                            f"got start={start}, stop={stop}, step={step}")
        values = [round(start + i * step, 12) + 0.0 for i in range(int(round(span)) + 1)]
    specs = [copula_from_json({"node": family, param: x}) for x in values]
    rows = [[param, "eta", "xi", "method"]]
    for spec in specs:
        rep = best_eta_report(spec, g1, g2, n=args.samples, seed=args.seed,
                              tol=args.tol, workers=resolve_workers(args.workers))
        rows.append([getattr(spec, param), rep.eta, rep.xi, rep.method])
    if args.output == "json":
        _emit_json(stream, args, [dict(zip(rows[0], row)) for row in rows[1:]], "curve")
    else:
        _emit_csv(stream, args, rows, "curve")
    return 0


_DISPATCH = {
    "eta": _cmd_eta, "xi": _cmd_eta, "classify": _cmd_classify,
    "order": _cmd_order, "rank": _cmd_rank, "sample": _cmd_sample,
    "verify": _cmd_verify, "curve": _cmd_curve,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spcop",
        description="Stochastic precedence and tie mass for bivariate copulas")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--spec", default=None, help="path to the JSON input document")
        p.add_argument("--samples", type=int, default=10 ** 6)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--grid", type=int, default=512)
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--relation", choices=("st", "hr", "lr"), default="st")
    return parser


def run(argv, stream) -> int:
    args = _build_parser().parse_args(argv)
    if args.command != "verify" and args.spec is None:
        raise SpecError(f"{args.command} needs --spec <path>")
    doc = _load_doc(args.spec)
    return _DISPATCH[args.command](args, doc, stream)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    buffer = io.StringIO()
    try:
        code = run(argv, buffer)
    except Inconclusive as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return 2
    except SpcopError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(buffer.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
