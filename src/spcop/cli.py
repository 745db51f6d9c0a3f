"""Command-line front end.

Reads a JSON spec document, dispatches to the library, and emits a
machine-readable result (JSON envelope or CSV with '#' metadata lines).
Output is byte-identical for identical (command, input, seed, workers):
no timestamps, no environment leakage, floats printed at 12 significant
digits in CSV and full repr in JSON.

Exit codes: 0 success, 1 malformed command line or schema/domain violation,
2 inconclusive verdict.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import warnings
from dataclasses import asdict, fields

from . import __version__
from .codec import number, sole_float_field
from .copula import COPULA_NODES, copula_from_json, copula_sample
from .dist import check_order, dist_from_json
from .errors import Inconclusive, SpcopError, SpecError
from .oracle import run_verification
from .precedence import Plan, best_eta_report, classify, sp_level
from .rng import resolve_workers
from .tba import Prospect, RankingRow, rank_prospects

__all__ = ["main", "run"]

CURVE_VALUE_BUDGET = 10_000
MAX_SAMPLES = 10 ** 7
MAX_GRID = 2 ** 16


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, tuple):  # a ranking row's flags
        return "|".join(x)
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
    """(g1, g2), None for each one missing; eta_exact refuses a lone marginal."""
    return tuple(dist_from_json(doc[k]) if k in doc else None for k in ("g1", "g2"))


def _metadata(args, method):
    return {"command": args.command, "tool_version": __version__, "seed": args.seed,
            "samples": args.samples, "workers": args.workers, "method": method}


def _emit(stream, args, method, record=None, table=None):
    """Write a command's result, a record (one result object), a table
    (columns of equal length) or both. JSON writes the record as the envelope's
    result, or else the table; CSV writes the table, or else the record as a
    one-row table, with the record's warnings as '# warning=' lines."""
    if args.output == "json" and record is not None:
        envelope = _metadata(args, method)
        envelope["result"] = record
        stream.write(json.dumps(envelope, indent=2) + "\n")
        return
    if table is None:
        table = {key: [json.dumps(v) if isinstance(v, dict) else v] for key, v in record.items()}
    _emit_table(stream, args, table, method, (record or {}).get("warnings", ()))


# equal values of these types print alike (unlike 1, 1.0 and True, or 0.0 and
# -0.0), so a column of them keys its encoded text by value, others by repr
_SELF_KEYED = {str, bool, type(None)}


def _emit_table(stream, args, columns, method, warnings=()):
    """Columns of equal length under their names: a JSON array of one object
    per row, or a CSV header and rows (the '#' head ends with one
    '# warning=' line per entry of warnings).

    Written a column at a time, with the bytes of json.dumps(indent=2) over one
    object per row and of _fmt per CSV cell. A column of finite floats is
    formatted by the row template itself (float repr for JSON, _fmt's 12
    significant digits for CSV); any other column is encoded first, once per
    distinct value.
    """
    csv = args.output == "csv"
    encode, float_format = (_fmt, "{:.12g}") if csv else (json.dumps, "{!r}")
    formats, values = [], []
    for column in columns.values():
        types = set(map(type, column))
        if types <= {float} and all(map(math.isfinite, column)):
            formats.append(float_format)
            values.append(column)
            continue
        keys = column if types <= _SELF_KEYED else list(map(repr, column))
        text = {key: encode(x) for key, x in dict(zip(keys, column)).items()}
        formats.append("{}")
        values.append(list(map(text.__getitem__, keys)))
    metadata = _metadata(args, method)
    if csv:
        template = ",".join(formats) + "\n"
        stream.write("".join(f"# {key}={value}\n" for key, value in metadata.items()))
        stream.write("".join(f"# warning={note}\n" for note in warnings))
        stream.write(",".join(map(_fmt, columns)) + "\n")
        stream.write("".join(map(template.format, *values)))
        return
    metadata["result"] = []
    # "result" is the envelope's last key, so its "[]" is the last one
    head, _, tail = json.dumps(metadata, indent=2).rpartition("[]")
    names = [json.dumps(name).replace("{", "{{").replace("}", "}}") for name in columns]
    template = "    {{\n" + ",\n".join(
        f"      {name}: {field}" for name, field in zip(names, formats)) + "\n    }}"
    rows = ",\n".join(map(template.format, *values))
    stream.write(f"{head}[\n{rows}\n  ]{tail}\n" if rows else f"{head}[]{tail}\n")


def _cmd_eta(args, doc, stream, plan):
    spec = copula_from_json(_need(doc, "copula"))
    g1, g2 = _marginals(doc)
    exit_code = 0
    level = None
    if args.gamma is not None:
        try:
            checked = sp_level(spec, g1, g2, args.gamma, plan)
            report = checked.report
            level = {"gamma": args.gamma, "holds": checked.holds}
        except Inconclusive as exc:
            report = exc.report
            level = {"gamma": args.gamma, "holds": None, "inconclusive": str(exc)}
            exit_code = 2
    else:
        report = best_eta_report(spec, g1, g2, plan)
    result = asdict(report)
    if level is not None:
        result["sp_level"] = level
    _emit(stream, args, report.method, record=result)
    return exit_code


def _cmd_classify(args, doc, stream, plan):
    spec = copula_from_json(_need(doc, "copula"))
    if args.gamma is None:
        raise SpecError("classify needs --gamma")
    _emit(stream, args, "closed_form", record=asdict(classify(spec, args.gamma, plan.tol)))
    return 0


def _cmd_order(args, doc, stream, plan):
    g1 = dist_from_json(_need(doc, "g1"))
    g2 = dist_from_json(_need(doc, "g2"))
    _emit(stream, args, "order_check",
          record=asdict(check_order(args.relation, g1, g2, grid=args.grid)))
    return 0


def _cmd_rank(args, doc, stream, plan):
    target = dist_from_json(_need(doc, "target"))
    prospects = _need(doc, "prospects")
    if not isinstance(prospects, list):
        raise SpecError(f"'prospects' must be an array, got {prospects!r}")
    prospects = [Prospect.from_json(p) for p in prospects]
    table = rank_prospects(target, prospects, plan)
    _emit(stream, args, "ranking", record=asdict(table),
          table={f.name: [getattr(row, f.name) for row in table.rows]
                 for f in fields(RankingRow)})
    return 0


def _cmd_sample(args, doc, stream, plan):
    spec = copula_from_json(_need(doc, "copula"))
    _emit(stream, args, "philox_sampler",
          table=copula_sample(spec, plan.samples, plan.seed, plan.workers))
    return 0


def _cmd_verify(args, doc, stream, plan):
    report = run_verification(n=plan.samples, seed=plan.seed)
    checks = report["checks"]
    _emit(stream, args, "oracle_suite", record=report,
          table={"check": [c["name"] for c in checks], "passed": [c["passed"] for c in checks]})
    return 0


def _cmd_curve(args, doc, stream, plan):
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
        if not isinstance(values, list) or not values:
            raise SpecError(f"'values' must be a non-empty array, got {values!r}")
        count = len(values)
    else:
        bounds = [_need(doc, k) for k in ("start", "stop", "step")]
        try:
            start, stop, step = map(number, bounds)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"start, stop and step must be numbers, got {bounds!r}") from exc
        span = (stop - start) / step if step else math.nan
        if not (math.isfinite(span) and span >= 0.0):
            raise SpecError("need finite start and stop and a nonzero step toward stop, "
                            f"got start={start}, stop={stop}, step={step}")
        # floor keeps the last value at or before stop; 1e-9 absorbs division noise
        count = math.floor(span + 1e-9) + 1
    # either form is bounded before any value is built or any report runs
    if count > CURVE_VALUE_BUDGET:
        raise SpecError(f"a curve holds at most {CURVE_VALUE_BUDGET} values, got {count}")
    if "values" not in doc:
        values = [round(start + i * step, 12) + 0.0 for i in range(count)]
    specs = [copula_from_json({"node": family, param: x}) for x in values]
    reports = [best_eta_report(spec, g1, g2, plan) for spec in specs]
    _emit(stream, args, "curve", table={param: [getattr(spec, param) for spec in specs],
                                        "eta": [rep.eta for rep in reports],
                                        "xi": [rep.xi for rep in reports],
                                        "method": [rep.method for rep in reports]})
    return 0


_FLAGS = {  # every flag once, with its argparse keywords
    "spec": {"help": "path to the JSON input document"},
    "samples": {"type": int, "default": Plan.samples}, "seed": {"type": int, "default": Plan.seed},
    "workers": {"type": int, "default": Plan.workers}, "tol": {"type": float, "default": Plan.tol},
    "gamma": {"type": float}, "grid": {"type": int, "default": 512},
    "relation": {"choices": ("st", "hr", "lr"), "default": "st"},
    "output": {"choices": ("json", "csv"), "default": "json"},
}
# each command's handler and the flags it reads besides --output; verify reads no
# document and takes --spec only because bench/run.py passes it to every request
_COMMANDS = {
    "eta": (_cmd_eta, "spec samples seed workers tol gamma"),
    "xi": (_cmd_eta, "spec samples seed workers tol gamma"),
    "classify": (_cmd_classify, "spec tol gamma"),
    "order": (_cmd_order, "spec grid relation"),
    "rank": (_cmd_rank, "spec samples seed workers"),
    "sample": (_cmd_sample, "spec samples seed workers"),
    "verify": (_cmd_verify, "spec samples seed"),
    "curve": (_cmd_curve, "spec samples seed workers tol"),
}


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a SpecError, as a malformed document is;
    subparsers are made of the same class."""

    def error(self, message):
        raise SpecError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spcop",
        description="Stochastic precedence and tie mass for bivariate copulas")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        # the plan reads these four and the metadata the first three, taken or not
        p.set_defaults(**{key: _FLAGS[key]["default"]
                          for key in ("seed", "samples", "workers", "tol")})
        for flag in (*flags.split(), "output"):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def run(argv, stream) -> int:
    args = _build_parser().parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise SpecError(f"--tol must be a finite number >= 0, got {args.tol}")
    if args.seed < 0:
        raise SpecError(f"--seed must be >= 0, got {args.seed}")
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise SpecError(f"--samples must lie in [1, {MAX_SAMPLES}], got {args.samples}")
    if "grid" in args and args.grid > MAX_GRID:
        raise SpecError(f"--grid must be at most {MAX_GRID}, got {args.grid}")
    args.workers = resolve_workers(args.workers)
    if args.command != "verify" and args.spec is None:
        raise SpecError(f"{args.command} needs --spec <path>")
    doc = _load_doc(args.spec)
    plan = Plan(samples=args.samples, seed=args.seed, workers=args.workers, tol=args.tol)
    return _COMMANDS[args.command][0](args, doc, stream, plan)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    buffer = io.StringIO()
    try:
        # numpy's overflow notes would precede the error line; the chunk
        # threads read this filter too, as they would not read np.errstate
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run(argv, buffer)
    except SpcopError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(buffer.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
