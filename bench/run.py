#!/usr/bin/env python3
"""spcop benchmark: the CLI end to end, and each module in a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload mc_eta --seed 1 --seconds 30 --trace 0

One closed-loop client calls ``spcop.cli.main`` in this process, one request
at a time, for the whole rounds that ``--seconds`` buys (see workloads.py).
Every answer is checked against ``bench/refs.json``. The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. The traced run first repeats the untraced loop, then
replays the same requests with every spcop layer wrapped in spans
(tracer.py). Full results, with provenance, go to ``bench/out/``. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFS = BENCH / "refs.json"
SETUP_REPEATS = 9
MC_TOL_SIGMAS = 6.0
ABS_FLOOR = 1e-6      # absolute slack on every Monte Carlo comparison

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# environment


def nproc():
    return len(os.sched_getaffinity(0))


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def provenance(workload, seed):
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else ():
        level, kind = _read(idx / "level"), _read(idx / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(idx / "size")
    git = None
    if (ROOT / ".git").exists():   # an exported checkout has no history to name
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "spcop").glob("*.py")):
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload, "seed": seed, "git_sha": git,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": nproc(), "cpu_model": cpu,
        "cache": caches, "platform": platform.platform(),
        "sp_copula_threads": os.environ.get("SP_COPULA_THREADS"),
    }


def measure_setup():
    """Median wall time of a fresh interpreter importing spcop.cli.

    No subprocess timeout: with one, the wait polls in steps of up to 50 ms,
    which quantizes the measurement."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import spcop.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fills the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# one request


@dataclass
class Outcome:
    seconds: float
    code: object
    stdout: str
    stderr: str
    error: str | None


def invoke(cli, argv):
    """Run spcop.cli.main(argv) with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            error = f"SystemExit({exc.code!r})"
        except Exception:  # a traceback is an outcome to record, not to crash on
            code = None
            error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    return Outcome(seconds, code, out.getvalue(), err.getvalue(), error)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finite(*xs):
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def _close(value, stderr, ref):
    """|value - ref| within the reference's own tolerance, widened to
    MC_TOL_SIGMAS combined standard errors when the answer reports one."""
    tol = max(ref["tol"], MC_TOL_SIGMAS * math.hypot(stderr, ref["se"]) + (
        ABS_FLOOR if stderr > 0 or ref["se"] > 0 else 0.0))
    return abs(value - ref["value"]) <= tol


def check(req, out, refs):
    """None when the outcome is correct, else the reason it is not."""
    v = req.variant
    if v.check == "probe":
        lines = out.stderr.splitlines()
        if out.code == 1 and out.error is None and any(ln.startswith("error:") for ln in lines):
            return None
        last = out.error.strip().splitlines()[-1] if out.error else None
        return f"expected exit 1 with an error: line, got exit {out.code!r}, exception {last!r}"
    if out.error is not None:
        return out.error
    ref = refs[v.id]
    if v.check == "digest":
        if out.code != 0:
            return f"exit {out.code!r}"
        got = sha256(out.stdout)
        return None if got == ref["sha256"] else f"digest {got} != {ref['sha256']}"
    if out.code != 0:
        return f"exit {out.code!r}: {out.stderr.strip()[:200]}"
    try:
        result = json.loads(out.stdout)["result"]
    except (ValueError, KeyError) as exc:
        return f"unparseable output: {exc}"
    if v.check == "eta":
        eta, xi = result.get("eta"), result.get("xi")
        se_eta, se_xi = result.get("stderr_eta"), result.get("stderr_xi")
        if not _finite(eta, xi, se_eta, se_xi):
            return f"non-finite answer {result}"
        if not _close(eta, se_eta, ref["eta"]):
            return f"eta {eta} vs reference {ref['eta']}"
        if not _close(xi, se_xi, ref["xi"]):
            return f"xi {xi} vs reference {ref['xi']}"
        if req.gamma is not None:
            holds = result.get("sp_level", {}).get("holds")
            if holds is not req.expect_holds:
                return f"sp_level holds={holds!r} at gamma={req.gamma}, expected {req.expect_holds}"
        return None
    if v.check == "rank":
        rows = result.get("rows", [])
        if sorted(r["name"] for r in rows) != sorted(ref["rows"]):
            return f"rank rows {[r['name'] for r in rows]}"
        values = [r["eta_or_bound"] for r in rows]
        if values != sorted(values, reverse=True):
            return "rank rows not in descending order"
        for r in rows:
            rr = ref["rows"][r["name"]]
            if not _finite(r["eta_or_bound"], r["stderr"]):
                return f"non-finite rank row {r}"
            if not _close(r["eta_or_bound"], r["stderr"], rr):
                return f"rank row {r['name']}: {r['eta_or_bound']} vs reference {rr}"
            if "flags" in rr and r["flags"] != rr["flags"]:
                return f"rank row {r['name']} flags {r['flags']} != {rr['flags']}"
        return None
    return f"unknown check {v.check}"


# ---------------------------------------------------------------------------
# the closed loop


def write_specs(requests, spec_dir):
    for req in requests:
        path = spec_dir / f"req{req.index:05d}.json"
        path.write_text(json.dumps(req.doc))
        req.argv[1:1] = ["--spec", str(path)]


def drive(cli, requests, refs, tracer=None):
    """Issue the requests one at a time; return (records, wall_s, cpu_s).

    Between requests the client checks the answer and runs gc.collect(), so
    each request starts with no garbage carried over, as a fresh CLI process
    would. That client work is left out of the wall and CPU totals."""
    done = []
    client = client_cpu = 0.0
    t_start, cpu_start = time.perf_counter(), time.process_time()
    for req in requests:
        if tracer is not None:
            tracer.current_request = req.index
        out = invoke(cli, req.argv)
        c0, p0 = time.perf_counter(), time.process_time()
        done.append(_record(req, out, refs))
        gc.collect()
        client += time.perf_counter() - c0
        client_cpu += time.process_time() - p0
    wall = time.perf_counter() - t_start - client
    return done, wall, time.process_time() - cpu_start - client_cpu


def _record(req, out, refs):
    verdict = check(req, out, refs)
    return {"request": req, "seconds": out.seconds, "code": out.code,
            "bytes_out": len(out.stdout.encode("utf-8")), "verdict": verdict}


def tally(records):
    """(attempted, failed, mishandled): invalid-input probes that were not
    rejected cleanly are counted apart from failed valid requests."""
    bad = [r for r in records if r["verdict"] is not None]
    mishandled = sum(r["request"].variant.check == "probe" for r in bad)
    return len(records), len(bad) - mishandled, mishandled


def tail(times):
    """(value, percentile, requests beyond) of the highest percentile with at
    least ten requests beyond it; the maximum when there are ten or fewer."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


# ---------------------------------------------------------------------------
# metrics


def end_to_end(records, wall, setup):
    times = [r["seconds"] for r in records]
    attempted, failed, mishandled = tally(records)
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": (setup, "s"),
        "req_p50_s": (statistics.median(times), "s"),
        "req_tail_s": (tail_s, "s"),
        "req_max_s": (max(times), "s"),
        "requests_per_s": (len(times) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "requests": len(times), "wall_s": wall, "tail_percentile": tail_pct,
        "requests_beyond_tail": beyond,
        "error_rate": (failed + mishandled) / attempted,
        "failed_valid": failed, "invalid_mishandled": mishandled,
    }
    return metrics, info


def per_layer(records, wall0, cpu0, wall1, tracer):
    from tracer import SpanTable

    t = SpanTable(tracer)
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def rate(a, b):
        return a / b if b > 0 else 0.0

    main_s = t.seconds("cli")
    bytes_out = sum(r["bytes_out"] for r in records)
    put("cli.self_s", t.self_seconds("cli"), "s")
    put("cli.bytes_out", bytes_out, "B")
    put("cli.out_mb_per_s", rate(bytes_out / 1e6, main_s), "MB/s")
    put("cli.invalid_mishandled", tally(records)[2], "count")
    put("codec.calls", t.calls("codec"), "count")
    put("codec.s", t.seconds("codec"), "s")

    put("copula.sample.calls", t.calls("copula.sample"), "count")
    put("copula.sample.points", t.work("copula.sample"), "count")
    put("copula.sample.s", t.seconds("copula.sample"), "s")
    put("copula.sample.points_per_s", rate(t.work("copula.sample"), t.seconds("copula.sample")), "1/s")
    put("copula.rows.s", t.self_seconds("copula.rows"), "s")
    put("copula.cdf.calls", t.calls("copula.cdf"), "count")
    put("copula.cdf.points", t.work("copula.cdf"), "count")
    put("copula.cdf.s", t.seconds("copula.cdf"), "s")
    put("copula.cdf.points_per_s", rate(t.work("copula.cdf"), t.seconds("copula.cdf")), "1/s")
    put("copula.cond_cdf.calls", t.calls("copula.cond_cdf"), "count")
    put("copula.cond_cdf.points", t.work("copula.cond_cdf"), "count")
    put("copula.cond_cdf.s", t.seconds("copula.cond_cdf"), "s")

    for layer in ("dist.quantile", "dist.cdf"):
        put(f"{layer}.calls", t.calls(layer), "count")
        put(f"{layer}.points", t.work(layer), "count")
        put(f"{layer}.s", t.seconds(layer), "s")
        put(f"{layer}.points_per_call", rate(t.work(layer), t.calls(layer)), "count")
    put("dist.order.calls", t.calls("dist.order"), "count")
    put("dist.order.s", t.seconds("dist.order"), "s")

    put("special.calls", t.calls("special"), "count")
    put("special.points", t.work("special"), "count")
    put("special.s", t.seconds("special"), "s")
    put("special.points_per_call", rate(t.work("special"), t.calls("special")), "count")

    put("integrate.calls", t.calls("integrate"), "count")
    put("integrate.evals", t.work("integrate"), "count")
    put("integrate.evals_per_call", rate(t.work("integrate"), t.calls("integrate")), "count")
    put("integrate.self_s", t.self_seconds("integrate"), "s")

    best = t.indices("precedence.best")
    routes = [t.tags.get(int(i)) for i in best]
    for route in ("closed_form", "discrete_exact", "quadrature", "monte_carlo"):
        put(f"precedence.route.{route}", routes.count(route), "count")
    quad_parents = t.parent[t.indices("precedence.quadrature", outermost=False)]
    put("precedence.quad_rejected",
        sum(1 for p in quad_parents if t.tags.get(int(p)) == "monte_carlo"), "count")
    mc = t.indices("precedence.mc", outermost=False)
    eta_requests = {r["request"].index for r in records if r["request"].argv[0] in ("eta", "xi")}
    mc_requests = {int(q) for q in t.request[mc]} & eta_requests
    drawn = sum(float(t.points[i]) for i in mc if int(t.request[i]) in mc_requests)
    put("precedence.mc.samples_per_request",
        rate(drawn, workloads.MC_SAMPLES * len(mc_requests)), "ratio")
    put("precedence.mc.count_s", t.self_seconds("precedence.mc"), "s")
    put("precedence.quadrature.s", t.seconds("precedence.quadrature"), "s")
    put("precedence.discrete_exact.s", t.seconds("precedence.discrete_exact"), "s")

    put("tba.self_s", t.self_seconds("tba"), "s")
    put("oracle.verify.s", t.seconds("oracle.verify"), "s")
    for fn in ("mo_checks", "mo_survival_eta_audit", "load_sharing_checks",
               "order_stats_checks", "grid_eta_oracle"):
        put(f"oracle.check.{fn}.s", t.seconds(f"oracle.check.{fn}"), "s")

    put("process.cpu_per_wall", rate(cpu0, wall0), "ratio")
    put("trace.overhead_ratio", rate(wall1, wall0), "ratio")
    put("trace.spans", len(t), "count")
    return m


# ---------------------------------------------------------------------------
# main


def _fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _json_metrics(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _request_log(records):
    return [{"index": r["request"].index, "variant": r["request"].variant.id,
             "argv": r["request"].argv[:1] + r["request"].argv[3:],   # without --spec path
             "seconds": r["seconds"], "code": r["code"], "bytes_out": r["bytes_out"],
             "verdict": r["verdict"]} for r in records]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spcop" / "cli.py").is_file():
        return _fail(f"no spcop sources at {SRC}; run from a repository checkout")
    if not REFS.is_file():
        return _fail(f"missing reference answers {REFS}")
    cap = os.environ.get("SP_COPULA_THREADS")
    if cap and not (cap.strip().isdigit() and 1 <= int(cap) <= nproc()):
        return _fail(f"SP_COPULA_THREADS={cap!r} is not a worker count within nproc={nproc()}")
    refs = json.loads(REFS.read_text())

    prov = provenance(args.workload, args.seed)
    setup, setup_samples = (None, [])
    if args.trace == 0:
        setup, setup_samples = measure_setup()
    sys.path.insert(0, str(SRC))
    import spcop.cli as cli

    OUT.mkdir(exist_ok=True)
    spec_dir = Path(tempfile.mkdtemp(prefix="specs-", dir=OUT))
    try:
        requests = workloads.request_sequence(args.workload, args.seed, args.seconds, refs,
                                              min(2, nproc()))
        write_specs(requests, spec_dir)
        gc.collect()
        records, wall, cpu = drive(cli, requests, refs)
        if args.trace == 0:
            metrics, info = end_to_end(records, wall, setup)
            info["setup_samples_s"] = setup_samples
            all_records = records
        else:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced, wall1, _cpu = drive(cli, requests, refs, tracer)
            finally:
                tracer.restore()
            metrics = per_layer(traced, wall, cpu, wall1, tracer)
            span_file = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
            tracer.save(span_file)
            info = {"requests": len(records), "untraced_wall_s": wall, "traced_wall_s": wall1,
                    "span_file": str(span_file.relative_to(ROOT))}
            all_records = records + traced
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)

    attempted, failed, mishandled = tally(all_records)
    info.update(attempted=attempted, failed_valid=failed, invalid_mishandled=mishandled)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": _json_metrics(metrics)}
    report = {"provenance": prov, "info": info, "result": result,
              "requests": _request_log(all_records)}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"git={prov['git_sha']} src={prov['src_sha256'][:12]} python={prov['python']} "
          f"numpy={prov['numpy']} scipy={prov['scipy']} nproc={prov['nproc']} "
          f"cpu={prov['cpu_model']!r} cache={prov['cache']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    if args.trace == 0:
        print(f"  {'error_rate':<40} {info['error_rate']:>16.6g} ratio"
              f"  (failed valid {failed}, invalid inputs not rejected {mishandled},"
              f" of {attempted})")
        print(f"  req_tail_s is p{info['tail_percentile']:.1f} of {info['requests']} requests")
    for r in all_records:
        if r["verdict"] is not None:
            kind = "invalid input not rejected" if r["request"].variant.check == "probe" else "FAILED"
            print(f"  {kind}: {r['request'].variant.id}: {r['verdict'].strip().splitlines()[-1]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
