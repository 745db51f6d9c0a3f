#!/usr/bin/env python3
"""Rebuild ROADMAP item 1's baseline table from traced benchmark runs.

    for w in mc_eta deterministic_eta report_io; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 1
    done
    python3 bench/baseline.py --seed 1

Reads bench/out/<workload>-seed<seed>-trace1.json and -spans.npz. Request
times come from the untraced pass, layer times from the spans.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "out"
BIG_CALL = 100_000   # per-point kernel rates use calls at least this large


def load(workload, seed):
    report = json.loads((OUT / f"{workload}-seed{seed}-trace1.json").read_text())
    spans = np.load(OUT / f"{workload}-seed{seed}-spans.npz")
    untraced = report["requests"][:report["info"]["requests"]]
    variant = {r["index"]: r["variant"] for r in untraced}
    return untraced, spans, variant


def span_rows(spans, prefix):
    names = spans["names"]
    ids = [i for i, n in enumerate(names) if n.startswith(prefix)]
    m = np.isin(spans["name"], ids)
    return spans["end"][m] - spans["start"][m], spans["points"][m], spans["request"][m]


def median_ms(values):
    return f"{1e3 * statistics.median(values):.0f} ms" if len(values) else "n/a"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    mc, mc_spans, mc_variant = load("mc_eta", seed)
    det, det_spans, _ = load("deterministic_eta", seed)
    io, io_spans, _ = load("report_io", seed)
    rows = []

    for fn in ("normal_cdf", "normal_quantile"):
        dur, pts, _ = span_rows(mc_spans, f"special.{fn}@")
        big = pts >= BIG_CALL
        rate = dur[big].sum() / pts[big].sum() * 1e6 if big.any() else float("nan")
        rows.append((f"`{fn}`, 1e6 points", f"{1e3 * rate:.0f} ms",
                     f"mc_eta, {int(big.sum())} calls of >= {BIG_CALL} points"))

    def gaussian_requests(dur, req):
        keep = [i for i, r in enumerate(req) if mc_variant.get(int(r), "").startswith("mc.gauss_atoms")]
        return dur[keep]

    dur, _, req = span_rows(mc_spans, "copula.sample_uv@precedence")
    rows.append(("`sample_uv` Gaussian, 1e6", median_ms(gaussian_requests(dur, req)),
                 "mc_eta, Gaussian-copula requests"))
    dur, _, req = span_rows(mc_spans, "precedence.eta_mc")
    rows.append(("`eta_mc` Gaussian, 1e6", median_ms(gaussian_requests(dur, req)),
                 "mc_eta, Gaussian copula with atom/normal marginals"))
    dur, _, _ = span_rows(det_spans, "precedence.eta_quadrature")
    rows.append(("`eta_quadrature`", f"{1e3 * dur.min():.0f} ms to {dur.max():.1f} s",
                 f"deterministic_eta, {len(dur)} calls"))
    dur, pts, _ = span_rows(det_spans, "copula.cdf:Gaussian")
    rows.append(("Gaussian cdf, 65x65 grid", f"{1e3 * dur.sum() / pts.sum() * 65 * 65:.0f} ms",
                 f"deterministic_eta atom grids, {int(pts.sum())} points"))
    dur, _, _ = span_rows(io_spans, "oracle.check.grid_eta_oracle")
    rows.append(("`grid_eta_oracle`, grid 512", f"{1e3 * dur.sum() / max(len(dur), 1):.0f} ms per call",
                 "report_io verify: independence/shuffle/order-statistics grids, not Gaussian"))
    for label, prefix in (("CLI `sample` 1e5 rows, CSV", "io.sample_csv"),
                          ("CLI `sample` 1e5 rows, JSON", "io.sample_json"),
                          ("`verify`, 1e6 samples", "io.verify")):
        times = [r["seconds"] for r in io if r["variant"].startswith(prefix)]
        rows.append((label, median_ms(times), f"report_io, median of {len(times)} requests"))

    print("| Case | Traced run | Source |\n| --- | --- | --- |")
    for case, value, source in rows:
        print(f"| {case} | {value} | {source} |")


if __name__ == "__main__":
    main()
