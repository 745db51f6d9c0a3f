"""CLI: schemas, dispatch, output formats, exit codes, determinism."""

import argparse
import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spcop import cli
from spcop.cli import CURVE_VALUE_BUDGET, _build_parser, _emit_table, _metadata, main, run
from spcop.errors import SpcopError, SpecError
from spcop.rng import MAX_WORKERS, resolve_workers


def write_doc(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def src_env():
    """The environment of a child interpreter that imports spcop from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, buf)
    return code, buf.getvalue()


# an exact row, a bound row and a bound row whose st check fails
MIXED_RANKING = {"target": {"kind": "uniform", "a": 0, "b": 1}, "prospects": [
    {"name": "exact", "marginal": {"kind": "uniform", "a": 0, "b": 1},
     "copula": {"node": "shuffle", "gamma": 0.3}},
    {"name": "bound", "marginal": {"kind": "uniform", "a": 0.5, "b": 1.5}, "gamma_bound": 0.4},
    {"name": "vacuous", "marginal": {"kind": "uniform", "a": -1, "b": 0.5}, "gamma_bound": 0.9}]}


class TestEta:
    def test_closed_form_shuffle(self, tmp_path):
        spec = write_doc(tmp_path, "s.json", {"copula": {"node": "shuffle", "gamma": 0.3}})
        code, out = invoke(["eta", "--spec", spec])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "eta"
        assert doc["method"] == "closed_form"
        assert doc["result"]["eta"] == 0.3
        assert doc["result"]["xi"] == 0.0
        assert {"seed", "samples", "workers", "tool_version"} <= set(doc)

    def test_with_marginals_mc(self, tmp_path):
        spec = write_doc(tmp_path, "s.json", {
            "copula": {"node": "mo_connecting", "alpha1": 0.4, "alpha2": 0.2},
            "g1": {"kind": "exponential", "rate": 2.5},
            "g2": {"kind": "exponential", "rate": 5.0}})
        code, out = invoke(["eta", "--spec", spec, "--samples", "20000", "--seed", "5"])
        doc = json.loads(out)
        assert doc["result"]["method"] == "closed_form"  # registry pair

    def test_xi_alias(self, tmp_path):
        spec = write_doc(tmp_path, "s.json", {"copula": {"node": "comonotone"}})
        code, out = invoke(["xi", "--spec", spec])
        assert json.loads(out)["result"]["xi"] == 1.0

    def test_marginal_pair_required_together(self, tmp_path):
        spec = write_doc(tmp_path, "s.json", {
            "copula": {"node": "independence"}, "g1": {"kind": "uniform", "a": 0, "b": 1}})
        with pytest.raises(SpecError):
            invoke(["eta", "--spec", spec])
        assert main(["eta", "--spec", spec]) == 1

    @pytest.mark.parametrize("gamma, holds", [("0.5", False), ("0.2", True)])
    def test_gamma_without_marginals(self, tmp_path, gamma, holds):
        # the copula's own closed form answers the level check (eta = 0.3)
        spec = write_doc(tmp_path, "s.json", {"copula": {"node": "shuffle", "gamma": 0.3}})
        code, out = invoke(["eta", "--spec", spec, "--gamma", gamma])
        assert code == 0
        assert json.loads(out)["result"]["sp_level"] == {"gamma": float(gamma), "holds": holds}


    @pytest.mark.parametrize("gamma", ["0.3000000001", "0.300000002", "0.3", "0.29"])
    def test_gamma_verdict_agrees_with_classify(self, tmp_path, gamma):
        # both allow eta to fall short of gamma by --tol (1e-9)
        spec = write_doc(tmp_path, "s.json", {"copula": {"node": "shuffle", "gamma": 0.3}})
        _, eta_out = invoke(["eta", "--spec", spec, "--gamma", gamma])
        _, cls_out = invoke(["classify", "--spec", spec, "--gamma", gamma])
        holds = json.loads(eta_out)["result"]["sp_level"]["holds"]
        assert holds == json.loads(cls_out)["result"]["in_L_gamma"]
        assert holds == (float(gamma) <= 0.3 + 1e-9)

    def test_chunk_error_at_two_workers_is_exit_1(self, tmp_path, capsys):
        # exp(1e-308) quantiles overflow above u ~ 0.83, in every chunk
        spec = write_doc(tmp_path, "s.json", {
            "copula": {"node": "shuffle", "gamma": 0.3}, "g1": U01,
            "g2": {"kind": "exponential", "rate": 1e-308}})
        assert main(["eta", "--spec", spec, *ETA_ARGS, "--workers", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "non-finite quantile draw" in captured.err


class TestClassify:
    def test_boundary_class(self, tmp_path):
        spec = write_doc(tmp_path, "s.json", {"copula": {"node": "shuffle", "gamma": 0.3}})
        code, out = invoke(["classify", "--spec", spec, "--gamma", "0.3"])
        res = json.loads(out)["result"]
        assert res["in_L_gamma"] and res["in_B_gamma"]
        assert res["eta_value"] == 0.3

    def test_gamma_required(self, tmp_path):
        spec = write_doc(tmp_path, "s.json", {"copula": {"node": "independence"}})
        assert main(["classify", "--spec", spec]) == 1

    def test_missing_key_is_exit_1(self, tmp_path, capsys):
        spec = write_doc(tmp_path, "s.json", {"g1": {"kind": "uniform", "a": 0, "b": 1}})
        assert main(["classify", "--spec", spec, "--gamma", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input document is missing 'copula'\n"


class TestOrder:
    def test_st_verdict(self, tmp_path):
        spec = write_doc(tmp_path, "s.json", {
            "g1": {"kind": "normal", "mean": 0, "sd": 1},
            "g2": {"kind": "normal", "mean": 1, "sd": 1}})
        code, out = invoke(["order", "--spec", spec, "--relation", "st"])
        assert json.loads(out)["result"]["holds"] is True

    def test_failure_reports_witness(self, tmp_path):
        spec = write_doc(tmp_path, "s.json", {
            "g1": {"kind": "normal", "mean": 0, "sd": 1},
            "g2": {"kind": "normal", "mean": 1, "sd": 2}})
        code, out = invoke(["order", "--spec", spec])
        res = json.loads(out)["result"]
        assert res["holds"] is False and res["witness"] is not None


class TestRankAndSample:
    def test_rank_csv(self, tmp_path):
        spec = write_doc(tmp_path, "r.json", {
            "target": {"kind": "normal", "mean": 0, "sd": 1},
            "prospects": [
                {"name": "A", "marginal": {"kind": "normal", "mean": 1, "sd": 1},
                 "copula": {"node": "gaussian", "rho": 0.0}},
                {"name": "B", "marginal": {"kind": "normal", "mean": 2, "sd": 1},
                 "copula": {"node": "gaussian", "rho": 0.0}}]})
        code, out = invoke(["rank", "--spec", spec, "--output", "csv"])
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "name,eta_or_bound,kind,stderr,flags"
        assert lines[1].startswith("B,0.921350396475,exact")
        assert lines[2].startswith("A,0.760249938907,exact")

    def test_rank_csv_rows_format(self, tmp_path):
        spec = write_doc(tmp_path, "r.json", MIXED_RANKING)
        code, out = invoke(["rank", "--spec", spec, "--output", "csv"])
        assert [l for l in out.splitlines() if not l.startswith("#")] == [
            "name,eta_or_bound,kind,stderr,flags",
            "bound,0.4,lower_bound,0,",
            "exact,0.3,exact,0,",
            "vacuous,0,lower_bound,0,st_check_failed|incomparable"]

    def test_rank_csv_carries_the_notes(self, tmp_path):
        spec = write_doc(tmp_path, "r.json", MIXED_RANKING)
        code, out = invoke(["rank", "--spec", spec, "--output", "csv"])
        head = [l for l in out.splitlines() if l.startswith("#")]
        assert head[-3] == "# method=ranking"
        assert head[-2].startswith("# warning=ranking mixes exact/estimated eta values")
        assert head[-1].startswith("# warning=prospect 'vacuous': no st-ordering")

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_rank_mixed_table_leaves_stderr_empty(self, tmp_path, output):
        spec = write_doc(tmp_path, "r.json", MIXED_RANKING)
        done = subprocess.run([sys.executable, "-m", "spcop.cli", "rank", "--spec", spec,
                               "--output", output], env=src_env(), capture_output=True, text=True)
        assert done.returncode == 0 and done.stdout and done.stderr == ""
        if output == "json":
            assert any("mixes" in w for w in json.loads(done.stdout)["result"]["warnings"])

    def test_sample_csv_shuffle_map(self, tmp_path):
        spec = write_doc(tmp_path, "s.json", {"copula": {"node": "shuffle", "gamma": 0.3}})
        code, out = invoke(["sample", "--spec", spec, "--samples", "64",
                            "--seed", "3", "--output", "csv"])
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "u,v,component,structural_tie"
        for line in body[1:]:
            u, v, comp, tie = line.split(",")
            u, v = float(u), float(v)
            branch = u + 0.7 if u <= 0.3 else u - 0.3
            assert abs(v - branch) < 1e-11  # 12 significant digits in the CSV
            assert comp == "singular" and tie == "False"


class TestVerifyAndCurve:
    def test_verify_report(self, tmp_path):
        code, out = invoke(["verify", "--samples", "30000", "--seed", "2"])
        assert code == 0
        rep = json.loads(out)["result"]
        names = {c["name"] for c in rep["checks"]}
        assert "mo_survival_eta_audit" in names
        dominance = next(c for c in rep["checks"] if c["name"] == "load_sharing_st_dominance")
        assert dominance["passed"] is False

    @pytest.mark.parametrize("samples,code", [("1", 1), ("9999", 1), ("10000", 0)])
    def test_verify_sample_floor(self, capsys, samples, code):
        # below 1e4 samples some tolerances cover all of [0, 1]: refused, not passed
        assert main(["verify", "--samples", samples, "--seed", "1"]) == code
        captured = capsys.readouterr()
        assert (captured.out == "") == (code == 1)
        assert captured.err.startswith("error: ") == (code == 1)

    def test_curve_strictly_increasing(self, tmp_path):
        spec = write_doc(tmp_path, "c.json", {
            "family": "gaussian", "start": -0.9, "stop": 0.9, "step": 0.1,
            "g1": {"kind": "normal", "mean": 0, "sd": 1},
            "g2": {"kind": "normal", "mean": 1, "sd": 1}})
        code, out = invoke(["curve", "--spec", spec, "--output", "csv"])
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "rho,eta,xi,method"
        etas = [float(l.split(",")[1]) for l in body[1:]]
        assert len(etas) == 19
        assert all(b > a for a, b in zip(etas, etas[1:]))

    def test_curve_decimal_format(self, tmp_path):
        spec = write_doc(tmp_path, "c.json", {
            "family": "shuffle", "values": [0.25, 0.5, 0.75]})
        code, out = invoke(["curve", "--spec", spec, "--output", "csv"])
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[1].split(",")[:2] == ["0.25", "0.25"]
        assert "," in out and ";" not in out


class TestExitCodes:
    def test_schema_violation_is_exit_1(self, tmp_path):
        bad = write_doc(tmp_path, "bad.json", {"copula": {"node": "clayton"}})
        assert main(["eta", "--spec", bad]) == 1
        assert main(["eta", "--spec", str(tmp_path / "missing.json")]) == 1
        assert main(["eta"]) == 1  # --spec required

    def test_inconclusive_is_exit_2(self, tmp_path):
        spec = write_doc(tmp_path, "s.json", {
            "copula": {"node": "shuffle", "gamma": 0.5},
            "g1": {"kind": "uniform", "a": 0, "b": 1},
            "g2": {"kind": "uniform", "a": 1e-7, "b": 1.0000001}})
        code, out = invoke(["eta", "--spec", spec, "--gamma", "0.5",
                            "--samples", "20000", "--seed", "44"])
        assert code == 2
        doc = json.loads(out)
        assert doc["result"]["sp_level"]["holds"] is None

    def test_success_is_exit_0(self, tmp_path):
        spec = write_doc(tmp_path, "s.json", {"copula": {"node": "independence"}})
        assert main(["eta", "--spec", spec]) == 0


class TestDeterminism:
    @pytest.mark.parametrize("argv_builder", [
        lambda s: ["eta", "--spec", s("mc.json", {
            "copula": {"node": "mo_survival", "alpha1": 0.4, "alpha2": 0.2},
            "g1": {"kind": "uniform", "a": 0, "b": 1},
            "g2": {"kind": "exponential", "rate": 1.0}}),
            "--samples", "20000", "--seed", "9"],
        lambda s: ["sample", "--spec", s("sm.json", {
            "copula": {"node": "gaussian", "rho": 0.5}}),
            "--samples", "500", "--seed", "9", "--output", "csv"],
        lambda s: ["verify", "--samples", "20000", "--seed", "9"],
    ], ids=["eta-mc", "sample-csv", "verify"])
    def test_byte_identical_runs(self, tmp_path, argv_builder):
        def make(name, obj):
            return write_doc(tmp_path, name, obj)

        argv = argv_builder(make)
        _, out1 = invoke(list(argv))
        _, out2 = invoke(list(argv))
        assert out1 == out2

    def test_worker_count_above_bound_is_exit_1(self, tmp_path, capsys):
        assert resolve_workers(MAX_WORKERS) == MAX_WORKERS
        with pytest.raises(SpecError):
            resolve_workers(MAX_WORKERS + 1)
        spec = write_doc(tmp_path, "s.json", {"copula": {"node": "independence"}})
        for count in ("3000", "1000000000"):
            assert main(["sample", "--spec", spec, "--samples", "10", "--workers", count]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")

    def test_worker_count_below_one_is_exit_1(self, tmp_path, capsys):
        assert resolve_workers(None) == 1
        for count in (0, -5):
            with pytest.raises(SpecError):
                resolve_workers(count)
        spec = write_doc(tmp_path, "s.json", {"copula": {"node": "independence"}})
        for count in ("0", "-5"):
            assert main(["sample", "--spec", spec, "--samples", "10", "--workers", count]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")


# a mixture with an absolutely continuous part, a singular part without ties
# (shuffle) and singular parts made of structural ties (mo_survival, comonotone)
GOLDEN_MIXTURE = {"copula": {"node": "mixture", "weights": [0.4, 0.2, 0.2, 0.2], "components": [
    {"node": "independence"}, {"node": "shuffle", "gamma": 0.6},
    {"node": "mo_survival", "alpha1": 0.3, "alpha2": 0.5}, {"node": "comonotone"}]}}
GOLDEN_CURVE = {"family": "gaussian", "start": -0.5, "stop": 0.5, "step": 0.25,
                "g1": {"kind": "normal", "mean": 0, "sd": 1},
                "g2": {"kind": "normal", "mean": 1, "sd": 1}}
SAMPLE_ARGS = ("--samples", "200", "--seed", "11")
U01 = {"kind": "uniform", "a": 0, "b": 1}
THREE_ATOMS = {"kind": "atoms", "points": [[-1, 0.3], [0, 0.4], [1, 0.3]]}
# one eta document per estimator route, in preference order
GOLDEN_ETA = {
    "closed_form": {"copula": {"node": "shuffle", "gamma": 0.3}, "g1": U01, "g2": U01},
    "discrete_exact": {"copula": {"node": "gaussian", "rho": 0.5},
                       "g1": THREE_ATOMS, "g2": THREE_ATOMS},
    "quadrature": {"copula": {"node": "gaussian", "rho": 0.5}, "g1": U01,
                   "g2": {"kind": "exponential", "rate": 2}},
    "monte_carlo": {"copula": {"node": "shuffle", "gamma": 0.3}, "g1": U01,
                    "g2": {"kind": "uniform", "a": 0.2, "b": 1.2}},
}
ETA_ARGS = ("--samples", "20000", "--seed", "7")


class TestGoldenOutput:
    """sha256 of stdout for the table-shaped outputs, pinned to catch any byte change."""

    @pytest.mark.parametrize("command,doc,argv,digest", [
        ("sample", GOLDEN_MIXTURE, (*SAMPLE_ARGS, "--workers", "1", "--output", "json"),
         "f1df77b52aaa16b2f0da1d54162ec446cd9b7025645b2a2ec782ad2e02e5d4c4"),
        ("sample", GOLDEN_MIXTURE, (*SAMPLE_ARGS, "--workers", "2", "--output", "json"),
         "f1044ad59a2060f6a74708030198caf8838fc466852644304930a5d33998ffd3"),
        ("sample", GOLDEN_MIXTURE, (*SAMPLE_ARGS, "--workers", "1", "--output", "csv"),
         "6754d5f80017ff0f0f1e94658edf05429e7c38a0add3969ee267029fc7e2f371"),
        ("sample", GOLDEN_MIXTURE, (*SAMPLE_ARGS, "--workers", "2", "--output", "csv"),
         "80614bfffd68e96683b3e51b5a2c368b4c6ad21929cc757f06fd749023bc72ba"),
        ("curve", GOLDEN_CURVE, ("--output", "json"),
         "c7f2fc7187d08d546a0dfecbea8ce4f7c3f3c7e18c63d38a8cfcd96ad795b744"),
        ("curve", GOLDEN_CURVE, ("--output", "csv"),
         "2939de6d0a04d52b5eadadaff87d9f118a36e1af7b0d53044ae468037a0f6ebf"),
        ("rank", MIXED_RANKING, ("--output", "csv"),
         "867d06d00a0e269232cfc4d288a635493fcefbcec45932180220d939b3843770"),
        ("eta", GOLDEN_ETA["closed_form"], (*ETA_ARGS, "--output", "json"),
         "59f50aa158918929ac88c7d37aba49dd311024e1a4b5c8f1b55d5941528a9c4a"),
        ("eta", GOLDEN_ETA["closed_form"], (*ETA_ARGS, "--output", "csv"),
         "4bab2bd1277140b6c404de29fd98e50382f6352eef2ce536cdd2525ac833e40c"),
        ("eta", GOLDEN_ETA["discrete_exact"], (*ETA_ARGS, "--output", "json"),
         "168bfd585f35de1c140da74cd6088b5e99d02c004aee00bb9f105a19b4a0a3b6"),
        ("eta", GOLDEN_ETA["discrete_exact"], (*ETA_ARGS, "--output", "csv"),
         "9db3542bf1140d2e643f50795e29334de5b0db5e11b589ce4b6436c929ba3598"),
        ("eta", GOLDEN_ETA["quadrature"], (*ETA_ARGS, "--output", "json"),
         "3bd8f71a84dd3126e53d687e66186f26e6948265c0c06a5720a295104c3be675"),
        ("eta", GOLDEN_ETA["quadrature"], (*ETA_ARGS, "--output", "csv"),
         "53649d3301f491b28f20159530fc71683de0c426d917062dfed3d0f88d815170"),
        ("eta", GOLDEN_ETA["monte_carlo"], (*ETA_ARGS, "--output", "json"),
         "f442558aef681c5cb8b263c96e88481cf93ee0598c4cf348df5abdd8c9768123"),
        ("eta", GOLDEN_ETA["monte_carlo"], (*ETA_ARGS, "--output", "csv"),
         "f675b36b847d93aab2529424fbc5219f6a2e81b21060c73fe29bf89b8f6d15f1"),
        ("eta", GOLDEN_ETA["monte_carlo"], (*ETA_ARGS, "--gamma", "0.4"),
         "d70276cb0f5d9430144c3a68ebcb54fd15fd8a1b3ba15f26bdbe3e0c672f8b42"),
        # the worker chunks run on threads (workers=1 is eta-monte_carlo-json);
        # 3 workers make uneven chunks
        ("eta", GOLDEN_ETA["monte_carlo"], (*ETA_ARGS, "--workers", "2"),
         "45fbde8f2f4052201c4a5ba1950743a851783d683785e79251b13f72e1322cf9"),
        ("eta", GOLDEN_ETA["monte_carlo"], (*ETA_ARGS, "--workers", "3"),
         "def934f71fc1fc28bb74cfa23ba2ce152615cc16d941ad0524c5b896a0414b62"),
        ("eta", GOLDEN_ETA["monte_carlo"], (*ETA_ARGS, "--workers", "2", "--gamma", "0.5"),
         "d21e44f29c0a4afa0417d0067543afd8c1fe316c616491fa9bca7e8033889d01"),
    ], ids=["sample-json-w1", "sample-json-w2", "sample-csv-w1", "sample-csv-w2",
            "curve-json", "curve-csv", "rank-csv",
            *(f"eta-{route}-{fmt}" for route in GOLDEN_ETA for fmt in ("json", "csv")),
            "eta-gamma", "eta-mc-w2", "eta-mc-w3", "eta-mc-w2-gamma"])
    def test_stdout_digest(self, tmp_path, command, doc, argv, digest):
        code, out = invoke([command, "--spec", write_doc(tmp_path, "d.json", doc), *argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_the_environment_leaves_the_chunk_layout_alone(self, tmp_path, monkeypatch):
        # --workers alone sets the chunk layout, whatever the environment holds
        monkeypatch.setenv("SP_COPULA_THREADS", "1")
        code, out = invoke(["eta", "--spec", write_doc(tmp_path, "d.json", GOLDEN_ETA["monte_carlo"]),
                            *ETA_ARGS, "--workers", "2"])
        assert code == 0 and json.loads(out)["workers"] == 2
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "45fbde8f2f4052201c4a5ba1950743a851783d683785e79251b13f72e1322cf9")

    @pytest.mark.parametrize("fmt,digest", [
        ("json", "baa9193a767ab15f2816b7ecfdb442b58db12b1f93955cce2668ff8654424bf4"),
        ("csv", "2df2efc64ead902acef3dff977975809e708bba1dc5fd73b9bdf32a0a8ae71ec"),
    ])
    def test_verify_digest(self, fmt, digest):
        # the JSON report carries every check's detail, max_dev of the
        # empirical copula grids included
        code, out = invoke(["verify", "--samples", "100000", "--seed", "1", "--output", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def row_writer(stream, args, columns, method):
    """The table writer the column writer replaced: json.dumps(indent=2) over
    one object per row, or the CSV format of one cell at a time."""
    def fmt(x):
        if isinstance(x, float):
            return f"{x:.12g}"
        if isinstance(x, tuple):
            return "|".join(x)
        return str(x)

    head, rows = list(columns), list(zip(*columns.values()))
    envelope = _metadata(args, method)
    if args.output == "csv":
        for key, value in envelope.items():
            stream.write(f"# {key}={value}\n")
        for row in [head, *rows]:
            stream.write(",".join(fmt(c) for c in row))
            stream.write("\n")
    else:
        envelope["result"] = [dict(zip(head, row)) for row in rows]
        stream.write(json.dumps(envelope, indent=2))
        stream.write("\n")


# quotes, backslashes, commas, braces, brackets and non-ASCII text, besides any character
TABLE_TEXT = st.text(st.sampled_from('a"\\,{}[]:\né€') | st.characters(), max_size=6)
TABLE_CELLS = st.sampled_from([
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(),  # also ±0.0, NaN and ±inf
    st.sampled_from([0.0, -0.0, 1.0, 1, True, False, None, float("nan"), float("inf")]),
    st.integers(),
    st.booleans() | st.integers(0, 2),
    st.booleans() | st.integers() | st.none() | TABLE_TEXT | st.floats(),
    st.sampled_from(["singular", "absolutely_continuous"]),
    TABLE_TEXT,
])


@st.composite
def tables(draw):
    rows = draw(st.just(1) | st.integers(2, 60))
    names = draw(st.lists(TABLE_TEXT, min_size=1, max_size=5, unique=True))
    return {name: draw(st.lists(draw(TABLE_CELLS), min_size=rows, max_size=rows))
            for name in names}


@pytest.mark.parametrize("output", ["json", "csv"])
@settings(max_examples=200, derandomize=True, deadline=None)
@given(columns=tables(), method=TABLE_TEXT)
def test_column_writer_matches_row_writer(output, columns, method):
    args = argparse.Namespace(command="sample", seed=0, samples=1, workers=1, output=output)
    new, old = io.StringIO(), io.StringIO()
    _emit_table(new, args, columns, method)
    row_writer(old, args, columns, method)
    assert new.getvalue() == old.getvalue()


class TestMalformedInputs:
    @pytest.mark.parametrize("command,text", [
        ("eta", '{"copula": {"node": "shuffle", "gamma": 1%s}}' % ("0" * 400)),
        ("eta", json.dumps({"copula": {"node": "independence"},
                            "g1": {"kind": "uniform_power", "k": 2, "reflected": "false"},
                            "g2": {"kind": "uniform", "a": 0, "b": 1}})),
        ("eta", '{"copula": {"node": "gaussian", "rho": 0.5}, '
                '"g1": {"kind": "atoms", "points": [[0, 0.5], [Infinity, 0.5]]}, '
                '"g2": {"kind": "atoms", "points": [[0.5, 0.5], [1.5, 0.5]]}}'),
        ("eta", "5"),
        ("eta", "\xff\xfe{}"),
        ("eta", "[" * 100000 + "]" * 100000),
        ("order", '{"g1": {"kind": "pwl", "knots": [[0, 0], [NaN, 0.5], [2, 1]]}, '
                  '"g2": {"kind": "exponential", "rate": 1}}'),
        ("curve", json.dumps({"family": "shuffle", "start": 0.1, "stop": 0.9, "step": 0})),
        ("curve", '{"family": "shuffle", "start": NaN, "stop": 0.9, "step": 0.1}'),
        ("curve", json.dumps({"family": "shuffle", "start": "abc", "stop": 0.9, "step": 0.1})),
        ("curve", json.dumps({"family": "shuffle", "values": 3})),
        ("curve", json.dumps({"family": "shuffle", "values": ["abc"]})),
        ("curve", json.dumps({"family": "gaussian", "start": -0.5, "stop": 0.5, "step": -0.1})),
        ("curve", json.dumps({"family": "mo_survival", "values": [0.5]})),
        ("rank", json.dumps({"target": {"kind": "normal", "mean": 0, "sd": 1}, "prospects": 5})),
        ("rank", json.dumps({"target": {"kind": "normal", "mean": 0, "sd": 1}, "prospects": [
            {"name": "A", "marginal": {"kind": "normal", "mean": 0, "sd": 1},
             "gamma_bound": "x"}]})),
        ("eta", json.dumps({"copula": {"node": "shuffle", "gamma": "0.3"}})),
        ("eta", json.dumps({"copula": {"node": "shuffle", "gamma": True}})),
        ("rank", json.dumps({"target": {"kind": "normal", "mean": 0, "sd": 1}, "prospects": [
            {"name": "A", "marginal": {"kind": "normal", "mean": 1, "sd": 1},
             "gamma_bound": "0.4"}]})),
        ("curve", json.dumps({"family": "shuffle", "start": "0.1", "stop": 0.9, "step": 0.1})),
        ("curve", json.dumps({"family": "shuffle", "start": 0.1, "stop": True, "step": 0.1})),
        ("curve", json.dumps({"family": "shuffle", "start": 0.0001, "stop": 1, "step": 1e-9})),
        *(("rank", json.dumps({"target": {"kind": "normal", "mean": 0, "sd": 1}, "prospects": [
            {"name": name, "marginal": {"kind": "normal", "mean": 1, "sd": 1},
             "gamma_bound": 0.4}]})) for name in (None, 3, {"first": "A"})),
    ], ids=["gamma-overflow", "reflected-string", "atoms-inf",
            "not-an-object", "not-utf8", "deep-nesting", "pwl-nan-knot", "curve-step-zero", "curve-start-nan",
            "curve-start-text", "curve-values-number", "curve-values-text",
            "curve-step-away", "curve-two-parameter-family", "rank-prospects-number",
            "rank-gamma-bound-text", "gamma-string", "gamma-boolean", "rank-gamma-bound-string",
            "curve-start-string", "curve-stop-boolean", "curve-too-many-values",
            "rank-name-null", "rank-name-number", "rank-name-object"])
    def test_exit_1_with_error_line(self, tmp_path, capsys, command, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text.encode("latin-1"))  # "\xff" stays one byte, invalid UTF-8
        samples = () if command == "order" else ("--samples", "20000")
        assert main([command, "--spec", str(path), *samples]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "unrecognized arguments" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["eta", "--output", "xml"],
        ["eta", "--samples", "abc"],
        ["eta", "--bogus"],
        ["bogus"],
        [],
    ], ids=["bad-choice", "non-integer", "unknown-flag", "unknown-command", "no-command"])
    def test_malformed_command_line_is_exit_1(self, tmp_path, capsys, argv):
        spec = write_doc(tmp_path, "s.json", {"copula": {"node": "independence"}})
        if argv:
            argv = [*argv, "--spec", spec]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_help_is_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eta", "--help"])
        assert exc.value.code == 0
        assert "--workers" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eta", "classify"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_tol_must_be_finite_and_not_negative(self, tmp_path, capsys, command, tol):
        spec = write_doc(tmp_path, "q.json", {
            "copula": {"node": "gaussian", "rho": 0.5},
            "g1": {"kind": "uniform", "a": 0, "b": 1},
            "g2": {"kind": "exponential", "rate": 2}})
        assert main([command, "--spec", spec, "--gamma", "0.4", f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --tol")

    @pytest.mark.parametrize("command,option,value", [
        ("verify", "--samples", "-5"),
        ("verify", "--samples", "0"),
        ("sample", "--samples", "1000000000000"),
        ("eta", "--samples", str(10 ** 7 + 1)),
        ("order", "--grid", "1000000000000"),
        ("order", "--grid", str(2 ** 16 + 1)),
    ])
    def test_samples_and_grid_are_bounded(self, tmp_path, capsys, command, option, value):
        spec = write_doc(tmp_path, "b.json", {
            "copula": {"node": "gaussian", "rho": 0.5},
            "g1": {"kind": "uniform", "a": 0, "b": 1},
            "g2": {"kind": "exponential", "rate": 2}})
        assert main([command, "--spec", spec, option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {option}")

    @pytest.mark.parametrize("command", ["sample", "eta"])
    def test_negative_seed_is_exit_1(self, tmp_path, capsys, command):
        spec = write_doc(tmp_path, "mc.json", GOLDEN_ETA["monte_carlo"])
        assert main([command, "--spec", spec, "--samples", "20000", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --seed")

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_curve_empty_values_is_exit_1(self, tmp_path, capsys, output):
        spec = write_doc(tmp_path, "c.json", {"family": "shuffle", "values": []})
        assert main(["curve", "--spec", spec, "--output", output]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_tol_zero_is_accepted(self, tmp_path):
        spec = write_doc(tmp_path, "q.json", {
            "copula": {"node": "gaussian", "rho": 0.5},
            "g1": {"kind": "uniform", "a": 0, "b": 1},
            "g2": {"kind": "exponential", "rate": 2}})
        code, out = invoke(["eta", "--spec", spec, "--tol", "0"])
        assert code == 0 and json.loads(out)["method"] == "quadrature"
        code, out = invoke(["classify", "--spec", spec, "--gamma", "0.5", "--tol", "0"])
        assert code == 0 and json.loads(out)["result"]["tolerance"] == 0.0

    def test_curve_descending_range(self, tmp_path):
        spec = write_doc(tmp_path, "c.json", {
            "family": "shuffle", "start": 0.9, "stop": 0.1, "step": -0.2})
        code, out = invoke(["curve", "--spec", spec, "--output", "csv"])
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert [l.split(",")[0] for l in body] == ["gamma", "0.9", "0.7", "0.5", "0.3", "0.1"]

    def test_curve_range_stops_at_stop(self, tmp_path):
        spec = write_doc(tmp_path, "c.json", {
            "family": "shuffle", "start": 0.0001, "stop": 1, "step": 1e-3})
        code, out = invoke(["curve", "--spec", spec, "--output", "csv"])
        body = [l for l in out.splitlines() if not l.startswith("#")]
        gammas = [float(l.split(",")[0]) for l in body[1:]]
        assert code == 0 and len(gammas) == 1000 and gammas[-1] == 0.9991

    def test_curve_range_of_the_largest_length(self, tmp_path):
        spec = write_doc(tmp_path, "c.json", {
            "family": "shuffle", "start": 0.0001, "stop": 1, "step": 1e-4})
        code, out = invoke(["curve", "--spec", spec, "--output", "csv"])
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert code == 0 and len(body) == 1 + CURVE_VALUE_BUDGET


# the flags each command takes besides --output, and a valid value of every flag
COMMAND_FLAGS = {
    "eta": {"spec", "samples", "seed", "workers", "tol", "gamma"},
    "xi": {"spec", "samples", "seed", "workers", "tol", "gamma"},
    "classify": {"spec", "tol", "gamma"},
    "order": {"spec", "grid", "relation"},
    "rank": {"spec", "samples", "seed", "workers"},
    "sample": {"spec", "samples", "seed", "workers"},
    "verify": {"spec", "samples", "seed"},
    "curve": {"spec", "samples", "seed", "workers", "tol"},
}
FLAG_VALUES = {"spec": "s.json", "samples": "10", "seed": "3", "workers": "2", "tol": "0.5",
               "gamma": "0.5", "grid": "64", "relation": "hr", "output": "csv"}


def handler_reads(tree):
    """{handler name: the names it reads as args.<name>} for every _cmd_* function."""
    return {node.name: {sub.attr for sub in ast.walk(node)
                        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "args"}
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")}


class TestFlags:
    """Each command takes only the flags it reads; any other flag is exit 1."""

    @pytest.mark.parametrize("flag", list(FLAG_VALUES))
    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_flag_matrix(self, command, flag):
        argv = [command, f"--{flag}", FLAG_VALUES[flag]]
        if flag == "output" or flag in COMMAND_FLAGS[command]:
            assert str(getattr(_build_parser().parse_args(argv), flag)) == FLAG_VALUES[flag]
        else:
            with pytest.raises(SpecError, match="unrecognized arguments"):
                _build_parser().parse_args(argv)

    def test_metadata_records_the_defaults_of_flags_not_taken(self):
        for command in COMMAND_FLAGS:
            args = _build_parser().parse_args([command])
            assert (args.seed, args.samples, args.workers) == (0, 10 ** 6, 1)

    def test_each_handler_reads_only_the_flags_of_its_commands(self):
        reads = handler_reads(ast.parse(Path(cli.__file__).read_text()))
        assert reads["_cmd_order"] == {"relation", "grid"}  # the walk sees reads
        for command, (handler, flags) in cli._COMMANDS.items():
            assert reads[handler.__name__] <= set(flags.split()), command


# normals at the ends of the float range, whose sds differ by 1e-10
HUGE_MEANS = {"g1": {"kind": "normal", "mean": 1e308, "sd": 1},
              "g2": {"kind": "normal", "mean": -1e308, "sd": 1.0000000001}}


class TestExtremeLaws:
    """Valid laws at the ends of the float range end in exit 0 with finite
    numbers or in exit 1 with an error line, never in a traceback."""

    @pytest.mark.parametrize("command,doc,argv", [
        ("order", {"g1": {"kind": "exponential", "rate": 1e-308},
                   "g2": {"kind": "exponential", "rate": 2e-308}}, ["--relation", "hr"]),
        *(("order", {"g1": {"kind": "exponential", "rate": 1e-308},
                     "g2": {"kind": "normal", "mean": 0, "sd": 1e308}}, ["--relation", rel])
          for rel in ("st", "hr", "lr")),
        ("eta", {"copula": {"node": "gaussian", "rho": 0.5},
                 "g1": {"kind": "normal", "mean": 0, "sd": 1},
                 "g2": {"kind": "normal", "mean": 0, "sd": 1e308}}, []),
        ("order", {"g1": {"kind": "normal", "mean": -1, "sd": 100},
                   "g2": {"kind": "normal", "mean": 1e307, "sd": 1}}, []),
        *((command, {"copula": {"node": "independence"},
                     "g1": {"kind": "uniform", "a": -1e308, "b": 1e308},
                     "g2": {"kind": "atoms", "points": [[-1e308, 0.5], [1e308, 0.5]]}}, [])
          for command in ("order", "eta")),
        # the grid's bisection midpoint overflowed above about 9e307
        ("order", {"g1": {"kind": "uniform", "a": 1.2e308, "b": 1.5e308},
                   "g2": {"kind": "uniform", "a": 1e308, "b": 1.1e308}}, []),
        *(("order", HUGE_MEANS, ["--relation", rel]) for rel in ("st", "hr", "lr")),
    ], ids=["hr-tiny-rates", "st-tiny-rate-huge-sd", "hr-tiny-rate-huge-sd",
            "lr-tiny-rate-huge-sd", "gaussian-huge-sd", "normal-crossing-overflow",
            "order-uniform-infinite-width", "eta-uniform-infinite-width",
            "order-uniform-midpoint-overflow", "st-huge-means", "hr-huge-means",
            "lr-huge-means"])
    def test_repro(self, tmp_path, capsys, command, doc, argv):
        spec = write_doc(tmp_path, "s.json", doc)
        samples = ("--samples", "20000") if command == "eta" else ()
        code = main([command, "--spec", spec, *samples, *argv])
        captured = capsys.readouterr()
        assert "unrecognized arguments" not in captured.err
        if code == 1:
            assert captured.out == "" and captured.err.startswith("error: ")
        else:
            assert code == 0
            json.loads(captured.out, parse_constant=pytest.fail)

    @pytest.mark.parametrize("command,doc,argv,code", [
        *(("eta", {"copula": {"node": "shuffle", "gamma": 0.3}, "g1": U01,
                   "g2": {"kind": "exponential", "rate": 1e-308}},
           ["--samples", "20000", "--workers", workers], 1) for workers in ("1", "2")),
        ("order", HUGE_MEANS, ["--relation", "hr"], 0),
    ], ids=["eta-overflow-w1", "eta-overflow-w2", "order-hr-huge-means"])
    def test_stderr_holds_only_the_error_line(self, tmp_path, command, doc, argv, code):
        # a child interpreter: pytest would capture numpy's RuntimeWarnings itself
        spec = write_doc(tmp_path, "s.json", doc)
        done = subprocess.run([sys.executable, "-m", "spcop.cli", command, "--spec", spec, *argv],
                              env=src_env(), capture_output=True, text=True)
        assert done.returncode == code
        if code == 1:
            assert done.stdout == ""
            assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        else:
            assert done.stderr == ""
            json.loads(done.stdout, parse_constant=pytest.fail)


@st.composite
def extreme_laws(draw):
    """A uniform, exponential, normal, uniform_power or 2-atom law whose
    parameters are magnitudes 10**e, e in [-307, 307]."""
    def mag():
        return 10.0 ** draw(st.integers(-307, 307))

    def signed():
        return draw(st.sampled_from((-1.0, 1.0))) * mag()

    kind = draw(st.sampled_from(("uniform", "exponential", "normal", "uniform_power", "atoms")))
    if kind == "uniform":
        a = signed()
        return {"kind": kind, "a": a, "b": a + mag()}
    if kind == "exponential":
        return {"kind": kind, "rate": mag()}
    if kind == "normal":
        return {"kind": kind, "mean": signed(), "sd": mag()}
    if kind == "uniform_power":
        return {"kind": kind, "k": mag(), "reflected": draw(st.booleans())}
    x = signed()
    p = draw(st.floats(0.01, 0.99))
    return {"kind": kind, "points": [[x, p], [x + mag(), 1.0 - p]]}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(g1=extreme_laws(), g2=extreme_laws(), relation=st.sampled_from(("st", "hr", "lr")),
       copula=st.sampled_from(({"node": "gaussian", "rho": 0.5}, {"node": "independence"},
                               {"node": "shuffle", "gamma": 0.3})))
def test_extreme_laws_give_finite_numbers_or_an_error(tmp_path_factory, g1, g2, relation, copula):
    spec = write_doc(tmp_path_factory.mktemp("extreme"), "s.json",
                     {"copula": copula, "g1": g1, "g2": g2})
    for argv in (["order", "--relation", relation], ["eta", "--samples", "10000"]):
        try:
            code, out = invoke([*argv, "--spec", spec])
        except SpcopError:
            continue
        assert code in (0, 2)
        json.loads(out, parse_constant=pytest.fail)  # called on NaN and +-Infinity


def test_cli_import_leaves_scipy_out():
    # scipy is a test extra; importing it would double the start-up time
    subprocess.run([sys.executable, "-c",
                    "import spcop.cli, sys; assert 'scipy' not in sys.modules"],
                   env=src_env(), check=True)


def test_eta_gamma_samples_once(tmp_path, monkeypatch):
    import spcop.precedence as precedence

    calls = []
    real = precedence.eta_mc

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(precedence, "eta_mc", counting)
    spec = write_doc(tmp_path, "s.json", {
        "copula": {"node": "mo_survival", "alpha1": 0.4, "alpha2": 0.2},
        "g1": {"kind": "uniform", "a": 0, "b": 1},
        "g2": {"kind": "exponential", "rate": 1.0}})
    code, out = invoke(["eta", "--spec", spec, "--samples", "20000", "--seed", "9",
                        "--gamma", "0.2"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["method"] == "monte_carlo" and result["sp_level"]["holds"] is True
    assert len(calls) == 1
