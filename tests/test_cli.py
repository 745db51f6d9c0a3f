"""CLI: schemas, dispatch, output formats, exit codes, determinism."""

import io
import json

import pytest

from spcop.cli import main, run


def write_doc(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, buf)
    return code, buf.getvalue()


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
        with pytest.raises(Exception):
            invoke(["eta", "--spec", spec])


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

    def test_worker_count_recorded_and_capped(self, tmp_path, monkeypatch):
        spec = write_doc(tmp_path, "s.json", {"copula": {"node": "independence"}})
        monkeypatch.setenv("SP_COPULA_THREADS", "2")
        code, out = invoke(["eta", "--spec", spec, "--workers", "8"])
        assert json.loads(out)["workers"] == 2


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
    ], ids=["gamma-overflow", "reflected-string", "atoms-inf",
            "not-an-object", "not-utf8", "deep-nesting", "pwl-nan-knot", "curve-step-zero", "curve-start-nan",
            "curve-start-text", "curve-values-number", "curve-values-text",
            "curve-step-away", "curve-two-parameter-family", "rank-prospects-number",
            "rank-gamma-bound-text"])
    def test_exit_1_with_error_line(self, tmp_path, capsys, command, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text.encode("latin-1"))  # "\xff" stays one byte, invalid UTF-8
        assert main([command, "--spec", str(path), "--samples", "20000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_curve_descending_range(self, tmp_path):
        spec = write_doc(tmp_path, "c.json", {
            "family": "shuffle", "start": 0.9, "stop": 0.1, "step": -0.2})
        code, out = invoke(["curve", "--spec", spec, "--output", "csv"])
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert [l.split(",")[0] for l in body] == ["gamma", "0.9", "0.7", "0.5", "0.3", "0.1"]


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
