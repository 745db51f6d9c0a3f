"""The benchmark's span tracer patches spcop at the attribute names its
callers look up; a rename in src/ that leaves one of them behind fails here."""

import importlib.util
from pathlib import Path

from test_cli import write_doc

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_layers_and_restores_every_patch(tmp_path, capsys):
    import spcop.cli

    tracing = load_tracer()
    tracer = tracing.Tracer()
    gauss = {"node": "gaussian", "rho": 0.5}
    atoms = {"kind": "atoms", "points": [[0.0, 0.25], [1.0, 0.5], [2.0, 0.25]]}
    docs = {
        "discrete": {"copula": gauss, "g1": atoms, "g2": atoms},
        "quadrature": {"copula": gauss, "g1": {"kind": "uniform", "a": 0, "b": 1},
                       "g2": {"kind": "exponential", "rate": 2}},
        "sample": {"copula": {"node": "shuffle", "gamma": 0.3}},
    }
    argvs = [["eta", "--spec", write_doc(tmp_path, "d.json", docs["discrete"])],
             ["eta", "--spec", write_doc(tmp_path, "q.json", docs["quadrature"])],
             ["sample", "--spec", write_doc(tmp_path, "s.json", docs["sample"]),
              "--samples", "100"]]
    tracer.install()
    patches = list(tracer._patches)
    try:
        codes = [spcop.cli.main(argv) for argv in argvs]
    finally:
        tracer.restore()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    table = tracing.SpanTable(tracer)
    for group in ("copula.cdf", "copula.cond_cdf", "dist.quantile", "copula.rows"):
        assert table.calls(group) > 0, group
    assert all(vars(owner)[attr] is raw for owner, attr, raw in patches)
