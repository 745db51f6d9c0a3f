"""Source-level guards: no module of the package reads the environment, so
an answer depends only on (command, input, seed, workers); every error the
package raises is one of the classes of spcop.errors, one per way a caller
reacts, so every bad input is a SpecError; no function swallows keywords
it does not read through a ** parameter, so a request's values travel in one
Plan and a misspelt keyword fails; and the modules that build or read a Plan
take each per-request default from it, not from a literal of their own."""

import ast
import builtins
import json
from pathlib import Path

import pytest

import spcop
from spcop import errors
from spcop.cli import main
from spcop.copula import Comonotone, Independence, Mixture, Shuffle
from spcop.dist import DiscreteAtoms, Normal, Uniform, check_order
from spcop.errors import SpecError
from spcop.precedence import eta_quadrature

SOURCES = sorted(Path(spcop.__file__).parent.glob("*.py"))
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
ERROR_CLASSES = {"SpcopError", "SpecError", "UnknownMass", "SizeLimit", "Inconclusive"}
# the codec's number and array readers raise these; decode, cli and tba wrap them
CODEC_INTERNAL = {"TypeError", "ValueError"}
# copula, rng and oracle sit below Plan, and oracle stays independent of it
PLAN_MODULES = ("precedence.py", "tba.py", "cli.py")
PER_REQUEST = {"samples", "n", "seed", "workers", "tol"}


def environment_reads(tree):
    """Line numbers of os.<name>, and of names imported from os, that touch the environment."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ENVIRONMENT for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_guard_sees_every_form():
    tree = ast.parse("import os\nos.environ.get('A')\nos.getenv('B')\nos.putenv('C', '1')\n"
                     "from os import environ\n")
    assert environment_reads(tree) == [2, 3, 4, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(ast.parse(path.read_text(), str(path))) == []


def catch_all_parameters(tree):
    """Line numbers of each def and lambda that declares a ** parameter."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                  and node.args.kwarg is not None)


def test_the_catch_all_guard_sees_every_form():
    tree = ast.parse("def f(**kw): pass\ng = lambda x, **_: x\nclass C:\n"
                     "    async def m(self, *a, k=1, **k2): pass\n"
                     "def h(*args, k=1): return f(**{'k': k})\nd = dict(**{})\n")
    assert catch_all_parameters(tree) == [1, 2, 4]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_takes_a_catch_all(path):
    assert catch_all_parameters(ast.parse(path.read_text(), str(path))) == []


def literal_defaults(tree):
    """(line, name) of each def or lambda parameter named after a per-request value
    whose default is a literal: an expression that reads no name or attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                     *zip(args.kwonlyargs, args.kw_defaults)]
            found += [(node.lineno, arg.arg) for arg, default in pairs
                      if arg.arg in PER_REQUEST and default is not None and not any(
                          isinstance(sub, (ast.Name, ast.Attribute)) for sub in ast.walk(default))]
    return sorted(found)


def test_the_literal_default_guard_sees_every_form():
    tree = ast.parse("def f(a, n=10, *, seed=0, tol=Plan.tol, workers): pass\n"
                     "g = lambda samples=10 ** 6, workers=-1: 0\n"
                     "def h(x, workers=W, gamma=0.5, *, k=1): pass\n"
                     "async def m(tol=1e-8, /, seed=None): pass\n")
    assert literal_defaults(tree) == [(1, "n"), (1, "seed"), (2, "samples"), (2, "workers"),
                                      (4, "seed"), (4, "tol")]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name in PLAN_MODULES],
                         ids=lambda p: p.name)
def test_per_request_defaults_come_from_the_plan(path):
    assert literal_defaults(ast.parse(path.read_text(), str(path))) == []


def is_exception_class(name):
    value = getattr(builtins, name, getattr(errors, name, None))
    return isinstance(value, type) and issubclass(value, BaseException)


def raised_classes(tree):
    """(line, name) of each class a module raises by name (raise X, raise X(...))
    or builds as an exception (X(...) with X a built-in or spcop.errors class)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name) and target.id[0].isupper():
                found.append((node.lineno, target.id))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and is_exception_class(node.func.id)):
            found.append((node.lineno, node.func.id))
    return sorted(set(found))


def test_errors_keeps_one_class_per_decision():
    defined = {n for n, v in vars(errors).items()
               if isinstance(v, type) and issubclass(v, BaseException)}
    assert defined == ERROR_CLASSES
    # only bad input is a ValueError, so `except ValueError` never swallows a hand-over
    assert [n for n in defined if issubclass(getattr(errors, n), ValueError)] == ["SpecError"]


def test_the_raise_guard_sees_every_form():
    tree = ast.parse("raise KeyError('a')\nraise Odd\nreturn SpecError('b')\n"
                     "raise error\nraise SizeLimit('c') from exc\nf(ValueError)\n")
    assert raised_classes(tree) == [(1, "KeyError"), (2, "Odd"), (3, "SpecError"),
                                    (5, "SizeLimit")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_is_a_package_error(path):
    allowed = ERROR_CLASSES | {"NotImplementedError"}
    if path.name == "codec.py":
        allowed |= CODEC_INTERNAL
    found = raised_classes(ast.parse(path.read_text(), str(path)))
    assert [(line, name) for line, name in found if name not in allowed] == []


ATOM = DiscreteAtoms(((0.0, 1.0),))


@pytest.mark.parametrize("fault,message", [
    (lambda: Mixture([Independence(), Comonotone()], [0.6, 0.6]),
     "mixture weights must form a simplex, got (0.6, 0.6)"),
    (lambda: Mixture([Independence()], [0.5, 0.5]),
     "mixture needs matching non-empty components and weights"),
    (lambda: Mixture([Independence(), Comonotone()], [float("nan"), 1.0]),
     "mixture weights must be finite, got (nan, 1.0)"),
    (lambda: eta_quadrature(Shuffle(0.3), Uniform(0, 1), Uniform(0, 1)),
     "copula has a singular component; use eta_mc"),
    (lambda: Shuffle(0.3).conditional_cdf(0.5, 0.5), "shuffle has a singular component"),
    (lambda: check_order("hr", ATOM, ATOM), "hr ordering needs closed-form densities"),
    (lambda: check_order("lr", ATOM, Normal(0, 1)), "lr ordering needs closed-form densities"),
    (lambda: Normal(0, 1).quantile(float("nan")), "quantile probability must not be NaN"),
    (lambda: Normal(0, 1).quantile(1.5), "quantile probability must lie in [0,1]"),
], ids=["mixture-simplex", "mixture-lengths", "mixture-nan", "quadrature-singular",
        "d1-singular", "hr-atoms", "lr-atoms", "quantile-nan", "quantile-1.5"])
def test_bad_input_is_a_spec_error(fault, message):
    with pytest.raises(SpecError) as info:
        fault()
    assert type(info.value) is SpecError and str(info.value) == message


@pytest.mark.parametrize("argv,doc,line", [
    (["order", "--relation", "hr"], {"g1": {"kind": "atoms", "points": [[0.0, 1.0]]},
                                     "g2": {"kind": "atoms", "points": [[0.0, 1.0]]}},
     "error: hr ordering needs closed-form densities\n"),
    (["eta"], {"copula": {"node": "mixture", "weights": [0.6, 0.6], "components": [
        {"node": "independence"}, {"node": "comonotone"}]}},
     "error: mixture weights must form a simplex, got (0.6, 0.6)\n"),
], ids=["order-hr-atoms", "eta-bad-mixture"])
def test_bad_input_ends_in_one_error_line(tmp_path, capsys, argv, doc, line):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main([*argv, "--spec", str(spec)]) == 1
    assert capsys.readouterr() == ("", line)
