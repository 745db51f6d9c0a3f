"""Source-level guards: no module of the package reads the environment, so
an answer depends only on (command, input, seed, workers)."""

import ast
from pathlib import Path

import pytest

import spcop

SOURCES = sorted(Path(spcop.__file__).parent.glob("*.py"))
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


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
