"""The docstring examples of every qll module, and the README's library
example, run as part of the suite."""

import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import qll

MODULES = sorted(m.name for m in pkgutil.iter_modules(qll.__path__, "qll.")
                 if m.name != "qll.__main__")


@pytest.mark.parametrize("name", ["qll"] + MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_exist():
    attempted = sum(doctest.testmod(importlib.import_module(name)).attempted
                    for name in MODULES)
    assert attempted >= 20


def test_readme_library_block():
    # each expression line carries its value as a trailing comment
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    values = []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            comment = lines[stmt.end_lineno - 1].split("#", 1)[1]
            expected = ast.literal_eval(comment.strip())
            assert eval(code, namespace) == expected, code
            values.append(expected)
        else:
            exec(code, namespace)
    assert values == [-1, (1, -3, 1), 5, 1, 6, (1, -2)]
