"""Soundness checks must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

import lipcert


def test_library_has_no_assert_statements():
    package = Path(lipcert.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
