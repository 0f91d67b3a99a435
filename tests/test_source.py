"""Checks on the library's source text."""

import ast
from pathlib import Path

import usokit


def test_no_assert_statements():
    # invariants raise exceptions; an assert vanishes under python -O
    sources = sorted(Path(usokit.__file__).parent.glob("*.py"))
    assert "enumeration.py" in {p.name for p in sources}
    found = [
        f"{p.name}:{node.lineno}"
        for p in sources
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
