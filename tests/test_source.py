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


class _AttributeReads(ast.NodeVisitor):
    """The functions, by their dotted nesting, that read one attribute name."""

    def __init__(self, name):
        self.name, self.scope, self.found = name, [], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if node.attr == self.name:
            self.found.add(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def test_the_pair_rule_has_one_home():
    # _EdgeIndex.apart, the coordinates where two i-edges' lower endpoints
    # differ, is what the phase pair rule masks with: a second reader of it
    # would be a second form of the rule beside transform._linked
    found = set()
    for p in sorted(Path(usokit.__file__).parent.glob("*.py")):
        reads = _AttributeReads("apart")
        reads.visit(ast.parse(p.read_text(), filename=str(p)))
        found |= {f"{p.stem}.{scope}" for scope in reads.found}
    assert found == {"transform._linked"}


def _names(tree):
    """Every name, attribute and imported name the module's code uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_edge_index_stays_in_transform():
    # the phase closures hand out each class once, at its lowest edge, so
    # no other module needs the i-edges' projection indices to name one
    found = [
        p.name
        for p in sorted(Path(usokit.__file__).parent.glob("*.py"))
        if p.name != "transform.py"
        and "_edge_index" in set(_names(ast.parse(p.read_text(), filename=str(p))))
    ]
    assert found == []


def test_cube_checks_edges_without_numpy():
    # _check_edges has one route, the loop; the edge scan runs only on
    # tables from outside the library, so no threshold picks a faster one
    path = Path(usokit.__file__).parent / "cube.py"
    names = set(_names(ast.parse(path.read_text(), filename=str(path))))
    assert names & {"numpy", "np", "KERNEL_MIN_DIM"} == set()
