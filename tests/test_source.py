"""Checks on the library's source text."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import usokit
from usokit.cli import run


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


_NUMPY_FREE_ARGV = [
    ["validate", "{uso}"],
    ["convert", "{uso}", "--to", "orientation"],
    ["apply", "{uso}", "--rule", "{rule}", "--h", "3"],
    ["rule-make", "--kind", "partial-swap"],
    ["uni-rule", "{uso}"],
    ["product", "{frame}", "--part", "0={uso}", "--part", "1={uso}"],
    ["flip", "{uso}", "--h", "2"],
    ["mirror", "{uso}", "--h", "1"],
    ["partial-swap", "{uso}", "--h", "3"],
    ["facet", "{uso}", "--h", "2", "--side", "upper"],
    ["inherit", "{uso}", "--kprime", "2"],
    ["count", "--k", "3", "--method", "brute"],
    ["enumerate", "--k", "3", "--method", "brute"],
]

# Runs the argv lists of sys.argv[2] through usokit.cli.run and prints the
# exit code and stdout of each, and whether numpy was imported before and
# after them.  With sys.argv[1] == "block" every import of numpy raises
# ImportError.
_CHILD = """\
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import usokit.cli
imported = sys.modules.get("numpy") is not None
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = usokit.cli.run(argv)
    results.append([code, out.getvalue()])
print(json.dumps([imported, results, sys.modules.get("numpy") is not None]))
"""


def _child(mode, argvs):
    # the child imports the usokit this process imported
    src = str(Path(usokit.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_small_verbs_run_without_numpy(tmp_path, capsys):
    # numpy runs only from the kernel's threshold and in the phase and join
    # kernels, so neither the import nor these verbs below k=5 may reach it
    uso, frame, rule = tmp_path / "k3.uso", tmp_path / "k1.uso", tmp_path / "mirror.rule"
    uso.write_text(usokit.write_tiling(usokit.sample_markov(3, 30, 5)))
    frame.write_text(usokit.write_tiling(usokit.sample_markov(1, 1, 5)))
    rule.write_text(usokit.write_rule(usokit.named_rule("mirror")))
    files = {"uso": uso, "frame": frame, "rule": rule}
    argvs = [[a.format(**files) for a in argv] for argv in _NUMPY_FREE_ARGV]
    imported, results, after = _child("block", argvs)
    assert (imported, after) == (False, False)
    for argv, (code, out) in zip(argvs, results):
        assert run(argv) == 0, argv
        assert (code, out) == (0, capsys.readouterr().out), argv


def test_the_numpy_guard_sees_an_import():
    # the control: the join kernel imports numpy on its first use, after
    # the import of usokit.cli, and the child reports it
    argvs = [["count", "--k", "4", "--method", "join"]]
    imported, results, after = _child("free", argvs)
    assert results == [[0, "count k=4 method=join value=5541744\n"]]
    assert (imported, after) == (False, True)
