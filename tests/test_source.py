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


class _Uses(ast.NodeVisitor):
    """The functions, by their dotted nesting in classes and functions, that
    use one name, as an attribute or as a plain name."""

    def __init__(self, name, attribute):
        self.name, self.attribute, self.scope, self.found = name, attribute, [], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def _see(self, name, attribute):
        if (name, attribute) == (self.name, self.attribute):
            self.found.add(".".join(self.scope) or "<module>")

    def visit_Attribute(self, node):
        self._see(node.attr, True)
        self.generic_visit(node)

    def visit_Name(self, node):
        self._see(node.id, False)


class _Doubling(_Uses):
    """The functions that grow a list by a list, as in ``xs += [...]``."""

    def __init__(self):
        super().__init__(None, None)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.Add) and isinstance(node.value, (ast.List, ast.ListComp)):
            self.found.add(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def _scopes(visitor):
    """Module-qualified scopes of the library where a fresh visitor() finds
    what it looks for."""
    found = set()
    for p in sorted(Path(usokit.__file__).parent.glob("*.py")):
        seen = visitor()
        seen.visit(ast.parse(p.read_text(), filename=str(p)))
        found |= {f"{p.stem}.{scope}" for scope in seen.found}
    return found


def _users(name, attribute):
    """Module-qualified scopes of the library that use name."""
    return _scopes(lambda: _Uses(name, attribute))


def test_the_pair_rule_has_one_home():
    # _EdgeIndex.apart, the coordinates where two i-edges' lower endpoints
    # differ, is what the phase pair rule masks with: a second reader of it
    # would be a second form of the rule beside transform._linked
    assert _users("apart", attribute=True) == {"transform._linked"}


def test_each_enumeration_has_one_home():
    # every OR of a subset (a face's vertices, a spread table, a deposit or
    # reversal table) is cube._subset_ors' doubling, and every list of the
    # i-edges' lower endpoints is cube._lower_ends
    assert _scopes(_Doubling) == {"cube._subset_ors"}
    assert _users("insert_bit", False) | _users("insert_bit", True) == {"cube._lower_ends"}


def test_the_tiling_verdict_has_one_route():
    # the verdict is the sink pair test on the vertex table at every k; the
    # tile pair test serves fragments and names a failed tiling's first pair
    assert _users("incompatible_tiles", attribute=False) == {
        "tiling._defect",
        "tiling.TileSet.is_pairwise_adjacent",
        "tiling.gk_adjacent",
        "rewrite._union_violations",
    }


def test_the_verdict_builds_every_vertex_table():
    # a tile set keeps the table that passed its verdict, so no other
    # function builds one: one table per verdict
    users = _users("vertex_outmaps", attribute=False) | _users("vertex_outmaps", attribute=True)
    assert users == {"tiling._tiling_ok"}


def test_the_library_holds_tiles_without_the_checked_doors():
    # tiles the library holds are in range by construction, so it unpacks
    # them with tiling._unpack and builds them from the spread table; the
    # checked codec entries are for callers only
    doors = ("tile_of", "tile_unpack", "tile_vertex", "tile_out")
    found = {u for d in doors for u in _users(d, False) | _users(d, True)}
    assert found == set()


class _LabelReaders(ast.NodeVisitor):
    """The functions of one module that call pack_lines, or read a
    labelling: use the name for more than a parameter, an argument passed
    on or a test against None."""

    def __init__(self):
        self.scope, self.found, self.passed = [], set(), set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "pack_lines":
            self.found.add(".".join(self.scope))
        self.passed |= {id(a) for a in node.args}
        self.generic_visit(node)

    def visit_Compare(self, node):
        if all(isinstance(c, ast.Constant) and c.value is None for c in node.comparators):
            self.passed.add(id(node.left))
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == "labelling" and id(node) not in self.passed:
            self.found.add(".".join(self.scope))


def test_one_function_reads_a_labelling():
    # the labelling becomes a column per tile in one place, before either
    # splice is chosen; the splices read tiles and columns only
    path = Path(usokit.__file__).parent / "rewrite.py"
    readers = _LabelReaders()
    readers.visit(ast.parse(path.read_text(), filename=str(path)))
    assert readers.found == {"_tile_columns"}
    for splice in (usokit.rewrite._splice_loop, usokit.rewrite._splice_block):
        assert splice.__code__.co_varnames[:4] == ("rule", "tiles", "columns", "h")


def test_only_run_writes_stdout():
    # a verb returns its text, and run() alone writes it, to stdout or to
    # --out, so every verb's output takes one route and one error mapping
    assert _users("stdout", attribute=True) == {"cli.run"}
    assert _users("print", attribute=False) == {"cli.run"}


def _names(tree):
    """Every name, attribute, imported name and defined function or class
    of the module's code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
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


def test_one_dimension_bound():
    # a tile is one uint64, so cube._require_cube_dim caps every dimension
    # at MAX_FORMAT_DIM, and no route keeps a fallback for wider words
    gone = {"MAX_WORD_BITS", "_BLOCK_DIMS", "_require_table_dim"}
    found = {
        f"{p.name}: {name}"
        for p in sorted(Path(usokit.__file__).parent.glob("*.py"))
        for name in gone.intersection(_names(ast.parse(p.read_text(), filename=str(p))))
    }
    assert found == set()


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
    ["apply", "{uso}", "--rule", "{rule}", "--labels", "{labels}", "--h", "2"],
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
    labels = tmp_path / "k3.labels"
    k3 = usokit.sample_markov(3, 30, 5)
    uso.write_text(usokit.write_tiling(k3))
    frame.write_text(usokit.write_tiling(usokit.sample_markov(1, 1, 5)))
    rule.write_text(usokit.write_rule(usokit.named_rule("mirror")))
    labels.write_text(usokit.write_labels({s: 1 for s in k3.strings()}))
    files = {"uso": uso, "frame": frame, "rule": rule, "labels": labels}
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
