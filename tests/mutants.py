"""Mutation sweep: every mutant below must make its tests fail.

An entry of MUTANTS is (name, file under src/usokit, exact old text, new
text, tests).  For each entry the sweep copies src/ to a temporary
directory, makes the one substitution and runs ``pytest -x`` on the named
tests in one child process with that copy on PYTHONPATH; the child must
fail.  Before any mutant, the same tests run once on an unchanged copy and
must pass, so a failure is the mutant's doing.  An entry whose old text is
not found exactly once fails the sweep, so entries cannot go stale.

EQUIVALENT holds mutants that no test should kill, each with its reason.
Their old text must still be found exactly once; they are not run.

    python tests/mutants.py

About 125 s on two cores.  Exits 1 and names every mutant that survived or
no longer applies.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the batch closure's return: each class at its lowest edge, 0 elsewhere
LOWEST = "return np.where(masks & index.weights - 1, 0, masks)\n"

KERNEL_LOOP = f"""\
    while True:
        grown = np.bitwise_or.reduce(linked * masks[:, None, :], axis=2)
        if (grown == masks).all():
            {LOWEST}\
        masks = grown
"""

WALKS = "tests/test_enumeration.py::test_edge_classes_match_phase_projections_on_walks"
CODEC = "tests/test_tiling.py::test_codec_matches_the_per_bit_loops"
TWINS = "tests/test_tiling.py::test_no_small_tiling_is_twin_free"
ORBITS = "tests/test_enumeration.py::test_join_count_sums_one_facet_per_orbit"
EDITS = "tests/test_formats.py::test_tiling_reader_paths_agree_on_single_edits"
TEXT = "tests/test_tiling.py::test_strings_and_text_match_the_per_tile_codec"
LABELS = "tests/test_rewrite.py::test_labellings_give_the_per_key_loop_results"
VERDICT = "tests/test_tiling.py::test_verdict_matches_the_tile_pair_test"
REFERENCE = "tests/test_enumeration.py::test_join_stream_is_the_reference_pick_loop"
NUMPY_FREE = "tests/test_source.py::test_small_verbs_run_without_numpy"
LABEL_TEXT = "tests/test_formats.py::test_label_reader_keeps_the_line_readers_messages"

MUTANTS = [
    (
        "kernel with no growth round",
        "transform.py",
        KERNEL_LOOP,
        "    " + LOWEST,
        [WALKS],
    ),
    (
        "kernel with one growth round",
        "transform.py",
        KERNEL_LOOP,
        "    masks = np.bitwise_or.reduce(linked * masks[:, None, :], axis=2)\n    " + LOWEST,
        [WALKS],
    ),
    (
        # passes every other tier-1 test: only a deep walk state (6 growing
        # rounds at k = 5, the lowest edge's mask short after 5) tells it
        # from the fixpoint
        "kernel capped at 5 rounds",
        "transform.py",
        KERNEL_LOOP,
        "    for _ in range(5):\n"
        "        masks = np.bitwise_or.reduce(linked * masks[:, None, :], axis=2)\n"
        "    " + LOWEST,
        [WALKS + "[5]"],
    ),
    (
        # the row order of the kept masks orders the join stream's classes,
        # and so its tilings; kept at the highest edge, the classes come
        # in order of their highest edges
        "batch closure keeping each class at its highest edge",
        "transform.py",
        "np.where(masks & index.weights - 1, 0, masks)",
        "np.where(masks & ~(2 * index.weights - 1), 0, masks)",
        ["tests/test_enumeration.py::test_join_stream_order_is_pinned"],
    ),
    (
        "batch closure without the lowest-edge filter",
        "transform.py",
        "            " + LOWEST,
        "            return masks\n",
        [WALKS],
    ),
    # the one-table closure
    (
        "closure adds direct neighbours only",
        "transform.py",
        "            frontier ^= edge | new\n",
        "            frontier ^= edge\n",
        [WALKS],
    ),
    (
        "classes not in lowest-edge order",
        "transform.py",
        "        cls = frontier = left & -left\n",
        "        cls = frontier = 1 << left.bit_length() - 1\n",
        [WALKS],
    ),
    (
        "_union keeps only the last class",
        "transform.py",
        "            word |= cls\n",
        "            word = cls\n",
        ["tests/test_enumeration.py::test_phase_walk_mixes_exactly"],
    ),
    (
        "_flip without the upper endpoint",
        "transform.py",
        "        out[v | ibit] ^= ibit\n",
        "",
        ["tests/test_enumeration.py::test_walk_stays_on_tilings"],
    ),
    # the flip walk keeps a coordinate's classes; the stream splices them
    (
        "classes reused across a coordinate change",
        "enumeration.py",
        "            if i != last:\n",
        "            if last is None:\n",
        ["tests/test_enumeration.py::test_walk_stays_on_tilings"],
    ),
    (
        "stream classes not reversed before product",
        "enumeration.py",
        "            for cls in filter(None, reversed(masks)):\n",
        "            for cls in filter(None, masks):\n",
        [REFERENCE],
    ),
    (
        "upper tiles without the connecting bit",
        "enumeration.py",
        "[t | bit for t in tiles]",
        "[t if t & bit << 1 else t | bit for t in tiles]",
        [REFERENCE],
    ),
    (
        "i-edges on the wrong coordinate",
        "transform.py",
        "insert_bit(p, i - 1, 0)",
        "insert_bit(p, i % k, 0)",
        ["tests/test_cli.py::test_phases_output"],
    ),
    (
        "phases() drops the top edge of each class",
        "transform.py",
        "if mask & b)",
        "if mask & b and mask >= 2 * b)",
        ["tests/test_transform.py::test_phases_of_canonical"],
    ),
    # one home per table decision
    (
        "phase_flip keeps only the last class's mask",
        "transform.py",
        "        word |= mask\n",
        "        word = mask\n",
        ["tests/test_transform.py::test_phase_flip_every_class_is_flip_dimension"],
    ),
    (
        "phase_flip dropping edges that are not lower i-edge endpoints",
        "transform.py",
        "            mask = sum(bits[e] for e in frozenset(cls))\n",
        "            mask = sum(bits.get(e, 0) for e in frozenset(cls))\n",
        ["tests/test_transform.py::test_phase_flip_rejections_keep_their_messages"],
    ),
    (
        "vertex order reversed (Face.vertices, the orientation text's order)",
        "cube.py",
        'choices = [("0", "1") if c == "*"',
        'choices = [("1", "0") if c == "*"',
        ["tests/test_formats.py::test_orientation_text_lists_vertices_in_bit_order"],
    ),
    (
        # the face scan decodes its patterns through Face
        "Face.fixed_values reads '*' as 1",
        "cube.py",
        'self.pattern.replace("*", "0")',
        'self.pattern.replace("*", "1")',
        ["tests/test_cube.py::test_verifier_equivalence_exhaustive_small"],
    ),
    (
        "hypervertex_check with AND in place of OR",
        "transform.py",
        "        some |= o.out[v]\n",
        "        some &= o.out[v]\n",
        ["tests/test_transform.py::test_hypervertex_witnesses"],
    ),
    (
        "_require_coordinate rejecting coordinate k",
        "cube.py",
        "    if not 1 <= i <= k:\n",
        "    if not 1 <= i < k:\n",
        ["tests/test_cube.py::test_neighbor_toggles_one_bit"],
    ),
    # the tile codec
    (
        "_SPREAD moves bit i to bit i",
        "tiling.py",
        "        table += [t | 1 << 2 * i for t in table]\n",
        "        table += [t | 1 << i for t in table]\n",
        [CODEC],
    ),
    (
        "_spread places later chunks 10 bits apart",
        "tiling.py",
        "        shift += 20\n",
        "        shift += 10\n",
        [CODEC],
    ),
    (
        "_compact without its 8-bit step",
        "tiling.py",
        "    x = (x | x >> 8) & 0x0000FFFF0000FFFF\n",
        "",
        [CODEC],
    ),
    (
        "_compact_digits puts digits past 32 one bit too high",
        "tiling.py",
        "_compact_digits(t >> 64, k - 32) << 32",
        "_compact_digits(t >> 64, k - 32) << 33",
        [CODEC],
    ),
    (
        "tile_vertex reads the low bits",
        "tiling.py",
        "_compact_digits(t >> 1, k)",
        "_compact_digits(t, k)",
        [CODEC],
    ),
    (
        "vertex_outmaps swaps vertex and word",
        "tiling.py",
        "    table[_compact(packed >> 1)] = _compact(packed)\n",
        "    table[_compact(packed)] = _compact(packed >> 1)\n",
        ["tests/test_tiling.py::test_vertex_outmaps_matches_the_dict_path"],
    ),
    (
        "vertex_outmaps ignores a vertex no tile lands on",
        "tiling.py",
        "    return None if (table < 0).any() else table.tolist()\n",
        "    return table.tolist()\n",
        ["tests/test_tiling.py::test_vertex_outmaps_matches_the_dict_path"],
    ),
    # twins by partner lookup, and gk_adjacent through the kernel
    (
        "twin partner on the low bit of digit i",
        "tiling.py",
        "    highs = [2 << 2 * i for i in range(k)]\n",
        "    highs = [1 << 2 * i for i in range(k)]\n",
        [TWINS],
    ),
    (
        "twin lookup without its ordering test",
        "tiling.py",
        "        if not t & h and t | h in tiles\n",
        "        if t | h in tiles\n",
        [TWINS],
    ),
    (
        "gk_adjacent negated",
        "tiling.py",
        "len(u)), None) is None\n",
        "len(u)), None) is not None\n",
        ["tests/test_tiling.py::test_gk_adjacent_examples"],
    ),
    # the join counter's orbits
    (
        "orbit generators without the reversals",
        "enumeration.py",
        "        yield tuple(w ^ bit for w in out)\n",
        "",
        [ORBITS],
    ),
    (
        "orbit generators without the coordinate exchanges",
        "enumeration.py",
        "        yield tuple(_swap_bits(out[_swap_bits(v, i)], i) for v in range(size))\n",
        "        yield out\n",
        [ORBITS],
    ),
    (
        "orbit generator exchanging vertex bits but not direction bits",
        "enumeration.py",
        "_swap_bits(out[_swap_bits(v, i)], i)",
        "out[_swap_bits(v, i)]",
        ["tests/test_enumeration.py::test_count_methods_agree"],
    ),
    (
        "each orbit weighted once",
        "enumeration.py",
        "        total += orbit_size * int((1 << phases).sum())\n",
        "        total += int((1 << phases).sum())\n",
        ["tests/test_enumeration.py::test_count_methods_agree"],
    ),
    # verdicts kept on values
    (
        "_require_uso tests on every call",
        "cube.py",
        "    if o._verdict is None:\n",
        "    if True:\n",
        ["tests/test_cube.py::test_uso_verdict_is_kept_but_is_uso_always_tests"],
    ),
    (
        "_require_tiling tests on every call",
        "tiling.py",
        "    if ts._verdict is None:\n",
        "    if True:\n",
        ["tests/test_tiling.py::test_a_rejected_tiling_stays_rejected"],
    ),
    (
        "tiles_from_uso output born without its verdict",
        "tiling.py",
        "    return _keep_verdict(_tiles_of(o.out, o.dim), True)\n",
        "    return _tiles_of(o.out, o.dim)\n",
        ["tests/test_tiling.py::test_tiling_verdict_is_kept_but_the_verifiers_always_test"],
    ),
    (
        "is_uso trusts a kept verdict",
        "cube.py",
        "        _keep_verdict(o, _pairwise_ok(o.out, o.dim))\n        return o._verdict\n",
        "        if o._verdict is None:\n"
        "            _keep_verdict(o, _pairwise_ok(o.out, o.dim))\n"
        "        return o._verdict\n",
        ["tests/test_cube.py::test_is_uso_ignores_a_kept_verdict"],
    ),
    # numbers in ASCII digits only
    (
        "_number takes anything int() takes",
        "formats.py",
        "    if _NUMBER.fullmatch(word):\n",
        "    if word:\n",
        ["tests/test_formats.py::test_readers_take_only_ascii_digits"],
    ),
    (
        "tile_pack takes anything int() takes",
        "tiling.py",
        "    if not _TILE_WORD.fullmatch(s):\n",
        "    if False:\n",
        ["tests/test_tiling.py::test_tile_pack_takes_only_ascii_digits"],
    ),
    # the block codec of tile text
    (
        "block reader without its newline-column check",
        "tiling.py",
        "    if (rows[:, k] != 10).any():\n        return None\n",
        "",
        [EDITS],
    ),
    (
        "block reader with a digit bound of 4",
        "tiling.py",
        "    if (digits > 3).any():\n",
        "    if (digits > 4).any():\n",
        [EDITS],
    ),
    (
        "block reader without its duplicate check",
        "formats.py",
        '        if len(tiles) != 1 << k:\n            raise FormatError("duplicate tiles")\n',
        "",
        [EDITS],
    ),
    (
        "block writer sorting on the unreversed digit columns",
        "tiling.py",
        "np.lexsort(digits.T[::-1])",
        "np.lexsort(digits.T)",
        [TEXT],
    ),
    (
        # a rule with one tile dropped then passes validation, and the
        # columns of that row no longer cover the same vertices
        "_union_violations without its tile-count test",
        "rewrite.py",
        "    if len(a.tiles) + len(b.tiles) != 1 << d:\n"
        "        out.append(\n"
        '            f"{name_a} + {name_b} has {len(a.tiles) + len(b.tiles)} tiles, "\n'
        '            f"needs {1 << d}"\n'
        "        )\n",
        "",
        ["tests/test_rewrite.py::test_column_vertex_projections_agree"],
    ),
    (
        # a rule with one tile in both sets of a pair then passes
        # validation, and its rewrites lose that tile's copies
        "_union_violations without its disjointness test",
        "rewrite.py",
        "    common = a.tiles & b.tiles\n",
        "    common = ()\n",
        ["tests/width_one_rules.py::test_width_one_rules_are_valid_exactly_when_sound"],
    ),
    (
        "block label keys without the label-range test",
        "rewrite.py",
        "        and 1 <= min(labels) <= max(labels) <= i\n",
        "",
        [LABELS],
    ),
    (
        # a non-ASCII key then raises UnicodeEncodeError, not the loop's
        # LabellingError
        "block codec without its ASCII test",
        "tiling.py",
        " or not text.isascii()",
        "",
        [LABELS],
    ),
    # the tiling verdict on the vertex table, and orientations built from
    # tables that passed the pairwise test
    (
        "_consistent, and so _verified, without the word-range test",
        "cube.py",
        "    _check_words(k, out)\n    o = object.__new__(Orientation)\n",
        "    o = object.__new__(Orientation)\n",
        ["tests/test_cube.py::test_verified_keeps_the_word_range_test"],
    ),
    # edges are scanned where a table enters, once
    (
        # edge-inconsistent: the upper end of each flipped edge keeps its bit
        "flip_edges reversing the lower endpoints only",
        "cube.py",
        "        out[e.vertex] ^= ibit\n        out[e.vertex | ibit] ^= ibit\n",
        "        out[e.vertex] ^= ibit\n",
        ["tests/test_cube.py::test_flip_edges_combs"],
    ),
    (
        "combine without its cut check",
        "cube.py",
        '    _check_edges(k, out, what="cut disagreement on")\n',
        "",
        ["tests/test_cube.py::test_combine_rejects_cut_disagreement"],
    ),
    (
        "_check_edges missing the last coordinate",
        "cube.py",
        "    for i in range(k):\n        ibit = 1 << i\n        for v in vertices:\n",
        "    for i in range(k - 1):\n        ibit = 1 << i\n        for v in vertices:\n",
        [
            "tests/test_cube.py::test_edge_check_names_the_lowest_disagreement",
            "tests/test_cube.py::test_edge_check_matches_the_double_loop",
        ],
    ),
    (
        # from k = 5 the verdict and the pairwise cross-check then run the
        # same test on the same vertex table
        "validate without the tile pair cross-check",
        "cli.py",
        " or not ts.is_pairwise_adjacent()",
        "",
        ["tests/test_cli.py::test_validate_cross_checks_the_other_encoding"],
    ),
    (
        "vertex route without its pairwise test",
        "tiling.py",
        "        ok = out is not None and _pairwise_ok(out, k)\n",
        "        ok = out is not None\n",
        [VERDICT],
    ),
    (
        "vertex route taking a vertex map that is not onto",
        "tiling.py",
        "        ok = out is not None and _pairwise_ok(out, k)\n",
        "        ok = out is None or _pairwise_ok(out, k)\n",
        [VERDICT],
    ),
    (
        "tiling_defect naming the first two tiles without the tile scan",
        "tiling.py",
        "for t in next(incompatible_tiles(sorted(ts.tiles), k)))",
        "for t in sorted(ts.tiles)[:2])",
        [VERDICT],
    ),
    # transforms whose output is wrong, edge-consistent or not; no output
    # is tested at run time, so tests/test_transform.py is their only guard
    # (phase_flip's is "phase_flip keeps only the last class's mask")
    (
        "flip_dimension leaving the i-edge at the top vertex",
        "transform.py",
        "    return _verified(o.dim, tuple(w ^ ibit for w in o.out))\n",
        "    top = (1 << o.dim) - 1\n"
        "    return _verified(o.dim, tuple(w ^ ibit * (v | ibit != top) for v, w in enumerate(o.out)))\n",
        ["tests/test_transform.py::test_flip_dimension_involution"],
    ),
    (
        # edge-inconsistent: each i-edge's ends disagree on it
        "flip_dimension flipping the i-bit at lower endpoints only",
        "transform.py",
        "    return _verified(o.dim, tuple(w ^ ibit for w in o.out))\n",
        "    return _verified(o.dim, tuple(w ^ ibit * (not v & ibit) for v, w in enumerate(o.out)))\n",
        ["tests/test_transform.py::test_flip_dimension_involution"],
    ),
    (
        "mirror that also reverses the h-edges (a reflection)",
        "transform.py",
        "    out = tuple(o.out[v ^ hbit] for v in range(1 << o.dim))\n",
        "    out = tuple(o.out[v ^ hbit] ^ hbit for v in range(1 << o.dim))\n",
        ["tests/test_transform.py::test_mirror_of_bow"],
    ),
    (
        "partial_swap along the downward h-edges",
        "transform.py",
        "out[v ^ hbit] if w & hbit else w",
        "out[v ^ hbit] if not w & hbit else w",
        ["tests/test_transform.py::test_partial_swap_matches_rule"],
    ),
    (
        # edge-inconsistent: an upward h-edge's upper end keeps its word
        "partial_swap moving the lower endpoints only",
        "transform.py",
        "out[v ^ hbit] if w & hbit else w",
        "out[v ^ hbit] if w & hbit and not v & hbit else w",
        ["tests/test_transform.py::test_partial_swap_matches_rule"],
    ),
    (
        "facet taking the other side",
        "transform.py",
        '    bit = 1 if side == "upper" else 0\n',
        '    bit = 1 if side == "lower" else 0\n',
        ["tests/test_transform.py::test_facet_of_bow"],
    ),
    (
        "facet starting one run late",
        "transform.py",
        "range(bit * run, 1 << o.dim, 2 * run)",
        "range(bit * run + run, 1 << o.dim, 2 * run)",
        ["tests/test_transform.py::test_facet_of_bow"],
    ),
    (
        "inherited keeping the source of each top edge",
        "transform.py",
        "            out[v | top] & top - 1 if out[v] >> (k - 1) & 1 else out[v] & top - 1\n",
        "            out[v] & top - 1 if out[v] >> (k - 1) & 1 else out[v | top] & top - 1\n",
        ["tests/test_transform.py::test_inherited_matches_rule"],
    ),
    (
        "product gluing the part of frame vertex 0 everywhere",
        "transform.py",
        "        out.append(frame.out[xf] | parts[xf].out[xp] << k)\n",
        "        out.append(frame.out[xf] | parts[0].out[xp] << k)\n",
        ["tests/test_transform.py::test_product_layout_frame_first"],
    ),
    (
        "phase_swap exchanging the h-edges outside the chosen classes",
        "transform.py",
        "if word & bit}",
        "if not word & bit}",
        ["tests/test_transform.py::test_phase_swap_matches_partial_swap"],
    ),
    (
        # a selection that takes part of a class then swaps that part
        "phase_swap's split test ignoring partly covered classes",
        "transform.py",
        "cls & word and cls & ~word for cls",
        "cls & word and cls & ~word == cls for cls",
        ["tests/test_transform.py::test_phase_swap_rejects_split_or_stray"],
    ),
    (
        "hypervertex_replace with the sub mirrored in its first coordinate",
        "transform.py",
        "            bit = sub.out[p] >> a & 1\n",
        "            bit = sub.out[p ^ 1] >> a & 1\n",
        ["tests/test_transform.py::test_hypervertex_replace_keeps_the_free_coordinates_in_order"],
    ),
    (
        "brute tables reading edge v mod n/2, not drop_bit(v, i)",
        "enumeration.py",
        "[tuple((w >> drop_bit(v, i) & 1) << i for v in range(n))",
        "[tuple((w >> v % (n >> 1) & 1) << i for v in range(n))",
        ["tests/test_enumeration.py::test_join_matches_brute"],
    ),
    # numpy on first use
    (
        "tiling importing numpy eagerly",
        "tiling.py",
        "from ._lazy import np\n",
        "import numpy as np\n",
        [NUMPY_FREE],
    ),
    (
        "the proxy replaced by numpy itself",
        "_lazy.py",
        "np = _Numpy()\n",
        "import numpy as np\n",
        [NUMPY_FREE],
    ),
    (
        "16-bit words in an 8-bit dtype",
        "pairwise.py",
        '(16, "uint16")',
        '(16, "uint8")',
        ["tests/test_pairwise.py::test_kernel_matches_reference_on_valid_usos"],
    ),
    # the whole-text label reader
    (
        "whole-text label reader at dimension 0",
        "formats.py",
        "    if dim > 0 and re.fullmatch(",
        "    if re.fullmatch(",
        [LABEL_TEXT],
    ),
    (
        "whole-text label reader without the repeat test",
        "formats.py",
        "        if 2 * len(labels) == len(words):\n",
        "        if labels or not words:\n",
        [LABEL_TEXT],
    ),
    (
        "whole-text label reader taking any digit in a tile",
        "formats.py",
        "[0-3]{{{dim}}} [1-9]",
        "[0-9]{{{dim}}} [1-9]",
        [LABEL_TEXT],
    ),
]

EQUIVALENT = [
    (
        # the face patterns' (fixed, free) pairs are all disjoint pairs of
        # k-bit words, a set the swap maps onto itself, and the face scan
        # asks every pair of that set
        "_face_masks with fixed and free swapped",
        "cube.py",
        "    return tuple((f.fixed_values, f.free_mask) for f in faces)\n",
        "    return tuple((f.free_mask, f.fixed_values) for f in faces)\n",
    ),
    (
        # apart is symmetric, so this transposes joined, and linked is
        # joined or its transpose: the same undirected graph
        "kernel with lower and upper endpoints swapped",
        "transform.py",
        "(words[:, :m, None] ^ words[:, None, m:])",
        "(words[:, m:, None] ^ words[:, None, :m])",
    ),
    (
        # joined and its transpose are the two vertex pairs straddling i
        # that one pair of i-edges has.  Forward reach alone gave the same
        # classes on every k <= 3 table at every coordinate, on all 744^2
        # combed joins (which covers every k = 4 USO at every coordinate)
        # and on 378,165 k = 5 walk cases; that is not a proof.
        "pair rule without the transpose",
        "transform.py",
        "    return joined | joined.transpose(0, 2, 1)\n",
        "    return joined\n",
    ),
    (
        # one more round turns the start into linked @ index.weights
        "kernel starting from each edge alone",
        "transform.py",
        "    masks = linked @ index.weights\n",
        "    masks = np.broadcast_to(index.weights, linked.shape[:2])\n",
    ),
]


def _pytest(src: Path, tests) -> int:
    # no bytecode: a mutant of the same size and second as a cached .pyc
    # would otherwise be read from that cache
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True)
    return done.returncode


def main() -> int:
    stale = [
        name
        for name, file, old, *_ in MUTANTS + EQUIVALENT
        if (ROOT / "src" / "usokit" / file).read_text().count(old) != 1
    ]
    for name in stale:
        print(f"{name}: old text not found exactly once", file=sys.stderr)
    if stale:
        return 1
    survived = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for *_, named in MUTANTS for t in named})
        if _pytest(src, tests) != 0:
            print("the named tests fail on the unchanged source", file=sys.stderr)
            return 1
        for name, file, old, new, named in MUTANTS:
            path = src / "usokit" / file
            text = path.read_text()
            path.write_text(text.replace(old, new))
            code = _pytest(src, named)
            path.write_text(text)
            # the unchanged copy passed, so any failure (a test, or a module
            # that no longer imports or collects) is the mutant's
            print(f"{name}: {f'killed (pytest exit {code})' if code else 'SURVIVED'}")
            if not code:
                survived.append(name)
    print(f"{len(MUTANTS)} mutants, {len(EQUIVALENT)} equivalent, "
          f"{time.perf_counter() - start:.1f} s")
    for name in survived:
        print(f"survived: {name}", file=sys.stderr)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
