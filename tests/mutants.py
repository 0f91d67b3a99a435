"""Mutation sweep: every mutant below must make its tests fail.

An entry of MUTANTS is (name, file under src/usokit, exact old text, new
text, tests).  For each entry the sweep copies src/ to a temporary
directory of its own, makes the one substitution and runs ``pytest -x`` on
the named tests in one child process with that copy on PYTHONPATH; the
child must fail.  Two children run at once, and their results print in
entry order.  Before any mutant, the same tests run once, alone, on an
unchanged copy and must pass, so a failure is the mutant's doing.  An
entry whose old text is not found exactly once fails the sweep, so entries
cannot go stale.

EQUIVALENT holds mutants that no test should kill, each with its reason.
Their old text must still be found exactly once; they are not run.

    python tests/mutants.py

About 60 s on two cores.  Exits 1 and names every mutant that survived or
no longer applies.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the batch closure's return: each class at its lowest edge, 0 elsewhere
LOWEST = "return np.where(masks & index.weights - 1, 0, masks)\n"

KERNEL_LOOP = f"""\
    while True:
        grown = np.bitwise_or.reduce(linked * masks[:, :, None], axis=1)
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
REVERSAL = "tests/test_transform.py::test_reversal_is_the_per_edge_loop"
SMALL_TABLES = "tests/test_pairwise.py::test_recursion_decides_every_small_table_as_the_definition"
SEEDED_TABLES = "tests/test_pairwise.py::test_recursion_matches_the_definition_on_seeded_tables"
BIG_TABLES = "tests/test_pairwise.py::test_recursion_matches_the_pair_test_on_corrupted_products"
SPLICE = "tests/test_rewrite.py::test_block_splice_is_the_loop"
FUSED = "tests/test_transform.py::test_fused_pair_rule_is_the_broadcast_rule"
DOORS = "tests/test_cube.py::test_value_doors_refuse_what_is_not_in_range"
EVERY_K = "tests/test_pairwise.py::test_the_verdict_is_the_recursion_at_every_k"
CROSS_CHECK = "tests/test_cli.py::test_validate_cross_checks_with_the_other_vertex_test"
BLOCK_WORDS = "tests/test_enumeration.py::test_block_words_are_next_u64"
REFERENCE_WALK = "tests/test_enumeration.py::test_walk_is_the_reference_walk"
FROZEN_STATES = "tests/test_enumeration.py::test_chain_states_are_frozen_values"

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
        "    masks = np.bitwise_or.reduce(linked * masks[:, :, None], axis=1)\n    " + LOWEST,
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
        "        masks = np.bitwise_or.reduce(linked * masks[:, :, None], axis=1)\n"
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
        "        word |= classes[(pick & -pick).bit_length() - 1]\n",
        "        word = classes[(pick & -pick).bit_length() - 1]\n",
        ["tests/test_enumeration.py::test_phase_walk_mixes_exactly"],
    ),
    # the one-XOR reversal and the walk's lazy states
    (
        "reversal table without the upper endpoint's lane",
        "transform.py",
        "[ibit << 8 * v | ibit << 8 * (v | ibit) for v in",
        "[ibit << 8 * v for v in",
        ["tests/test_enumeration.py::test_walk_stays_on_tilings"],
    ),
    (
        # no word below k = 5 has a second byte
        "reversal ignoring the edge word's second byte",
        "transform.py",
        "        word >>= 8\n",
        "        word = 0\n",
        [REVERSAL + "_at_k5"],
    ),
    (
        "phase_flip reading its table in the other byte order",
        "transform.py",
        'state = int.from_bytes(table, "little")',
        'state = int.from_bytes(table, "big")',
        ["tests/test_transform.py::test_phase_flip_single_class"],
    ),
    (
        "states' tilings built from the walk's first table",
        "enumeration.py",
        "for step, table in walk)",
        "for step, table in walk for table in [bytes(1 << k)])",
        ["tests/test_enumeration.py::test_states_hold_their_steps_tilings"],
    ),
    # the flip walk keeps a coordinate's classes; the stream splices them
    (
        "classes reused across a coordinate change",
        "enumeration.py",
        "            if i != last:\n",
        "            if last is None:\n",
        # the first coordinate's classes and reversal rows: a walk that
        # stays on tilings but flips one coordinate only
        ["tests/test_enumeration.py::test_sample_outputs_are_pinned"],
    ),
    (
        "stream classes not reversed before product",
        "enumeration.py",
        "            for cls in filter(None, reversed(masks)):\n",
        "            for cls in filter(None, masks):\n",
        [REFERENCE],
    ),
    (
        # digit k of the upper facet then reads 1, its low bit, not 2
        "facet tiles setting the connecting digit's low bit",
        "enumeration.py",
        "    high = 2 << 2 * (k - 1)\n",
        "    high = 1 << 2 * (k - 1)\n",
        # the reference loop reads the same tables, so the pinned digests judge
        ["tests/test_enumeration.py::test_join_stream_order_is_pinned"],
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
        # unique_sink, the recursion's oracle, decodes its face through Face
        "Face.fixed_values reads '*' as 1",
        "cube.py",
        'self.pattern.replace("*", "0")',
        'self.pattern.replace("*", "1")',
        [SMALL_TABLES],
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
        "_split places later chunks 4 digits apart",
        "tiling.py",
        "return v | hv << 5, w | hw << 5",
        "return v | hv << 4, w | hw << 4",
        [CODEC],
    ),
    (
        "tile_vertex reads the direction word",
        "tiling.py",
        "    return _split(t)[0]\n",
        "    return _split(t)[1]\n",
        [CODEC],
    ),
    (
        "vertex_outmaps swaps vertex and word",
        "tiling.py",
        "    table[pairs & 0xFFFFFFFF] = pairs >> 32\n",
        "    table[pairs >> 32] = pairs & 0xFFFFFFFF\n",
        ["tests/test_tiling.py::test_vertex_outmaps_matches_the_dict_path"],
    ),
    (
        # two chunks reach k = 10; only a wider tiling sees the third
        "vertex_outmaps skips its third chunk",
        "tiling.py",
        "    for shift in range(5, k, 5):",
        "    for shift in range(5, min(k, 10), 5):",
        [
            "tests/test_tiling.py::test_vertex_outmaps_matches_the_dict_path[11]",
            "tests/test_tiling.py::test_vertex_outmaps_matches_the_dict_path[12]",
        ],
    ),
    (
        "vertex_outmaps ignores a vertex no tile lands on",
        "tiling.py",
        "    return None if (table < 0).any() else table\n",
        "    return table\n",
        ["tests/test_tiling.py::test_vertex_outmaps_matches_the_dict_path"],
    ),
    (
        # the kernels read the numpy table; the verdict keeps it as a list
        "verdict keeping the numpy route's table",
        "tiling.py",
        "list(out) if isinstance(out, bytes) else out.tolist()",
        "list(out) if isinstance(out, bytes) else out",
        [VERDICT],
    ),
    (
        # n tiles on fewer vertices: lanes overlap, or the sum misses one
        "vertex_outmaps without its onto sum",
        "tiling.py",
        "        if sum(map(_VBIT.__getitem__, tiles)) != (1 << n) - 1:\n",
        "        if False:\n",
        ["tests/test_tiling.py::test_vertex_outmaps_matches_the_dict_path"],
    ),
    (
        "split table with vertex and word swapped",
        "tiling.py",
        "key=lambda p: _SPREAD_UP[p[0]] | _SPREAD[p[1]])",
        "key=lambda p: _SPREAD_UP[p[1]] | _SPREAD[p[0]])",
        [VERDICT],
    ),
    (
        "split route taken at k = 6",
        "tiling.py",
        "    if k <= 5:  # every tile is one _SPLIT entry\n",
        "    if k <= 6:  # every tile is one _SPLIT entry\n",
        [
            "tests/test_tiling.py::test_vertex_outmaps_matches_the_dict_path[6]",
            "tests/test_tiling.py::test_vertex_outmaps_matches_the_dict_path[7]",
        ],
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
        "    return _keep_verdict(_tiles_of(o.out, o.dim), o.out)\n",
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
        "[3] * k + [0]",
        "[3] * k + [255]",
        [EDITS],
    ),
    (
        "block reader with a digit bound of 4",
        "tiling.py",
        "[3] * k + [0]",
        "[4] * k + [0]",
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
        "per-key labels taking a bool as a column",
        "rewrite.py",
        "        if type(j) is not int:\n",
        "        if not isinstance(j, int):\n",
        [LABELS],
    ),
    (
        "per-key label keys that are not a str raising TypeError",
        "rewrite.py",
        "        except (TypeError, ValueError):",
        "        except ValueError:",
        [LABELS],
    ),
    # the packed route of the one label reader
    (
        "packed labels without the label-range test",
        "rewrite.py",
        "        if 1 <= min(labels) <= max(labels) <= i and",
        "        if",
        [LABELS],
    ),
    (
        "packed labels taking a bool as a column",
        "rewrite.py",
        " and set(map(type, labels)) == {int}:\n",
        ":\n",
        [LABELS],
    ),
    (
        # a labelling that misses a tile then splices too few tiles, and
        # the count check names the output, not the missing label
        "packed route without its key-count test",
        "rewrite.py",
        " and len(keys) == len(k_set.tiles)",
        "",
        [LABELS],
    ),
    (
        # a stray key in place of a tile is then spliced as a tile
        "packed route without its key-membership test",
        "rewrite.py",
        " and k_set.tiles.issuperset(keys.tolist())",
        "",
        [LABELS],
    ),
    (
        # the labels then pair with the tiles in set order, not key order
        "packed route matching the labels to the tiles, not to their keys",
        "rewrite.py",
        "            return keys, np.array(labels, np.intp) - 1\n",
        "            return np.fromiter(k_set.tiles, np.uint64, len(keys)), np.array(labels, np.intp) - 1\n",
        [LABELS],
    ),
    (
        "packed columns off by one",
        "rewrite.py",
        "            return keys, np.array(labels, np.intp) - 1\n",
        "            return keys, np.array(labels, np.intp)\n",
        [LABELS],
    ),
    (
        "per-key columns off by one",
        "rewrite.py",
        "            columns[tile_pack(s)] = j - 1\n",
        "            columns[tile_pack(s)] = j\n",
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
        # the verdict's test on the vertex table is then the only pair test
        "validate without the tile pair cross-check",
        "cli.py",
        "    if not ts.is_pairwise_adjacent():\n",
        "    if False:\n",
        ["tests/test_cli.py::test_validate_cross_checks_the_other_encoding"],
    ),
    (
        "uso_from_tiles builds its own table",
        "tiling.py",
        "    return _verified(ts.dim, ts._verdict)\n",
        "    return _verified(ts.dim, vertex_outmaps(ts))\n",
        ["tests/test_tiling.py::test_one_vertex_table_per_verdict"],
    ),
    (
        # the same stderr, from a second verdict
        "the CLI names a rejected input through tiling_defect",
        "cli.py",
        "        raise NotATilingError(where + _defect(ts))\n",
        "        from .tiling import tiling_defect\n\n"
        "        raise NotATilingError(where + tiling_defect(ts))\n",
        ["tests/test_cli.py::test_verbs_reject_an_input_from_one_table"],
    ),
    (
        "tiling verdict without its sink test",
        "tiling.py",
        "    ok = out is not None and face_sinks_ok(out, ts.dim)\n",
        "    ok = out is not None\n",
        [VERDICT],
    ),
    (
        "tiling verdict taking a vertex map that is not onto",
        "tiling.py",
        "    ok = out is not None and face_sinks_ok(out, ts.dim)\n",
        "    ok = out is None or face_sinks_ok(out, ts.dim)\n",
        [VERDICT],
    ),
    (
        "_defect naming the first two tiles without the tile scan",
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
        "        v = fixed | deposit[p]\n",
        "        v = fixed | deposit[p ^ 1]\n",
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
    # the face-sink recursion, both routes
    (
        "recursion always keeping the lower facet's sink (numpy route)",
        "pairwise.py",
        "        nxt[:, 2] = np.where(lo & bit, hi, lo)\n",
        "        nxt[:, 2] = lo\n",
        [BIG_TABLES],
    ),
    (
        "recursion always keeping the upper facet's sink (lane route)",
        "pairwise.py",
        "        s |= (lo ^ diff & (lo >> b & ones) * 0xFF) << top\n",
        "        s |= (lo ^ diff) << top\n",
        [SMALL_TABLES],
    ),
    (
        "recursion always keeping the lower facet's sink (lane route)",
        "pairwise.py",
        "        s |= (lo ^ diff & (lo >> b & ones) * 0xFF) << top\n",
        "        s |= lo << top\n",
        [SMALL_TABLES],
    ),
    (
        "recursion without its bit test but on the last pass (lane route)",
        "pairwise.py",
        "        if diff & bit:\n            return False\n",
        "",
        [SMALL_TABLES],
    ),
    (
        # the first pass's faces are all edges, the k-edges
        "recursion without the edge test of its first pass (numpy route)",
        "pairwise.py",
        "        if ((lo ^ hi) & bit).any():\n",
        "        if cols > 1 and ((lo ^ hi) & bit).any():\n",
        [BIG_TABLES],
    ),
    (
        # the first pass reads the 2^k lanes of the table, up to bit 8 << k
        "recursion without the edge test of its first pass (lane route)",
        "pairwise.py",
        "        if diff & bit:\n",
        "        if top > 8 << k and diff & bit:\n",
        [SEEDED_TABLES],
    ),
    (
        # int.from_bytes refuses a table holding a word of 9 bits
        "lanes run one dimension past a byte",
        "pairwise.py",
        "LANE_MAX_DIM = 8\n",
        "LANE_MAX_DIM = 9\n",
        [f"{EVERY_K}[9]"],
    ),
    (
        # int.from_bytes reads an int64 array's buffer, 8 bytes a word
        "lanes reading a tiling's numpy table as it is",
        "pairwise.py",
        "    if not isinstance(out, (bytes, list, tuple)):",
        "    if False:",
        [f"{EVERY_K}[6]"],
    ),
    (
        "_require_uso deciding by the pair test",
        "cube.py",
        "        _keep_verdict(o, face_sinks_ok(o.out, o.dim))\n",
        "        _keep_verdict(o, _pairwise_ok(o.out, o.dim))\n",
        [EVERY_K],
    ),
    (
        "validate cross-checking with the face scan",
        "cli.py",
        '    if not is_uso(o, "pairwise"):\n',
        '    if not is_uso(o, "face-scan"):\n',
        [CROSS_CHECK],
    ),
    (
        "recursion blocks dropping their second half of columns",
        "pairwise.py",
        "return _sinks_agree(s[:, :m], b, cells) and _sinks_agree(s[:, m:], b, cells)",
        "return _sinks_agree(s[:, :m], b, cells)",
        [SEEDED_TABLES],
    ),
    (
        "failing pair block searched from the row's start",
        "pairwise.py",
        "                for c in np.flatnonzero(bad[r, r:]).tolist():\n",
        "                for c in np.flatnonzero(bad[r]).tolist():\n",
        ["tests/test_pairwise.py::test_kernel_gives_every_pair_of_corrupted_tables"],
    ),
    # the block splice
    (
        "block splice ignoring the label column",
        "rewrite.py",
        "        group += np.multiply(columns, 4)\n",
        "        pass\n",
        [SPLICE],
    ),
    (
        "block splice keeping the padding",
        "rewrite.py",
        "    if min(sizes) < width:\n",
        "    if False:\n",
        [SPLICE],
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
    # dimensions and coordinates of the wrong kind
    (
        "a dimension of -1 taken",
        "cube.py",
        "    if k < 0:\n        raise DimensionError(f\"dimension {k} is negative\")",
        "    if k < -1:\n        raise DimensionError(f\"dimension {k} is negative\")",
        ["tests/test_cube.py::test_no_value_has_a_negative_dimension"],
    ),
    (
        "_require_coordinate without its type check",
        "cube.py",
        "    _require_dim(i, \"coordinate\")\n    if not 1 <= i <= k:\n",
        "    if not 1 <= i <= k:\n",
        ["tests/test_transform.py::test_a_coordinate_is_an_int"],
    ),
    (
        "_require_vertex without its type check",
        "cube.py",
        "    _require_dim(v, what)\n",
        "",
        ["tests/test_cube.py::test_named_vertices_are_ints_of_the_cube"],
    ),
    (
        "tile_unpack without its dimension check",
        "tiling.py",
        "    _require_cube_dim(k)\n    _require_tile(t, k)\n    return _unpack(t, k)\n",
        "    _require_tile(t, k)\n    return _unpack(t, k)\n",
        ["tests/test_cube.py::test_a_dimension_parameter_is_an_int"],
    ),
    (
        "tile_unpack without its tile check",
        "tiling.py",
        "    _require_tile(t, k)\n    return _unpack(t, k)\n",
        "    return _unpack(t, k)\n",
        ["tests/test_tiling.py::test_tile_unpack_checks_its_tile"],
    ),
    # one dimension cap for every value, given or derived
    (
        "the cap dropped from _require_cube_dim",
        "cube.py",
        "    if k > MAX_FORMAT_DIM:\n        raise DimensionError",
        "    if k > 2**80:\n        raise DimensionError",
        ["tests/test_cube.py::test_dimension_cap_comes_before_any_table"],
    ),
    (
        "the cap refusing the cap itself",
        "cube.py",
        "    if k > MAX_FORMAT_DIM:\n",
        "    if k >= MAX_FORMAT_DIM:\n",
        ["tests/test_cube.py::test_dimension_cap_admits_the_cap"],
    ),
    (
        "rewrite without the cap on its output dimension",
        "rewrite.py",
        "    _require_cube_dim(new_dim)\n",
        "",
        ["tests/test_rewrite.py::test_rewrite_above_the_cap_raises_before_a_splice"],
    ),
    (
        "product_rule without the cap on its width",
        "rewrite.py",
        "    _require_cube_dim(d + 1)\n",
        "",
        ["tests/test_rewrite.py::test_product_rule_refuses_a_width_above_the_cap"],
    ),
    (
        "product without the cap on k + d",
        "transform.py",
        "    _require_cube_dim(k + d)\n",
        "",
        ["tests/test_transform.py::test_product_refuses_a_dimension_above_the_cap"],
    ),
    (
        "TileSet without its tile check",
        "tiling.py",
        "                _require_tile(t, self.dim)\n",
        "                pass\n",
        ["tests/test_tiling.py::test_every_named_tile_takes_the_one_check"],
    ),
    # the value doors: each check that a vertex, word or tile from a caller
    # is an int, not a bool, in range
    (
        # min("1") then raises a raw TypeError, and True passes as 1
        "TileSet's one pass without its type test",
        "tiling.py",
        "        if not _all_ints(tiles) or tiles and",
        "        if tiles and",
        [DOORS],
    ),
    (
        "TileSet's one pass without its low bound",
        "tiling.py",
        "(min(tiles) < 0 or max(tiles) >> 2 * self.dim)",
        "(max(tiles) >> 2 * self.dim)",
        [DOORS],
    ),
    (
        "TileSet's one pass without its high bound",
        "tiling.py",
        "(min(tiles) < 0 or max(tiles) >> 2 * self.dim)",
        "(min(tiles) < 0)",
        [DOORS],
    ),
    (
        "a table's type test taking a bool",
        "cube.py",
        "    return {int}.issuperset(map(type, values))\n",
        "    return {int, bool}.issuperset(map(type, values))\n",
        [DOORS],
    ),
    (
        # the doors' one value test then takes True as 1 and an IntEnum
        # member as its value, as _all_ints does not
        "_is_word taking an int subclass",
        "cube.py",
        "    return type(w) is int and 0 <= w < n\n",
        "    return isinstance(w, int) and 0 <= w < n\n",
        [DOORS],
    ),
    (
        "_require_dim taking an int subclass",
        "cube.py",
        "    if type(k) is not int:\n",
        "    if not isinstance(k, int):\n",
        [DOORS],
    ),
    (
        "tile_of without its vertex check",
        "tiling.py",
        "    _require_vertex(v, k)\n",
        "",
        [DOORS],
    ),
    (
        "tile_of without its word check",
        "tiling.py",
        "    if not _is_word(out_word, 1 << k):\n",
        "    if False:\n",
        [DOORS],
    ),
    (
        "Orientation without its type pass",
        "cube.py",
        "        if not _all_ints(out):\n",
        "        if False:\n",
        [DOORS],
    ),
    (
        "PartialOrientation taking any word type",
        "cube.py",
        "            if not _is_word(self.out[v], n):\n",
        "            if not 0 <= self.out[v] < n:\n",
        [DOORS],
    ),
    (
        "PartialOrientation taking any vertex type",
        "cube.py",
        "            if not _is_word(v, n):\n",
        "            if not 0 <= v < n:\n",
        [DOORS],
    ),
    (
        # -1 and 2**70 then print as bits, True as vertex 1
        "vertex_bits without its vertex check",
        "cube.py",
        "    _require_cube_dim(k)\n    _require_vertex(v, k)\n    return _bits(v, k)\n",
        "    _require_cube_dim(k)\n    return _bits(v, k)\n",
        [DOORS],
    ),
    (
        # 2**70 then raises a raw OverflowError from the shift
        "edge_at without its coordinate cap",
        "cube.py",
        "    _require_coordinate(i, MAX_FORMAT_DIM)\n",
        "",
        [DOORS],
    ),
    (
        "a vertex with no dimension taking any size",
        "cube.py",
        "    if v < 0 or v >> (MAX_FORMAT_DIM if k is None else k):\n",
        "    if v < 0 or k is not None and v >> k:\n",
        [DOORS],
    ),
    (
        "whole tables taken without the iterable check",
        "cube.py",
        "    try:\n        iter(values)\n",
        "    try:\n        pass\n",
        ["tests/test_cube.py::test_whole_tables_that_are_not_iterable_are_value_errors"],
    ),
    (
        "Face taking a pattern that is not a str",
        "cube.py",
        "        if not isinstance(self.pattern, str):\n",
        "        if False:\n",
        ["tests/test_cube.py::test_whole_tables_that_are_not_iterable_are_value_errors"],
    ),
    (
        "write_labels writing any key",
        "formats.py",
        "    for s in labels:\n        tile_pack(s)\n",
        "",
        ["tests/test_formats.py::test_label_keys_are_tile_words"],
    ),
    (
        # o.out[v] then raises a raw IndexError past the end, and reads
        # from the end at -1
        "restrict reading o before checking its support",
        "cube.py",
        "o.out[v] if _is_word(v, n) else None",
        "o.out[v]",
        [DOORS],
    ),
    (
        "neighbor without its dimension check",
        "cube.py",
        '    """The vertex across the i-edge at v."""\n    _require_cube_dim(k)\n',
        '    """The vertex across the i-edge at v."""\n',
        [DOORS],
    ),
    (
        "tile_pack without its str check",
        "tiling.py",
        "    if not isinstance(s, str):\n",
        "    if False:\n",
        ["tests/test_tiling.py::test_tile_words_are_str"],
    ),
    # one output route: a verb returns its text, and run() writes it
    (
        "run() writing to stdout when --out is given",
        "cli.py",
        '        if getattr(args, "out", None):\n',
        "        if False:\n",
        ["tests/test_cli.py::test_count"],
    ),
    (
        "run() writing only the first chunk",
        "cli.py",
        "            sys.stdout.writelines(chunks)\n",
        "            sys.stdout.writelines(list(chunks)[:1])\n",
        ["tests/test_cli.py::test_enumerate_stdout_and_file"],
    ),
    (
        "the shared --h without its number type",
        "cli.py",
        '"--h": {"type": _integer, "required": True}',
        '"--h": {"required": True}',
        [
            "tests/test_cli.py::test_parser_arguments_are_pinned",
            "tests/test_cli.py::test_flip_and_mirror",
        ],
    ),
    (
        # the stream is then made before run() opens --out
        "enumerate building its whole text first",
        "cli.py",
        '    return (("\\n" if idx else "") + write_tiling(ts) for idx, ts in enumerate(stream))\n',
        '    return [("\\n" if idx else "") + write_tiling(ts) for idx, ts in enumerate(stream)]\n',
        ["tests/test_cli.py::test_out_directory_fails_before_the_stream"],
    ),
    (
        "phase lines without their newline",
        "cli.py",
        'for e in sorted(cls)) + "\\n"\n',
        "for e in sorted(cls))\n",
        ["tests/test_cli.py::test_phases_output"],
    ),
    # the fused pair rule, held to the broadcast rule it replaced; the
    # classes alone cannot see the first two (forward reach alone gave the
    # same classes on every k <= 3 table at every coordinate, on all 744^2
    # combed joins, which covers every k = 4 USO at every coordinate, and
    # on 378,165 k = 5 walk cases; that is not a proof)
    (
        "pair cells with their ends swapped in half 1",
        "transform.py",
        "np.stack([p, q]), np.stack([q, p]) | 1 << (i - 1)",
        "np.stack([p, p]), np.stack([q, q]) | 1 << (i - 1)",
        [FUSED],
    ),
    (
        "pair rule with half 0 alone",
        "transform.py",
        "    return ok[..., 0] | ok[..., 1]\n",
        "    return ok[..., 0]\n",
        [FUSED],
    ),
    (
        "pair rule without the apart compare",
        "transform.py",
        " & index.apart == index.apart\n",
        " & index.apart != 0\n",
        [FUSED],
    ),
    (
        "power-of-two draw returning z & n",
        "enumeration.py",
        "            return self.next_u64() & n - 1\n",
        "            return self.next_u64() & n\n",
        ["tests/test_enumeration.py::test_randbelow_is_the_rejection_rule"],
    ),
    (
        "randbelow taking a bool or a float",
        "enumeration.py",
        "        if type(n) is not int or not 0 < n <= 1 << 64:\n",
        "        if not 0 < n <= 1 << 64:\n",
        [DOORS],
    ),
    (
        # 2**70 is a power of two, so the mutant returns a draw, not a hang
        "randbelow without the 2^64 bound",
        "enumeration.py",
        "        if type(n) is not int or not 0 < n <= 1 << 64:\n",
        "        if type(n) is not int or not 0 < n:\n",
        [DOORS],
    ),
    (
        "SplitMix64 seeded by any value",
        "enumeration.py",
        '        _require_int(seed, "seed")\n        self.state',
        "        self.state",
        ["tests/test_enumeration.py::test_splitmix_seed_is_an_int"],
    ),
    # the walk's words, a numpy block at a time, and its chain states
    (
        "block counter starting at 0",
        "enumeration.py",
        "np.arange(1, _BLOCK + 1, dtype=np.uint64)",
        "np.arange(_BLOCK, dtype=np.uint64)",
        [BLOCK_WORDS],
    ),
    (
        # the first block is right; every later one starts a block late
        "block base advanced by twice the block",
        "enumeration.py",
        "count(0, _BLOCK)",
        "count(0, 2 * _BLOCK)",
        [BLOCK_WORDS],
    ),
    (
        "block base advanced by a block of strides, not of counters",
        "enumeration.py",
        "(seed + start * _GAMMA & _MASK64)",
        "(seed + start & _MASK64)",
        [BLOCK_WORDS],
    ),
    (
        "walk taking the words above the coordinate's threshold",
        "enumeration.py",
        "            while z >= threshold:\n                z = next(words)\n",
        "",
        [REFERENCE_WALK],
    ),
    (
        "walk's threshold a word too low",
        "enumeration.py",
        "    threshold = (1 << 64) - (1 << 64) % k if k else 0\n",
        "    threshold = _MASK64 - (1 << 64) % k if k else 0\n",
        [REFERENCE_WALK],
    ),
    (
        "walk picking classes from a word's high bits",
        "enumeration.py",
        "next(words) & picks",
        "next(words) >> 64 - len(classes)",
        [REFERENCE_WALK],
    ),
    (
        "chain states equal to their plain tuples",
        "enumeration.py",
        "        return other.__class__ is self.__class__ and tuple.__eq__(self, other)\n",
        "        return tuple.__eq__(self, other)\n",
        [FROZEN_STATES],
    ),
    (
        "chain states taking new attributes",
        "enumeration.py",
        '        raise FrozenInstanceError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        [FROZEN_STATES],
    ),
]

EQUIVALENT = [
    (
        # k = 8 then takes the numpy recursion, which decides the same
        # property; the choice between the two routes there is speed alone
        "k = 8 verdicts on numpy, not on lanes",
        "pairwise.py",
        "LANE_MAX_DIM = 8\n",
        "LANE_MAX_DIM = 7\n",
    ),
    (
        # inverted, each pass keeps the facet sink whose edge leaves,
        # which is the face's source when the bits agree: the recursion
        # then asks for a unique source in every face, that is a unique
        # sink in every face of the reversed orientation, and reversing
        # every edge keeps an USO an USO and a non-USO a non-USO
        "recursion keeping the sink whose edge leaves",
        "pairwise.py",
        "        nxt[:, 2] = np.where(lo & bit, hi, lo)\n",
        "        nxt[:, 2] = np.where(lo & bit, lo, hi)\n",
    ),
    (
        # half 0 becomes the old half 1 and half 1 the old half 0, and the
        # rule ORs the two halves
        "pair cells with their halves exchanged",
        "transform.py",
        "np.stack([p, q]), np.stack([q, p]) | 1 << (i - 1)",
        "np.stack([q, p]), np.stack([p, q]) | 1 << (i - 1)",
    ),
    (
        # one more round turns the start into linked @ index.weights
        "kernel starting from each edge alone",
        "transform.py",
        "    masks = linked @ index.weights\n",
        "    masks = np.broadcast_to(index.weights, linked.shape[:2])\n",
    ),
]


def _pytest(src: Path, tests, cache: Path) -> int:
    # every child writes and reads bytecode in one shared cache, so pytest,
    # hypothesis and the test modules compile once; a .pyc path there holds
    # its source copy's directory, so no child reads another mutant's
    # bytecode
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
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
        cache = Path(tmp) / "pycache"

        def copy(name: str) -> Path:
            src = Path(tmp) / name
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            return src

        tests = sorted({t for *_, named in MUTANTS for t in named})
        if _pytest(copy("baseline"), tests, cache) != 0:
            print("the named tests fail on the unchanged source", file=sys.stderr)
            return 1

        def attempt(n: int) -> int:
            _, file, old, new, named = MUTANTS[n]
            src = copy(f"mutant{n}")
            path = src / "usokit" / file
            path.write_text(path.read_text().replace(old, new))
            return _pytest(src, named, cache)

        # one child per core; map hands the exit codes back in entry order
        with ThreadPoolExecutor(2) as pool:
            for (name, *_), code in zip(MUTANTS, pool.map(attempt, range(len(MUTANTS)))):
                # the unchanged copy passed, so any failure (a test, or a
                # module that no longer imports or collects) is the mutant's
                print(f"{name}: {f'killed (pytest exit {code})' if code else 'SURVIVED'}",
                      flush=True)
                if not code:
                    survived.append(name)
    print(f"{len(MUTANTS)} mutants, {len(EQUIVALENT)} equivalent, "
          f"{time.perf_counter() - start:.1f} s")
    for name in survived:
        print(f"survived: {name}", file=sys.stderr)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
