"""The pairwise kernel: numpy blocks against the reference loop, and the
checks that ride on it (header cap, no asserts, exit code 3)."""

import ast
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

from usokit import (
    MAX_FORMAT_DIM,
    FormatError,
    InternalError,
    NotAnUsoError,
    TileSet,
    flip_edges,
    flippable_edges,
    is_tiling,
    product,
    read_orientation,
    read_rule,
    read_tiling,
    sample_markov,
    tile_of,
    tiles_from_uso,
    uso_from_tiles,
    write_tiling,
)
from usokit import cli, pairwise
from usokit.cube import Face, _consistent, _pairwise_ok, _require_uso, unique_sink
from usokit.pairwise import (
    KERNEL_MIN_DIM,
    LANE_MAX_DIM,
    _face_sinks_ok_int,
    _face_sinks_ok_np,
    _incompatible_pairs_np,
    _incompatible_pairs_py,
    face_sinks_ok,
    incompatible_pairs,
)
from usokit.tiling import _tiles_of, _tiling_ok, incompatible_tiles, low_bits_mask

SRC = Path(__file__).resolve().parent.parent / "src"


def seeded_uso(k, seed):
    """A non-canonical k-dimensional USO: a walk, or a product of walks."""
    if k <= 5:
        return uso_from_tiles(sample_markov(k, 60, seed))
    a = k // 2
    parts = {v: seeded_uso(k - a, seed * 100 + v) for v in range(1 << a)}
    return product(seeded_uso(a, seed), parts)


def corrupted(o, seed):
    """o with one non-flippable edge reversed: never an USO."""
    rng = random.Random(seed)
    flippable = flippable_edges(o)
    edges = [e for e in o.edges() if e not in flippable]
    return flip_edges(o, [rng.choice(edges)])


def tile_words(out, k):
    tiles = sorted(tile_of(v, w, k) for v, w in enumerate(out))
    lo = low_bits_mask(k)
    return [t >> 1 & lo for t in tiles], tiles


def first(pairs):
    return next(iter(pairs), None)


CASES = [(k, seed) for k in range(3, 9) for seed in (1, 2)]


@pytest.mark.parametrize("k,seed", CASES)
def test_kernel_matches_reference_on_valid_usos(k, seed):
    o = seeded_uso(k, seed)
    verts = tuple(range(1 << k))
    assert first(_incompatible_pairs_py(verts, o.out)) is None
    assert first(_incompatible_pairs_np(verts, o.out, k)) is None
    assert _pairwise_ok(o.out, k)
    hi, tiles = tile_words(o.out, k)
    assert first(_incompatible_pairs_py(hi, tiles)) is None
    assert first(_incompatible_pairs_np(hi, tiles, 2 * k)) is None
    assert is_tiling(TileSet(k, frozenset(tiles)))


@pytest.mark.parametrize("k,seed", CASES)
def test_kernel_matches_reference_on_one_reversed_edge(k, seed):
    bad = corrupted(seeded_uso(k, seed), seed)
    verts = tuple(range(1 << k))
    want = first(_incompatible_pairs_py(verts, bad.out))
    assert want is not None
    assert first(_incompatible_pairs_np(verts, bad.out, k)) == want
    assert first(incompatible_pairs(verts, bad.out, k)) == want
    assert not _pairwise_ok(bad.out, k)
    hi, tiles = tile_words(bad.out, k)
    want = first(_incompatible_pairs_py(hi, tiles))
    assert want is not None
    assert first(_incompatible_pairs_np(hi, tiles, 2 * k)) == want
    assert first(incompatible_tiles(tiles, k)) == (tiles[want[0]], tiles[want[1]])
    assert not is_tiling(TileSet(k, frozenset(tiles)))


@pytest.mark.parametrize("cells", [1, 7, 64, 1000])
def test_small_blocks_give_every_pair_in_order(cells):
    rng = random.Random(cells)
    n = 40
    x = [rng.randrange(8) for _ in range(n)]
    y = [rng.randrange(8) for _ in range(n)]
    want = list(_incompatible_pairs_py(x, y))
    assert len(want) > 1
    assert list(_incompatible_pairs_np(x, y, 3, cells)) == want


def test_blocks_stop_at_the_first_failure():
    k = 8
    bad = corrupted(seeded_uso(k, 3), 3)
    verts = tuple(range(1 << k))
    want = list(islice(_incompatible_pairs_py(verts, bad.out), 3))
    assert list(islice(_incompatible_pairs_np(verts, bad.out, k, 50), 3)) == want


def endpoint_flipped(o, seed, i=None):
    """o with one end of one i-edge reversed: its two ends disagree."""
    rng = random.Random(seed)
    out = list(o.out)
    out[rng.randrange(len(out))] ^= 1 << ((i or rng.randrange(1, o.dim + 1)) - 1)
    return out


def words_swapped(o, seed):
    """o with the words of two vertices swapped."""
    rng = random.Random(seed)
    u, v = rng.sample(range(len(o.out)), 2)
    out = list(o.out)
    out[u], out[v] = out[v], out[u]
    return out


@pytest.mark.parametrize("k", range(5, 9))
def test_kernel_gives_every_pair_of_corrupted_tables(k):
    # a failing block is searched row by row: the same pairs in the same
    # order as the loop, whichever corruption and block size
    o = seeded_uso(k, k)
    verts = tuple(range(1 << k))
    for out in (corrupted(o, k).out, endpoint_flipped(o, k), words_swapped(o, k)):
        want = list(_incompatible_pairs_py(verts, out))
        assert want
        assert list(_incompatible_pairs_np(verts, out, k)) == want
        assert list(_incompatible_pairs_np(verts, out, k, 50)) == want


def test_the_widest_words_take_the_kernel(monkeypatch):
    # tiles of MAX_FORMAT_DIM digits fill a uint64, bit 63 included, and a
    # set's size alone sends them through numpy: the loop's pairs in order
    k = MAX_FORMAT_DIM
    top = 3 << 2 * k - 2
    tiles = [top | t for t in range(1 << KERNEL_MIN_DIM)]
    highs = [t >> 1 & low_bits_mask(k) for t in tiles]
    want = list(_incompatible_pairs_py(highs, tiles))
    assert want and max(tiles) >> 63
    monkeypatch.setattr(pairwise, "_incompatible_pairs_py", None)
    assert list(incompatible_tiles(tiles, k)) == [(tiles[a], tiles[b]) for a, b in want]


# ---------------------------------------------------------------------------
# the face-sink recursion


def literal_ok(out, k):
    """The definition: unique_sink's search finds one sink in every face."""
    o = _consistent(k, out)
    faces = itertools.product("01*", repeat=k)
    return all(isinstance(unique_sink(o, Face("".join(f))), int) for f in faces)


def sink_tests(out, k):
    """Each route of the recursion, the pair test and the literal search."""
    return [
        _face_sinks_ok_int(out, k),
        _face_sinks_ok_np(out, k),
        _face_sinks_ok_np(out, k, 1),
        _pairwise_ok(out, k),
        literal_ok(out, k),
    ]


def test_recursion_decides_every_small_table_as_the_definition():
    # every table of k-bit words, edge-consistent or not, at k <= 2
    for k, usos in ((0, 1), (1, 2), (2, 12)):
        n = 1 << k
        hits = 0
        for out in itertools.product(range(n), repeat=n):
            verdicts = sink_tests(out, k)
            assert len(set(verdicts)) == 1, (k, out, verdicts)
            hits += verdicts[0]
        assert hits == usos


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_recursion_matches_the_definition_on_seeded_tables(k):
    rng = random.Random(k)
    n = 1 << k
    edges = [(v, 1 << i) for i in range(k) for v in range(n) if not v >> i & 1]
    for seed in range(60):
        # any words, an edge-consistent table from one bit per edge, and a
        # walk's USO as it is, with one edge reversed and with one end of
        # an edge reversed
        consistent = [0] * n
        for v, bit in edges:
            if rng.getrandbits(1):
                consistent[v] |= bit
                consistent[v | bit] |= bit
        o = seeded_uso(k, seed)
        tables = [
            [rng.randrange(n) for _ in range(n)],
            consistent,
            o.out,
            corrupted(o, seed).out,
            endpoint_flipped(o, seed),
        ]
        verdicts = [sink_tests(out, k) for out in tables]
        for out, got in zip(tables, verdicts):
            assert len(set(got)) == 1, out
        assert [got[0] for got in verdicts[2:]] == [True, False, False]


def test_recursion_accepts_every_k3_uso(catalogue3):
    assert len(catalogue3) == 744
    for ts in catalogue3:
        assert sink_tests(uso_from_tiles(ts).out, 3) == [True] * 5


def corrupted_products(k):
    """A seeded USO of dimension k, and the corruptions of its table that k
    has room for: four from k = 2, two at k = 1, none at k = 0."""
    o = seeded_uso(k, k)
    tables = [o.out]
    if k >= 2:
        tables += [corrupted(o, k).out, words_swapped(o, k)]
    if k >= 1:
        # one end of an edge reversed at the top coordinate, the first
        # pass's, and at a random one
        tables += [endpoint_flipped(o, k, k), endpoint_flipped(o, k + 1)]
    return tables


@pytest.mark.parametrize("k", [*range(11), 12])
def test_the_verdict_is_the_recursion_at_every_k(k, monkeypatch):
    # _require_uso and _tiling_ok give the pair test's verdict without
    # running it: the face-sink recursion decides at every k, on byte lanes
    # up to LANE_MAX_DIM (a tiling's numpy table converted to them) and on
    # numpy above
    import usokit.cube

    tables = corrupted_products(k)
    want = [_pairwise_ok(out, k) for out in tables]
    assert want == [True] + [False] * (len(tables) - 1)

    def pair_test(out, k):
        raise RuntimeError("a verdict ran the pair test")

    monkeypatch.setattr(usokit.cube, "_pairwise_ok", pair_test)
    got = []
    for out in tables:
        try:
            _require_uso(_consistent(k, out))
            got.append(True)
        except NotAnUsoError:
            got.append(False)
    assert got == want
    assert [_tiling_ok(_tiles_of(out, k)) for out in tables] == want


@pytest.mark.parametrize("k", [LANE_MAX_DIM + 1, 10, 12])
def test_recursion_matches_the_pair_test_on_corrupted_products(k):
    verdicts = []
    for out in corrupted_products(k):
        ok = face_sinks_ok(out, k)
        assert _pairwise_ok(out, k) == ok
        # columns split into blocks; sink_tests splits down to one column
        for cells in (3 ** (k - 4), 3 ** (k - 2)):
            assert _face_sinks_ok_np(out, k, cells) == ok
        verdicts.append(ok)
    assert verdicts == [True] + [False] * 4


# ---------------------------------------------------------------------------
# header cap


def test_huge_header_is_rejected_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="exceeds the cap"):
            read_tiling("uso 99999999999\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "reader,text",
    [
        (read_tiling, f"uso {MAX_FORMAT_DIM + 1}\n"),
        (read_orientation, f"o {MAX_FORMAT_DIM + 1}\n"),
        (read_rule, f"rule d={MAX_FORMAT_DIM + 1} i=1\n"),
    ],
)
def test_every_header_dimension_is_capped(reader, text):
    with pytest.raises(FormatError, match="exceeds the cap"):
        reader(text)


def test_cli_header_cap_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "huge.uso"
    f.write_text("uso 99999999999\n")
    assert cli.run(["validate", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: parse: dimension")


# ---------------------------------------------------------------------------
# internal checks


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted((SRC / "usokit").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_internal_error_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    f = tmp_path / "t.uso"
    f.write_text("uso 2\n01\n03\n20\n22\n")
    monkeypatch.setattr(cli, "twins", lambda ts: set())
    assert cli.run(["validate", str(f)]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal: 2 flippable edges but 0 twin pairs\n"
    assert InternalError.category == "internal"


def test_validate_under_optimize_matches_run(tmp_path, capsys):
    f = tmp_path / "k6.uso"
    f.write_text(write_tiling(tiles_from_uso(seeded_uso(KERNEL_MIN_DIM + 1, 5))))
    assert cli.run(["validate", str(f)]) == 0
    want = capsys.readouterr().out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-O", "-m", "usokit.cli", "validate", str(f)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == want
