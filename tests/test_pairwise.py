"""The pairwise kernel: numpy blocks against the reference loop, and the
checks that ride on it (header cap, no asserts, exit code 3)."""

import ast
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
from usokit import cli
from usokit.cube import _pairwise_ok
from usokit.pairwise import (
    KERNEL_MIN_DIM,
    _incompatible_pairs_np,
    _incompatible_pairs_py,
    incompatible_pairs,
)
from usokit.tiling import incompatible_tiles, low_bits_mask

SRC = Path(__file__).resolve().parent.parent / "src"


def seeded_uso(k, seed):
    """A non-canonical k-dimensional USO: a walk, or a product of walks."""
    if k <= 5:
        return uso_from_tiles(sample_markov(k, 60, seed))
    a = k // 2
    frame = uso_from_tiles(sample_markov(a, 60, seed))
    parts = {
        v: uso_from_tiles(sample_markov(k - a, 60, seed * 100 + v))
        for v in range(1 << a)
    }
    return product(frame, parts)


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


def test_words_wider_than_the_kernel_take_the_loop():
    # no numpy dtype holds these; the loop still answers
    wide = 1 << 80
    x = [wide * a for a in range(1 << KERNEL_MIN_DIM)]
    y = [0] * len(x)
    assert first(incompatible_pairs(x, y, 81)) is None


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
