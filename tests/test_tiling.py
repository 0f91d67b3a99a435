import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from usokit import (
    MAX_SAMPLE_DIM,
    NotATilingError,
    NotAnUsoError,
    Orientation,
    PartialTileSet,
    TileSet,
    bow,
    canonical_orientation,
    canonical_tiles,
    flip_dimension,
    gk_adjacent,
    is_tiling,
    is_uso,
    product,
    sample_markov,
    tile_of,
    tile_pack,
    tile_unpack,
    tiles_from_uso,
    tiling_defect,
    twins,
    uso_from_tiles,
    write_tiling,
)
from usokit.cube import _pairwise_ok
from usokit.tiling import (
    _SPLIT,
    _SPREAD,
    _tiles_of,
    incompatible_tiles,
    tile_out,
    tile_vertex,
    vertex_outmaps,
)

tile_strings = st.text(alphabet="0123", min_size=2, max_size=2)


def test_gk_adjacent_examples():
    assert gk_adjacent("01", "21")
    assert not gk_adjacent("20", "23")
    assert not gk_adjacent("00", "00")


def test_gk_adjacent_rejects_length_mismatch():
    with pytest.raises(ValueError):
        gk_adjacent("01", "210")


@given(tile_strings, tile_strings)
def test_packed_adjacency_matches_strings(u, v):
    want = any(abs(int(a) - int(b)) == 2 for a, b in zip(u, v))
    assert gk_adjacent(u, v) == want


# up to 12 digits, so words cross tile_unpack's 5-digit chunks
tile_words = st.text(alphabet="0123", max_size=12)


@given(tile_words)
def test_tile_pack_round_trip(s):
    t = tile_pack(s)
    assert t == sum(int(c) << (2 * i) for i, c in enumerate(s))
    assert tile_unpack(t, len(s)) == s


# forms int() would read, and padding, which the readers strip before a
# word reaches the codec: each is rejected at its first stray character
LOOSE_WORDS = [
    ("0_1", "_"),
    ("+1", "+"),
    ("\uff10\uff11", "\uff10"),
    ("\u0660\u0661", "\u0660"),
    (" 01", " "),
    ("01 ", " "),
]


@pytest.mark.parametrize("word,bad", LOOSE_WORDS)
def test_tile_pack_takes_only_ascii_digits(word, bad):
    with pytest.raises(ValueError, match=f"^bad tile character {re.escape(repr(bad))}$"):
        tile_pack(word)


@given(st.text(alphabet="0123", min_size=1, max_size=6))
def test_tile_digit_maps(s):
    # the tile jointly encodes a vertex (high bit) and a direction word (low bit)
    t = tile_pack(s)
    k = len(s)
    v = tile_vertex(t, k)
    o = tile_out(t, k)
    for i, ch in enumerate(s, start=1):
        assert v >> (i - 1) & 1 == (int(ch) >= 2)
        assert o >> (i - 1) & 1 == (int(ch) % 2)
    assert tile_of(v, o, k) == t


# the per-bit loops the codec replaced, kept as its oracle


def _reference_vertex(t, k):
    v = 0
    for i in range(k):
        v |= (t >> (2 * i + 1) & 1) << i
    return v


def _reference_out(t, k):
    w = 0
    for i in range(k):
        w |= (t >> (2 * i) & 1) << i
    return w


def _reference_tile_of(v, out_word, k):
    t = 0
    for i in range(k):
        t |= ((v >> i & 1) << 1 | (out_word >> i & 1)) << (2 * i)
    return t


def _reference_outmaps(ts):
    k = ts.dim
    out = {_reference_vertex(t, k): _reference_out(t, k) for t in ts.tiles}
    if len(ts.tiles) != 1 << k or len(out) != 1 << k:
        return None
    return [out[v] for v in range(1 << k)]


def _table(ts):
    """vertex_outmaps(ts) as a list of ints (its numpy route gives an
    array), or None."""
    out = vertex_outmaps(ts)
    return None if out is None else [int(w) for w in out]


def test_spread_table_is_the_per_bit_spread():
    # _SPREAD is cube._subset_ors of the ten spread bits
    assert _SPREAD == [sum((x >> b & 1) << 2 * b for b in range(10)) for x in range(1024)]


@st.composite
def codec_cases(draw):
    k = draw(st.integers(0, 32))
    t = draw(st.integers(0, (1 << 2 * k) - 1))
    if k and draw(st.booleans()):
        t |= 1 << (2 * k - 1)  # the last digit's high bit: bit 63 at k=32
    v = draw(st.integers(0, (1 << k) - 1))
    o = draw(st.integers(0, (1 << k) - 1))
    return k, t, v, o


@given(codec_cases())
@example((32, (1 << 64) - 1, (1 << 32) - 1, (1 << 32) - 1))
@example((32, 1 << 63, 1 << 31, 0))
@example((0, 0, 0, 0))
def test_codec_matches_the_per_bit_loops(case):
    k, t, v, o = case
    assert tile_vertex(t, k) == _reference_vertex(t, k)
    assert tile_out(t, k) == _reference_out(t, k)
    assert tile_of(v, o, k) == _reference_tile_of(v, o, k)


def _walk_product(k, seed):
    """A 16-step walk up to k = 4; above, its product with one k - 4 part."""
    walk = uso_from_tiles(sample_markov(min(k, 4), 16, seed))
    if k <= 4:
        return walk
    part = _walk_product(k - 4, seed + 10)
    return product(walk, {v: part for v in range(16)})


def _outmap_cases(k):
    """A tiling, a set with two tiles on one vertex, one tile short, one
    over; at k = 0 the tiling and the empty set."""
    ts = tiles_from_uso(_walk_product(k, 40 + k))
    tiles = sorted(ts.tiles)
    if k == 0:
        return [ts, TileSet(0, ())]
    # the first tile moved onto the second one's vertex, keeping its word
    moved = tile_of(tile_vertex(tiles[1], k), tile_out(tiles[0], k), k)
    if moved == tiles[1]:
        moved = tile_of(tile_vertex(tiles[1], k), tile_out(tiles[0], k) ^ 1, k)
    spare = next(t for t in range(1 << 2 * k) if t not in ts.tiles)
    return [
        ts,
        TileSet(k, frozenset([moved, *tiles[1:]])),
        TileSet(k, frozenset(tiles[1:])),
        TileSet(k, frozenset([spare, *tiles])),
    ]


@pytest.mark.parametrize("k", range(13))
def test_vertex_outmaps_matches_the_dict_path(k):
    # both routes: the split table up to 5 digits, numpy from k = 6, in
    # two 5-digit chunks up to k = 10 and three above
    good, *bad = _outmap_cases(k)
    assert _table(good) == _reference_outmaps(good) == list(uso_from_tiles(good).out)
    for ts in bad:
        assert _reference_outmaps(ts) is None
        assert vertex_outmaps(ts) is None


@given(st.integers(4, 6).flatmap(
    lambda k: st.tuples(st.just(k), st.sets(st.integers(0, (1 << 2 * k) - 1), max_size=1 << k))
))
def test_vertex_outmaps_matches_the_dict_path_random(case):
    k, tiles = case
    ts = TileSet(k, frozenset(tiles))
    assert _table(ts) == _reference_outmaps(ts)


def test_split_table_is_the_compact_ladder():
    # the one decoding table against the per-bit loops
    assert _SPLIT == [(_reference_vertex(t, 5), _reference_out(t, 5)) for t in range(1024)]


@pytest.mark.parametrize("k", [*range(11), 12])
def test_tiles_of_matches_the_per_bit_loops(k):
    rnd = random.Random(k)
    out = [rnd.getrandbits(k) for _ in range(1 << k)]
    want = frozenset(_reference_tile_of(v, w, k) for v, w in enumerate(out))
    assert _tiles_of(out, k).tiles == want


def test_is_tiling_examples():
    assert is_tiling(canonical_tiles(2))
    assert is_tiling(bow())
    assert not is_tiling(TileSet.from_strings(["00", "02", "20", "23"]))
    assert not is_tiling(TileSet.from_strings(["00", "02", "20"], dim=2))


def test_uso_from_tiles_known_orientations():
    assert uso_from_tiles(canonical_tiles(2)) == canonical_orientation(2)
    o = uso_from_tiles(bow())
    # out(0,0)=(0,1), out(1,0)=(0,0), out(0,1)=(0,1), out(1,1)=(0,0)
    assert o.out == (2, 0, 2, 0)
    assert uso_from_tiles(TileSet.from_strings(["0", "2"])) == canonical_orientation(1)


def test_uso_from_tiles_rejects_non_tiling():
    with pytest.raises(NotATilingError):
        uso_from_tiles(TileSet.from_strings(["00", "02", "20", "23"]))


def test_tiles_from_uso_known_sets():
    assert tiles_from_uso(canonical_orientation(2)) == canonical_tiles(2)
    assert tiles_from_uso(Orientation(2, (2, 0, 2, 0))) == bow()
    up = flip_dimension(canonical_orientation(1), 1)
    assert tiles_from_uso(up) == TileSet.from_strings(["1", "3"])


def test_tiles_from_uso_rejects_non_uso():
    with pytest.raises(NotAnUsoError):
        tiles_from_uso(Orientation(2, (0, 2, 1, 3)))


def test_round_trip_exhaustive(catalogue2, catalogue3):
    for ts in catalogue2 + catalogue3:
        assert tiles_from_uso(uso_from_tiles(ts)) == ts


def test_round_trip_sampled_k4():
    for seed in range(20):
        ts = sample_markov(4, 24, 500 + seed)
        o = uso_from_tiles(ts)
        assert is_uso(o)
        assert tiles_from_uso(o) == ts


def test_twins_known_values():
    assert len(twins(canonical_tiles(2))) == 4
    assert twins(bow()) == {("01", "03"), ("20", "22")}


# the double loop over all tile pairs that the partner lookup replaced,
# kept as its oracle


def _reference_twins(ts):
    k = ts.dim
    tiles = sorted(ts.tiles)
    pairs = set()
    for a in range(len(tiles)):
        for b in range(a + 1, len(tiles)):
            w = tiles[a] ^ tiles[b]
            low = w & -w
            slot = 3 << (low.bit_length() - 1 >> 1 << 1)
            if not w & ~slot:
                su, sv = tile_unpack(tiles[a], k), tile_unpack(tiles[b], k)
                pairs.add((min(su, sv), max(su, sv)))
    return pairs


@pytest.mark.parametrize("k", range(4, 11))
def test_twins_match_the_pair_loop_sampled(k):
    # a product of a sampled frame and two sampled parts, whose twins come
    # from both factors, and a sampled tiling up to the sampler's cap
    lo = k // 2
    frame = uso_from_tiles(sample_markov(lo, 32, 80 + k))
    parts = [uso_from_tiles(sample_markov(k - lo, 32, 90 + k + v)) for v in range(2)]
    cases = [tiles_from_uso(product(frame, {v: parts[v % 2] for v in range(1 << lo)}))]
    if k <= MAX_SAMPLE_DIM:
        cases.append(sample_markov(k, 32, 70 + k))
    for ts in cases:
        assert twins(ts) == _reference_twins(ts)


def test_twins_requires_tiling():
    with pytest.raises(NotATilingError):
        twins(TileSet.from_strings(["00", "02", "20", "23"]))


def test_no_small_tiling_is_twin_free(catalogue1, catalogue2, catalogue3):
    for ts in catalogue1 + catalogue2 + catalogue3:
        assert twins(ts) == _reference_twins(ts)
        assert twins(ts)


def test_tiling_iff_pairwise_condition():
    # the clique characterization and the pairwise vertex condition agree,
    # checked on raw direction words without the orientation precondition
    sets = [
        canonical_tiles(2),
        bow(),
        TileSet.from_strings(["00", "02", "20", "23"]),
        TileSet.from_strings(["00", "12", "21", "33"]),
        TileSet.from_strings(["01", "03", "21", "23"]),
    ]
    for ts in sets:
        outs = vertex_outmaps(ts)
        ok = outs is not None and _pairwise_ok(tuple(outs), ts.dim)
        assert is_tiling(ts) == ok


@given(st.sets(tile_strings, min_size=4, max_size=4))
def test_tiling_iff_pairwise_condition_random(strings):
    ts = TileSet.from_strings(sorted(strings), dim=2)
    outs = vertex_outmaps(ts)
    ok = outs is not None and _pairwise_ok(tuple(outs), 2)
    assert is_tiling(ts) == ok


def _tile_pair_defect(ts):
    """Reference: tiling_defect as the tile pair test on the packed tiles."""
    k = ts.dim
    if len(ts.tiles) != 1 << k:
        return f"{len(ts.tiles)} tiles, expected {1 << k}"
    pair = next(incompatible_tiles(sorted(ts.tiles), k), None)
    if pair is not None:
        a, b = (tile_unpack(t, k) for t in pair)
        return f"incompatible tiles {a} and {b}"
    return None


def _corrupted(ts, rnd):
    """Copies of a complete tiling that are not tilings: one unflippable
    edge reversed (if the tiling has one), one tile replaced by a tile on
    another tile's vertex, one tile dropped."""
    k = ts.dim
    if k == 0:
        return [TileSet(0, ())]
    out = list(uso_from_tiles(ts).out)
    copies = []
    unflippable = [
        (v, 1 << i) for i in range(k) for v in range(1 << k)
        if not v >> i & 1 and out[v] != out[v | 1 << i]
    ]
    if unflippable:
        v, bit = rnd.choice(unflippable)
        bad = list(out)
        bad[v] ^= bit
        bad[v | bit] ^= bit
        copies.append(TileSet(k, frozenset(tile_of(u, w, k) for u, w in enumerate(bad))))
    v, u = rnd.sample(range(1 << k), 2)
    tiles = {x: tile_of(x, out[x], k) for x in range(1 << k)}
    tiles[v] = tile_of(u, out[u] ^ 1 << rnd.randrange(k), k)
    copies.append(TileSet(k, frozenset(tiles.values())))
    copies.append(TileSet(k, rnd.sample(sorted(ts.tiles), len(ts) - 1)))
    return copies


def test_verdict_matches_the_tile_pair_test(catalogue1, catalogue2, catalogue3, sampled_tiling):
    # both routes of the verdict, on every tiling of k <= 3, sampled or
    # product tilings of k = 4..10, and corrupted copies of each
    rnd = random.Random(5)
    tilings = [canonical_tiles(0), *catalogue1, *catalogue2, *catalogue3]
    tilings += [sampled_tiling(k) for k in range(4, 11)]
    seen = {True: 0, False: 0}
    for good in tilings:
        for ts in [good, *_corrupted(good, rnd)]:
            want = _tile_pair_defect(ts)
            fresh = [TileSet(ts.dim, ts.tiles) for _ in range(3)]
            assert tiling_defect(fresh[0]) == want
            # kept: the vertex table that passed, or False
            if want is None:
                assert fresh[0]._verdict == _table(ts)
            else:
                assert fresh[0]._verdict is False
            assert is_tiling(fresh[1]) is (want is None)
            if want is None:
                assert uso_from_tiles(fresh[2]) == uso_from_tiles(good)
            else:
                with pytest.raises(NotATilingError):
                    uso_from_tiles(fresh[2])
            seen[want is None] += 1
    assert seen == {True: 766, False: 2282}


def test_tileset_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        TileSet.from_strings(["00", "00", "02", "22"])  # duplicate
    with pytest.raises(ValueError):
        TileSet.from_strings(["00", "0"])  # ragged lengths
    with pytest.raises(ValueError):
        TileSet.from_strings(["04"])  # bad digit
    with pytest.raises(ValueError):
        TileSet.from_strings([])  # dimension unknowable


@pytest.mark.parametrize("tile", [16, -1])
def test_tileset_rejects_packed_tiles_out_of_range(tile):
    with pytest.raises(ValueError, match=f"^packed tile {tile} out of range for dimension 2$"):
        TileSet(2, {tile})


def test_tileset_range_check_keeps_its_message_at_dimension_3():
    with pytest.raises(ValueError, match="^packed tile 64 out of range for dimension 3$"):
        TileSet(3, {1 << 6})


def test_library_built_sets_match_public_ones(catalogue3, sampled_tiling):
    # each route builds its set with tiling._built, skipping the range check
    from itertools import islice

    from usokit import (
        apply_generalized,
        enumerate_join,
        frame_tiles,
        product_rule,
        read_tiling,
        universality_rule,
    )

    target = catalogue3[100]
    rule, labels = universality_rule(target)
    built = [
        _tiles_of(uso_from_tiles(target).out, 3),
        *islice(enumerate_join(3), 0, 744 * 4, 97),
        read_tiling(write_tiling(target)),  # per tile
        read_tiling(write_tiling(sampled_tiling(6))),  # block
        apply_generalized(rule, frame_tiles(), labels, 1),
    ]
    for ts in built:
        public = TileSet(ts.dim, set(ts.tiles))
        assert ts == public and hash(ts) == hash(public)
        assert ts._verdict is None
        assert is_tiling(ts)
        assert ts._verdict == _table(ts)
    assert built[-1] == target
    # replacement sets of the universality and product rules: fragments,
    # the empty set among them
    parts = [catalogue3[0], catalogue3[743], catalogue3[100]]
    for r in (rule, product_rule(parts)):
        for ts in (s for column in r.columns for s in column):
            public = TileSet(ts.dim, set(ts.tiles))
            assert ts == public and hash(ts) == hash(public)
            assert ts._verdict is None


def test_tileset_equality_is_set_equality():
    a = TileSet.from_strings(["01", "20", "03", "22"])
    assert a == bow()
    assert a.strings() == ["01", "03", "20", "22"]
    assert len(a) == 4


def test_partial_tile_set_adjacency():
    assert PartialTileSet.from_strings(["01", "03"]).is_pairwise_adjacent()
    assert not PartialTileSet.from_strings(["20", "23"]).is_pairwise_adjacent()
    # empty and singleton sets are vacuously fine
    assert PartialTileSet(1, frozenset()).is_pairwise_adjacent()


def test_tiling_defect_names_the_first_defect():
    assert tiling_defect(bow()) is None
    assert tiling_defect(canonical_tiles(0)) is None
    assert tiling_defect(TileSet.from_strings(["01", "03"])) == "2 tiles, expected 4"
    bad = TileSet.from_strings(["0", "3"])
    assert tiling_defect(bad) == "incompatible tiles 0 and 3"
    assert not is_tiling(bad)
    # the library message of uso_from_tiles stays its own
    with pytest.raises(NotATilingError, match="2 tiles, dimension 1: not a complete"):
        uso_from_tiles(bad)


def _per_tile_words(ts):
    """Oracle: each tile through tile_unpack on its own, then sorted."""
    return sorted(tile_unpack(t, ts.dim) for t in ts.tiles)


@pytest.mark.parametrize("k", range(11))
def test_strings_and_text_match_the_per_tile_codec(k, sampled_tiling):
    rnd = random.Random(k)
    full = sampled_tiling(k)
    sets = [
        full,
        TileSet(k, rnd.sample(sorted(full.tiles), len(full) // 3)),
        TileSet(k, {rnd.getrandbits(2 * k) for _ in range(40)}),
        TileSet(k, ()),
    ]
    for ts in sets:
        words = _per_tile_words(ts)
        assert ts.strings() == words
        assert write_tiling(ts) == f"uso {k}\n" + "".join(f"{w or '-'}\n" for w in words)


@pytest.mark.parametrize("k", [31, 32])
def test_strings_of_the_widest_tiles(k):
    # 32 digits fill a uint64, the block form's widest word and the cap
    rnd = random.Random(k)
    tiles = {0, (1 << 2 * k) - 1, 3 << 2 * (k - 1), 3} | {rnd.getrandbits(2 * k) for _ in range(50)}
    ts = TileSet(k, tiles)
    assert ts.strings() == _per_tile_words(ts)
    assert write_tiling(ts).split("\n")[1:-1] == _per_tile_words(ts)


def test_k0_tile_set():
    z = canonical_tiles(0)
    assert z.dim == 0
    assert z.strings() == [""]
    assert is_tiling(z)
    assert uso_from_tiles(z) == canonical_orientation(0)


def test_canonical_tiles_match_canonical_orientation():
    for k in range(4):
        assert canonical_tiles(k) == tiles_from_uso(canonical_orientation(k))


def test_tiling_verdict_is_kept_but_the_verifiers_always_test(kernel_passes):
    ts = TileSet.from_strings(["01", "03", "20", "22"])
    o = uso_from_tiles(ts)
    twins(ts)
    assert kernel_passes == {"tiling": 0, "vertex": 1}
    assert ts == bow() and hash(ts) == hash(bow()) and repr(ts) == repr(bow())
    assert is_tiling(ts) and tiling_defect(ts) is None
    assert kernel_passes["vertex"] == 3
    # verified by construction: no test for the round trip
    assert tiles_from_uso(o) == ts and twins(tiles_from_uso(o))
    assert kernel_passes == {"tiling": 0, "vertex": 3}


@pytest.mark.parametrize("k", [3, 8])
def test_one_vertex_table_per_verdict(k, sampled_tiling, vertex_tables):
    # the verdict keeps the table that passed, and uso_from_tiles reads it
    ts = TileSet(k, sampled_tiling(k).tiles)
    vertex_tables.clear()  # the fixture's first k = 8 call builds parts
    assert is_tiling(ts)
    o = uso_from_tiles(ts)
    assert vertex_tables == [ts]
    # a tiling of an orientation keeps that orientation's table from birth
    assert uso_from_tiles(tiles_from_uso(o)) == o
    assert vertex_tables == [ts]
    # rejected, its vertex map not onto: built once, and False is kept
    bad = TileSet(k, (ts.tiles - {min(ts.tiles)}) | {max(ts.tiles) ^ 1})
    for _ in range(2):
        with pytest.raises(NotATilingError):
            uso_from_tiles(bad)
    assert vertex_tables == [ts, bad] and bad._verdict is False


def test_a_rejected_tiling_stays_rejected(kernel_passes):
    bad = TileSet.from_strings(["0", "3"])
    for _ in range(2):
        with pytest.raises(NotATilingError, match="^2 tiles, dimension 1: not a complete tiling$"):
            uso_from_tiles(bad)
        with pytest.raises(NotATilingError, match="^twins are defined on complete tilings$"):
            twins(bad)
    assert kernel_passes == {"tiling": 0, "vertex": 1}


@pytest.mark.parametrize("t", [-1, True, 2**70, 16, 1.0, "0"])
def test_tile_unpack_checks_its_tile(t):
    # -1 gave "33", True gave "10" and 2**70 gave "00"
    with pytest.raises(ValueError, match=f"^packed tile {re.escape(repr(t))} out of range for dimension 2$"):
        tile_unpack(t, 2)


@pytest.mark.parametrize("k, t", [(2, -1), (2, True), (2, 2**70), (2, 16), (2, 1.0), (2, "0"), (1, 15)])
@pytest.mark.parametrize(
    "call",
    [lambda t, k: TileSet(k, [0, t]), tile_vertex, tile_out],
    ids=["TileSet", "tile_vertex", "tile_out"],
)
def test_every_named_tile_takes_the_one_check(call, k, t):
    # TileSet took 1.0 (then strings() raised a raw TypeError) and True,
    # and tile_vertex(15, 1) and tile_out(15, 1) masked the tile to 3
    message = f"^packed tile {re.escape(repr(t))} out of range for dimension {k}$"
    with pytest.raises(ValueError, match=message):
        call(t, k)


@pytest.mark.parametrize("word", [-1, True, 1.0, None, b"01"])
def test_tile_words_are_str(word):
    # each raised a raw TypeError
    message = f"^tile {re.escape(repr(word))} is not a str$"
    for call in (tile_pack, lambda w: TileSet.from_strings([w]), lambda w: gk_adjacent(w, "01")):
        with pytest.raises(ValueError, match=message):
            call(word)
