import enum
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usokit import (
    MAX_FORMAT_DIM,
    DimensionError,
    Edge,
    Face,
    NotAnUsoError,
    Orientation,
    PartialOrientation,
    SimpleRule,
    SplitMix64,
    TileSet,
    apply_simple,
    bow,
    canonical_orientation,
    canonical_tiles,
    combine,
    edge_at,
    flip_edges,
    flippable_edges,
    hypervertex_check,
    hypervertex_replace,
    inherited,
    is_tiling,
    is_uso,
    named_rule,
    neighbor,
    phase_flip,
    phase_swap,
    phases,
    product_labelling,
    read_labels,
    read_orientation,
    read_rule,
    read_tiling,
    tile_of,
    tile_unpack,
    tiles_from_uso,
    tiling_defect,
    twins,
    unique_sink,
    universality_rule,
    uso_from_tiles,
    vertex_bits,
    vertex_from_bits,
    write_orientation,
    write_tiling,
)
from usokit.cube import (
    _consistent,
    _lower_ends,
    _verified,
    check_edge,
    drop_bit,
    insert_bit,
)
from usokit.tiling import tile_out, tile_vertex


def bits(s):
    return vertex_from_bits(s)


# A 2-cube orientation with two global sinks (00 and 11); edge-consistent
# but fails the unique sink condition.
TWO_SINKS = Orientation(2, (0, 2, 1, 3))

# The directed 4-cycle 00 -> 10 -> 11 -> 01 -> 00; its full face has no sink.
CYCLE = Orientation(2, (1, 3, 0, 2))

BOW = uso_from_tiles(bow())
BOW_HALVES = tuple(PartialOrientation.restrict(BOW, s) for s in ({0, 1}, {2, 3}))


def test_neighbor_toggles_one_bit():
    assert neighbor(bits("00"), 1, 2) == bits("10")
    assert neighbor(bits("10"), 1, 2) == bits("00")
    assert neighbor(bits("011"), 3, 3) == bits("010")


def test_neighbor_is_an_involution():
    for v in range(8):
        for i in (1, 2, 3):
            assert neighbor(neighbor(v, i, 3), i, 3) == v


def test_neighbor_rejects_bad_dimension():
    with pytest.raises(DimensionError):
        neighbor(0, 0, 2)
    with pytest.raises(DimensionError):
        neighbor(0, 3, 2)


@pytest.mark.parametrize("v", [4, -1])
def test_vertices_out_of_range_are_rejected(v):
    with pytest.raises(DimensionError, match=f"^vertex {v} out of range for dimension 2$"):
        neighbor(v, 1, 2)
    with pytest.raises(DimensionError, match=f"^edge vertex {v} out of range$"):
        check_edge(Edge(v, 1), 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: neighbor(True, 1, 2), "vertex must be an int, not True"),
        (lambda: edge_at(-1, 1), "vertex -1 out of range"),
        (lambda: edge_at(1.0, 1), "vertex must be an int, not 1.0"),
        (lambda: flip_edges(BOW, [Edge(True, 2)]), "edge vertex must be an int, not True"),
        (lambda: flip_edges(BOW, [Edge(1.0, 2)]), "edge vertex must be an int, not 1.0"),
        (lambda: BOW.direction(-1, 1), "vertex -1 out of range for dimension 2"),
        (lambda: BOW.direction(4, 1), "vertex 4 out of range for dimension 2"),
        (lambda: BOW.direction(False, 1), "vertex must be an int, not False"),
    ],
)
def test_named_vertices_are_ints_of_the_cube(call, message):
    # one check, _require_vertex, wherever a vertex is named: no bool is
    # read as 0 or 1, no negative vertex wraps or indexes from the end
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        call()


def test_vertex_bits_round_trip():
    for v in range(16):
        assert vertex_from_bits(vertex_bits(v, 4)) == v
    assert vertex_bits(0, 0) == ""
    assert vertex_bits(1, 2) == "10"
    assert vertex_bits(2, 2) == "01"


def test_vertex_from_bits_rejects_garbage():
    with pytest.raises(ValueError):
        vertex_from_bits("0x1")


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
def test_vertex_from_bits_takes_only_ascii_bits(word, bad):
    with pytest.raises(ValueError, match=f"^bad vertex character {re.escape(repr(bad))}$"):
        vertex_from_bits(word)


def test_edge_canonical_form():
    e = edge_at(bits("11"), 1)
    assert e == Edge(vertex=bits("01"), dim=1)
    assert edge_at(bits("01"), 1) == e


def test_face_basics():
    f = Face("*0*")
    assert f.cube_dim == 3
    assert f.dim == 2
    assert list(f.vertices()) == [bits("000"), bits("001"), bits("100"), bits("101")]
    assert bits("100") in f
    assert bits("010") not in f
    assert Face.full(2).pattern == "**"
    assert Face("").dim == 0


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="01*", max_size=10))
def test_face_vertices_and_masks_are_the_string_references(pattern):
    # the string product over the pattern, coordinate 1 first and so
    # varying slowest, is the order the orientation text lists vertices in
    f = Face(pattern)
    choices = [("0", "1") if c == "*" else (c,) for c in pattern]
    expected = [vertex_from_bits("".join(word)) for word in itertools.product(*choices)]
    assert list(f.vertices()) == expected
    assert f.free_mask == vertex_from_bits(pattern.replace("1", "0").replace("*", "1"))
    assert f.fixed_values == vertex_from_bits(pattern.replace("*", "0"))


def test_lower_ends_are_the_vertices_below_each_coordinate():
    for k in range(1, 11):
        for i in range(1, k + 1):
            below = tuple(v for v in range(1 << k) if not v >> (i - 1) & 1)
            assert _lower_ends(k, i) == below


def test_face_rejects_bad_pattern():
    with pytest.raises(ValueError):
        Face("01x")


def test_orientation_validates_construction():
    with pytest.raises(ValueError):
        Orientation(2, (0, 0, 0))
    with pytest.raises(ValueError):
        Orientation(2, (0, 0, 0, 4))
    # endpoints disagreeing on a shared edge
    with pytest.raises(ValueError):
        Orientation(2, (1, 0, 0, 0))


@pytest.mark.parametrize(
    "out,message",
    [
        ((0, 0, 0), "expected 4 direction words, got 3"),
        ((0, 0, 0, 4), "direction word 4 at vertex 3 out of range"),
        ((0, -1, 0, 0), "direction word -1 at vertex 1 out of range"),
        ((0, 0, 7, 4), "direction word 7 at vertex 2 out of range"),
    ],
)
def test_verified_keeps_the_word_range_test(out, message):
    # the same messages as the constructor; raised, so they hold under -O
    for build in (Orientation, _verified):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(2, out)


def test_verified_is_the_constructor_without_the_edge_scan(kernel_passes):
    o, built = _verified(2, [0, 2, 0, 2]), Orientation(2, (0, 2, 0, 2))
    assert o == built and o.out == (0, 2, 0, 2)
    assert hash(o) == hash(built) and repr(o) == repr(built)
    assert o._verdict is True and is_uso(o)
    # the edge scan is skipped: only a table that passed the pairwise test
    # may come here, and such a table is edge-consistent
    assert _verified(2, (1, 0, 0, 0)).out == (1, 0, 0, 0)
    assert kernel_passes["vertex"] == 1


def test_unique_sink_canonical():
    o = canonical_orientation(2)
    assert unique_sink(o, Face.full(2)) == bits("00")
    assert unique_sink(o, Face("*1")) == bits("01")


def test_unique_sink_of_the_bow():
    # the bow's global sink sits at (0,1); (1,1) is its source
    o = uso_from_tiles(bow())
    assert unique_sink(o, Face.full(2)) == bits("01")


def test_unique_sink_degenerate_cases():
    assert unique_sink(TWO_SINKS, Face.full(2)) == "multiple"
    assert unique_sink(CYCLE, Face.full(2)) == "none"
    # every single edge has exactly one sink, whatever the orientation
    assert unique_sink(CYCLE, Face("*0")) in (0, 1)


def test_unique_sink_rejects_dimension_mismatch():
    with pytest.raises(DimensionError):
        unique_sink(canonical_orientation(2), Face("***"))


def test_is_uso_accepts_canonical_orientations():
    for k in range(5):
        o = canonical_orientation(k)
        assert is_uso(o, "pairwise")
        assert is_uso(o, "face-scan")


def test_is_uso_accepts_the_bow():
    assert is_uso(uso_from_tiles(bow()))


def test_is_uso_rejects_double_sink_and_cycle():
    for o in (TWO_SINKS, CYCLE):
        assert not is_uso(o, "pairwise")
        assert not is_uso(o, "face-scan")


def test_is_uso_rejects_unknown_method():
    with pytest.raises(ValueError):
        is_uso(canonical_orientation(1), "magic")


def _all_orientations(k):
    """Every edge-consistent orientation of the k-cube."""
    edges = [(v, i) for v in range(1 << k) for i in range(1, k + 1)
             if not v >> (i - 1) & 1]
    for word in range(1 << len(edges)):
        out = [0] * (1 << k)
        for pos, (v, i) in enumerate(edges):
            if word >> pos & 1:
                out[v] |= 1 << (i - 1)
                out[v | 1 << (i - 1)] |= 1 << (i - 1)
        yield Orientation(k, tuple(out))


def test_verifier_equivalence_exhaustive_small():
    for k in (0, 1, 2):
        hits = 0
        for o in _all_orientations(k):
            a = is_uso(o, "pairwise")
            assert a == is_uso(o, "face-scan")
            hits += a
        assert hits == {0: 1, 1: 2, 2: 12}[k]


def test_verifier_equivalence_k3_count():
    # 744 of the 4096 3-cube orientations are USOs
    hits = 0
    for o in _all_orientations(3):
        a = is_uso(o, "pairwise")
        assert a == is_uso(o, "face-scan")
        hits += a
    assert hits == 744


@settings(max_examples=60, deadline=None)
@given(st.integers(0, (1 << 32) - 1))
def test_verifier_equivalence_random_k4(word):
    # random edge-consistent 4-cube orientation from a 32-edge word
    k = 4
    edges = [(v, i) for v in range(1 << k) for i in range(1, k + 1)
             if not v >> (i - 1) & 1]
    out = [0] * (1 << k)
    for pos, (v, i) in enumerate(edges):
        if word >> pos & 1:
            out[v] |= 1 << (i - 1)
            out[v | 1 << (i - 1)] |= 1 << (i - 1)
    o = Orientation(k, tuple(out))
    assert is_uso(o, "pairwise") == is_uso(o, "face-scan")


def test_flippable_edges_known_values():
    assert flippable_edges(canonical_orientation(2)) == {
        Edge(0, 1), Edge(2, 1), Edge(0, 2), Edge(1, 2),
    }
    assert flippable_edges(uso_from_tiles(bow())) == {Edge(0, 2), Edge(1, 2)}
    assert flippable_edges(canonical_orientation(1)) == {Edge(0, 1)}


def test_flippable_edges_requires_uso():
    with pytest.raises(NotAnUsoError):
        flippable_edges(TWO_SINKS)


def test_flip_edges_combs():
    o = canonical_orientation(2)
    combed = flip_edges(o, {Edge(0, 1), Edge(2, 1)})
    assert combed.out == (1, 1, 1, 1)


def test_flip_edges_identity_and_involution():
    o = uso_from_tiles(bow())
    assert flip_edges(o, set()) == o
    es = {Edge(0, 1), Edge(1, 2)}
    assert flip_edges(flip_edges(o, es), es) == o


def test_flip_edges_rejects_malformed_edge():
    with pytest.raises(DimensionError):
        flip_edges(canonical_orientation(2), {Edge(1, 1)})  # upper endpoint
    with pytest.raises(DimensionError):
        flip_edges(canonical_orientation(2), {Edge(0, 3)})


def test_flip_edges_commutes_on_disjoint_sets():
    o = uso_from_tiles(bow())
    a = {Edge(0, 1)}
    b = {Edge(1, 2)}
    assert flip_edges(flip_edges(o, a), b) == flip_edges(flip_edges(o, b), a)


def test_partial_orientation_restrict_and_combine():
    o = uso_from_tiles(bow())
    support = frozenset({0, 1})
    a = PartialOrientation.restrict(o, support)
    b = PartialOrientation.restrict(o, frozenset({2, 3}))
    assert combine(a, b) == o


@pytest.mark.parametrize(
    "support, out, message",
    [
        ({0, 1}, {0: 0}, "direction words must cover exactly the support"),
        ({0}, {0: 0, 1: 0}, "direction words must cover exactly the support"),
        ({4}, {4: 0}, "vertex 4 out of range"),
        ({-1}, {-1: 0}, "vertex -1 out of range"),
        ({0}, {0: 4}, "direction word at vertex 0 out of range"),
        ({0}, {0: -1}, "direction word at vertex 0 out of range"),
    ],
)
def test_partial_orientation_rejects_bad_input(support, out, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PartialOrientation(2, frozenset(support), out)


def test_partial_orientation_equality():
    o = uso_from_tiles(bow())
    a = PartialOrientation.restrict(o, {0, 1})
    assert a == PartialOrientation(2, frozenset({0, 1}), {0: o.out[0], 1: o.out[1]})
    assert a != PartialOrientation.restrict(o, {0, 2})
    assert a != PartialOrientation.restrict(canonical_orientation(2), {0, 1})
    assert a != PartialOrientation.restrict(uso_from_tiles(bow()), {0})
    assert a != o and a != {0: o.out[0], 1: o.out[1]}


def test_combine_rejects_a_dimension_mismatch():
    a = PartialOrientation.restrict(canonical_orientation(1), {0})
    b = PartialOrientation.restrict(canonical_orientation(2), {1, 2, 3})
    with pytest.raises(DimensionError, match="^dimension mismatch$"):
        combine(a, b)


def test_combine_rejects_cut_disagreement():
    o = canonical_orientation(2)
    flipped = flip_edges(o, {Edge(0, 2)})
    a = PartialOrientation.restrict(o, frozenset({0, 1}))
    b = PartialOrientation.restrict(flipped, frozenset({2, 3}))
    with pytest.raises(ValueError):
        combine(a, b)


def test_edge_check_names_the_lowest_disagreement():
    # disagreements on the 2-edge at 00 and on the 1-edge at 01
    two = (2, 0, 1, 0)
    message = "^inconsistent direction of the 1-edge at 01$"
    with pytest.raises(ValueError, match=message):
        Orientation(2, two)
    with pytest.raises(ValueError, match=message):
        PartialOrientation(2, frozenset(range(4)), dict(enumerate(two)))
    # a whole 5-cube table: the 3-edge at 11000 and the 1-edge at 01111
    five = [0] * 32
    five[3] ^= 4
    five[30] ^= 1
    with pytest.raises(ValueError, match="^inconsistent direction of the 1-edge at 01111$"):
        Orientation(5, five)
    # both cut edges of the 2-cube disagree
    a = PartialOrientation(2, frozenset({0, 1}), {0: 0, 1: 0})
    b = PartialOrientation(2, frozenset({2, 3}), {2: 2, 3: 2})
    with pytest.raises(ValueError, match="^cut disagreement on the 2-edge at 00$"):
        combine(a, b)


def _loop_edge_error(k, out, support, what="inconsistent direction of"):
    """The message naming the first disagreeing edge within support, by
    coordinate and then vertex, from the plain double loop; None if none."""
    for i in range(1, k + 1):
        for v in range(1 << k):
            u = v | 1 << (i - 1)
            if u != v and v in support and u in support:
                if out[v] >> (i - 1) & 1 != out[u] >> (i - 1) & 1:
                    return f"{what} the {i}-edge at {vertex_bits(v, k)}"
    return None


def _error(build, *args):
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _random_table(k, rnd):
    """A consistent table: each edge's direction drawn by a coin."""
    out = [0] * (1 << k)
    for i in range(k):
        for v in range(1 << k):
            if not v >> i & 1 and rnd.random() < 0.5:
                out[v] |= 1 << i
                out[v | 1 << i] |= 1 << i
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 8), st.randoms(use_true_random=False), st.integers(0, 3))
def test_edge_check_matches_the_double_loop(k, rnd, flips):
    n, every = 1 << k, frozenset(range(1 << k))
    base, other = _random_table(k, rnd), _random_table(k, rnd)
    out = list(base)
    for _ in range(flips if k else 0):
        out[rnd.randrange(n)] ^= 1 << rnd.randrange(k)
    assert _error(Orientation, k, out) == _loop_edge_error(k, out, every)
    support = frozenset(v for v in range(n) if rnd.random() < 0.5)
    words = {v: out[v] for v in support}
    assert _error(PartialOrientation, k, support, words) == _loop_edge_error(k, out, support)
    # two consistent sides can disagree only on the cut
    a = PartialOrientation(k, support, {v: other[v] for v in support})
    b = PartialOrientation(k, every - support, {v: base[v] for v in every - support})
    merged = [other[v] if v in support else base[v] for v in range(n)]
    cut = _loop_edge_error(k, merged, every, "cut disagreement on")
    assert _error(combine, a, b) == cut
    if cut is None:
        assert combine(a, b) == Orientation(k, merged)


@pytest.mark.parametrize(
    "build, scans",
    [
        (lambda: Orientation(3, (0,) * 8), 1),
        (lambda: read_orientation(write_orientation(canonical_orientation(3))), 1),
        (lambda: combine(*BOW_HALVES), 1),
        (lambda: flip_edges(BOW, {Edge(0, 1), Edge(1, 2)}), 0),
        (lambda: canonical_orientation(3), 0),
    ],
    ids=["Orientation", "read_orientation", "combine", "flip_edges", "canonical_orientation"],
)
def test_edges_are_scanned_once_where_a_table_enters(build, scans, monkeypatch):
    import usokit.cube

    calls = []
    real = usokit.cube._check_edges

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(usokit.cube, "_check_edges", counting)
    build()
    assert len(calls) == scans


def test_consistent_is_the_constructor_without_the_edge_scan():
    for k, out in ((0, (0,)), (2, (0, 2, 0, 2)), (3, (5, 5, 1, 1, 5, 5, 1, 1))):
        o, built = _consistent(k, list(out)), Orientation(k, out)
        assert o == built and o.out == out
        assert hash(o) == hash(built) and repr(o) == repr(built)
        assert o._verdict is None
    # no edge scan: only tables consistent by construction may come here
    assert _consistent(2, (1, 0, 0, 0)).out == (1, 0, 0, 0)
    with pytest.raises(ValueError, match="^direction word 4 at vertex 3 out of range$"):
        _consistent(2, (0, 0, 0, 4))


def test_combine_rejects_non_partition():
    o = canonical_orientation(2)
    a = PartialOrientation.restrict(o, frozenset({0, 1}))
    b = PartialOrientation.restrict(o, frozenset({1, 2, 3}))
    with pytest.raises(ValueError):
        combine(a, b)


def test_drop_insert_bit_round_trip():
    for x in range(16):
        for pos in range(4):
            bit = x >> pos & 1
            assert insert_bit(drop_bit(x, pos), pos, bit) == x


def test_k0_is_legal():
    o = canonical_orientation(0)
    assert o.dim == 0
    assert is_uso(o)
    assert unique_sink(o, Face("")) == 0
    assert flippable_edges(o) == set()


def test_orientation_edges_cover_once():
    o = canonical_orientation(3)
    es = list(o.edges())
    assert len(es) == 3 * 4
    assert len(set(es)) == len(es)
    for e in es:
        assert not e.vertex >> (e.dim - 1) & 1


@given(st.integers(0, 7), st.integers(1, 3))
def test_direction_agrees_across_edge(v, i):
    o = flip_edges(canonical_orientation(3), {Edge(0, 2), Edge(5, 2)})
    assert o.direction(v, i) == o.direction(neighbor(v, i, 3), i)


def test_orientation_freezes_its_words():
    words = [0, 0]
    o = Orientation(1, words)
    assert o == Orientation(1, (0, 0))
    assert hash(o) == hash(Orientation(1, (0, 0)))
    words[0] = 1
    assert o.out == (0, 0)


def test_uso_verdict_is_kept_but_is_uso_always_tests(kernel_passes):
    o = Orientation(2, (0, 0, 0, 0))
    fresh = repr(o)
    flippable_edges(o)
    flippable_edges(o)
    assert kernel_passes["vertex"] == 1
    # the verdict is invisible to equality, hashing and repr
    assert o == canonical_orientation(2) and hash(o) == hash(canonical_orientation(2))
    assert repr(o) == fresh
    assert is_uso(o) and is_uso(o)
    assert kernel_passes["vertex"] == 3


def test_is_uso_ignores_a_kept_verdict():
    o = Orientation(2, TWO_SINKS.out)
    object.__setattr__(o, "_verdict", True)
    assert not is_uso(o)
    with pytest.raises(NotAnUsoError):
        flippable_edges(o)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Orientation(True, (0, 0)),
        lambda: PartialOrientation(True, frozenset({0, 1}), {0: 0, 1: 0}),
        lambda: TileSet(True, frozenset({0, 2})),
        lambda: TileSet.from_strings(["0", "2"], True),
        lambda: canonical_orientation(True),
        lambda: canonical_tiles(True),
        lambda: inherited(canonical_orientation(2), True),
    ],
    ids=[
        "Orientation",
        "PartialOrientation",
        "TileSet",
        "from_strings",
        "canonical_orientation",
        "canonical_tiles",
        "inherited",
    ],
)
def test_a_bool_is_not_a_dimension(call):
    # each would build a value with dim=True, which write_tiling prints as
    # "uso True" and read_tiling rejects
    with pytest.raises(DimensionError, match="^dimension must be an int, not True$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: Orientation(-1, ()),
        lambda: PartialOrientation(-1, frozenset(), {}),
        lambda: TileSet(-2, frozenset()),
        lambda: TileSet.from_strings([], -1),
        lambda: TileSet.from_strings(["0"], -1),
        lambda: canonical_orientation(-1),
        lambda: canonical_tiles(-1),
        lambda: tile_of(0, 0, -1),
        lambda: tile_vertex(0, -1),
        lambda: tile_out(0, -1),
        lambda: tile_unpack(5, -1),
    ],
    ids=[
        "Orientation",
        "PartialOrientation",
        "TileSet",
        "from_strings",
        "from_strings-word",
        "canonical_orientation",
        "canonical_tiles",
        "tile_of",
        "tile_vertex",
        "tile_out",
        "tile_unpack",
    ],
)
def test_no_value_has_a_negative_dimension(call):
    # each raised a raw "negative shift count" ValueError, named the word's
    # length, or (tile_unpack) returned ""
    with pytest.raises(DimensionError, match="^dimension -[12] is negative$"):
        call()


DIMENSION_CALLS = {
    "tile_of": lambda k: tile_of(1, 1, k),
    "tile_vertex": lambda k: tile_vertex(7, k),
    "tile_out": lambda k: tile_out(7, k),
    "tile_unpack": lambda k: tile_unpack(5, k),
    "read_labels": lambda k: read_labels("0 1\n", k),
}


@pytest.mark.parametrize("k", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("name", sorted(DIMENSION_CALLS))
def test_a_dimension_parameter_is_an_int(name, k):
    # True was taken as 1, and 1.0 or "1" raised a raw TypeError or
    # returned a value
    with pytest.raises(DimensionError, match=f"^dimension must be an int, not {k!r}$"):
        DIMENSION_CALLS[name](k)


@pytest.mark.parametrize("i", [0, -1])
def test_edge_at_takes_coordinates_from_1(i):
    # 1 << (i - 1) raised a raw "negative shift count" ValueError
    with pytest.raises(DimensionError, match=f"^coordinate {i} is less than 1$"):
        edge_at(0, i)


# Every public constructor and codec entry that takes a dimension.  A tile
# is one uint64, so none holds more than MAX_FORMAT_DIM digits, and each
# refuses more before any value of size 2^k.
CAP_CALLS = {
    "Orientation": lambda k: Orientation(k, ()),
    "PartialOrientation": lambda k: PartialOrientation(k, frozenset({0}), {0: 0}),
    "TileSet": lambda k: TileSet(k, {1}),
    "from_strings": lambda k: TileSet.from_strings([], k),
    "SimpleRule": lambda k: SimpleRule(k, *[TileSet(k, ())] * 4),
    "canonical_orientation": canonical_orientation,
    "canonical_tiles": canonical_tiles,
    "tile_of": lambda k: tile_of(1, 1, k),
    "tile_vertex": lambda k: tile_vertex(7, k),
    "tile_out": lambda k: tile_out(7, k),
    "tile_unpack": lambda k: tile_unpack(5, k),
    "read_labels": lambda k: read_labels("", k),
}

# the calls that build a table of 2^k words, too big to run at the cap
TABLE_CALLS = {"Orientation", "canonical_orientation", "canonical_tiles"}


@pytest.mark.parametrize("k", [MAX_FORMAT_DIM + 1, 40, 2**70])
@pytest.mark.parametrize("name", sorted(CAP_CALLS))
def test_dimension_cap_comes_before_any_table(name, k):
    # 2**70 raised a raw OverflowError, 40 began a table of 2^40 words, and
    # TileSet(33, ...) was written as a "uso 33" text that no reader takes
    with pytest.raises(DimensionError, match=f"^dimension {k} exceeds the cap {MAX_FORMAT_DIM}$"):
        CAP_CALLS[name](k)


def test_dimension_cap_admits_the_cap():
    for name in sorted(CAP_CALLS.keys() - TABLE_CALLS):
        CAP_CALLS[name](MAX_FORMAT_DIM)
    assert read_labels("", MAX_FORMAT_DIM) == {}
    assert tile_unpack(5, MAX_FORMAT_DIM) == "11" + "0" * (MAX_FORMAT_DIM - 2)


# Every public door that takes a vertex, a direction word, a tile, a
# coordinate or edges, with the value under test in one slot, and the
# error it raises: DimensionError where a vertex or coordinate is named,
# ValueError for a tile, for a table's vertex or word, and for edges or
# phase classes that are not iterable or hold a value that is not an Edge.  Every door takes a value
# whose type is exactly int, so an int subclass such as an IntEnum member
# is refused like a bool.
_Enum = enum.IntEnum("_Enum", {"ONE": 1})
VALUE_DOORS = {
    "TileSet": (lambda x: TileSet(2, [0, x]), ValueError),
    "tile_of-vertex": (lambda x: tile_of(x, 0, 2), DimensionError),
    "tile_of-word": (lambda x: tile_of(0, x, 2), ValueError),
    "tile_unpack": (lambda x: tile_unpack(x, 2), ValueError),
    "tile_vertex": (lambda x: tile_vertex(x, 2), ValueError),
    "tile_out": (lambda x: tile_out(x, 2), ValueError),
    "Orientation": (lambda x: Orientation(1, (0, x)), ValueError),
    "PartialOrientation-support": (
        lambda x: PartialOrientation(2, frozenset({x}), {x: 0}), ValueError),
    "PartialOrientation-word": (
        lambda x: PartialOrientation(2, frozenset({1}), {1: x}), ValueError),
    "restrict": (lambda x: PartialOrientation.restrict(BOW, {x}), ValueError),
    "neighbor-vertex": (lambda x: neighbor(x, 1, 2), DimensionError),
    "neighbor-coordinate": (lambda x: neighbor(0, x, 2), DimensionError),
    "neighbor-dimension": (lambda x: neighbor(0, 1, x), DimensionError),
    "direction-vertex": (lambda x: BOW.direction(x, 1), DimensionError),
    "direction-coordinate": (lambda x: BOW.direction(0, x), DimensionError),
    "vertex_bits-vertex": (lambda x: vertex_bits(x, 2), DimensionError),
    "vertex_bits-dimension": (lambda x: vertex_bits(0, x), DimensionError),
    "edge_at-vertex": (lambda x: edge_at(x, 1), DimensionError),
    "edge_at-coordinate": (lambda x: edge_at(0, x), DimensionError),
    "randbelow": (lambda x: SplitMix64(1).randbelow(x), ValueError),
    "flip_edges-edges": (lambda x: flip_edges(BOW, x), ValueError),
    "flip_edges-edge": (lambda x: flip_edges(BOW, [x]), ValueError),
    "phase_flip-classes": (lambda x: phase_flip(BOW, 1, x), ValueError),
    "phase_flip-class": (lambda x: phase_flip(BOW, 1, [x]), ValueError),
    "phase_swap-edges": (lambda x: phase_swap(BOW, 1, x), ValueError),
    "phase_swap-edge": (lambda x: phase_swap(BOW, 1, [x]), ValueError),
}


@pytest.mark.parametrize(
    "x",
    [True, 1.0, -1, "1", None, 2**70, _Enum.ONE],
    ids=["bool", "float", "-1", "str", "None", "2**70", "IntEnum"],
)
@pytest.mark.parametrize("name", sorted(VALUE_DOORS))
def test_value_doors_refuse_what_is_not_in_range(name, x):
    # a bool was read as 0 or 1, tile_of masked a vertex or word to k bits,
    # restrict indexed from the end or past it, vertex_bits printed -1 and
    # 2**70 as bits, edge_at took any vertex and shifted by any coordinate,
    # randbelow drew below True and below 2**70 only under 2**64, a float,
    # str or None raised a raw TypeError where no check came first, and an
    # edge that is not an Edge a raw AttributeError or TypeError
    call, error = VALUE_DOORS[name]
    with pytest.raises(error):
        call(x)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Orientation(1, None), "direction table None is not iterable"),
        (lambda: Orientation(1, 5), "direction table 5 is not iterable"),
        (lambda: TileSet(2, None), "tile set None is not iterable"),
        (lambda: Face(None), "face pattern None is not a str"),
        (lambda: Face(True), "face pattern True is not a str"),
        (lambda: Face(-1), "face pattern -1 is not a str"),
        (lambda: Face(("0", "*")), "face pattern ('0', '*') is not a str"),
    ],
)
def test_whole_tables_that_are_not_iterable_are_value_errors(call, message):
    # each raised a raw TypeError before any check of its constructor ran
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


BOW_TILES = bow()
VERIFIED = canonical_orientation(2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: twins(None), "tile set None is not a TileSet"),
        # a verified Orientation has a kept verdict too
        (lambda: twins(VERIFIED), f"tile set {VERIFIED!r} is not a TileSet"),
        (lambda: flippable_edges(None), "orientation None is not an Orientation"),
        (lambda: phases(None, 1), "orientation None is not an Orientation"),
        (lambda: universality_rule(None), "tile set None is not a TileSet"),
        (lambda: uso_from_tiles(5), "tile set 5 is not a TileSet"),
        (lambda: tiles_from_uso(BOW_TILES), f"orientation {BOW_TILES!r} is not an Orientation"),
        (lambda: is_tiling(BOW), f"tile set {BOW!r} is not a TileSet"),
        (lambda: tiling_defect(None), "tile set None is not a TileSet"),
        (lambda: is_uso(None), "orientation None is not an Orientation"),
        (lambda: unique_sink(BOW, "**"), "face '**' is not a Face"),
        (lambda: unique_sink(None, Face("**")), "orientation None is not an Orientation"),
        (lambda: hypervertex_check(BOW, "**"), "face '**' is not a Face"),
        (lambda: hypervertex_check(None, Face("**")), "orientation None is not an Orientation"),
        (
            lambda: hypervertex_replace(VERIFIED, Face("*0"), None),
            "orientation None is not an Orientation",
        ),
        (lambda: write_tiling("x"), "tile set 'x' is not a TileSet"),
        (lambda: write_orientation(BOW_TILES), f"orientation {BOW_TILES!r} is not an Orientation"),
        (lambda: flip_edges(None, ()), "orientation None is not an Orientation"),
        (lambda: PartialOrientation.restrict(None, {0}), "orientation None is not an Orientation"),
        (lambda: apply_simple(named_rule("flip"), None, 1), "tile set None is not a TileSet"),
        (lambda: product_labelling(BOW), f"tile set {BOW!r} is not a TileSet"),
    ],
)
def test_objects_of_the_wrong_type_are_value_errors(call, message):
    # each read a field of its argument first and raised a raw
    # AttributeError, or, given another library object, returned or failed
    # further in
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("x", [None, 1, True, b"01"])
def test_words_and_texts_that_are_not_str_are_value_errors(x):
    # a bit string and every reader's text, as Face and tile_pack take
    # theirs; each raised a raw TypeError, read_tiling(None) an
    # AttributeError
    with pytest.raises(ValueError, match=f"^bit string {re.escape(repr(x))} is not a str$"):
        vertex_from_bits(x)
    message = f"^text {re.escape(repr(x))} is not a str$"
    for read in (read_tiling, read_orientation, read_rule, lambda t: read_labels(t, 2)):
        with pytest.raises(ValueError, match=message):
            read(x)
