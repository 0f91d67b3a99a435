import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usokit import (
    DimensionError,
    Edge,
    Face,
    NotAnUsoError,
    Orientation,
    PartialOrientation,
    bow,
    canonical_orientation,
    combine,
    edge_at,
    flip_edges,
    flippable_edges,
    is_uso,
    neighbor,
    unique_sink,
    uso_from_tiles,
    vertex_bits,
    vertex_from_bits,
)
from usokit.cube import _check_edges, _verified, check_edge, drop_bit, insert_bit


def bits(s):
    return vertex_from_bits(s)


# A 2-cube orientation with two global sinks (00 and 11); edge-consistent
# but fails the unique sink condition.
TWO_SINKS = Orientation(2, (0, 2, 1, 3))

# The directed 4-cycle 00 -> 10 -> 11 -> 01 -> 00; its full face has no sink.
CYCLE = Orientation(2, (1, 3, 0, 2))


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
    # the numpy route: the 3-edge at 11000 and the 1-edge at 01111
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


def _edge_error(k, out, support=None):
    try:
        _check_edges(k, out, support)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 7), st.randoms(use_true_random=False), st.integers(0, 3))
def test_edge_check_numpy_route_matches_the_loop(k, rnd, flips):
    n = 1 << k
    out = [0] * n
    for i in range(k):
        for v in range(n):
            if not v >> i & 1 and rnd.random() < 0.5:
                out[v] |= 1 << i
                out[v | 1 << i] |= 1 << i
    for _ in range(flips):
        out[rnd.randrange(n)] ^= 1 << rnd.randrange(k)
    # a support given takes the loop, none the numpy test first
    assert _edge_error(k, out) == _edge_error(k, out, range(n))


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
