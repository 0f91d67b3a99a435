import re

import pytest

from usokit import (
    DimensionError,
    Edge,
    EnumerationLimitError,
    Face,
    HypervertexError,
    HypervertexWitness,
    NotAnUsoError,
    Orientation,
    PHASE_DIM_CAP,
    PhaseSelectionError,
    SplitMix64,
    TileSet,
    apply_generalized,
    apply_simple,
    bow,
    canonical_orientation,
    edge_at,
    facet,
    flip_dimension,
    flip_edges,
    flippable_edges,
    hypervertex_check,
    hypervertex_replace,
    inherited,
    is_uso,
    markov_walk,
    mirror,
    named_rule,
    partial_swap,
    phase_flip,
    phase_swap,
    phases,
    product,
    product_labelling,
    product_rule,
    sample_markov,
    tiles_from_uso,
    uso_from_tiles,
    vertex_bits,
)
from usokit import cube
from usokit.cube import drop_bit, insert_bit

DOWN1 = Orientation(1, (0, 0))
UP1 = Orientation(1, (1, 1))
BOW = uso_from_tiles(bow())


def test_product_of_combed_parts_is_combed():
    assert product(DOWN1, {0: DOWN1, 1: DOWN1}) == canonical_orientation(2)
    assert product(canonical_orientation(2), {v: DOWN1 for v in range(4)}) == canonical_orientation(3)


def test_product_layout_frame_first():
    prod = product(UP1, {0: BOW, 1: canonical_orientation(2)})
    assert prod.dim == 3
    # fibers over the frame vertices are the chosen parts
    assert facet(prod, 1, "lower") == BOW
    assert facet(prod, 1, "upper") == canonical_orientation(2)
    # cross edges copy the frame
    for v in range(8):
        assert prod.direction(v, 1) == 1


def test_product_input_checks():
    with pytest.raises(ValueError):
        product(UP1, {0: DOWN1})
    with pytest.raises(DimensionError):
        product(UP1, {0: DOWN1, 1: canonical_orientation(2)})


@pytest.mark.parametrize(
    "parts, message",
    [
        (None, "parts mapping None is not a mapping"),
        (5, "parts mapping 5 is not a mapping"),
        ("ab", "parts mapping 'ab' is not a mapping"),
        ([DOWN1, DOWN1], f"parts mapping {[DOWN1, DOWN1]!r} is not a mapping"),
        ({0: DOWN1, 1: None}, "orientation None is not an Orientation"),
    ],
)
def test_product_refuses_parts_that_are_not_a_mapping_of_orientations(parts, message):
    # each raised a raw TypeError or AttributeError, or, for the list, a
    # missing vertex 0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        product(UP1, parts)


def test_product_refuses_a_dimension_above_the_cap(monkeypatch):
    # k + d is compared with the cap before the 2^(k+d) loop
    parts = {v: BOW for v in range(4)}
    monkeypatch.setattr(cube, "MAX_FORMAT_DIM", 3)
    with pytest.raises(DimensionError, match="^dimension 4 exceeds the cap 3$"):
        product(BOW, parts)
    monkeypatch.setattr(cube, "MAX_FORMAT_DIM", 4)
    assert product(BOW, parts).dim == 4


def test_inherited_of_combed_product():
    prod = product(BOW, {v: DOWN1 for v in range(4)})
    assert inherited(prod, 2) == BOW
    assert inherited(prod, 0) == Orientation(0, (0,))


def test_inherited_canonical():
    for k in (1, 2, 3):
        for kp in range(k):
            assert inherited(canonical_orientation(k), kp) == canonical_orientation(kp)


def test_inherited_matches_rule(catalogue2):
    r = named_rule("inherit")
    for ts in catalogue2:
        o = uso_from_tiles(ts)
        assert tiles_from_uso(inherited(o, 1)) == apply_simple(r, ts, 2)


def test_inherited_range_check():
    with pytest.raises(DimensionError):
        inherited(BOW, 2)
    with pytest.raises(DimensionError):
        inherited(BOW, -1)


def test_facet_of_bow():
    # the bow: both 1-edges down, 2-edges up over 00 and down over 10
    assert facet(BOW, 1, "lower") == UP1
    assert facet(BOW, 1, "upper") == DOWN1
    assert facet(BOW, 2, "lower") == DOWN1
    assert facet(BOW, 2, "upper") == DOWN1
    with pytest.raises(ValueError):
        facet(BOW, 1, "sideways")


def test_facet_matches_rules(catalogue2):
    lower = named_rule("take-lower-facet")
    upper = named_rule("take-upper-facet")
    for ts in catalogue2:
        o = uso_from_tiles(ts)
        for h in (1, 2):
            assert tiles_from_uso(facet(o, h, "lower")) == apply_simple(lower, ts, h)
            assert tiles_from_uso(facet(o, h, "upper")) == apply_simple(upper, ts, h)


@pytest.mark.parametrize("k", [3, 6, 8])
def test_facet_is_the_table_of_its_vertices(k, sampled_tiling):
    o = uso_from_tiles(sampled_tiling(k))
    for h in range(1, k + 1):
        for bit, side in enumerate(("lower", "upper")):
            vertices = (insert_bit(p, h - 1, bit) for p in range(1 << (k - 1)))
            assert facet(o, h, side).out == tuple(drop_bit(o.out[v], h - 1) for v in vertices)


def test_flip_dimension_involution(catalogue2):
    for ts in catalogue2:
        o = uso_from_tiles(ts)
        for i in (1, 2):
            assert flip_dimension(flip_dimension(o, i), i) == o
    assert flip_dimension(DOWN1, 1) == UP1


def test_mirror_of_bow():
    assert mirror(BOW, 2) == BOW
    assert mirror(BOW, 1) == Orientation(2, (0, 2, 0, 2))
    assert mirror(mirror(BOW, 1), 1) == BOW


def test_partial_swap_matches_rule(catalogue2):
    r = named_rule("partial-swap")
    for ts in catalogue2:
        o = uso_from_tiles(ts)
        for h in (1, 2):
            assert tiles_from_uso(partial_swap(o, h)) == apply_simple(r, ts, h)


def test_partial_swap_involution(catalogue2):
    for ts in catalogue2:
        o = uso_from_tiles(ts)
        for h in (1, 2):
            assert partial_swap(partial_swap(o, h), h) == o


def test_partial_swap_all_down_is_identity():
    assert partial_swap(canonical_orientation(3), 2) == canonical_orientation(3)


def test_phases_of_canonical():
    part = phases(canonical_orientation(2), 1)
    assert set(part.classes) == {
        frozenset({Edge(0, 1)}),
        frozenset({Edge(2, 1)}),
    }
    assert part.dim_index == 1


def test_phases_of_bow():
    # opposing 2-edges weld the 1-edges into one class
    part1 = phases(BOW, 1)
    assert set(part1.classes) == {frozenset({Edge(0, 1), Edge(2, 1)})}
    part2 = phases(BOW, 2)
    assert set(part2.classes) == {
        frozenset({Edge(0, 2)}),
        frozenset({Edge(1, 2)}),
    }


def test_phases_methods_agree(catalogue2, catalogue3):
    # whole partitions, class order included: --classes indexes that order
    walk4 = [state.current for state in markov_walk(4, 29, 2024)]
    for ts in [*catalogue2, *catalogue3, *walk4]:
        o = uso_from_tiles(ts)
        for i in range(1, o.dim + 1):
            assert phases(o, i) == phases(o, i, "brute")


def test_phases_rejects_unknown_method():
    with pytest.raises(ValueError):
        phases(BOW, 1, "guess")


def test_phases_dimension_cap():
    k = PHASE_DIM_CAP + 1
    with pytest.raises(EnumerationLimitError):
        phases(canonical_orientation(k), 1)


def test_phase_flip_every_class_is_flip_dimension(catalogue2):
    for ts in catalogue2:
        o = uso_from_tiles(ts)
        for i in (1, 2):
            part = phases(o, i)
            assert phase_flip(o, i, part.classes) == flip_dimension(o, i)
            assert phase_flip(o, i, []) == o


def _reference_flip(out, k, i, word):
    """Reverse, in the list out, the i-edges whose projection indices are
    the set bits of word, one edge at a time."""
    ibit = 1 << (i - 1)
    while word:
        v = insert_bit((word & -word).bit_length() - 1, i - 1, 0)
        out[v] ^= ibit
        out[v | ibit] ^= ibit
        word &= word - 1


def _reversal_is_the_reference(k, i, words):
    from usokit.transform import _reversal, _reversal_rows

    # both are XORs of the table, so they agree on every table when they
    # agree on the zero one
    for word in words:
        out = [0] * (1 << k)
        _reference_flip(out, k, i, word)
        assert _reversal(_reversal_rows(k, i), word) == int.from_bytes(bytes(out), "little"), (k, i, word)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reversal_is_the_per_edge_loop(k):
    for i in range(1, k + 1):
        _reversal_is_the_reference(k, i, range(1 << (1 << (k - 1))))


def test_reversal_is_the_per_edge_loop_at_k5():
    # a k = 5 word has 16 edges, two bytes: the one-edge words try each
    # lane alone, and only the random ones set bits in both bytes at once
    rng = SplitMix64(5)
    words = [1 << p for p in range(16)] + [rng.randbelow(1 << 16) for _ in range(2000)]
    for i in range(1, 6):
        _reversal_is_the_reference(5, i, words)


def test_phase_flip_single_class():
    cls = frozenset({Edge(0, 1), Edge(2, 1)})
    assert phase_flip(BOW, 1, [cls]) == flip_dimension(BOW, 1)
    got = phase_flip(canonical_orientation(2), 1, [frozenset({Edge(0, 1)})])
    assert got == flip_edges(canonical_orientation(2), [Edge(0, 1)])


def test_phase_flip_reverses_a_repeated_class_once():
    o = canonical_orientation(2)
    part = phases(o, 1)
    cls = part.classes[0]
    once = phase_flip(o, 1, [cls])
    assert once != o
    assert phase_flip(o, 1, [cls, cls]) == once
    assert phase_flip(o, 1, [cls, cls, cls]) == once
    assert phase_flip(o, 1, [*part.classes, *part.classes]) == flip_dimension(o, 1)


def test_phase_flip_rejects_partial_class():
    with pytest.raises(PhaseSelectionError):
        phase_flip(BOW, 1, [frozenset({Edge(0, 1)})])


def _error(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value).__name__, str(info.value)


def test_phase_flip_rejections_keep_their_messages():
    canon = canonical_orientation(2)  # 1-classes {00} and {10}
    for bad, shown in (
        ({Edge(0, 2)}, "[Edge(vertex=0, dim=2)]"),  # not an i-edge
        ({Edge(2, 1), (0, 2)}, "[(0, 2), Edge(vertex=2, dim=1)]"),  # a class and a stray
        ({(1, 1)}, "[(1, 1)]"),  # upper endpoint
        ({Edge(8, 1)}, "[Edge(vertex=8, dim=1)]"),  # no vertex of the cube
        (set(), "[]"),
        ({Edge(0, 1), Edge(2, 1)}, "[Edge(vertex=0, dim=1), Edge(vertex=2, dim=1)]"),
        # an iterator class was read up before the message listed it
        (iter([Edge(0, 2)]), "[Edge(vertex=0, dim=2)]"),
    ):
        message = f"not a phase class of dimension 1: {shown}"
        assert _error(phase_flip, canon, 1, [{Edge(0, 1)}, bad]) == ("PhaseSelectionError", message)
    # phases() decides the preconditions, in its order
    not_uso = Orientation(2, (0, 2, 1, 3))  # a cycle
    wide = canonical_orientation(PHASE_DIM_CAP + 1)
    for o, i in ((not_uso, 1), (not_uso, 3), (canon, 0), (canon, 3), (wide, 1), (wide, 0)):
        assert _error(phase_flip, o, i, []) == _error(phases, o, i)


def test_phase_swap_matches_partial_swap(catalogue2, catalogue3):
    # the paper's relation: the partial swap is the phase swap of the
    # upward h-edges; every USO of k <= 3, and 60 walks each at k = 4, 5
    tilings = [*catalogue2, *catalogue3]
    tilings += [sample_markov(k, 30, 1000 * k + seed) for k in (4, 5) for seed in range(60)]
    for ts in tilings:
        o = uso_from_tiles(ts)
        for h in range(1, o.dim + 1):
            upward = {
                e for cls in phases(o, h).classes for e in cls
                if o.direction(e.vertex, h) == 1
            }
            assert phase_swap(o, h, upward) == partial_swap(o, h)
            assert phase_swap(o, h, set()) == o


def test_phase_swap_of_bow_welded_class():
    got = phase_swap(BOW, 1, {Edge(0, 1), Edge(2, 1)})
    assert tiles_from_uso(got) == TileSet.from_strings(["21", "00", "23", "02"])


def test_phase_edits_take_plain_tuple_edges():
    # Edge is a NamedTuple, so (vertex, dim) tuples name the same edges;
    # flip_edges read a tuple's fields and raised a raw AttributeError
    welded = {(0, 1), (2, 1)}
    assert phase_flip(BOW, 1, [welded]) == flip_dimension(BOW, 1)
    assert phase_swap(BOW, 1, welded) == phase_swap(BOW, 1, {Edge(0, 1), Edge(2, 1)})
    assert flip_edges(BOW, welded) == flip_dimension(BOW, 1)


def test_phase_swap_rejects_split_or_stray():
    with pytest.raises(PhaseSelectionError):
        phase_swap(BOW, 1, {Edge(0, 1)})
    with pytest.raises(PhaseSelectionError):
        phase_swap(BOW, 2, {Edge(0, 1)})


def test_hypervertex_witnesses():
    w = hypervertex_check(canonical_orientation(2), Face("00"))
    assert isinstance(w, HypervertexWitness)
    assert w.as_dict() == {1: 0, 2: 0}

    w = hypervertex_check(BOW, Face("**"))
    assert isinstance(w, HypervertexWitness)
    assert w.directions == ()

    w = hypervertex_check(BOW, Face("0*"))
    assert isinstance(w, HypervertexWitness)
    assert w.as_dict() == {1: 0}

    bad = hypervertex_check(BOW, Face("*0"))
    assert bad == ["mixed directions across coordinate 2"]

    with pytest.raises(DimensionError):
        hypervertex_check(BOW, Face("0*0"))


def test_hypervertex_identity_replace():
    # the face interior of 0* in the bow is its upward 2-edge
    assert hypervertex_replace(BOW, Face("0*"), UP1) == BOW


def test_hypervertex_replace_flips_an_edge():
    o = canonical_orientation(2)
    got = hypervertex_replace(o, Face("*0"), UP1)
    assert got == flip_edges(o, [Edge(0, 1)])


def test_hypervertex_replace_whole_cube():
    assert hypervertex_replace(BOW, Face("**"), canonical_orientation(2)) == canonical_orientation(2)


def test_hypervertex_replace_keeps_the_free_coordinates_in_order(catalogue2):
    # every face of the canonical 3-cube is combed, so any 2-dimensional
    # USO may go inside one; it lands with its coordinates in face order
    o = canonical_orientation(3)
    for ts in catalogue2:
        sub = uso_from_tiles(ts)
        for pattern, h in (("**0", 3), ("*0*", 2), ("0**", 1)):
            assert facet(hypervertex_replace(o, Face(pattern), sub), h, "lower") == sub


def test_hypervertex_replace_rejections():
    with pytest.raises(HypervertexError):
        hypervertex_replace(BOW, Face("*0"), UP1)
    with pytest.raises(DimensionError):
        hypervertex_replace(BOW, Face("0*"), canonical_orientation(2))


def _phase_swap_tiles(ts, h, edges):
    """Tile form of a phase swap: toggle the high bit of digit h on every
    tile whose vertex is an endpoint of a chosen h-edge."""
    hbit = 1 << (h - 1)
    ends = {e.vertex for e in edges} | {e.vertex | hbit for e in edges}
    out = []
    for s in ts.strings():
        v = sum(1 << b for b, c in enumerate(s) if c in "23")
        if v in ends:
            s = s[: h - 1] + "2301"[int(s[h - 1])] + s[h:]
        out.append(s)
    return TileSet.from_strings(out, ts.dim)


def test_phase_swap_matches_tile_form(catalogue3):
    cases = 0
    for ts in catalogue3:
        o = uso_from_tiles(ts)
        for h in (1, 2, 3):
            classes = phases(o, h).classes
            for pick in range(1 << len(classes)):
                edges = set().union(*(c for b, c in enumerate(classes) if pick >> b & 1))
                got = tiles_from_uso(phase_swap(o, h, edges))
                assert got == _phase_swap_tiles(ts, h, edges)
                cases += 1
    assert cases == 18288


def _one_reversed_edge(k, seed):
    """A k-cube USO with one non-flippable edge reversed: not an USO."""
    o = uso_from_tiles(sample_markov(k, 64, seed))
    edge = min(set(o.edges()) - flippable_edges(o))
    return flip_edges(o, {edge})


# built by each test, not at import, so that a fault in the sampler fails
# the reversed4 cases and not the collection of this module
NON_USOS = {
    "two-sinks": lambda: Orientation(2, (0, 2, 1, 3)),
    "cycle": lambda: Orientation(2, (1, 3, 0, 2)),
    "reversed4": lambda: _one_reversed_edge(4, 3),
}


def _good(o):
    return canonical_orientation(o.dim)


NEEDS_USO = {
    "product-frame": lambda o: product(o, {v: DOWN1 for v in range(1 << o.dim)}),
    "product-part": lambda o: product(UP1, {0: _good(o), 1: o}),
    "inherited": lambda o: inherited(o, 1),
    "facet": lambda o: facet(o, 1),
    "flip_dimension": lambda o: flip_dimension(o, 1),
    "mirror": lambda o: mirror(o, 2),
    "partial_swap": lambda o: partial_swap(o, 2),
    "phases": lambda o: phases(o, 1),
    "phase_flip": lambda o: phase_flip(o, 1, []),
    "phase_swap": lambda o: phase_swap(o, 1, ()),
    "hypervertex_replace-o": lambda o: hypervertex_replace(o, Face.full(o.dim), _good(o)),
    "hypervertex_replace-sub": lambda o: hypervertex_replace(_good(o), Face.full(o.dim), o),
    "flippable_edges": flippable_edges,
    "tiles_from_uso": tiles_from_uso,
}


@pytest.mark.parametrize("bad", list(NON_USOS))
@pytest.mark.parametrize("name", sorted(NEEDS_USO))
def test_transforms_reject_non_usos(name, bad):
    bad = NON_USOS[bad]()
    fresh = Orientation(bad.dim, bad.out)
    # the first call tests the value, the second reads the kept verdict
    for _ in range(2):
        with pytest.raises(NotAnUsoError, match="^input is not a unique sink orientation$"):
            NEEDS_USO[name](fresh)


# each transform on a verified k = 5 input; the parts and the sub come
# from transforms too, so they are born verified
TRANSFORMS = {
    "product": lambda o: product(o, {v: inherited(o, 1) for v in range(32)}),
    "inherited": lambda o: inherited(o, 2),
    "facet": lambda o: facet(o, 3, "upper"),
    "flip_dimension": lambda o: flip_dimension(o, 2),
    "mirror": lambda o: mirror(o, 2),
    "partial_swap": lambda o: partial_swap(o, 2),
    "phase_flip": lambda o: phase_flip(o, 2, phases(o, 2).classes[:1]),
    "phase_swap": lambda o: phase_swap(o, 2, phases(o, 2).classes[0]),
    "hypervertex_replace": lambda o: hypervertex_replace(o, Face.full(5), flip_dimension(o, 1)),
}


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_transforms_test_no_output(name, sampled_tiling, kernel_passes):
    o = uso_from_tiles(sampled_tiling(5))
    before = dict(kernel_passes)
    out = TRANSFORMS[name](o)
    assert kernel_passes == before
    # born with its verdict, which the independent test confirms
    assert out._verdict is True
    assert is_uso(out)


def _rule_tiles(kind, o, h):
    """The named rule's emulation of a transform at coordinate h."""
    return apply_simple(named_rule(kind), tiles_from_uso(o), h)


def _fresh_uso(o):
    """o, once a new value of its table passes the pairwise test (not o's
    kept verdict), and the face scan where it is cheap."""
    fresh = Orientation(o.dim, o.out)
    assert is_uso(fresh)
    if o.dim <= 6:
        assert is_uso(fresh, "face-scan")
    return o


def _checked_product(frame, parts):
    """product, held to product_rule applied with product_labelling."""
    got = product(frame, parts)
    frame_ts = tiles_from_uso(frame)
    rule = product_rule([tiles_from_uso(parts[v]) for v in range(1 << frame.dim)])
    want = apply_generalized(rule, frame_ts, product_labelling(frame_ts), frame.dim)
    assert tiles_from_uso(got) == want
    return _fresh_uso(got)


def _lifted(low, rng):
    """A USO one dimension up: low times a random 1-cube part per vertex."""
    return _checked_product(low, {v: (DOWN1, UP1)[rng.randbelow(2)] for v in range(1 << low.dim)})


def _chain_step(o, rng):
    """One random transform of o, checked; the next state, of o's dimension."""
    k = o.dim
    h = 1 + rng.randbelow(k)
    kinds = ["flip", "mirror", "partial-swap", "facet", "inherit", "hypervertex"]
    kinds += ["phase-flip", "phase-swap"] if k <= PHASE_DIM_CAP else []
    kind = kinds[rng.randbelow(len(kinds))]
    if kind in ("flip", "mirror", "partial-swap"):
        got = {"flip": flip_dimension, "mirror": mirror, "partial-swap": partial_swap}[kind](o, h)
        assert tiles_from_uso(got) == _rule_tiles(kind, o, h)
    elif kind == "facet":
        side = ("lower", "upper")[rng.randbelow(2)]
        low = facet(o, h, side)
        assert tiles_from_uso(low) == _rule_tiles(f"take-{side}-facet", o, h)
        got = _lifted(_fresh_uso(low), rng)
    elif kind == "inherit":
        low = inherited(o, k - 1)
        assert tiles_from_uso(low) == _rule_tiles("inherit", o, k)
        got = _lifted(_fresh_uso(low), rng)
    elif kind == "hypervertex":
        # a face that is one flippable edge, given the other direction
        edges = sorted(flippable_edges(o))
        e = edges[rng.randbelow(len(edges))]
        bits = vertex_bits(e.vertex, k)
        face = Face(bits[:e.dim - 1] + "*" + bits[e.dim:])
        up = 1 - o.direction(e.vertex, e.dim)
        got = hypervertex_replace(o, face, Orientation(1, (up, up)))
        assert got == flip_edges(o, [e])
    else:
        classes = phases(o, h).classes
        picked = [c for c in classes if rng.randbelow(2)]
        if kind == "phase-flip":
            got = phase_flip(o, h, picked)
        else:
            got = phase_swap(o, h, frozenset().union(*picked))
    return _fresh_uso(got)


@pytest.mark.parametrize("k, steps", [(5, 200), (6, 120), (7, 80), (8, 60), (9, 40), (10, 30)])
def test_transform_chains_keep_usos_above_k4(k, steps):
    # seeded chains through all nine transforms, each step held to its
    # rule emulation where one exists and to a fresh unique sink verdict
    rng = SplitMix64(0xC4A1 + k)
    o = _fresh_uso(uso_from_tiles(sample_markov(5, 40, rng.next_u64() % 1000)))
    if k > 5:
        parts = [uso_from_tiles(sample_markov(k - 5, 20, seed)) for seed in (k, k + 100)]
        o = _checked_product(o, {v: parts[rng.randbelow(2)] for v in range(32)})
    for _ in range(steps):
        o = _chain_step(o, rng)
        assert o.dim == k


COORDINATE_CALLS = {
    "phases": lambda o, i: phases(o, i),
    "phase_flip": lambda o, i: phase_flip(o, i, []),
    "phase_swap": lambda o, i: phase_swap(o, i, ()),
    "flip_dimension": flip_dimension,
    "mirror": mirror,
    "partial_swap": partial_swap,
    "facet": facet,
    "apply_simple": lambda o, i: apply_simple(named_rule("flip"), tiles_from_uso(o), i),
    "direction": lambda o, i: o.direction(0, i),
    "edge_at": lambda o, i: edge_at(0, i),
    "flip_edges": lambda o, i: flip_edges(o, [Edge(0, i)]),
}


@pytest.mark.parametrize("i", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("name", sorted(COORDINATE_CALLS))
def test_a_coordinate_is_an_int(name, i):
    # True acted on coordinate 1, and 1.0 or "1" raised a raw TypeError
    with pytest.raises(DimensionError, match=f"^coordinate must be an int, not {i!r}$"):
        COORDINATE_CALLS[name](BOW, i)


def _broadcast_linked(tables, k, i):
    """The pair rule as it was first written: the lower endpoints against
    the upper ones by a broadcast XOR, OR its transpose."""
    import numpy as np

    lower = np.array([insert_bit(p, i - 1, 0) for p in range(1 << (k - 1))])
    apart = (lower[:, None] ^ lower[None, :]).astype(np.uint8)
    low, up = tables[:, lower], tables[:, lower | 1 << (i - 1)]
    joined = (low[:, :, None] ^ up[:, None, :]) & apart == apart
    return joined | joined.transpose(0, 2, 1)


def _walk_tables(k, seeds, steps):
    from usokit.enumeration import _moves

    return sorted({t for seed in seeds for t in _moves(k, steps, seed)})


@pytest.mark.parametrize("k", [3, 4, 5])
def test_fused_pair_rule_is_the_broadcast_rule(k):
    # every k=3 USO; k=4 and k=5 tables from the flip walk
    import numpy as np

    from usokit.enumeration import _catalogue
    from usokit.transform import _edge_index, _linked

    if k == 3:
        tables = [bytes(out) for out in _catalogue(3)]
    else:
        tables = _walk_tables(k, range(40), 24)
    batch = np.frombuffer(b"".join(tables), np.uint8).reshape(len(tables), 1 << k)
    for i in range(1, k + 1):
        expected = _broadcast_linked(batch, k, i)
        index = _edge_index(k, i)
        assert (_linked(batch, index) == expected).all(), i
        for r in range(0, len(tables), 7):
            assert (_linked(batch[r], index) == expected[r]).all(), (i, r)
