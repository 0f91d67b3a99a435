import hashlib
import itertools
import re
from functools import lru_cache

import pytest

from usokit import (
    ChainState,
    DimensionError,
    EnumerationLimitError,
    RNG_ALGORITHM,
    SplitMix64,
    TileSet,
    canonical_tiles,
    count_usos,
    enumerate_brute,
    enumerate_join,
    is_tiling,
    markov_walk,
    sample_markov,
    write_tiling,
)
from usokit.cube import drop_bit

# reference outputs of the seed-is-state splitmix64, first words per seed
SPLITMIX_VECTORS = {
    0: (0x09AAB36CFDA2D1B3, 0x5B00C67197590451, 0x0EB2AFB57F7F9972),
    1234567: (0xA6FFE350BE12109E, 0x061C1D766C11BEA0),
}


def test_rng_algorithm_name():
    assert RNG_ALGORITHM == "splitmix64"


def test_splitmix_reference_vectors():
    for seed, words in SPLITMIX_VECTORS.items():
        rng = SplitMix64(seed)
        assert tuple(rng.next_u64() for _ in words) == words


def test_splitmix_seed_is_masked():
    a, b = SplitMix64(0), SplitMix64(1 << 64)
    assert a.next_u64() == b.next_u64()


def test_randbelow():
    rng = SplitMix64(9)
    draws = [rng.randbelow(7) for _ in range(500)]
    assert set(draws) == set(range(7))
    assert all(SplitMix64(3).randbelow(1) == 0 for _ in range(5))
    with pytest.raises(ValueError):
        rng.randbelow(0)
    x = [SplitMix64(11).randbelow(1000) for _ in range(3)]
    y = [SplitMix64(11).randbelow(1000) for _ in range(3)]
    assert x == y


def test_brute_smallest_dimensions():
    assert [ts.strings() for ts in enumerate_brute(0)] == [[""]]
    assert [ts.strings() for ts in enumerate_brute(1)] == [["0", "2"], ["1", "3"]]


def test_brute_counts(catalogue2, catalogue3):
    assert len(catalogue2) == 12
    assert len(catalogue3) == 744
    assert len(set(catalogue2)) == 12
    assert len(set(catalogue3)) == 744


def test_brute_stream_is_sorted_and_deterministic(catalogue2):
    again = list(enumerate_brute(2))
    assert again == catalogue2
    keys = [tuple(ts.strings()) for ts in catalogue2]
    assert keys == sorted(keys)
    assert catalogue2[0] == canonical_tiles(2)
    assert catalogue2[-1].strings() == ["11", "13", "31", "33"]


def test_everything_streamed_is_a_tiling(catalogue3):
    assert all(is_tiling(ts) for ts in catalogue3)


def test_join_matches_brute(catalogue1, catalogue2, catalogue3):
    assert set(enumerate_join(1)) == set(catalogue1)
    assert set(enumerate_join(2)) == set(catalogue2)
    assert set(enumerate_join(3)) == set(catalogue3)


def test_join_jobs_yield_the_same_set(catalogue3):
    assert set(enumerate_join(3, jobs=2)) == set(catalogue3)


def test_join_count_starts_no_process(no_processes):
    counts = [count_usos(k, "join", 2).count for k in (1, 2, 3, 4)]
    assert counts == [2, 12, 744, 5541744]


def test_count_methods_agree():
    for k in (1, 2, 3):
        assert count_usos(k, "brute").count == count_usos(k, "join").count
    r = count_usos(2)
    assert (r.dim, r.count, r.method) == (2, 12, "brute")
    assert r.elapsed >= 0
    assert r.line() == "count k=2 method=brute value=12"


def test_count_rejects_unknown_method():
    with pytest.raises(ValueError):
        count_usos(2, "guess")


def test_enumeration_caps():
    # the streams raise on the call, before any iteration, so a caller
    # opens no output first
    with pytest.raises(EnumerationLimitError):
        enumerate_brute(4)
    with pytest.raises(EnumerationLimitError):
        enumerate_brute(-1)
    with pytest.raises(EnumerationLimitError):
        enumerate_join(5)
    with pytest.raises(EnumerationLimitError):
        enumerate_join(0)
    with pytest.raises(EnumerationLimitError):
        count_usos(4, "brute")
    with pytest.raises(EnumerationLimitError):
        count_usos(5, "join")
    with pytest.raises(EnumerationLimitError):
        sample_markov(6, 1, 0)
    with pytest.raises(EnumerationLimitError):
        markov_walk(6, 1, 0)


def test_walk_shape_and_determinism():
    states = list(markov_walk(2, 7, 42))
    assert [s.step for s in states] == list(range(8))
    assert all(isinstance(s, ChainState) and s.seed == 42 for s in states)
    assert states[0].current == canonical_tiles(2)
    assert states[-1].current == sample_markov(2, 7, 42)
    assert states == list(markov_walk(2, 7, 42))


def test_walk_builds_only_the_tilings_read(monkeypatch):
    import usokit.enumeration

    tiles_of = usokit.enumeration._tiles_of
    calls = []

    def counted(out, k):
        calls.append(k)
        return tiles_of(out, k)

    monkeypatch.setattr(usokit.enumeration, "_tiles_of", counted)
    *_, last = markov_walk(5, 64, 1)
    assert calls == []
    assert last.current is last.current
    assert calls == [5]


@pytest.mark.parametrize("k", range(6))
def test_states_hold_their_steps_tilings(k):
    from usokit.enumeration import _walk
    from usokit.tiling import _tiles_of

    tables = [bytes(table) for table in _walk(k, 40, 300 + k)]
    # every state is read after the walk has ended
    states = list(markov_walk(k, 40, 300 + k))
    assert [s.step for s in states] == list(range(41))
    assert [s.current for s in states] == [_tiles_of(table, k) for table in tables]


def test_states_compare_by_tiling_step_and_seed():
    first, again = list(markov_walk(3, 30, 9)), list(markov_walk(3, 30, 9))
    assert first == again
    assert [hash(s) for s in first] == [hash(s) for s in again]
    assert all(a != b for a, b in zip(first, again[1:]))
    assert all(a != b for a, b in zip(first, markov_walk(3, 30, 10)))
    # the 0-cube walk stays on one tiling; its states differ by step
    zero = list(markov_walk(0, 3, 9))
    assert len({s.current for s in zero}) == 1
    assert len(set(zero)) == 4


@pytest.mark.parametrize(
    "call",
    [
        lambda k: sample_markov(k, 2, 1),
        lambda k: markov_walk(k, 2, 1),
        enumerate_brute,
        enumerate_join,
        lambda k: count_usos(k, "join"),
        lambda k: count_usos(k, "brute"),
    ],
    ids=["sample", "walk", "brute", "join", "count-join", "count-brute"],
)
@pytest.mark.parametrize("k", [True, False, 2.0])
def test_dimension_must_be_an_int(call, k):
    # a bool would pass the range checks and give dim=True, which
    # write_tiling prints as "uso True"
    with pytest.raises(DimensionError, match=f"not {k!r}$"):
        call(k)


def test_walk_stays_on_tilings():
    for state in markov_walk(3, 50, 7):
        assert is_tiling(state.current)


def test_sample_frozen_value():
    assert sample_markov(2, 7, 42).strings() == ["00", "12", "20", "32"]


# blake2b-8 of write_tiling(sample_markov(k, 64, seed)) for seeds 1, 2 and 1000
SAMPLE_DIGESTS = {
    1: ("675f324c530ae6eb", "b3a2af43bc8e89ec", "675f324c530ae6eb"),
    2: ("e1e618eb88a446aa", "311a68995f149752", "931bbdf27b704489"),
    3: ("6372cb420d5578b4", "b14ebd11da67b453", "7075cf78aca3c3dc"),
    4: ("4dbf5acc61151708", "9af991d93681a417", "2a73dc3cb9f1688c"),
    5: ("6dbba3148c8d0239", "ec6d4df63b633e9e", "e7c5b36dc13d65e5"),
}


@pytest.mark.parametrize("k", sorted(SAMPLE_DIGESTS))
def test_sample_outputs_are_pinned(k):
    from usokit import write_tiling

    def digest(ts):
        return hashlib.blake2b(write_tiling(ts).encode(), digest_size=8).hexdigest()

    for seed, want in zip((1, 2, 1000), SAMPLE_DIGESTS[k]):
        assert digest(sample_markov(k, 64, seed)) == want
        *_, last = markov_walk(k, 64, seed)
        assert digest(last.current) == want


def test_sample_edge_cases():
    assert sample_markov(2, 0, 5) == canonical_tiles(2)
    assert sample_markov(0, 5, 1) == TileSet.from_strings([""], 0)
    assert sample_markov(3, 20, 1) != sample_markov(3, 20, 2)


def test_sample_reaches_everything(catalogue2):
    seen = {sample_markov(2, 24, seed) for seed in range(300)}
    assert seen == set(catalogue2)


# second largest |eigenvalue| of the walk's transition matrix, and the first
# step whose total-variation distance to uniform, from canonical, is < 1e-3
@pytest.mark.parametrize("k, second, first_step", [(2, 0.75, 10), (3, 0.8675, 23)])
def test_phase_walk_mixes_exactly(k, second, first_step):
    from fractions import Fraction

    import numpy as np

    from usokit.enumeration import _catalogue
    from usokit.transform import _phase_masks, _union

    cat = _catalogue(k)
    index = {out: s for s, out in enumerate(cat)}
    n = len(cat)
    moves = [{} for _ in range(n)]
    for s, out in enumerate(cat):
        for i in range(1, k + 1):
            classes = _phase_masks(bytes(out), k, i)
            weight = Fraction(1, k << len(classes))
            for pick in range(1 << len(classes)):
                image = _reversed(bytes(out), k, i, _union(classes, pick))
                t = index[tuple(image)]
                moves[s][t] = moves[s].get(t, 0) + weight
    assert all(sum(row.values()) == 1 for row in moves)
    # symmetric, so the uniform law is stationary
    assert all(moves[t][s] == p for s, row in enumerate(moves) for t, p in row.items())

    matrix = np.zeros((n, n))
    for s, row in enumerate(moves):
        for t, p in row.items():
            matrix[s, t] = p
    magnitudes = sorted(abs(np.linalg.eigvalsh(matrix)))
    assert abs(magnitudes[-1] - 1) < 1e-12
    assert round(magnitudes[-2], 4) == second

    law = np.zeros(n)
    law[index[(0,) * (1 << k)]] = 1
    distances = []
    for _ in range(first_step):
        law = law @ matrix
        distances.append(abs(law - 1 / n).sum() / 2)
    assert distances[-2] >= 1e-3 > distances[-1]


# N_c, the k = 3 facet pairs whose join has c 4-phases, for c = 1..8: each
# gives 2^c USOs with c 4-phases, so 2^c N_c / 5,541,744 is the law of the
# 4-phase count of a uniform 4-dimensional USO
FACET_PAIRS_BY_PHASES = (191_736, 139_104, 103_552, 65_856, 34_496, 13_824, 4_224, 744)


def test_sampler_meets_the_exact_phase_law_at_k4():
    # 4,000 seeded chains of 32 steps read a total-variation distance of
    # 0.024 from the exact law (0.030 at 16 steps, 0.068 at 8, 0.119 at
    # 4); 4,000 exact draws read 0.016 on average and above 0.033 once in
    # 1,000, so 0.04 passes an exact sampler and fails an 8-step one
    from collections import Counter

    from usokit import phases, uso_from_tiles

    assert sum(n << c for c, n in enumerate(FACET_PAIRS_BY_PHASES, 1)) == 5_541_744
    assert sum(FACET_PAIRS_BY_PHASES) == 744**2
    chains = 4000
    counts = Counter(
        len(phases(uso_from_tiles(sample_markov(4, 32, seed)), 4).classes)
        for seed in range(chains)
    )
    assert set(counts) <= set(range(1, 9))
    law = {c: n * 2**c / 5_541_744 for c, n in enumerate(FACET_PAIRS_BY_PHASES, 1)}
    distance = sum(abs(counts[c] / chains - p) for c, p in law.items()) / 2
    assert distance < 0.04


def _reversed(table: bytes, k, i, word) -> bytes:
    """table with the i-edges of word reversed, through the walk's one XOR."""
    from usokit.transform import _reversal, _reversal_rows

    state = int.from_bytes(table, "little") ^ _reversal(_reversal_rows(k, i), word)
    return state.to_bytes(len(table), "little")


def test_negative_steps_rejected():
    with pytest.raises(ValueError):
        sample_markov(2, -3, 1)
    with pytest.raises(ValueError):
        list(markov_walk(2, -3, 1))
    with pytest.raises(ValueError):
        markov_walk(2, -3, 1)
    with pytest.raises(ValueError):
        sample_markov(0, -1, 1)


@pytest.mark.parametrize("k", [0, 3])
def test_walk_arguments_are_ints(k):
    # a bool would count as one step, and a float would reach range() or
    # the generator as a raw TypeError; both are refused before any move,
    # on the call
    for steps, seed, message in (
        (True, 1, "steps must be an int, got True"),
        (2.0, 1, "steps must be an int, got 2.0"),
        (2, 1.5, "seed must be an int, got 1.5"),
        (2, False, "seed must be an int, got False"),
    ):
        for walk in (sample_markov, markov_walk):
            with pytest.raises(ValueError, match=f"^{message}$"):
                walk(k, steps, seed)
    # a negative seed is a seed
    assert sample_markov(k, 4, -5) == sample_markov(k, 4, -5 & (1 << 64) - 1)


def test_sample_k0_does_not_walk(monkeypatch):
    # every step of the 0-cube walk is the same state; sampling must not
    # spend time proportional to steps on it
    import usokit.enumeration

    walk = usokit.enumeration._walk

    def bounded(k, steps, seed):
        for n, out in enumerate(walk(k, steps, seed)):
            assert n < 10, "the 0-cube walk iterated its steps"
            yield out

    monkeypatch.setattr(usokit.enumeration, "_walk", bounded)
    assert sample_markov(0, 10**15, 1) == canonical_tiles(0)


def _act(out, n, perm, m, s):
    """The symmetry (perm, m, s) applied to a direction table:
    out'[perm(v ^ m)] = perm(out[v] ^ s), perm[i] the image of coordinate i."""

    def permute(w):
        return sum((w >> i & 1) << perm[i] for i in range(n))

    image = [0] * (1 << n)
    for v, w in enumerate(out):
        image[permute(v ^ m)] = permute(w ^ s)
    return tuple(image)


@lru_cache(maxsize=1 << 16)
def _phase_projections(out: tuple, k: int, i: int) -> tuple[tuple[int, ...], ...]:
    """Phase classes as sorted tuples of i-edge projection indices.

    Joins the edges of any vertex pair that differs at i and agrees on no
    other differing coordinate; the input must satisfy the pairwise sink
    condition.
    """
    ibit = 1 << (i - 1)
    rest = (1 << k) - 1 & ~ibit
    m = 1 << (k - 1)
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    lowers = [v for v in range(1 << k) if not v & ibit]
    for v in lowers:
        pv = drop_bit(v, i - 1)
        ov = out[v]
        for w_low in lowers:
            w = w_low | ibit
            if (v ^ w) & ~(ov ^ out[w]) & rest:
                continue
            a, b = find(pv), find(drop_bit(w_low, i - 1))
            if a != b:
                parent[a] = b
    groups = {}
    for p in range(m):
        groups.setdefault(find(p), []).append(p)
    return tuple(sorted(tuple(g) for g in groups.values()))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_join_count_sums_one_facet_per_orbit(n):
    from itertools import permutations

    from usokit.enumeration import _catalogue, _facet_orbits, _symmetry_images

    cat = _catalogue(n)
    orbits = _facet_orbits(n)
    assert sum(size for _, size in orbits) == len(cat)
    group = [
        (perm, m, s)
        for perm in permutations(range(n))
        for m in range(1 << n)
        for s in range(1 << n)
    ]

    def join_sum(low):
        # the pure-Python phase finder on the combed joins, independent of
        # the numpy kernel
        return sum(1 << len(_phase_projections(low + up, n + 1, n + 1)) for up in cat)

    covered = set()
    for rep, size in orbits:
        orbit = {_act(cat[rep], n, *g) for g in group}
        assert len(orbit) == size
        assert min(cat.index(out) for out in orbit) == rep
        assert not orbit & covered
        covered |= orbit
        for out in orbit:
            assert set(_symmetry_images(out, n)) <= orbit
        member = next((out for out in sorted(orbit) if out != cat[rep]), cat[rep])
        assert join_sum(member) == join_sum(cat[rep])
    assert covered == set(cat)
    if n == 3:
        assert sorted(size for _, size in orbits) == [8, 24, 24, 48, 48, 48, 64, 96, 192, 192]


def _lowest_edge_masks(classes, m):
    """The batch closure's row form: each class's mask at its lowest edge,
    0 at its other edges."""
    masks = [0] * m
    for cls in classes:
        masks[min(cls)] = sum(1 << q for q in cls)
    return masks


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_join_classes_are_the_combed_joins_phases(n):
    from usokit.enumeration import _catalogue, _facet_orbits, _join_classes

    cat = _catalogue(n)
    # every facet pair below n = 3; the orbit representatives x 744 at n = 3
    lows = [rep for rep, _ in _facet_orbits(n)] if n == 3 else range(len(cat))
    for li in lows:
        want = [
            _lowest_edge_masks(_phase_projections(cat[li] + up, n + 1, n + 1), 1 << n)
            for up in cat
        ]
        assert _join_classes(n + 1, li).tolist() == want


def test_join_count_is_the_all_pairs_sum():
    # every lower facet, not one per orbit: this tests the orbit argument
    # of _join_count at k = 4 itself
    import numpy as np

    from usokit.enumeration import _catalogue, _join_classes, _join_count

    total = sum(
        int((1 << np.count_nonzero(_join_classes(4, li), axis=1)).sum())
        for li in range(len(_catalogue(3)))
    )
    assert total == _join_count(4) == 5541744


def _closures_agree(tables, k):
    """Both phase closures against the union-find, at every coordinate: the
    batch fixpoint's rows, each class at its lowest edge, and _phase_masks'
    classes in the order of their lowest edges."""
    import numpy as np

    from usokit.transform import _edge_classes, _phase_masks

    for i in range(1, k + 1):
        batch = _edge_classes(np.array(tables), k, i).tolist()
        for out, row in zip(tables, batch):
            classes = _phase_projections(out, k, i)
            assert row == _lowest_edge_masks(classes, 1 << (k - 1))
            want = tuple(sum(1 << p for p in cls) for cls in classes)
            assert _phase_masks(bytes(out), k, i) == want


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_edge_classes_match_phase_projections_on_walks(k):
    from usokit.enumeration import _walk

    tables = [tuple(out) for out in _walk(k, 40, 100 + k)]
    if k == 5:
        # after step 1783 of _walk(5, 2000, 1000) the 5-edges form one class
        # that takes 6 growing rounds, the most seen on k = 5 walks; after
        # step 825 of _walk(5, 825, 1006) they also take 6, and 5 rounds
        # leave even the lowest edge's mask short
        for steps, seed in ((1783, 1000), (825, 1006)):
            *_, deep = _walk(5, steps, seed)
            tables.append(tuple(deep))
    _closures_agree(tables, k)


def test_closures_match_phase_projections_on_every_k3_table():
    from usokit.enumeration import _catalogue

    _closures_agree(list(_catalogue(3)), 3)


def _reference_join_stream(k):
    """The join stream as one pick loop per facet pair: pick's bit c flips
    class c, in the order of the classes' lowest edges.  The classes are
    the union-find's on the combed join, not the library's closure, and
    the tiles are tile_of's, not the library's facet tables."""
    from usokit import tile_of
    from usokit.enumeration import _catalogue

    cat = _catalogue(k - 1)
    size = 1 << k
    tiles = {(v, w): tile_of(v, w, k) for v in range(size) for w in range(size)}
    top = size >> 1
    for low in cat:
        for up in cat:
            table = low + up  # every connecting edge points down
            classes = _phase_projections(table, k, k)
            for pick in range(1 << len(classes)):
                word = sum(
                    1 << p for c, cls in enumerate(classes) if pick >> c & 1 for p in cls
                )
                # edge p joins vertices p and p + top; a flip points it up
                yield TileSet(k, [
                    tiles[v, w | (word >> (v & top - 1) & 1) << (k - 1)]
                    for v, w in enumerate(table)
                ])


# Facet 0 of the k = 4 join has 10,586 tilings, in 1,024-row slices of its
# block: the window crosses the slice start at 10,240, the facet's last,
# shorter slice, and the first slice start of facet 1, at 11,610.
K4_WINDOW = slice(10_000, 11_700)


@pytest.mark.parametrize(
    "k, n",
    [(1, None), (2, None), (3, None), (4, 20000), pytest.param(4, K4_WINDOW, id="4-window")],
)
def test_join_stream_is_the_reference_pick_loop(k, n):
    window = n if isinstance(n, slice) else slice(n)
    got = list(itertools.islice(enumerate_join(k), window.start, window.stop))
    assert got == list(itertools.islice(_reference_join_stream(k), window.start, window.stop))
    assert [ts.dim for ts in got] == [k] * len(got)


@pytest.mark.parametrize("k, window", [(k, slice(None)) for k in (1, 2, 3)] + [(4, K4_WINDOW)])
def test_join_text_is_write_tiling_of_the_stream(k, window):
    # the enumerate verb's text of a block: a slice's rows hold their tiles
    # in vertex order, which the helper sorts into line order
    import numpy as np

    from usokit.enumeration import _join_slices
    from usokit.formats import _write_tiling_rows

    slices = []
    for rows in _join_slices(k):
        slices.append(rows)
        if window.stop is not None and sum(map(len, slices)) >= window.stop:
            break
    block = np.concatenate(slices)[window]
    stream = itertools.islice(enumerate_join(k), window.start, window.stop)
    assert _write_tiling_rows(block, k) == "\n".join(map(write_tiling, stream))


def _keeps_classes(table, k, picks_for):
    """Reversing a union of i-classes leaves the i-classes as they were."""
    from usokit.transform import _phase_masks, _union

    masks = _phase_masks.__wrapped__  # each table's own closure, not a cache hit
    for i in range(1, k + 1):
        classes = masks(bytes(table), k, i)
        for pick in picks_for(len(classes)):
            image = _reversed(bytes(table), k, i, _union(classes, pick))
            assert masks(image, k, i) == classes


def test_a_step_keeps_its_coordinates_classes():
    # what lets the flip walk keep a coordinate's classes across its moves
    from usokit.enumeration import _catalogue, _walk

    def every(c):
        return range(1 << c)

    def spread(c):
        # every pick up to 6 classes; else each class alone, all of them,
        # and seeded unions
        if c <= 6:
            return every(c)
        rng = SplitMix64(c)
        return [1 << j for j in range(c)] + [(1 << c) - 1] + [
            rng.randbelow(1 << c) for _ in range(16)
        ]

    for table in _catalogue(3):
        _keeps_classes(table, 3, every)
    for k, seed in ((4, 41), (5, 51)):
        for table in itertools.islice(_walk(k, 300, seed), 0, None, 10):
            _keeps_classes(bytes(table), k, spread)


def _stream_digest(tilings):
    h = hashlib.blake2b(digest_size=8)
    for ts in tilings:
        h.update(bytes(sorted(ts.tiles)))
    return h.hexdigest()


# stream_digest (perfbench/workloads.py) of the join streams in their pinned
# order; the k = 4 value is slice 0 of perfbench/golden.json
@pytest.mark.parametrize(
    "k, digest",
    [(1, "90f63c87ad066494"), (2, "31c31055268e1016"), (3, "b65d24efdc24fdac")],
)
def test_join_stream_order_is_pinned(k, digest):
    assert _stream_digest(enumerate_join(k)) == digest


@pytest.mark.parametrize("jobs", [1, 2])
def test_join_k4_stream_head_is_pinned(jobs):
    head = itertools.islice(enumerate_join(4, jobs), 20000)
    assert _stream_digest(head) == "b9d46c0b6373ba30"


def _generic_randbelow(rng, n):
    """SplitMix64.randbelow's rejection rule, with no shortcut."""
    threshold = (1 << 64) - ((1 << 64) % n)
    while True:
        z = rng.next_u64()
        if z < threshold:
            return z % n


@pytest.mark.parametrize("n", [1 << c for c in range(17)] + [3, 4, 5, 6, 7, 1000003])
def test_randbelow_is_the_rejection_rule(n):
    from usokit.enumeration import SplitMix64

    fast, generic = SplitMix64(n), SplitMix64(n)
    draws = [fast.randbelow(n) for _ in range(10_000)]
    assert draws == [_generic_randbelow(generic, n) for _ in range(10_000)]
    assert fast.state == generic.state


@pytest.mark.parametrize("n", [2**64 + 1, 2**66, 3 * 2**64])
def test_randbelow_refuses_ranges_past_the_word(n):
    # 2**64 + 1 gave a threshold of 0 and never returned; 2**66 drew only
    # below 2**64
    with pytest.raises(ValueError, match=r"^n must be an int in 1\.\.2\*\*64, got "):
        SplitMix64(1).randbelow(n)
    rng, words = SplitMix64(1), SplitMix64(1)
    assert rng.randbelow(2**64) == words.next_u64()


@pytest.mark.parametrize("seed", [True, 1.5, "1", None, 1.0])
def test_splitmix_seed_is_an_int(seed):
    # True seeded as 1; the others raised a raw TypeError
    with pytest.raises(ValueError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
        SplitMix64(seed)


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4B7C15


def _unshift(y, s):
    """x with x ^ x >> s == y: each round fixes s more high bits."""
    x = y
    for _ in range(64 // s):
        x = y ^ x >> s
    return x


def _seed_with(word, n):
    """The seed whose SplitMix64 output n (from 1) is word: next_u64's mix,
    inverted, gives the state, and state n is seed + n * gamma."""
    z = _unshift(word, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK
    z = _unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK
    return _unshift(z, 30) - n * _GAMMA & _MASK


# the all-ones word is the one word that randbelow(3) and randbelow(5) draw
# again: at output 1, the first coordinate; at outputs 127 and 129, about a
# block boundary; at output 255, with the pick in the third block
REJECTED = [_seed_with(_MASK, n) for n in (1, 127, 129, 255)]


def test_seeds_with_a_rejected_word():
    for seed, n in zip(REJECTED, (1, 127, 129, 255)):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(n)][-1] == _MASK
    rng = SplitMix64(REJECTED[0])
    assert rng.randbelow(3) == SplitMix64(REJECTED[0] + _GAMMA).next_u64() % 3
    assert rng.state == REJECTED[0] + 2 * _GAMMA & _MASK


WORD_SEEDS = [0, 1, 2**63, -1, 2**64 + 5, 1234567]


@pytest.mark.parametrize("seed", WORD_SEEDS)
def test_block_words_are_next_u64(seed):
    import warnings

    from usokit.enumeration import _BLOCK, _splitmix_block, _words

    rng = SplitMix64(seed)
    n = 3 * _BLOCK + 7
    # every block boundary up to the fourth block, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = list(itertools.islice(_words(seed), n))
    assert got == [rng.next_u64() for _ in range(n)]
    # a block from any counter is the first block of the seed moved there
    for start in (5, _BLOCK - 1, 2**64 - 3, 10**30):
        again = SplitMix64(seed + start * _GAMMA)
        assert _splitmix_block(seed, start) == [again.next_u64() for _ in range(_BLOCK)]


def _reference_walk(k, steps, seed):
    """The flip walk drawn through SplitMix64.randbelow, a call per draw:
    the coordinate by randbelow(k), the classes' subset by
    randbelow(2^classes), and every table's classes closed afresh."""
    from usokit.transform import _phase_masks, _reversal, _reversal_rows, _union

    masks = _phase_masks.__wrapped__
    size = 1 << k
    state = 0
    table = bytes(size)
    yield table
    draw = SplitMix64(seed).randbelow
    for _ in range(steps):
        if k:
            i = 1 + draw(k)
            classes = masks(table, k, i)
            state ^= _reversal(_reversal_rows(k, i), _union(classes, draw(1 << len(classes))))
            table = state.to_bytes(size, "little")
        yield table


@pytest.mark.parametrize("k", range(6))
def test_walk_is_the_reference_walk(k):
    from usokit.enumeration import _BLOCK, _walk

    # two draws a step, so these walks read four blocks
    steps = 2 * _BLOCK - 3
    for seed in [7 + k, -1, *REJECTED]:
        assert list(_walk(k, steps, seed)) == list(_reference_walk(k, steps, seed))


def test_chain_states_are_frozen_values():
    from dataclasses import FrozenInstanceError

    first, second = itertools.islice(markov_walk(3, 5, 2), 2)
    for name in ("table", "step", "current", "other"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(first, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(first, name)
    assert first.current is first.current
    with pytest.raises(FrozenInstanceError):
        del first.current
    # equal only to an equal state, with the hash of its fields
    fields = (first.table, first.dim, first.step, first.seed)
    assert first == ChainState(*fields) and not first != ChainState(*fields)
    assert first != fields and fields != first and not first == fields
    assert first != second and first != list(fields)
    assert hash(first) == hash(fields) == hash(ChainState(*fields))
    for order in ("__lt__", "__le__", "__gt__", "__ge__"):
        with pytest.raises(TypeError, match="^chain states are not ordered$"):
            getattr(first, order)(second)


@pytest.mark.parametrize("jobs", [0, -1, "1", None, True, 1.0])
def test_jobs_is_checked_as_by_the_cli(jobs):
    # each was accepted and ignored
    with pytest.raises(ValueError, match="^jobs must be "):
        count_usos(2, "join", jobs)
    with pytest.raises(ValueError, match="^jobs must be "):
        enumerate_join(2, jobs)
