"""Exhaustive enumeration, counting, and Markov sampling of USO tilings.

Three routes:

* brute: walk all 2^(k 2^(k-1)) edge-direction words and keep the ones
  passing the pairwise sink test.  Capped at k <= 3 (4096 candidates).
* join: build k-dimensional orientations from ordered pairs of
  (k-1)-dimensional facet orientations plus one direction word for the
  2^(k-1) connecting edges.  Joining the facets with every connecting
  edge pointing down (the combed join) gives a USO, and the words that
  work are exactly the flip sets of its k-edges: the unions of its
  k-phases (Schurr's phases, see transform).  So the phase kernel,
  transform._edge_classes, run on the combed joins of one lower facet
  with every upper facet, drives both routes with class masks: a pair's
  row holds each class at its lowest edge and 0 at its other edges.  The
  stream takes, per facet pair and class, the tiles of the class's edges
  from per-facet tile tables (a facet's tiles in vertex order from
  tiling._tile_row, and for the upper facet the same tiles with digit k's
  high bit set), once without and once with the connecting bit, and
  yields one tiling per choice of list for each class.
  The counter needs the sum of 2^phases per facet pair.  That sum over
  all upper facets is the same for every lower facet in one orbit of the
  counting group (coordinate permutations, mirror and flip_dimension,
  applied to both facets at once; see _symmetry_images), so the counter
  takes one representative per orbit, weighted by the orbit's size:
  10 x 744 facet pairs instead of 744^2 at k = 4.  Stream and count run
  in this process; the jobs argument of enumerate_join and count_usos is
  checked and ignored.  Capped at k <= 4.
* sample_markov: random walk on the flip graph, its state one int with
  a byte lane per vertex.  Each step draws a coordinate uniformly, takes
  its phase classes by the same pair rule (transform._linked), closed on
  the state's bytes in Python ints by transform._phase_masks, and
  reverses a uniformly chosen subset of classes with one XOR, of the mask
  transform._reversal looks up per byte of the subset's edge word, the
  edge reversal phase_flip uses.  Reversing a union of classes leaves the
  class family itself unchanged, so every move has the same probability
  as its inverse and the walk's stationary distribution is uniform.  The
  same fact lets the walk keep the classes of the last coordinate drawn
  and compute them again only when another coordinate comes up: a move
  at i reverses only i-edges, and the pair rule reads no direction at i.
  Randomness comes from SplitMix64 (RNG_ALGORITHM below), a 64-bit
  splittable generator, so samples reproduce across platforms.
  markov_walk's states hold their step's bytes and build the tiling only
  when it is read (ChainState.current).

The join and the walk run the phase kernel, so they import numpy on
first use (see _lazy); the brute route never does.

The number of 5-dimensional orientations with unique sinks is
638 560 878 292 512; everything at that scale is out of reach here, which
is what the caps encode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, product
from typing import Iterator

from ._lazy import np
from .cube import _pairwise_ok, _require_dim, drop_bit
from .errors import EnumerationLimitError
from .tiling import TileSet, _built, _tile_row, _tiles_of
from .transform import PHASE_DIM_CAP, _edge_classes, _phase_masks, _reversal, _reversal_rows, _union

MAX_BRUTE_DIM = 3
MAX_JOIN_DIM = 4
MAX_SAMPLE_DIM = PHASE_DIM_CAP  # each step closes the phase classes of its state

RNG_ALGORITHM = "splitmix64"

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Reproducible 64-bit generator (golden-gamma Weyl sequence mix)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = self.state + 0x9E3779B97F4B7C15 & _MASK64
        z = self.state
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
        return z ^ z >> 31

    def randbelow(self, n: int) -> int:
        """Uniform int in range(n), unbiased by rejection.

        For a power of two the threshold is 2^64 itself, so the first draw
        is taken, and its low bits are z % n.
        """
        if n <= 0:
            raise ValueError("empty range")
        if not n & n - 1:
            return self.next_u64() & n - 1
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            z = self.next_u64()
            if z < threshold:
                return z % n


def _check_jobs(jobs, name: str = "jobs") -> None:
    """Raise ValueError unless jobs is an int, not a bool, of at least 1:
    the rule of the CLI's --jobs, which calls it with that name."""
    if type(jobs) is not int:
        raise ValueError(f"{name} must be an int, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"{name} must be at least 1, got {jobs}")


def _check_dim(k: int, low: int, cap: int, limit: str) -> None:
    """Raise unless k is an int (cube._require_dim) in low..cap.

    Outside the range, the EnumerationLimitError says limit.
    """
    _require_dim(k)
    if not low <= k <= cap:
        raise EnumerationLimitError(limit)


# ---------------------------------------------------------------------------
# brute force


def _check_brute_dim(k: int) -> None:
    _check_dim(k, 0, MAX_BRUTE_DIM, f"brute enumeration is capped at dimension {MAX_BRUTE_DIM}")


@lru_cache(maxsize=None)
def _catalogue(k: int) -> tuple:
    """All k-dimensional USO direction tables, canonically ordered.

    Canonical order is lexicographic in the serialized tiling (sorted tile
    strings), matching what the stream verbs print.  The callers check k:
    the public routes through _check_brute_dim, the join with k - 1.
    """
    n = 1 << k
    # column i, entry w: the table's i-bits when the n/2 i-edges point as
    # the bits of w, the i-edge at vertex v being bit drop_bit(v, i)
    columns = [
        [tuple((w >> drop_bit(v, i) & 1) << i for v in range(n)) for w in range(1 << (n >> 1))]
        for i in range(k)
    ]
    found = []
    for parts in product(*columns):
        out = tuple(map(sum, zip(*parts))) if k else (0,)
        if _pairwise_ok(out, k):
            found.append(out)
    found.sort(key=lambda out: _serial_key(out, k))
    return tuple(found)


def _serial_key(out, k: int) -> tuple:
    return tuple(_tiles_of(out, k).strings())


def enumerate_brute(k: int) -> Iterator[TileSet]:
    """Every k-dimensional USO tiling, by exhausting direction words.

    The dimension is checked on the call, before any tiling is built.
    """
    _check_brute_dim(k)
    return (_tiles_of(out, k) for out in _catalogue(k))


# ---------------------------------------------------------------------------
# facet join


def _check_join_dim(k: int) -> None:
    _check_dim(k, 1, MAX_JOIN_DIM, f"join enumeration is capped at dimensions 1..{MAX_JOIN_DIM}")


def _swap_bits(w: int, i: int) -> int:
    """w with bits i and i + 1 exchanged."""
    t = (w >> i ^ w >> (i + 1)) & 1
    return w ^ (t << i | t << (i + 1))


def _symmetry_images(out, n: int) -> Iterator[tuple]:
    """Images of a direction table under generators of the counting group.

    The group maps out to out' with out'[pi(v ^ m)] = pi(out[v] ^ s), where
    pi permutes coordinates, m moves vertices as mirror does and s
    reverses whole coordinates as flip_dimension does.  It maps USOs to
    USOs.  Applied to both facets of a join it keeps
    (a ^ b) & ~(low[a] ^ up[b]) up to relabelling a and b, so the join's
    phases keep their shape.  It is larger than the n-cube's automorphism
    group: reflecting coordinate i is mirror followed by flip_dimension,
    and the group holds each of the two on its own.  The generators are
    each mirror, each reversal and each exchange of neighbouring
    coordinates.
    """
    size = 1 << n
    for i in range(n):
        bit = 1 << i
        yield tuple(out[v ^ bit] for v in range(size))
        yield tuple(w ^ bit for w in out)
    for i in range(n - 1):
        yield tuple(_swap_bits(out[_swap_bits(v, i)], i) for v in range(size))


@lru_cache(maxsize=None)
def _facet_orbits(n: int) -> tuple:
    """(representative index, orbit size) per counting-group orbit of _catalogue(n).

    The counting group is _symmetry_images's, not the automorphism group
    of the n-cube, so its orbits are not isomorphism classes.

    The representative is the orbit's lowest index; orbits come in
    increasing order of it.
    """
    cat = _catalogue(n)
    index = {out: i for i, out in enumerate(cat)}
    seen = set()
    orbits = []
    for rep, out in enumerate(cat):
        if rep in seen:
            continue
        seen.add(rep)
        frontier = [out]
        size = 0
        while frontier:
            size += 1
            for image in _symmetry_images(frontier.pop(), n):
                j = index[image]
                if j not in seen:
                    seen.add(j)
                    frontier.append(image)
        orbits.append((rep, size))
    return tuple(orbits)


@lru_cache(maxsize=None)
def _facet_tiles(k: int) -> tuple:
    """Per _catalogue(k - 1) entry: its packed tiles as lower and as upper
    facet, in vertex order.

    The lower tiles are the facet's own, digit k 0; the upper ones set that
    digit's high bit, making it 2.  The direction of the connecting edge,
    the low bit of that digit, is ORed in per tiling.
    """
    high = 2 << 2 * (k - 1)
    rows = [tuple(_tile_row(out, k - 1)) for out in _catalogue(k - 1)]
    return tuple((row, tuple(t | high for t in row)) for row in rows)


@lru_cache(maxsize=None)
def _catalogue_array(n: int) -> np.ndarray:
    cat = np.array(_catalogue(n), dtype=np.uint8)
    cat.flags.writeable = False
    return cat


def _join_classes(k: int, li: int) -> np.ndarray:
    """Connecting-edge phase masks of facet li joined with every facet.

    Row j is the combed join of _catalogue(k - 1)[li] as lower facet with
    entry j as upper facet: every connecting edge points down, which is a
    USO.  The connecting words the pair accepts are the unions of its
    k-phases, so the pair gives 2^(number of nonzero entries) tilings:
    each class sits at its lowest edge, and the row holds 0 elsewhere.
    """
    cat = _catalogue_array(k - 1)
    combed = np.concatenate([np.broadcast_to(cat[li], cat.shape), cat], axis=1)
    return _edge_classes(combed, k, k)


def _join_stream(k: int) -> Iterator[TileSet]:
    """The join's tilings; a connecting bit sets only digit k, so in range.

    Each class of a facet pair contributes the lower and upper tiles of its
    edges whole: without the connecting bit, or with it.  product varies
    its last factor fastest, so over the classes in reverse, class c is bit
    c of a count from 0: every class down, then class 0 flipped, and so on.
    """
    tables = _facet_tiles(k)
    bit = 1 << 2 * (k - 1)
    for li, (low_tiles, _) in enumerate(tables):
        for (_, up_tiles), masks in zip(tables, _join_classes(k, li).tolist()):
            sides = []
            for cls in filter(None, reversed(masks)):
                tiles = []
                while cls:
                    p = (cls & -cls).bit_length() - 1
                    tiles += low_tiles[p], up_tiles[p]
                    cls &= cls - 1
                sides.append((tiles, [t | bit for t in tiles]))
            for pick in product(*sides):
                yield _built(k, frozenset(chain.from_iterable(pick)))


def enumerate_join(k: int, jobs: int = 1) -> Iterator[TileSet]:
    """Every k-dimensional USO tiling, by joining facet pairs.

    The dimension and jobs are checked on the call, before any tiling is
    built.  The stream runs in this process; jobs is checked and ignored.
    """
    _check_join_dim(k)
    _check_jobs(jobs)
    return _join_stream(k)


def _join_count(k: int) -> int:
    """Σ over facet pairs of 2^phases, one lower facet per counting-group orbit.

    The sum over upper facets is the same for every lower facet of an
    orbit (see _symmetry_images), so each representative's sum counts
    orbit-size times.
    """
    _check_join_dim(k)
    total = 0
    for li, orbit_size in _facet_orbits(k - 1):
        phases = np.count_nonzero(_join_classes(k, li), axis=1)
        total += orbit_size * int((1 << phases).sum())
    return total


# ---------------------------------------------------------------------------
# counting


@dataclass(frozen=True)
class EnumerationReport:
    dim: int
    count: int
    method: str
    elapsed: float

    def line(self) -> str:
        return f"count k={self.dim} method={self.method} value={self.count}"


def count_usos(k: int, method: str = "brute", jobs: int = 1) -> EnumerationReport:
    """Count all k-dimensional USOs with the chosen method.

    The count runs in this process; jobs is checked as by the CLI's --jobs
    and ignored.
    """
    _check_jobs(jobs)
    start = time.perf_counter()
    if method == "brute":
        _check_brute_dim(k)
        n = len(_catalogue(k))
    elif method == "join":
        n = _join_count(k)
    else:
        raise ValueError(f"unknown method {method!r}")
    return EnumerationReport(k, n, method, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Markov sampling


@dataclass(frozen=True)
class ChainState:
    """The flip walk seeded with seed, after step moves.

    Holds that step's direction table, a byte per vertex of the dim-cube.
    .current, the tiling, is built from the table on its first read and
    kept, so a walk whose states are not read builds no tiling.  Two
    states are equal when their tilings, steps and seeds are.
    """

    table: bytes
    dim: int
    step: int
    seed: int

    @cached_property
    def current(self) -> TileSet:
        return _tiles_of(self.table, self.dim)


def _walk(k: int, steps: int, seed: int) -> Iterator[bytes]:
    """The direction tables after 0, 1, ..., steps moves from canonical.

    Yields each table as bytes, a word per byte (k <= MAX_SAMPLE_DIM).  The
    arguments are checked on the call, before any move.
    """
    _check_dim(k, 0, MAX_SAMPLE_DIM, f"sampling is capped at dimension {MAX_SAMPLE_DIM}")
    for name, value in (("steps", steps), ("seed", seed)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    return _moves(k, steps, seed)


def _moves(k: int, steps: int, seed: int) -> Iterator[bytes]:
    # the table as one int, vertex v's word in byte lane v, so a move is
    # one XOR (transform._reversal)
    size = 1 << k
    state = 0
    table = bytes(size)
    yield table
    draw = SplitMix64(seed).randbelow
    # a move reverses only i-edges, and the pair rule does not read their
    # direction, so the classes of i hold until another coordinate is drawn
    last, classes, rows = None, (), ()
    for _ in range(steps):
        if k:
            i = 1 + draw(k)
            if i != last:
                last, classes, rows = i, _phase_masks(table, k, i), _reversal_rows(k, i)
            state ^= _reversal(rows, _union(classes, draw(1 << len(classes))))
            table = state.to_bytes(size, "little")
        yield table


def markov_walk(k: int, steps: int, seed: int) -> Iterator[ChainState]:
    """States of the flip walk, starting from the canonical orientation.

    The arguments are checked on the call, before any state is built.
    """
    walk = enumerate(_walk(k, steps, seed))
    return (ChainState(table, k, step, seed) for step, table in walk)


def sample_markov(k: int, steps: int, seed: int) -> TileSet:
    """The tiling after `steps` flip-walk moves from canonical."""
    walk = _walk(k, steps, seed)
    table = next(walk)
    # the 0-cube has one orientation, so no move changes it
    for table in walk if k else ():
        pass
    return _tiles_of(table, k)
