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
  stream builds each lower facet's tilings as one uint8 block
  (_join_block), a row of 2^k tiles per tiling, which fit a byte up to
  k = 4: per pair, the classes move to the front of the row, the
  connecting words of every subset come by doubling over them, so class
  c is bit c of the subset's index, the subsets below 2^(classes) stay,
  and each word's connecting bits are ORed into the lower facet's tiles
  and into the upper facet's (per-facet tile tables: a facet's tiles in
  vertex order from tiling._tile_row, and for the upper facet the same
  tiles with digit k's high bit set).  The stream yields a tile set per
  row of the blocks' 1,024-row slices (_join_slices); the enumerate verb
  writes the same slices as text, a chunk each (tiling._rows_text).
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
  splittable generator, so samples reproduce across platforms.  Its
  output n is a fixed mix of seed + n * gamma mod 2^64, so the walk takes
  its words _BLOCK at a time from one numpy expression on uint64 arrays
  (_splitmix_block), and reads them by SplitMix64.randbelow's rule: the
  coordinate is a word mod k, drawn again at or above the largest
  multiple of k up to 2^64, and the subset of classes is a word's low
  bits.  So the walk draws exactly the words, and makes exactly the
  moves, of one randbelow call per draw.  markov_walk's states are named
  tuples that hold their step's bytes and build the tiling only when it
  is read (ChainState.current).

The join and the walk run the phase kernel, so they import numpy on
first use (see _lazy); the brute route never does.

The number of 5-dimensional orientations with unique sinks is
638 560 878 292 512; everything at that scale is out of reach here, which
is what the caps encode.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain, count, product, repeat
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
_GAMMA = 0x9E3779B97F4B7C15  # the Weyl step: output n of seed s mixes s + n * _GAMMA
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _require_int(value, name: str) -> None:
    """Raise ValueError unless value's type is exactly int (not a bool)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


class SplitMix64:
    """Reproducible 64-bit generator (golden-gamma Weyl sequence mix).

    The seed is any int, taken mod 2^64.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        _require_int(seed, "seed")
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = self.state + _GAMMA & _MASK64
        z = self.state
        z = (z ^ z >> 30) * _MIX1 & _MASK64
        z = (z ^ z >> 27) * _MIX2 & _MASK64
        return z ^ z >> 31

    def randbelow(self, n: int) -> int:
        """Uniform int in range(n), 1 <= n <= 2^64, unbiased by rejection.

        A draw at or above the threshold, the largest multiple of n up to
        2^64, is drawn again.  For a power of two the threshold is 2^64
        itself, so the first draw is taken, and its low bits are z % n.
        """
        if type(n) is not int or not 0 < n <= 1 << 64:
            raise ValueError(f"n must be an int in 1..2**64, got {n!r}")
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
    _require_int(jobs, name)
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
def _facet_tiles(k: int) -> np.ndarray:
    """Per _catalogue(k - 1) entry: its packed tiles as lower and as upper
    facet, in vertex order, a uint8 array of shape (facets, 2, 2^(k-1)),
    read-only.

    The lower tiles are the facet's own, digit k 0; the upper ones set that
    digit's high bit, making it 2.  The direction of the connecting edge,
    the low bit of that digit, is ORed in per tiling.  k <= 4 tiles have at
    most 8 bits.
    """
    high = 2 << 2 * (k - 1)
    rows = [list(_tile_row(out, k - 1)) for out in _catalogue(k - 1)]
    tiles = np.array([(row, [t | high for t in row]) for row in rows], np.uint8)
    tiles.flags.writeable = False
    return tiles


@lru_cache(maxsize=None)
def _flip_words(k: int) -> np.ndarray:
    """Entry w: the connecting bits that connecting word w ORs into a
    facet's 2^(k-1) tiles, the bit in edge p's tile (vertex p of the
    facet) if w has bit p, as one word of _facet_tiles's bytes; read-only."""
    m = 1 << (k - 1)
    bits = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(np.uint8) << 2 * (k - 1)
    flips = bits.view(f"u{m}")[:, 0]
    flips.flags.writeable = False
    return flips


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


def _join_block(k: int, li: int) -> np.ndarray:
    """Every tiling of the joins of facet li as lower facet, in stream
    order: a uint8 row of 2^k tiles each, the lower facet's tiles, then
    the upper facet's.

    The upper facets go in catalogue order.  Within a pair, class c, in
    order of lowest edge, is bit c of the subset's index, counted up from
    0 below 2^(number of classes): the connecting words come by doubling
    over the classes, so the words of the subsets below 2^c hold classes
    0..c - 1 only.  Each word's connecting bits go into both facets' tiles.
    """
    masks = _join_classes(k, li)
    n, m = masks.shape
    phases = np.count_nonzero(masks, axis=1)
    # each pair's classes, in order, moved to columns 0..phases - 1
    classes = np.zeros_like(masks)
    classes[np.arange(m) < phases[:, None]] = masks[masks != 0]
    words = np.zeros((n, 1 << m), masks.dtype)
    for c in range(m):
        words[:, 1 << c:2 << c] = words[:, :1 << c] | classes[:, c, None]
    # 2^phases <= 256; the bound test took a quarter of its int64 time
    subsets = 1 << phases.astype(np.uint16)
    flips = _flip_words(k)[words[np.arange(1 << m, dtype=np.uint16) < subsets[:, None]]]
    # a facet's tiles as one word, as the flips
    tiles = _facet_tiles(k).view(flips.dtype)[..., 0]
    block = np.empty((len(flips), 2), flips.dtype)
    block[:, 0] = tiles[li, 0] | flips
    block[:, 1] = tiles[np.repeat(np.arange(n), subsets), 1] | flips
    return block.view(np.uint8)


# Rows per slice of a join block.  The enumerate verb writes a text chunk
# per slice, about 89 KB at k = 4; facet 0's whole block is 10,586 rows,
# whose text, made as bytes and then as str, takes about 0.9 MB each.
_SLICE = 1024


def _join_slices(k: int) -> Iterator[np.ndarray]:
    """The join's tilings as _join_block slices of at most _SLICE rows,
    lower facet by lower facet; unchecked."""
    for li in range(len(_catalogue(k - 1))):
        block = _join_block(k, li)
        for start in range(0, len(block), _SLICE):
            yield block[start:start + _SLICE]


def _join_stream(k: int) -> Iterator[TileSet]:
    """The join's tilings; a connecting bit sets only digit k, so in range.

    Each row's tiles reach frozenset as a bytes slice.  bytes are not
    tracked by the garbage collector, as tolist()'s row lists are: with
    20,000 tilings held, the lists took a quarter more collections.
    """
    n = 1 << k
    for rows in _join_slices(k):
        data = rows.tobytes()
        tiles = (data[start:start + n] for start in range(0, len(data), n))
        yield from map(_built, repeat(k), map(frozenset, tiles))


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


class ChainState(namedtuple("ChainState", "table dim step seed")):
    """The flip walk seeded with seed, after step moves.

    Holds that step's direction table, a byte per vertex of the dim-cube.
    .current, the tiling, is built from the table on its first read and
    kept, so a walk whose states are not read builds no tiling.  Two
    states are equal when their tilings, steps and seeds are; a state
    equals no other value, is not ordered and refuses assignment, as a
    frozen dataclass does.  A named tuple is built in half a frozen
    dataclass's time, which counts once per step of markov_walk.
    """

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):
        raise TypeError("chain states are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def current(self) -> TileSet:
        return _tiles_of(self.table, self.dim)


def _walk(k: int, steps: int, seed: int) -> Iterator[bytes]:
    """The direction tables after 0, 1, ..., steps moves from canonical.

    Yields each table as bytes, a word per byte (k <= MAX_SAMPLE_DIM).  The
    arguments are checked on the call, before any move.
    """
    _check_dim(k, 0, MAX_SAMPLE_DIM, f"sampling is capped at dimension {MAX_SAMPLE_DIM}")
    _require_int(steps, "steps")
    _require_int(seed, "seed")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    return _moves(k, steps, seed)


# Words per block of _splitmix_block: about 6 us of numpy calls per block
# against 0.5 us per SplitMix64.randbelow call, and a 64-step walk, which
# draws twice per step, takes one block.
_BLOCK = 128


@lru_cache(maxsize=None)
def _strides() -> np.ndarray:
    """n * _GAMMA mod 2^64 for n = 1.._BLOCK, wrapped by numpy's uint64."""
    strides = np.arange(1, _BLOCK + 1, dtype=np.uint64) * _GAMMA
    strides.flags.writeable = False
    return strides


def _splitmix_block(seed: int, start: int) -> list[int]:
    """Outputs start + 1 .. start + _BLOCK of SplitMix64(seed), as ints.

    SplitMix64 is counter-based: output n mixes seed + n * _GAMMA mod 2^64,
    so a block is next_u64's mix on uint64 arrays, which wrap as the
    generator masks.  Every operand is an array, so no scalar overflow
    warning can fire.
    """
    z = _strides() + (seed + start * _GAMMA & _MASK64)
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z.tolist()


def _words(seed: int) -> Iterator[int]:
    """SplitMix64(seed)'s outputs, from one _splitmix_block at a time."""
    return chain.from_iterable(map(partial(_splitmix_block, seed), count(0, _BLOCK)))


def _moves(k: int, steps: int, seed: int) -> Iterator[bytes]:
    # the table as one int, vertex v's word in byte lane v, so a move is
    # one XOR (transform._reversal)
    size = 1 << k
    state = 0
    table = bytes(size)
    yield table
    # SplitMix64(seed)'s words, a block at a time, read as randbelow reads
    # them: the coordinate is a word below the threshold mod k, drawn
    # again above it, and the pick is a word's low bits
    words = _words(seed)
    threshold = (1 << 64) - (1 << 64) % k if k else 0
    # a move reverses only i-edges, and the pair rule does not read their
    # direction, so the classes of i hold until another coordinate is drawn
    last, classes, rows, picks = None, (), (), 0
    for _ in range(steps):
        if k:
            z = next(words)
            while z >= threshold:
                z = next(words)
            i = 1 + z % k
            if i != last:
                last, classes, rows = i, _phase_masks(table, k, i), _reversal_rows(k, i)
                picks = (1 << len(classes)) - 1
            state ^= _reversal(rows, _union(classes, next(words) & picks))
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
