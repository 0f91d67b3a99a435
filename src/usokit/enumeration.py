"""Exhaustive enumeration, counting, and Markov sampling of USO tilings.

Three routes:

* brute: walk all 2^(k 2^(k-1)) edge-direction words and keep the ones
  passing the pairwise sink test.  Capped at k <= 3 (4096 candidates).
* join: build k-dimensional orientations from ordered pairs of
  (k-1)-dimensional facet orientations plus one direction word for the
  2^(k-1) connecting edges.  A cross pair of facet vertices with no
  agreeing differing coordinate forces its two connecting edges equal
  (never opposite, because each facet already passes on its own), so the
  words that work are exactly the constant-on-components assignments of
  the resulting constraint graph.  The stream yields those assignments
  one by one, building each tile set from per-facet tile tables.  The
  counter needs the sum of 2^components per facet pair.  That sum over
  all upper facets is the same for every lower facet in one orbit of the
  (k-1)-cube's symmetry group (coordinate permutations, reflections and
  whole-coordinate reversals, applied to both facets at once), so the
  counter takes one representative per orbit, weighted by the orbit's
  size: 10 x 744 facet pairs instead of 744^2 at k = 4.  It is
  vectorized with numpy, and jobs > 1 shards the representatives over a
  process pool.  Capped at k <= 4.
* sample_markov: random walk on the flip graph.  Each step draws a
  coordinate uniformly, computes its phase classes, and reverses a
  uniformly chosen subset of classes.  Reversing a union of classes
  leaves the class family itself unchanged, so every move has the same
  probability as its inverse and the walk's stationary distribution is
  uniform.  Randomness comes from SplitMix64 (RNG_ALGORITHM below), a
  64-bit splittable generator, so samples reproduce across platforms.

The number of 5-dimensional orientations with unique sinks is
638 560 878 292 512; everything at that scale is out of reach here, which
is what the caps encode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import Pool
from operator import or_
from typing import Iterator

import numpy as np

from .cube import _pairwise_ok, drop_bit
from .errors import EnumerationLimitError
from .tiling import TileSet, _tiles_of, tile_of
from .transform import _expand, _phase_projections

MAX_BRUTE_DIM = 3
MAX_JOIN_DIM = 4
MAX_SAMPLE_DIM = 5

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
        """Uniform int in range(n), unbiased by rejection."""
        if n <= 0:
            raise ValueError("empty range")
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            z = self.next_u64()
            if z < threshold:
                return z % n


# ---------------------------------------------------------------------------
# brute force


@lru_cache(maxsize=None)
def _catalogue(k: int) -> tuple:
    """All k-dimensional USO direction tables, canonically ordered.

    Canonical order is lexicographic in the serialized tiling (sorted tile
    strings), matching what the stream verbs print.
    """
    if not 0 <= k <= MAX_BRUTE_DIM:
        raise EnumerationLimitError(
            f"brute enumeration is capped at dimension {MAX_BRUTE_DIM}"
        )
    n = 1 << k
    edges = k * (n >> 1)
    positions = []
    for v in range(n):
        row = []
        for i in range(1, k + 1):
            e = (i - 1) * (n >> 1) + drop_bit(v, i - 1)
            row.append((e, i - 1))
        positions.append(row)
    found = []
    for word in range(1 << edges):
        out = tuple(
            sum((word >> e & 1) << b for e, b in positions[v]) for v in range(n)
        )
        if _pairwise_ok(out, k):
            found.append(out)
    found.sort(key=lambda out: _serial_key(out, k))
    return tuple(found)


def _serial_key(out, k: int) -> tuple:
    return tuple(_tiles_of(out, k).strings())


def enumerate_brute(k: int) -> Iterator[TileSet]:
    """Yield every k-dimensional USO tiling by exhausting direction words."""
    for out in _catalogue(k):
        yield _tiles_of(out, k)


# ---------------------------------------------------------------------------
# facet join


def _cross_components(low, up, n: int) -> list[int]:
    """Component bitmasks of the connecting-edge constraint graph.

    low and up are (k-1)-dimensional direction tables; position a of the
    word is the edge over facet vertex a.  Vertices a (lower side) and b
    (upper side) constrain word[a] == word[b] when no coordinate where
    they differ carries equal directions.
    """
    size = 1 << n
    full = size - 1
    adj = [0] * size
    for a in range(size):
        la = low[a]
        for b in range(size):
            if a != b and not (a ^ b) & ~(la ^ up[b]) & full:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    comps = []
    seen = 0
    for a in range(size):
        if seen >> a & 1:
            continue
        frontier = 1 << a
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                low_bit = f & -f
                nxt |= adj[low_bit.bit_length() - 1]
                f ^= low_bit
            frontier = nxt & ~comp
        comps.append(comp)
        seen |= comp
    return comps


def _check_join_dim(k: int) -> None:
    if not 1 <= k <= MAX_JOIN_DIM:
        raise EnumerationLimitError(
            f"join enumeration is capped at dimensions 1..{MAX_JOIN_DIM}"
        )


def _swap_bits(w: int, i: int) -> int:
    """w with bits i and i + 1 exchanged."""
    t = (w >> i ^ w >> (i + 1)) & 1
    return w ^ (t << i | t << (i + 1))


def _symmetry_images(out, n: int) -> Iterator[tuple]:
    """Images of a direction table under generators of the n-cube's symmetries.

    The group maps out to out' with out'[pi(v ^ m)] = pi(out[v] ^ s), where
    pi permutes coordinates, m reflects vertices (as mirror does) and s
    reverses whole coordinates (as flip_dimension does).  It maps USOs to
    USOs.  Applied to both facets of a join it keeps
    (a ^ b) & ~(low[a] ^ up[b]) up to relabelling a and b, so the
    constraint graph keeps its shape.  The generators are each reflection,
    each reversal and each exchange of neighbouring coordinates.
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
    """(representative index, orbit size) per symmetry orbit of _catalogue(n).

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
    """Per _catalogue(k - 1) entry: its packed tiles as lower and as upper facet.

    Coordinate k carries digit 0 in the lower tiles and 2 in the upper
    ones; the direction of the connecting edge, the low bit of that digit,
    is ORed in per tiling.
    """
    top = 1 << (k - 1)
    return tuple(
        (
            tuple(tile_of(p, out[p], k) for p in range(top)),
            tuple(tile_of(p | top, out[p], k) for p in range(top)),
        )
        for out in _catalogue(k - 1)
    )


def _join_block(k: int, lo: int, hi: int) -> list[frozenset]:
    """All tilings whose lower facet index lies in [lo, hi)."""
    cat = _catalogue(k - 1)
    tables = _facet_tiles(k)
    top = 1 << (k - 1)
    shift = 2 * (k - 1)
    out = []
    for li in range(lo, hi):
        low = cat[li]
        low_tiles = tables[li][0]
        for up, (_, up_tiles) in zip(cat, tables):
            comps = _cross_components(low, up, k - 1)
            for pick in range(1 << len(comps)):
                word = 0
                for c, comp in enumerate(comps):
                    if pick >> c & 1:
                        word |= comp
                bits = [(word >> p & 1) << shift for p in range(top)]
                out.append(
                    frozenset([*map(or_, low_tiles, bits), *map(or_, up_tiles, bits)])
                )
    return out


def enumerate_join(k: int, jobs: int = 1) -> Iterator[TileSet]:
    """Yield every k-dimensional USO tiling by joining facet pairs."""
    _check_join_dim(k)
    cat = _catalogue(k - 1)
    if jobs <= 1:
        for lo in range(len(cat)):
            for tiles in _join_block(k, lo, lo + 1):
                yield TileSet(k, tiles)
        return
    chunks = [(k, lo, min(lo + 8, len(cat))) for lo in range(0, len(cat), 8)]
    with Pool(jobs) as pool:
        for block in pool.imap(_join_block_star, chunks):
            for tiles in block:
                yield TileSet(k, tiles)


def _join_block_star(args) -> list[frozenset]:
    return _join_block(*args)


def _join_count_block(k: int, orbits) -> int:
    """Sum over (lower index, orbit size) pairs of size * Σ_upper 2^components."""
    cat = np.array(_catalogue(k - 1), dtype=np.uint8)
    n = k - 1
    size = 1 << n
    full = size - 1
    a = np.arange(size, dtype=np.uint8)
    xor_ab = a[:, None] ^ a[None, :]
    eye = np.eye(size, dtype=bool)
    total = 0
    for li, orbit_size in orbits:
        low = cat[li]
        disagree = low[None, :, None] ^ cat[:, None, :]
        bad = (xor_ab[None, :, :] & ~disagree & full) == 0
        bad &= ~eye[None, :, :]
        reach = (bad | bad.transpose(0, 2, 1) | eye[None, :, :]).astype(np.uint8)
        for _ in range(max(1, n)):
            reach = np.minimum(reach @ reach, 1)
        weights = np.left_shift(np.int64(1), np.arange(size, dtype=np.int64))
        ids = (reach.astype(np.int64) * weights[None, None, :]).sum(axis=2)
        ids.sort(axis=1)
        comps = 1 + (ids[:, 1:] != ids[:, :-1]).sum(axis=1)
        total += orbit_size * int(np.left_shift(np.int64(1), comps).sum())
    return total


def _join_count_block_star(args) -> int:
    return _join_count_block(*args)


def _join_count(k: int, jobs: int) -> int:
    """Σ over facet pairs of 2^components, one lower facet per symmetry orbit.

    The sum over upper facets is the same for every lower facet of an
    orbit (see _symmetry_images), so each representative's sum counts
    orbit-size times.
    """
    _check_join_dim(k)
    orbits = _facet_orbits(k - 1)
    if jobs <= 1:
        return _join_count_block(k, orbits)
    step = max(1, (len(orbits) + 4 * jobs - 1) // (4 * jobs))
    chunks = [(k, orbits[lo:lo + step]) for lo in range(0, len(orbits), step)]
    with Pool(jobs) as pool:
        return sum(pool.map(_join_count_block_star, chunks))


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
    """Count all k-dimensional USOs with the chosen method."""
    start = time.perf_counter()
    if method == "brute":
        n = len(_catalogue(k))
    elif method == "join":
        n = _join_count(k, jobs)
    else:
        raise ValueError(f"unknown method {method!r}")
    return EnumerationReport(k, n, method, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Markov sampling


@dataclass(frozen=True)
class ChainState:
    current: TileSet
    step: int
    seed: int


def _check_sample_dim(k: int) -> None:
    if not 0 <= k <= MAX_SAMPLE_DIM:
        raise EnumerationLimitError(
            f"sampling is capped at dimension {MAX_SAMPLE_DIM}"
        )


def _step(out: list, k: int, rng: SplitMix64) -> None:
    i = 1 + rng.randbelow(k)
    classes = _phase_projections(tuple(out), k, i)
    pick = rng.randbelow(1 << len(classes))
    ibit = 1 << (i - 1)
    for c, cls in enumerate(classes):
        if pick >> c & 1:
            for p in cls:
                v = _expand(p, i)
                out[v] ^= ibit
                out[v | ibit] ^= ibit


def _walk(k: int, steps: int, seed: int) -> Iterator[list]:
    """The direction words after 0, 1, ..., steps moves from canonical.

    Yields one list, updated in place between yields.
    """
    _check_sample_dim(k)
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    out = [0] * (1 << k)
    yield out
    rng = SplitMix64(seed)
    for _ in range(steps):
        if k:
            _step(out, k, rng)
        yield out


def markov_walk(k: int, steps: int, seed: int) -> Iterator[ChainState]:
    """States of the flip walk, starting from the canonical orientation."""
    for step, out in enumerate(_walk(k, steps, seed)):
        yield ChainState(_tiles_of(out, k), step, seed)


def sample_markov(k: int, steps: int, seed: int) -> TileSet:
    """The tiling after `steps` flip-walk moves from canonical."""
    # the 0-cube has one orientation, so no move changes it
    for out in _walk(k, steps if k else min(steps, 0), seed):
        pass
    return _tiles_of(out, k)
