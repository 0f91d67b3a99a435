"""Tile strings over {0,1,2,3} and their bijection with orientations.

A k-dimensional tile is a word of k digits; digit i describes coordinate i
of one cube of a 4-periodic tiling.  Two tiles can sit next to each other
without overlap exactly when some coordinate differs by exactly 2, and a
set of 2^k pairwise compatible tiles covers space.  Under the digit maps

    vertex bit  = 1 iff digit in {2, 3}
    direction   = 1 iff digit in {1, 3}

such a set is the same thing as a unique sink orientation: the vertex map
is a bijection and the pairwise compatibility test becomes the pairwise
sink condition.  Twin tiles (differing in a single coordinate, there by
exactly 2) correspond to flippable edges; twins finds each tile's twins by
lookup, so the pairwise kernel, on tiles or on the vertex table, is the
one pair test.

Tiles are stored packed, 2 bits per coordinate with coordinate 1 in the
lowest slot, so the compatibility test is a couple of word operations.
Digit strings (coordinate 1 first) appear at every API boundary, and
tile_pack and tile_unpack are their per-word codec: tile_pack checks a word's
characters, its callers its length.  The 0-dimensional empty tile packs
to 0 and prints as "" here, "-" in files.

A packed tile is a vertex and its direction word interleaved bit by bit
(a Morton code): the vertex in the odd bits, the direction word in the
even ones.  One bit-parallel codec converts between the two spellings.
tile_of spreads each word through _SPREAD, a 1,024-entry table read 10
bits at a time; tile_vertex and tile_out compact with the five-step mask
ladder of _compact, which takes the 64-bit tiles of 32 coordinates, as a
Python int or a numpy uint64 array.  Whole tables go through it at once:
_tiles_of in one comprehension over the spread table, vertex_outmaps
through numpy from 2^KERNEL_MIN_DIM tiles, the kernel's threshold.

A whole set of words has two functions, and the route choice lives only
in them: tile_lines writes a tile set as its sorted "\n"-ended words, and
pack_lines packs exactly n such lines back, or returns None.  From
KERNEL_MIN_DIM up to the 32 digits of a uint64 (_BLOCK_DIMS) both work in
one numpy block: one digit matrix, one np.lexsort and one tobytes() out,
one frombuffer and one digit bound in.  Below, numpy's fixed cost per call
loses to tile_pack and tile_unpack: tile_lines sorts the per-word codec's
words, and pack_lines returns None, as it does for any text not in that
exact form, so that the caller reads word by word with its own messages.
TileSet.strings(), formats.write_tiling and formats.read_tiling use them,
and so do the label keys of rewrite._rewrite.  numpy is imported on the
first numpy route taken (see _lazy), so tile sets below KERNEL_MIN_DIM
never import it.

A tiling is verified once, by one verdict, ``_tiling_ok``.  Below
KERNEL_MIN_DIM it is the tile pair test on the packed tiles; from there
up it is the sink pair test on the vertex table of vertex_outmaps, in
k-bit words, which is the same test, as tiles that share a vertex are
incompatible.  Operations that need a complete tiling go through
``_require_tiling``, which runs the verdict on first use and keeps it on
the immutable tile set; ``tiles_from_uso`` output carries the verdict
from birth.  ``uso_from_tiles`` builds the vertex table once, for the
verdict and the orientation (``cube._verified``, which skips the edge
scan the pair test implies).  The public ``tiling_defect`` and
``is_tiling`` always run the verdict (and keep it); ``tiling_defect``
runs the tile pair scan only after a failed verdict, to name the first
incompatible pair in tile order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as iproduct
from operator import or_
from typing import Iterator

from ._lazy import np
from .cube import Orientation, _keep_verdict, _pairwise_ok, _require_uso, _verified
from .errors import NotATilingError
from .pairwise import KERNEL_MIN_DIM, MAX_WORD_BITS, incompatible_pairs

DIGITS = "0123"


# ---------------------------------------------------------------------------
# packed tiles


_TILE_WORD = re.compile("[0-3]*")

# tile_unpack's table: the 5-digit word of every 10-bit chunk
_CHUNKS = tuple("".join(p)[::-1] for p in iproduct(DIGITS, repeat=5))


def _spread_table() -> list[int]:
    """Entry x is x with bit i moved to bit 2i, for x < 1024, by doubling."""
    table = [0]
    for i in range(10):
        table += [t | 1 << 2 * i for t in table]
    return table


_SPREAD = _spread_table()
_SPREAD_UP = [t << 1 for t in _SPREAD]  # the vertex half of a tile


def tile_pack(s: str) -> int:
    """Pack a digit string, coordinate 1 into the lowest 2-bit slot.

    The pattern test comes first, as int() also takes "_", "+",
    whitespace and non-ASCII digits.
    """
    if not _TILE_WORD.fullmatch(s):
        bad = next(c for c in s if c not in DIGITS)
        raise ValueError(f"bad tile character {bad!r}")
    return int(s[::-1], 4) if s else 0


def tile_unpack(t: int, k: int) -> str:
    return "".join(_CHUNKS[t >> (10 * i) & 1023] for i in range((k + 4) // 5))[:k]


def _spread(x: int) -> int:
    """x >= 0 with bit i moved to bit 2i, through _SPREAD 10 bits at a time."""
    s = _SPREAD[x & 1023]
    x >>= 10
    shift = 20
    while x:
        s |= _SPREAD[x & 1023] << shift
        x >>= 10
        shift += 20
    return s


# Dimensions whose digit text goes through numpy in whole blocks: from the
# kernel's threshold, below which numpy's fixed cost per call loses, up to
# tiles that fit one uint64.
_BLOCK_DIMS = range(KERNEL_MIN_DIM, MAX_WORD_BITS // 2 + 1)


@lru_cache(maxsize=None)
def _digit_shifts():
    """The 2-bit slot of each of the 32 digits of a uint64, read-only."""
    shifts = np.arange(0, MAX_WORD_BITS, 2, dtype=np.uint64)
    shifts.flags.writeable = False
    return shifts


def tile_lines(tiles, k: int) -> str:
    """The k-digit words of packed tiles, sorted, one "\\n"-ended line each.

    In a block, digit column j holds coordinate j + 1.  np.lexsort takes
    its primary key last, so the columns go in reversed: coordinate 1
    first is string order.
    """
    if k not in _BLOCK_DIMS:
        return "".join(sorted(tile_unpack(t, k) + "\n" for t in tiles))
    packed = np.fromiter(tiles, np.uint64, len(tiles))
    digits = (packed[:, None] >> _digit_shifts()[:k] & 3).astype(np.uint8)
    block = np.empty((len(packed), k + 1), np.uint8)
    block[:, :k] = digits[np.lexsort(digits.T[::-1])] + 48
    block[:, k] = 10
    return block.tobytes().decode("ascii")


def pack_lines(text: str, n: int, k: int) -> list[int] | None:
    """The packed tiles of n lines of k digits 0-3, each ending in "\\n".

    A list in line order, or None for any other text, and for every text
    of a dimension that the caller reads word by word.
    """
    if k not in _BLOCK_DIMS or len(text) != n * (k + 1) or not text.isascii():
        return None
    rows = np.frombuffer(text.encode("ascii"), np.uint8).reshape(n, k + 1)
    if (rows[:, k] != 10).any():
        return None
    digits = rows[:, :k] - 48  # wraps below "0", so one bound checks both ends
    if (digits > 3).any():
        return None
    packed = (digits.astype(np.uint64) << _digit_shifts()[:k]).sum(axis=1, dtype=np.uint64)
    return packed.tolist()


def _compact(x):
    """Bit 2i of a 64-bit word moved to bit i; the other bits dropped.

    The Morton mask ladder, for a Python int or a numpy uint64 array.
    """
    x = x & 0x5555555555555555
    x = (x | x >> 1) & 0x3333333333333333
    x = (x | x >> 2) & 0x0F0F0F0F0F0F0F0F
    x = (x | x >> 4) & 0x00FF00FF00FF00FF
    x = (x | x >> 8) & 0x0000FFFF0000FFFF
    return (x | x >> 16) & 0x00000000FFFFFFFF


def _compact_digits(t: int, k: int) -> int:
    """Bit 2i of t moved to bit i, for i < k: _compact per 32 digits."""
    t &= (1 << 2 * k) - 1
    if k <= 32:
        return _compact(t)
    return _compact(t) | _compact_digits(t >> 64, k - 32) << 32


def tile_vertex(t: int, k: int) -> int:
    """Cube vertex of a tile: bit i is the high bit of digit i."""
    return _compact_digits(t >> 1, k)


def tile_out(t: int, k: int) -> int:
    """Direction word of a tile: bit i is the low bit of digit i."""
    return _compact_digits(t, k)


def tile_of(v: int, out_word: int, k: int) -> int:
    """Packed tile of a vertex and its direction word (digit = 2v_i + o_i)."""
    m = (1 << k) - 1
    return _spread(v & m) << 1 | _spread(out_word & m)


@lru_cache(maxsize=None)
def low_bits_mask(k: int) -> int:
    """Mask with the low bit of each of k slots set (0b...0101)."""
    return ((1 << (2 * k)) - 1) // 3


def incompatible_tiles(tiles, k: int) -> Iterator[tuple[int, int]]:
    """Incompatible pairs of a sequence of packed k-dimensional tiles.

    Yields (tiles[a], tiles[b]) for a < b in lexicographic (a, b) order,
    lazily, through the pairwise kernel: the vertex word is the high bit of
    every digit moved onto its low bit's slot, the direction word the tile.
    """
    lo = low_bits_mask(k)
    highs = [t >> 1 & lo for t in tiles]
    for a, b in incompatible_pairs(highs, tiles, 2 * k):
        yield tiles[a], tiles[b]


def gk_adjacent(u: str, v: str) -> bool:
    """Whether two equal-length tiles differ by exactly 2 in some coordinate."""
    if len(u) != len(v):
        raise ValueError("tiles of different lengths")
    return next(incompatible_tiles([tile_pack(u), tile_pack(v)], len(u)), None) is None


# ---------------------------------------------------------------------------
# tile sets


def _freeze_tiles(tiles, dim: int) -> frozenset:
    packed = frozenset(tiles)
    limit = 1 << (2 * dim)
    for t in packed:
        if not 0 <= t < limit:
            raise ValueError(f"packed tile {t} out of range for dimension {dim}")
    return packed


def _pack_strings(strings, dim: int | None):
    strings = list(strings)
    if dim is None:
        if not strings:
            raise ValueError("cannot infer dimension from an empty set")
        dim = len(strings[0])
    for s in strings:
        if len(s) != dim:
            raise ValueError(f"tile {s!r} does not have length {dim}")
    packed = frozenset(tile_pack(s) for s in strings)
    if len(packed) != len(strings):
        raise ValueError("duplicate tiles")
    return dim, packed


@dataclass(frozen=True)
class TileSet:
    """A duplicate-free set of k-dimensional tiles (packed ints).

    A complete tiling, or a fragment of one such as a replacement set of a
    rewriting rule.  _verdict is None until the set is verified, then
    whether it is a complete tiling; see _require_tiling.
    """

    dim: int
    tiles: frozenset
    _verdict: bool | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "tiles", _freeze_tiles(self.tiles, self.dim))

    @classmethod
    def from_strings(cls, strings, dim: int | None = None) -> "TileSet":
        return cls(*_pack_strings(strings, dim))

    def strings(self) -> list[str]:
        return tile_lines(self.tiles, self.dim).splitlines()

    def is_pairwise_adjacent(self) -> bool:
        return next(incompatible_tiles(sorted(self.tiles), self.dim), None) is None

    def __len__(self) -> int:
        return len(self.tiles)


PartialTileSet = TileSet


def _built(k: int, tiles: frozenset) -> TileSet:
    """The TileSet of a frozenset that the library built in range for k.

    Skips __init__ and so _freeze_tiles: each caller's tiles are in range
    by construction.  _verdict stays None, its class default.
    """
    ts = object.__new__(TileSet)
    object.__setattr__(ts, "dim", k)
    object.__setattr__(ts, "tiles", tiles)
    return ts


def _tiling_ok(ts: TileSet, out: list[int] | None = None) -> bool:
    """Whether ts is a complete tiling: the one verdict, kept on ts.

    Below KERNEL_MIN_DIM the tile pair test runs on the packed tiles.
    From there up the sink pair test runs on the vertex table, out if the
    caller built it, in k-bit words: tiles that share a vertex are
    incompatible, so 2^k tiles whose vertex map is onto and whose table
    passes that test are exactly a complete tiling.  Below the threshold
    the tile route is faster.  Above it the vertex route is, and at
    k = 5 it pays off when the caller needs the table, as uso_from_tiles
    does; a bare verdict there costs about 0.02 ms more than on tiles.
    """
    k = ts.dim
    if len(ts.tiles) != 1 << k:
        ok = False
    elif k < KERNEL_MIN_DIM:
        ok = next(incompatible_tiles(sorted(ts.tiles), k), None) is None
    else:
        out = out or vertex_outmaps(ts)
        ok = out is not None and _pairwise_ok(out, k)
    _keep_verdict(ts, ok)
    return ok


def tiling_defect(ts: TileSet) -> str | None:
    """The tile count if not 2^k, else the first incompatible pair, or None.

    Runs the verdict on every call and keeps it on ts.  Only a failed
    verdict runs the tile pair scan, in tile order, to name the pair.
    """
    if _tiling_ok(ts):
        return None
    k = ts.dim
    if len(ts.tiles) != 1 << k:
        return f"{len(ts.tiles)} tiles, expected {1 << k}"
    a, b = (tile_unpack(t, k) for t in next(incompatible_tiles(sorted(ts.tiles), k)))
    return f"incompatible tiles {a} and {b}"


def is_tiling(ts: TileSet) -> bool:
    """Whether the set is complete: 2^k tiles, pairwise compatible."""
    return _tiling_ok(ts)


def _require_tiling(ts: TileSet, message: str, out: list[int] | None = None) -> None:
    """Raise NotATilingError(message) unless ts is a complete tiling.

    The first call on a value runs the verdict, on out if given; later
    calls read the verdict it kept.
    """
    if ts._verdict is None:
        _tiling_ok(ts, out)
    if not ts._verdict:
        raise NotATilingError(message)


def vertex_outmaps(ts: TileSet) -> list[int] | None:
    """Direction words per vertex, or None if the vertex map is not onto.

    Skips the completeness precondition of uso_from_tiles; from
    KERNEL_MIN_DIM up the tiling verdict runs the sink test on this table.
    """
    k, tiles = ts.dim, ts.tiles
    n = 1 << k
    if len(tiles) != n:
        return None
    if k < KERNEL_MIN_DIM:
        out = {_compact(t >> 1): _compact(t) for t in tiles}
        return [out[v] for v in range(n)] if len(out) == n else None
    packed = np.fromiter(tiles, np.uint64, n)
    # a vertex no tile lands on keeps the -1
    table = np.full(n, -1, np.int64)
    table[_compact(packed >> 1)] = _compact(packed)
    return None if (table < 0).any() else table.tolist()


def uso_from_tiles(ts: TileSet) -> Orientation:
    """The orientation of a complete tiling (raises if incomplete).

    The vertex table is built once, for the verdict and the orientation.
    """
    out = vertex_outmaps(ts)
    _require_tiling(
        ts, f"{len(ts.tiles)} tiles, dimension {ts.dim}: not a complete tiling", out
    )
    return _verified(ts.dim, out)


def _tiles_of(out, k: int) -> TileSet:
    """The tile set of the 2^k direction words of a k-cube, unchecked.

    Words below 2^k spread to tiles below 4^k, so no range check is needed.
    """
    if k <= 10:  # every word is one _SPREAD entry; map stops with out
        return _built(k, frozenset(map(or_, _SPREAD_UP, map(_SPREAD.__getitem__, out))))
    return _built(k, frozenset([_spread(v) << 1 | _spread(w) for v, w in enumerate(out)]))


def tiles_from_uso(o: Orientation) -> TileSet:
    """The tiling of a unique sink orientation (raises otherwise)."""
    _require_uso(o)
    return _keep_verdict(_tiles_of(o.out, o.dim), True)


def twins(ts: TileSet) -> set[tuple[str, str]]:
    """Tile pairs differing in exactly one coordinate, as sorted string pairs.

    Tiles of a complete tiling that differ in one digit differ there by 2,
    so the only twin of t across digit i is t with that digit's high bit
    set, and only when t has it clear: one lookup per tile and digit.
    """
    _require_tiling(ts, "twins are defined on complete tilings")
    k, tiles = ts.dim, ts.tiles
    highs = [2 << 2 * i for i in range(k)]
    return {
        (tile_unpack(t, k), tile_unpack(t | h, k))
        for t in tiles
        for h in highs
        if not t & h and t | h in tiles
    }


def canonical_tiles(k: int) -> TileSet:
    """The tiling of the canonical orientation: all digits even."""
    return _tiles_of((0,) * (1 << k), k)


def bow() -> TileSet:
    """The 2-dimensional tiling whose two flippable edges share no vertex."""
    return TileSet.from_strings(["01", "20", "03", "22"])
