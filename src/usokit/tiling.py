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
to 0 and prints as "" here, "-" in files.  A tile is one uint64 word, so
a dimension is at most cube.MAX_FORMAT_DIM = 32; _require_tile is the one
check of a packed tile that a caller names.  tile_of, tile_unpack,
tile_vertex and tile_out check every value and are for callers only: the
library's own tiles are in range by construction, and it builds, unpacks
and splits them unchecked (_built, _tile_row, _unpack, _split).

A packed tile is a vertex and its direction word interleaved bit by bit
(a Morton code): the vertex in the odd bits, the direction word in the
even ones.  One 1,024-entry table in each direction converts between the
two spellings, 10 tile bits at a time: _spread spreads a word through
_SPREAD, and _split splits a tile through _SPLIT, its inverse.  Whole
tables go through them at once: _tile_row gives a direction table's tiles
in vertex order, one _SPREAD entry per word up to 10 digits, for
_tiles_of and the join's facet tiles; vertex_outmaps goes through _SPLIT,
up to 5 digits by two sums of lookups (_VBIT for the onto test, _LANE for
the table in byte lanes) and as a numpy array above.

A whole set of words has two functions, and the route choice lives only
in them: tile_lines writes a tile set as its sorted "\n"-ended words, and
pack_lines packs exactly n such lines back into a uint64 array, or
returns None.  From KERNEL_MIN_DIM up both work in one numpy block, a
uint64 per tile: one digit matrix, one np.lexsort and one tobytes() out,
one frombuffer, one bound test on every column at once (digits, then the
newline) and one matrix product in, with per-k constants cached.  Below,
numpy's fixed cost per call loses to tile_pack and tile_unpack:
tile_lines sorts the per-word codec's words, and pack_lines returns None,
as it does for any text not in that exact form, so that the caller reads
word by word with its own messages.
TileSet.strings(), formats.write_tiling and formats.read_tiling use them,
and so does rewrite._tile_columns for the label keys.  numpy is imported
on the first numpy route taken (see _lazy), so tile sets below
KERNEL_MIN_DIM never import it.  Whole blocks of tilings at k <= 4, a row
of one-byte tiles per tiling, have a third: _rows_text gives their
texts joined by "\n", each a caller's head and then the row's lines, for
formats and the enumerate verb's join route.  It sorts each row by a key
per tile, the tile's word read in base 4, and looks up each key's line
in a table of characters (both 4^k entries, cached per k).

A tiling is verified once, by one verdict, ``_tiling_ok``: at every k,
the sink test of orientations (pairwise.face_sinks_ok, the face-sink
recursion) on the vertex table of vertex_outmaps, in k-bit words, which
is the tile pair test in other words, as tiles that share a vertex are
incompatible.  Up to k = 5 the table is the byte lanes that the
recursion reads, so a verdict there builds no dict and runs no pair
loop; from k = 6 it is an int64 array, which the recursion turns into
byte lanes in one cast up to k = 8 and reads as it is above, and which
becomes a list only once it has passed.  The immutable tile set keeps
the verdict: False, or the table that passed, which ``uso_from_tiles``
hands to ``cube._verified`` (no edge scan, as the sink test implies it).
Operations that need a complete tiling go through ``_require_tiling``,
which runs the verdict on first use; ``tiles_from_uso`` output keeps its
orientation's table from birth.  The public ``is_tiling`` and
``tiling_defect`` always run the verdict (and keep it); ``_defect`` names
a failed set's defect, the tile count or the first incompatible pair in
tile order by the tile pair scan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as iproduct
from operator import or_
from typing import Iterator, Sequence

from ._lazy import np
from .cube import (
    MAX_FORMAT_DIM,
    Orientation,
    _all_ints,
    _is_word,
    _keep_verdict,
    _require_cube_dim,
    _require_iterable,
    _require_str,
    _require_uso,
    _require_vertex,
    _subset_ors,
    _verified,
)
from .errors import NotATilingError
from .pairwise import KERNEL_MIN_DIM, face_sinks_ok, incompatible_pairs

DIGITS = "0123"


# ---------------------------------------------------------------------------
# packed tiles


_TILE_WORD = re.compile("[0-3]*")

# tile_unpack's table: the 5-digit word of every 10-bit chunk
_CHUNKS = tuple("".join(p)[::-1] for p in iproduct(DIGITS, repeat=5))


# entry x is x with bit i moved to bit 2i, for x < 1024
_SPREAD = _subset_ors([1 << 2 * i for i in range(10)])
_SPREAD_UP = [t << 1 for t in _SPREAD]  # the vertex half of a tile

# _SPREAD's inverse on 5 digits: entry t is the (vertex, direction word) of
# tile t, as the 1,024 pairs sorted by their tiles fill 0..1023
_SPLIT = sorted(iproduct(range(32), repeat=2), key=lambda p: _SPREAD_UP[p[0]] | _SPREAD[p[1]])

# vertex_outmaps' tables up to 5 digits, from _SPLIT: entry t is the bit
# of tile t's vertex, and its direction word in that vertex's byte lane
_VBIT = [1 << v for v, _ in _SPLIT]
_LANE = [w << 8 * v for v, w in _SPLIT]


def tile_pack(s: str) -> int:
    """Pack a digit string, coordinate 1 into the lowest 2-bit slot.

    The pattern test comes first, as int() also takes "_", "+",
    whitespace and non-ASCII digits.
    """
    _require_str(s, "tile")
    if not _TILE_WORD.fullmatch(s):
        bad = next(c for c in s if c not in DIGITS)
        raise ValueError(f"bad tile character {bad!r}")
    return int(s[::-1], 4) if s else 0


def _require_tile(t, k: int) -> None:
    """Raise ValueError unless t is a word of range(4^k) by cube._is_word:
    the one check of a packed tile where a caller names one."""
    if not _is_word(t, 1 << 2 * k):
        raise ValueError(f"packed tile {t!r} out of range for dimension {k}")


def tile_unpack(t: int, k: int) -> str:
    """The k-digit word of packed tile t; ValueError for a tile not in
    range(4^k)."""
    _require_cube_dim(k)
    _require_tile(t, k)
    return _unpack(t, k)


def _unpack(t: int, k: int) -> str:
    """tile_unpack without the checks, for tiles of a tile set."""
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


@lru_cache(maxsize=None)
def _digit_shifts():
    """The 2-bit slot of each of the 32 digits of a uint64, read-only."""
    shifts = np.arange(0, 2 * MAX_FORMAT_DIM, 2, dtype=np.uint64)
    shifts.flags.writeable = False
    return shifts


@lru_cache(maxsize=None)
def _split_words():
    """_SPLIT as read-only uint64 words: vertex | direction word << 32."""
    split = np.array([v | w << 32 for v, w in _SPLIT], np.uint64)
    split.flags.writeable = False
    return split


@lru_cache(maxsize=None)
def _line_form(k: int):
    """Per column of a block of k-digit lines: the byte it starts at, the
    largest offset from it (digits "0"-"3", then exactly "\n") and its
    weight (4^j for digit j, 0 for the newline); read-only."""
    start = np.array([48] * k + [10], np.uint8)
    top = np.array([3] * k + [0], np.uint8)
    weights = np.append(np.uint64(1) << _digit_shifts()[:k], np.uint64(0))
    for a in (start, top, weights):
        a.flags.writeable = False
    return start, top, weights


def tile_lines(tiles, k: int) -> str:
    """The k-digit words of packed tiles, sorted, one "\\n"-ended line each.

    In a block, digit column j holds coordinate j + 1.  np.lexsort takes
    its primary key last, so the columns go in reversed: coordinate 1
    first is string order.
    """
    if k < KERNEL_MIN_DIM:  # numpy's fixed cost per call loses
        return "".join(sorted(_unpack(t, k) + "\n" for t in tiles))
    packed = np.fromiter(tiles, np.uint64, len(tiles))
    digits = (packed[:, None] >> _digit_shifts()[:k] & 3).astype(np.uint8)
    block = np.empty((len(packed), k + 1), np.uint8)
    block[:, :k] = digits[np.lexsort(digits.T[::-1])] + 48
    block[:, k] = 10
    return block.tobytes().decode("ascii")


@lru_cache(maxsize=None)
def _row_text_tables(k: int):
    """For the tiles below 4^k, k <= 4: each tile's key, its word read in
    base 4 with coordinate 1 as the top digit, so that key order is string
    order; and per key, the line of the tile with that key, as k + 1 ASCII
    bytes.  Both uint8, read-only."""
    words = [_unpack(t, k) for t in range(1 << 2 * k)]
    key = np.array([int(w, 4) for w in words], np.uint8)
    # the words in key order are the words sorted
    lines = np.frombuffer("".join(w + "\n" for w in sorted(words)).encode("ascii"), np.uint8)
    lines = lines.reshape(len(words), k + 1)
    for a in (key, lines):
        a.flags.writeable = False
    return key, lines


def _rows_text(rows, k: int, head: str) -> str:
    """The texts of the tilings of a uint8 block, a row of tiles each
    (1 <= k <= 4), joined by "\n": each is head, then the row's tiles as
    tile_lines writes them.

    A row is sorted by its tiles' keys, and each key looks up its line.
    """
    key, lines = _row_text_tables(k)
    prefix = np.frombuffer(f"\n{head}".encode("ascii"), np.uint8)
    text = np.empty((len(rows), len(prefix) + rows.shape[1] * (k + 1)), np.uint8)
    text[:, :len(prefix)] = prefix
    text[:, len(prefix):] = lines[np.sort(key[rows], axis=1)].reshape(len(rows), -1)
    # every text but the first follows a "\n"
    return text.tobytes()[1:].decode("ascii")


def pack_lines(text: str, n: int, k: int):
    """The packed tiles of n lines of k digits 0-3, each ending in "\\n".

    A uint64 array in line order, or None for any other text, and for
    every text of a dimension that the caller reads word by word.
    """
    if k < KERNEL_MIN_DIM or len(text) != n * (k + 1) or not text.isascii():
        return None
    start, top, weights = _line_form(k)
    # wraps below each column's start, so one bound checks both ends
    offsets = np.frombuffer(text.encode("ascii"), np.uint8).reshape(n, k + 1) - start
    if (offsets > top).any():
        return None
    # digit j times 4^j, summed in one exact uint64 matrix product
    return offsets @ weights


def _split(t: int) -> tuple[int, int]:
    """The (vertex, direction word) of a tile, through _SPLIT 10 bits at a time."""
    v, w = _SPLIT[t & 1023]
    if t >> 10:
        hv, hw = _split(t >> 10)
        return v | hv << 5, w | hw << 5
    return v, w


def tile_vertex(t: int, k: int) -> int:
    """Cube vertex of a tile: bit i is the high bit of digit i."""
    _require_cube_dim(k)
    _require_tile(t, k)
    return _split(t)[0]


def tile_out(t: int, k: int) -> int:
    """Direction word of a tile: bit i is the low bit of digit i."""
    _require_cube_dim(k)
    _require_tile(t, k)
    return _split(t)[1]


def tile_of(v: int, out_word: int, k: int) -> int:
    """Packed tile of a vertex and its direction word (digit = 2v_i + o_i).

    DimensionError for a vertex not in range(2^k), as in neighbor, and
    ValueError for such a word.
    """
    _require_cube_dim(k)
    _require_vertex(v, k)
    if not _is_word(out_word, 1 << k):
        raise ValueError(f"direction word {out_word!r} out of range for dimension {k}")
    return _spread(v) << 1 | _spread(out_word)


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
    tiles = [tile_pack(u), tile_pack(v)]
    if len(u) != len(v):
        raise ValueError("tiles of different lengths")
    return next(incompatible_tiles(tiles, len(u)), None) is None


# ---------------------------------------------------------------------------
# tile sets


@dataclass(frozen=True)
class TileSet:
    """A duplicate-free set of k-dimensional tiles (packed ints).

    A complete tiling, or a fragment of one such as a replacement set of a
    rewriting rule.  _verdict is None until the set is verified, then
    False, or the vertex table that passed; see _tiling_ok.
    """

    dim: int
    tiles: frozenset
    _verdict: Sequence | bool | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        _require_cube_dim(self.dim)
        _require_iterable(self.tiles, "tile set")
        tiles = frozenset(self.tiles)
        # one type test and one min/max; the loop only names the bad tile
        if not _all_ints(tiles) or tiles and (min(tiles) < 0 or max(tiles) >> 2 * self.dim):
            for t in tiles:
                _require_tile(t, self.dim)
        object.__setattr__(self, "tiles", tiles)

    @classmethod
    def from_strings(cls, strings, dim: int | None = None) -> "TileSet":
        """The set of tile words, all of length dim (default: the first's);
        tile_pack checks each word, so the tiles are in range."""
        strings = list(strings)
        packed = frozenset(map(tile_pack, strings))
        if dim is None:
            if not strings:
                raise ValueError("cannot infer dimension from an empty set")
            dim = len(strings[0])
        _require_cube_dim(dim)
        for s in strings:
            if len(s) != dim:
                raise ValueError(f"tile {s!r} does not have length {dim}")
        if len(packed) != len(strings):
            raise ValueError("duplicate tiles")
        return _built(dim, packed)

    def strings(self) -> list[str]:
        return tile_lines(self.tiles, self.dim).splitlines()

    def is_pairwise_adjacent(self) -> bool:
        return next(incompatible_tiles(sorted(self.tiles), self.dim), None) is None

    def __len__(self) -> int:
        return len(self.tiles)


PartialTileSet = TileSet


def _built(k: int, tiles: frozenset) -> TileSet:
    """The TileSet of a frozenset that the library built in range for k.

    Skips __init__ and so _require_tile: each caller's tiles are in range
    by construction.  _verdict stays None, its class default.
    """
    ts = object.__new__(TileSet)
    object.__setattr__(ts, "dim", k)
    object.__setattr__(ts, "tiles", tiles)
    return ts


def _require_tile_set(ts) -> None:
    """Raise ValueError unless ts is a TileSet: the first check of a tile
    set parameter, before any of its fields is read."""
    if not isinstance(ts, TileSet):
        raise ValueError(f"tile set {ts!r} is not a TileSet")


def _tiling_ok(ts: TileSet) -> bool:
    """Whether ts is a complete tiling: the one verdict, kept on ts.

    The sink test of orientations on the vertex table (face_sinks_ok):
    tiles that share a vertex are incompatible, so 2^k tiles whose vertex
    map is onto and whose table passes the test are exactly a complete
    tiling.  A table that passed is the kept verdict, as a list, and
    uso_from_tiles reads it.
    """
    out = vertex_outmaps(ts)
    ok = out is not None and face_sinks_ok(out, ts.dim)
    if ok:  # the table of either route, as a list
        out = list(out) if isinstance(out, bytes) else out.tolist()
    _keep_verdict(ts, out if ok else False)
    return ok


def _defect(ts: TileSet) -> str:
    """What a set that failed the verdict lacks: the tile count if not 2^k,
    else the first incompatible pair, by the tile pair scan in tile order."""
    k = ts.dim
    if len(ts.tiles) != 1 << k:
        return f"{len(ts.tiles)} tiles, expected {1 << k}"
    a, b = (_unpack(t, k) for t in next(incompatible_tiles(sorted(ts.tiles), k)))
    return f"incompatible tiles {a} and {b}"


def tiling_defect(ts: TileSet) -> str | None:
    """The tile count if not 2^k, else the first incompatible pair, or None.

    Runs the verdict on every call and keeps it on ts.
    """
    _require_tile_set(ts)
    return None if _tiling_ok(ts) else _defect(ts)


def is_tiling(ts: TileSet) -> bool:
    """Whether the set is complete: 2^k tiles, pairwise compatible."""
    _require_tile_set(ts)
    return _tiling_ok(ts)


def _require_tiling(ts: TileSet, message: str | None = None) -> None:
    """Raise NotATilingError(message) unless ts is a complete tiling; the
    default message names ts's tile count and dimension, and is built only
    then.

    The first call on a value runs the verdict; later calls read the
    verdict it kept.
    """
    _require_tile_set(ts)
    if ts._verdict is None:
        _tiling_ok(ts)
    if not ts._verdict:
        raise NotATilingError(
            message or f"{len(ts.tiles)} tiles, dimension {ts.dim}: not a complete tiling"
        )


def vertex_outmaps(ts: TileSet):
    """Direction words per vertex, bytes up to k = 5 and an int64 array
    above, or None if the vertex map is not onto.

    Skips the completeness precondition of uso_from_tiles; the tiling
    verdict, its one caller, runs the sink test on this table.
    """
    k, tiles = ts.dim, ts.tiles
    n = 1 << k
    if len(tiles) != n:
        return None
    if k <= 5:  # every tile is one _SPLIT entry
        # n powers of two below 2^n sum to 2^n - 1 iff they are distinct;
        # then every vertex has one tile, so the lanes do not overlap
        if sum(map(_VBIT.__getitem__, tiles)) != (1 << n) - 1:
            return None
        return sum(map(_LANE.__getitem__, tiles)).to_bytes(n, "little")
    packed = np.fromiter(tiles, np.uint64, n)
    pairs = _split_words()[packed & 1023]
    for shift in range(5, k, 5):  # the later 5-digit chunks
        pairs |= _split_words()[packed >> 2 * shift & 1023] << shift
    # a vertex no tile lands on keeps the -1
    table = np.full(n, -1, np.int64)
    table[pairs & 0xFFFFFFFF] = pairs >> 32
    return None if (table < 0).any() else table


def uso_from_tiles(ts: TileSet) -> Orientation:
    """The orientation of a complete tiling (raises if incomplete): the
    vertex table its verdict kept."""
    _require_tiling(ts)
    return _verified(ts.dim, ts._verdict)


def _tile_row(out, k: int):
    """The tiles of the 2^k direction words of a k-cube, in vertex order,
    as an iterator; unchecked.

    Words below 2^k spread to tiles below 4^k, so no range check is needed.
    """
    if k <= 10:  # every word is one _SPREAD entry; map stops with out
        return map(or_, _SPREAD_UP, map(_SPREAD.__getitem__, out))
    return (_spread(v) << 1 | _spread(w) for v, w in enumerate(out))


def _tiles_of(out, k: int) -> TileSet:
    """The tile set of the 2^k direction words of a k-cube, unchecked."""
    return _built(k, frozenset(_tile_row(out, k)))


def tiles_from_uso(o: Orientation) -> TileSet:
    """The tiling of a unique sink orientation (raises otherwise)."""
    _require_uso(o)
    return _keep_verdict(_tiles_of(o.out, o.dim), o.out)


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
        (_unpack(t, k), _unpack(t | h, k))
        for t in tiles
        for h in highs
        if not t & h and t | h in tiles
    }


def canonical_tiles(k: int) -> TileSet:
    """The tiling of the canonical orientation: all digits even."""
    _require_cube_dim(k)
    return _tiles_of((0,) * (1 << k), k)


def bow() -> TileSet:
    """The 2-dimensional tiling whose two flippable edges share no vertex."""
    return TileSet.from_strings(["01", "20", "03", "22"])
