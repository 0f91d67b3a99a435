"""Text forms for tilings, orientations, rules, and label tables.

All four forms are line based and deterministic: sets are written sorted,
so equal values serialize identically.  The empty word (dimension 0) is
written as "-" wherever a tile or a bit string would be empty.

    tiling       "uso <k>" then 2^k tile lines
    orientation  "o <k>" then 2^k lines "<vertex-bits> <direction-bits>",
                 vertices in lexicographic order
    rule         "rule d=<d> i=<i>" then lines "S<m>.<j>: <tile> ..."
                 for m = 0..3 and j = 1..i, in that order
    labels       lines "<tile> <label>"

Readers are strict: wrong cardinality, duplicates, stray characters, and
out-of-order orientation lines all raise FormatError; an input that is
not a str raises ValueError, before any of it is read.  Lines end at "\n"
(after a CRLF's "\r"), and words are separated and padded by ASCII space
and tab only; any other whitespace in a header, vertex or label line makes
it malformed, and in a tile word makes it a bad tile.  Each word is checked
once: its length and, for tiles, repeats here; its characters by the codec
of the module that owns it, tiling.tile_pack or cube.vertex_from_bits,
whose ValueError becomes the FormatError.  Numbers (header
dimensions, rule widths and column counts, labels) are ASCII decimal
digits only: no sign, underscore, or non-ASCII digit.  A header dimension
above MAX_FORMAT_DIM is rejected by comparison alone, before anything of
size 2^k is computed; it is the library's one dimension cap (a packed tile
is one 64-bit word), so every value the library builds can be written
and read back.

Tiling text goes through the tiling module's two set functions, which
alone choose between numpy blocks and single words by dimension:
write_tiling writes the header and tiling.tile_lines, and read_tiling
first hands the body of a "uso <k>" header (k = 0..32, exactly as written)
to tiling.pack_lines, which packs exactly 2^k lines of k digits 0-3, each
ending in a newline, from KERNEL_MIN_DIM up.  Any other text, CRLF,
blanks, blank lines, "uso 05", a text of a dimension read word by word or
a defect of any kind, goes unchanged to the line reader, which accepts or
rejects it with the messages above; only a repeated tile is reported by
the block path itself, as the same "duplicate tiles".

A label table of dimension k >= 1 in its plain form, lines of k digits
0-3, one space and a label without leading zeros, each ending in a
newline, is read whole: one pattern match and one split.  Any other text,
and a plain one with a repeated tile, goes to the line reader.
"""

from __future__ import annotations

import re

from .cube import (
    MAX_FORMAT_DIM,
    Face,
    Orientation,
    _bits,
    _require_cube_dim,
    _require_str,
    vertex_from_bits,
)
from .errors import FormatError
from .rewrite import GeneralizedRule
from .tiling import TileSet, _built, pack_lines, tile_lines, tile_pack

EMPTY_WORD = "-"

# ASCII decimals; a negative one is read only so that the caller's range
# check rejects it by value.
_NUMBER = re.compile(r"[0-9]+|-0*[1-9][0-9]*")

# Words are separated and padded by ASCII space and tab only; str.split()
# and str.strip() would also take \x0b, \x0c, \x85, \xa0, \u3000 and the
# other Unicode spaces.
_BLANKS = " \t"
_FIELD_SEP = re.compile("[ \t]+")


def _lines(text: str) -> list[str]:
    # "\n" alone ends a line, after a CRLF's "\r" if there is one;
    # str.splitlines() would also split on \r, \x0b, \x0c, \x1c-\x1e, \x85,
    # \u2028 and \u2029.
    lines = [ln.removesuffix("\r").rstrip(_BLANKS) for ln in text.split("\n")]
    while lines and not lines[-1]:
        lines.pop()
    return lines


def _number(word: str, error: str) -> int:
    """The value of an ASCII decimal word; FormatError(error) otherwise."""
    if _NUMBER.fullmatch(word):
        try:
            return int(word)
        except ValueError:  # more digits than int() converts
            pass
    raise FormatError(error)


def _words(line: str) -> list[str]:
    """The words of a line, split at runs of space and tab."""
    line = line.strip(_BLANKS)
    return _FIELD_SEP.split(line) if line else []


def _fields(line: str, n: int) -> list[str] | None:
    """The n words of a header, vertex or label line; None for another shape.

    A line holding any other whitespace character has another shape.
    """
    words = _words(line)
    return words if len(words) == n and words == line.split() else None


def _counted_body(text: str, tag: str, what: str) -> tuple[int, list[str]]:
    """The dimension k of a '<tag> <k>' text and its 2^k body lines."""
    lines = _lines(text)
    if not lines:
        raise FormatError("empty input")
    parts = _fields(lines[0], 2)
    if parts is None or parts[0] != tag:
        raise FormatError(f"expected header '{tag} <k>', got {lines[0]!r}")
    k = _number(parts[1], f"bad dimension {parts[1]!r}")
    if k < 0:
        raise FormatError(f"bad dimension {k}")
    _check_dim_cap(k)
    if len(lines) - 1 != 1 << k:
        raise FormatError(f"expected {1 << k} {what} lines, got {len(lines) - 1}")
    return k, lines[1:]


def _check_dim_cap(k: int) -> None:
    if k > MAX_FORMAT_DIM:
        raise FormatError(f"dimension {k} exceeds the cap {MAX_FORMAT_DIM}")


def _parse_word(word: str, k: int, codec, name: str, empty: str = "") -> int:
    """The codec's value of one word of a k-dimensional text."""
    if k == 0:
        if word != EMPTY_WORD:
            raise FormatError(f"expected '{EMPTY_WORD}'{empty}, got {word!r}")
        return 0
    if len(word) == k:
        try:
            return codec(word)
        except ValueError:
            pass
    raise FormatError(f"bad {name} {word!r} for dimension {k}")


def _parse_tile(word: str, k: int) -> int:
    return _parse_word(word, k, tile_pack, "tile", " for the empty tile")


def _parse_bits(word: str, k: int) -> int:
    return _parse_word(word, k, vertex_from_bits, "bit string")


def _parse_tiles(words: list[str], k: int, duplicate: str) -> TileSet:
    """The tile set of the words; FormatError(duplicate) on a repeat.

    _parse_tile takes only k digits 0-3, so every tile is in range.
    """
    tiles = frozenset(_parse_tile(w, k) for w in words)
    if len(tiles) != len(words):
        raise FormatError(duplicate)
    return _built(k, tiles)


def _word(s: str) -> str:
    return s or EMPTY_WORD


# ---------------------------------------------------------------------------
# tilings


# The exact headers write_tiling gives.
_TILING_HEADS = {f"uso {k}": k for k in range(MAX_FORMAT_DIM + 1)}


def write_tiling(ts: TileSet) -> str:
    k = ts.dim
    lines = tile_lines(ts.tiles, k) if k else f"{EMPTY_WORD}\n" * len(ts.tiles)
    return f"uso {k}\n" + lines


def read_tiling(text: str) -> TileSet:
    _require_str(text, "text")
    head, _, body = text.partition("\n")
    k = _TILING_HEADS.get(head)
    packed = None if k is None else pack_lines(body, 1 << k, k)
    if packed is not None:
        tiles = frozenset(packed.tolist())
        if len(tiles) != 1 << k:
            raise FormatError("duplicate tiles")
        return _built(k, tiles)  # k digits 0-3 each, so in range
    k, body = _counted_body(text, "uso", "tile")
    return _parse_tiles([ln.strip(_BLANKS) for ln in body], k, "duplicate tiles")


# ---------------------------------------------------------------------------
# orientations


def write_orientation(o: Orientation) -> str:
    k = o.dim
    lines = [f"o {k}"]
    for v in Face.full(k).vertices():
        lines.append(f"{_word(_bits(v, k))} {_word(_bits(o.out[v], k))}")
    return "\n".join(lines) + "\n"


def read_orientation(text: str) -> Orientation:
    _require_str(text, "text")
    k, body = _counted_body(text, "o", "vertex")
    out = [0] * (1 << k)
    for ln, v in zip(body, Face.full(k).vertices()):
        parts = _fields(ln, 2)
        if parts is None:
            raise FormatError(f"expected '<vertex> <directions>', got {ln!r}")
        if _parse_bits(parts[0], k) != v:
            raise FormatError(
                f"vertex lines out of order: expected {_word(_bits(v, k))}, "
                f"got {parts[0]!r}"
            )
        out[v] = _parse_bits(parts[1], k)
    try:
        return Orientation(k, tuple(out))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# rules


def write_rule(rule: GeneralizedRule) -> str:
    lines = [f"rule d={rule.d} i={rule.i}"]
    for m in range(4):
        for j in range(1, rule.i + 1):
            tiles = " ".join(_word(s) for s in rule.set_for(m, j).strings())
            lines.append(f"S{m}.{j}:" + (f" {tiles}" if tiles else ""))
    return "\n".join(lines) + "\n"


def read_rule(text: str) -> GeneralizedRule:
    _require_str(text, "text")
    lines = _lines(text)
    if not lines:
        raise FormatError("empty input")
    head = _fields(lines[0], 3)
    if head is None or head[0] != "rule" or (head[1][:2], head[2][:2]) != ("d=", "i="):
        raise FormatError(f"expected header 'rule d=<d> i=<i>', got {lines[0]!r}")
    bad_header = f"bad rule header {lines[0]!r}"
    d = _number(head[1][2:], bad_header)
    i = _number(head[2][2:], bad_header)
    if d < 0 or i < 1:
        raise FormatError(bad_header)
    _check_dim_cap(d)
    if len(lines) - 1 != 4 * i:
        raise FormatError(f"expected {4 * i} set lines, got {len(lines) - 1}")
    body = iter(lines[1:])
    rows = []
    for m in range(4):
        row = []
        for j in range(1, i + 1):
            prefix = f"S{m}.{j}:"
            line = next(body)
            if not line.startswith(prefix):
                raise FormatError(f"expected line starting {prefix!r}, got {line!r}")
            words = _words(line[len(prefix):])
            row.append(_parse_tiles(words, d, f"duplicate tiles in {prefix[:-1]}"))
        rows.append(tuple(row))
    return GeneralizedRule(d, i, tuple(rows))


# ---------------------------------------------------------------------------
# label tables


def write_labels(labels: dict[str, int]) -> str:
    """The "<tile> <label>" lines of a labelling, in tile word order.

    Every key must be a tile word: tile_pack's ValueError names the first
    key that is not, such as None or True, which would print as lines
    that no reader takes back.
    """
    for s in labels:
        tile_pack(s)
    return "\n".join(f"{_word(s)} {labels[s]}" for s in sorted(labels)) + "\n"


def read_labels(text: str, dim: int) -> dict[str, int]:
    """The label of each tile word of a "<tile> <label>" table.

    A text in its plain form is read whole: one match and one split.  Any
    other text, and a plain one with a repeated tile, goes to the line
    reader, which accepts or rejects it with its own messages.
    """
    _require_str(text, "text")
    _require_cube_dim(dim)
    if dim > 0 and re.fullmatch(f"(?:[0-3]{{{dim}}} [1-9][0-9]*\n)*", text):
        words = text.split()
        try:
            labels = dict(zip(words[::2], map(int, words[1::2])))
        except ValueError:  # more digits than int() converts
            labels = {}
        if 2 * len(labels) == len(words):
            return labels
    return _read_label_lines(text, dim)


def _read_label_lines(text: str, dim: int) -> dict[str, int]:
    labels = {}
    for ln in _lines(text):
        parts = _fields(ln, 2)
        if parts is None:
            raise FormatError(f"expected '<tile> <label>', got {ln!r}")
        _parse_tile(parts[0], dim)
        tile = parts[0] if dim else ""
        label = _number(parts[1], f"bad label {parts[1]!r}")
        if label < 1:
            raise FormatError(f"bad label {label}")
        if tile in labels:
            raise FormatError(f"duplicate label line for tile {parts[0]!r}")
        labels[tile] = label
    return labels
