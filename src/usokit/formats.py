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
out-of-order orientation lines all raise FormatError.  Numbers (header
dimensions, rule widths and column counts, labels) are ASCII decimal
digits only: no sign, underscore, or non-ASCII digit.  A header dimension
above MAX_FORMAT_DIM is rejected by comparison alone, before anything of
size 2^k is computed: a packed tile of that dimension fills the pairwise
kernel's widest (64-bit) word.
"""

from __future__ import annotations

import re

from .cube import Orientation, vertex_bits
from .errors import FormatError
from .pairwise import MAX_WORD_BITS
from .rewrite import GeneralizedRule
from .tiling import DIGITS, TileSet

EMPTY_WORD = "-"

# ASCII decimals; a negative one is read only so that the caller's range
# check rejects it by value.
_NUMBER = re.compile(r"[0-9]+|-0*[1-9][0-9]*")

# Largest dimension a header may state: 2 bits per coordinate per tile.
MAX_FORMAT_DIM = MAX_WORD_BITS // 2


def _lines(text: str) -> list[str]:
    lines = [ln.rstrip() for ln in text.splitlines()]
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


def _parse_header(line: str, tag: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != tag:
        raise FormatError(f"expected header '{tag} <k>', got {line!r}")
    k = _number(parts[1], f"bad dimension {parts[1]!r}")
    if k < 0:
        raise FormatError(f"bad dimension {k}")
    _check_dim_cap(k)
    return k


def _check_dim_cap(k: int) -> None:
    if k > MAX_FORMAT_DIM:
        raise FormatError(f"dimension {k} exceeds the cap {MAX_FORMAT_DIM}")


def _parse_tile(word: str, k: int) -> str:
    if k == 0:
        if word != EMPTY_WORD:
            raise FormatError(f"expected '{EMPTY_WORD}' for the empty tile, got {word!r}")
        return ""
    if len(word) != k or any(c not in DIGITS for c in word):
        raise FormatError(f"bad tile {word!r} for dimension {k}")
    return word


def _tile_word(s: str) -> str:
    return s if s else EMPTY_WORD


# ---------------------------------------------------------------------------
# tilings


def write_tiling(ts: TileSet) -> str:
    lines = [f"uso {ts.dim}"]
    lines += [_tile_word(s) for s in ts.strings()]
    return "\n".join(lines) + "\n"


def read_tiling(text: str) -> TileSet:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty input")
    k = _parse_header(lines[0], "uso")
    body = lines[1:]
    if len(body) != 1 << k:
        raise FormatError(f"expected {1 << k} tile lines, got {len(body)}")
    tiles = [_parse_tile(ln.strip(), k) for ln in body]
    if len(set(tiles)) != len(tiles):
        raise FormatError("duplicate tiles")
    return TileSet.from_strings(tiles, k)


# ---------------------------------------------------------------------------
# orientations


def _bits_word(v: int, k: int) -> str:
    return vertex_bits(v, k) if k else EMPTY_WORD


def write_orientation(o: Orientation) -> str:
    k = o.dim
    lines = [f"o {k}"]
    order = sorted(range(1 << k), key=lambda v: vertex_bits(v, k))
    for v in order:
        lines.append(f"{_bits_word(v, k)} {_bits_word(o.out[v], k)}")
    return "\n".join(lines) + "\n"


def _parse_bits(word: str, k: int) -> int:
    if k == 0:
        if word != EMPTY_WORD:
            raise FormatError(f"expected '{EMPTY_WORD}', got {word!r}")
        return 0
    if len(word) != k or any(c not in "01" for c in word):
        raise FormatError(f"bad bit string {word!r} for dimension {k}")
    v = 0
    for i, c in enumerate(word):
        if c == "1":
            v |= 1 << i
    return v


def read_orientation(text: str) -> Orientation:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty input")
    k = _parse_header(lines[0], "o")
    body = lines[1:]
    if len(body) != 1 << k:
        raise FormatError(f"expected {1 << k} vertex lines, got {len(body)}")
    expected = sorted(range(1 << k), key=lambda v: vertex_bits(v, k))
    out = [0] * (1 << k)
    for ln, v in zip(body, expected):
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"expected '<vertex> <directions>', got {ln!r}")
        if _parse_bits(parts[0], k) != v:
            raise FormatError(
                f"vertex lines out of order: expected {_bits_word(v, k)}, "
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
            tiles = " ".join(_tile_word(s) for s in rule.set_for(m, j).strings())
            lines.append(f"S{m}.{j}:" + (f" {tiles}" if tiles else ""))
    return "\n".join(lines) + "\n"


def read_rule(text: str) -> GeneralizedRule:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if (
        len(head) != 3
        or head[0] != "rule"
        or not head[1].startswith("d=")
        or not head[2].startswith("i=")
    ):
        raise FormatError(f"expected header 'rule d=<d> i=<i>', got {lines[0]!r}")
    bad_header = f"bad rule header {lines[0]!r}"
    d = _number(head[1][2:], bad_header)
    i = _number(head[2][2:], bad_header)
    if d < 0 or i < 1:
        raise FormatError(bad_header)
    _check_dim_cap(d)
    body = lines[1:]
    if len(body) != 4 * i:
        raise FormatError(f"expected {4 * i} set lines, got {len(body)}")
    rows = []
    at = 0
    for m in range(4):
        row = []
        for j in range(1, i + 1):
            prefix = f"S{m}.{j}:"
            line = body[at]
            at += 1
            if not line.startswith(prefix):
                raise FormatError(f"expected line starting {prefix!r}, got {line!r}")
            words = line[len(prefix):].split()
            tiles = [_parse_tile(w, d) for w in words]
            if len(set(tiles)) != len(tiles):
                raise FormatError(f"duplicate tiles in {prefix[:-1]}")
            row.append(TileSet.from_strings(tiles, d))
        rows.append(tuple(row))
    return GeneralizedRule(d, i, tuple(rows))


# ---------------------------------------------------------------------------
# label tables


def write_labels(labels: dict[str, int]) -> str:
    lines = [
        f"{_tile_word(s)} {labels[s]}" for s in sorted(labels)
    ]
    return "\n".join(lines) + "\n"


def read_labels(text: str, dim: int) -> dict[str, int]:
    labels = {}
    for ln in _lines(text):
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"expected '<tile> <label>', got {ln!r}")
        tile = _parse_tile(parts[0], dim)
        label = _number(parts[1], f"bad label {parts[1]!r}")
        if label < 1:
            raise FormatError(f"bad label {label}")
        if tile in labels:
            raise FormatError(f"duplicate label line for tile {parts[0]!r}")
        labels[tile] = label
    return labels
