"""String rewriting rules on tilings.

A rule of width d replaces the digit at one chosen coordinate h of every
tile with each member of a replacement set chosen by that digit, turning a
k-dimensional tiling into a (k + d - 1)-dimensional one.  A rule carries i
columns of four replacement sets S0..S3, one per digit value, and a
labelling picks the column per input tile.  A simple rule is the one-column
case: every tile uses column 1.

Validity conditions (checked by the validators, assumed by the appliers):
the even-digit sets of any two columns must be disjoint and unite to a
complete d-dimensional tiling, and likewise the odd-digit sets.  Replacing
a digit that records a facet (high bit) and an edge direction (low bit)
with a whole tiling fragment keeps every cross pair compatible, which is
why sound rules map tilings to tilings in any dimension.  These pair
conditions are all that validity means; that the columns of each row cover
the same vertices follows from them and is not checked again.

Width 0 rules delete the coordinate; their replacement sets live over the
single empty tile.

A labelling is read once, by _tile_columns, into a 0-based column per
input tile: from k = 5, when its packed keys are exactly the input's
tiles, the keys themselves and the labels less one; otherwise a per-key
loop, which raises every LabellingError.  The splice has two
routes with one result, and neither reads a labelling.  From
SPLICE_MIN_TILES = 128 input tiles it is one numpy block: the tiles in
one uint64 array, each tile's replacement set chosen by its digit at h
and its column, one broadcast OR and one frozenset of the output.  Below
128 tiles the loop splices tile by tile; a wrong output count is
reported after either route.
Best of 60 (2 shared cores, Python 3.11.7, numpy 2.4.6), loop against
block: 17 against 17 us at 64 tiles, 36 against 22 us at 128 and 274
against 84 us at 1,024 for a width-1 rule without labels; with labels
44 against 42, 78 against 56 and 460 against 239 us.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Mapping

from ._lazy import np
from .cube import _require_coordinate, _require_cube_dim, _require_dim
from .errors import (
    DimensionError,
    InvalidRuleError,
    LabellingError,
)
from .tiling import (
    TileSet,
    _built,
    _require_tiling,
    _split,
    _unpack,
    bow,
    canonical_tiles,
    incompatible_tiles,
    pack_lines,
    tile_pack,
)

# digit lists per kind: (d, S0, S1, S2, S3)
_NAMED = {
    "identity": (1, ["0"], ["1"], ["2"], ["3"]),
    "comb": (1, ["0"], ["0"], ["2"], ["2"]),
    "flip": (1, ["1"], ["0"], ["3"], ["2"]),
    "copy-upper": (1, [], [], ["0", "2"], ["1", "3"]),
    "copy-lower": (1, ["0", "2"], ["1", "3"], [], []),
    "mirror": (1, ["2"], ["3"], ["0"], ["1"]),
    "partial-swap": (1, ["0"], ["3"], ["2"], ["1"]),
    "take-upper-facet": (0, [], [], [""], [""]),
    "take-lower-facet": (0, [""], [""], [], []),
    "inherit": (0, [""], [], [], [""]),
}
NAMED_RULE_KINDS = tuple(_NAMED)

# Smallest input tile count that _rewrite splices as one numpy block (see
# the module docstring); below it the loop is faster.
SPLICE_MIN_TILES = 128


@dataclass(frozen=True)
class GeneralizedRule:
    """i labelled columns of replacement sets; columns[m][j - 1] is S m, j."""

    d: int
    i: int
    columns: tuple[tuple[TileSet, ...], ...]

    def __post_init__(self):
        _require_dim(self.d, "rule width")
        _require_dim(self.i, "column count")
        if self.i < 1:
            raise DimensionError("a rule needs at least one column")
        if len(self.columns) != 4:
            raise ValueError("expected four rows of replacement sets")
        for row in self.columns:
            if len(row) != self.i:
                raise ValueError(f"expected {self.i} columns per row")
            for s in row:
                if s.dim != self.d:
                    raise DimensionError(
                        f"replacement set of width {s.dim} in a rule of width "
                        f"{self.d}"
                    )

    def set_for(self, m: int, j: int) -> TileSet:
        return self.columns[m][j - 1]


def SimpleRule(d: int, s0: TileSet, s1: TileSet, s2: TileSet, s3: TileSet) -> GeneralizedRule:
    """The one-column rule with replacement sets S0..S3 of width d."""
    return GeneralizedRule(d, 1, ((s0,), (s1,), (s2,), (s3,)))


def as_generalized(rule: GeneralizedRule) -> GeneralizedRule:
    """A simple rule already is a one-column generalized rule."""
    return rule


def named_rule(kind: str) -> GeneralizedRule:
    """One of the built-in width 0 and width 1 rules, by name."""
    try:
        d, *sets = _NAMED[kind]
    except KeyError:
        raise InvalidRuleError(f"unknown rule kind {kind!r}") from None
    return SimpleRule(d, *(TileSet.from_strings(s, d) for s in sets))


# ---------------------------------------------------------------------------
# validation


def _union_violations(name_a, a: TileSet, name_b, b: TileSet):
    """Check that two replacement sets unite to a complete tiling, disjointly."""
    d = a.dim
    out = []
    common = a.tiles & b.tiles
    if common:
        shown = ", ".join(sorted(_unpack(t, d) for t in common)) or "-"
        out.append(f"{name_a} and {name_b} share tiles: {shown}")
    union = sorted(a.tiles | b.tiles)
    if len(a.tiles) + len(b.tiles) != 1 << d:
        out.append(
            f"{name_a} + {name_b} has {len(a.tiles) + len(b.tiles)} tiles, "
            f"needs {1 << d}"
        )
    for ta, tb in incompatible_tiles(union, d):
        out.append(
            f"{name_a} + {name_b} contains the incompatible pair "
            f"{_unpack(ta, d)}, {_unpack(tb, d)}"
        )
    return out


def validate_generalized(rule: GeneralizedRule) -> list[str]:
    """Violations over every column pairing; empty means valid.

    The pair conditions are the whole of validity.  They imply that the
    columns of each row project to the same vertex set; the tests check
    that, not each call.
    """
    out = []
    for j in range(1, rule.i + 1):
        for jp in range(1, rule.i + 1):
            out += _union_violations(
                f"S0.{j}", rule.set_for(0, j), f"S2.{jp}", rule.set_for(2, jp)
            )
            out += _union_violations(
                f"S1.{j}", rule.set_for(1, j), f"S3.{jp}", rule.set_for(3, jp)
            )
    return out


validate_simple = validate_generalized


# ---------------------------------------------------------------------------
# application


def apply_simple(rule: GeneralizedRule, k_set: TileSet, h: int, checked: bool = False) -> TileSet:
    """Rewrite every tile at coordinate h with column 1; output width k + d - 1.

    Assumes a valid rule and a complete input unless checked is set.  The
    output cardinality is always checked, which catches unsound rules
    loudly even in unchecked mode.
    """
    return _rewrite(rule, k_set, None, h, checked)


def apply_generalized(
    rule: GeneralizedRule,
    k_set: TileSet,
    labelling: Mapping[str, int],
    h: int,
    checked: bool = False,
) -> TileSet:
    """Rewrite with per-tile column choice; labelling maps tile strings."""
    return _rewrite(rule, k_set, labelling, h, checked)


def _rewrite(rule, k_set, labelling, h, checked) -> TileSet:
    """Replace the digit at coordinate h of every tile with its replacement set.

    A tile's column is its label, or 1 for every tile when labelling is None;
    _tile_columns reads the labelling before a splice is chosen.  From
    SPLICE_MIN_TILES input tiles the numpy block splices, the loop below.
    Both give the same set, so the count check is shared.  An output wider
    than cube.MAX_FORMAT_DIM digits is refused before either, so every tile
    of the block fits its uint64.
    """
    if checked:
        violations = validate_generalized(rule)
        if violations:
            raise InvalidRuleError("; ".join(violations))
        _require_tiling(k_set, "input is not a complete tiling")
    k = k_set.dim
    _require_coordinate(h, k)
    new_dim = k + rule.d - 1
    _require_cube_dim(new_dim)
    tiles, columns = k_set.tiles, None
    if labelling is not None:
        tiles, columns = _tile_columns(labelling, k_set, rule.i)
    if len(tiles) >= SPLICE_MIN_TILES:
        out = _splice_block(rule, tiles, columns, h)
    else:
        out = _splice_loop(rule, tiles, columns, h)
    if len(out) != 1 << new_dim:
        raise InvalidRuleError(
            f"rewrite produced {len(out)} tiles, expected {1 << new_dim}; "
            f"the rule is not sound on this input"
        )
    # rest keeps t's digits but h, and s (width d) fills the d slots at h,
    # so each tile has new_dim digits and is in range
    return _built(new_dim, out)


def _tile_columns(labelling, k_set: TileSet, i: int):
    """The input tiles and the 0-based column of each; the one reader of a
    labelling.

    Where tiling.pack_lines takes the keys, they are as many as the tiles
    and each is a tile, and every label is an int in 1..i, the packed keys
    are the tiles, with no sort or search (distinct words of k digits pack
    to distinct keys, so as many keys as tiles, each a tile, are the tiles
    in some order), and the labels less one their columns, both as arrays
    in the labelling's order.  Every other labelling (extra keys, a missing
    tile, a bad key or label) goes through the per-key loop, which gives
    lists and raises LabellingError: on the first bad key or label in the
    labelling's order, else for the first unlabelled tile in k_set.tiles.
    """
    k = k_set.dim
    labels = list(labelling.values())
    try:
        keys = pack_lines("\n".join(labelling) + "\n", len(labels), k)
    except TypeError:  # a key that is not a str
        keys = None
    if keys is not None and len(keys) == len(k_set.tiles) and set(map(type, labels)) == {int}:
        if 1 <= min(labels) <= max(labels) <= i and k_set.tiles.issuperset(keys.tolist()):
            return keys, np.array(labels, np.intp) - 1
    columns = {}
    for s, j in labelling.items():
        if type(j) is not int:
            raise LabellingError(f"label {j!r} for tile {s} is not an int")
        if not 1 <= j <= i:
            raise LabellingError(f"label {j} for tile {s} out of range 1..{i}")
        try:
            if len(s) != k:
                raise ValueError
            columns[tile_pack(s)] = j - 1
        except (TypeError, ValueError):  # a key that is not a str, or not a tile
            raise LabellingError(f"label key {s!r} is not a tile of dimension {k}") from None
    try:
        return k_set.tiles, [columns[t] for t in k_set.tiles]
    except KeyError as missing:
        raise LabellingError(f"missing label for tile {_unpack(missing.args[0], k)}") from None


def _splice_loop(rule, tiles, columns, h) -> frozenset:
    """The splice, one tile and one replacement at a time."""
    shift = 2 * (h - 1)
    below = (1 << shift) - 1
    above = shift + 2 * rule.d
    if columns is None:
        columns = repeat(0)
    elif not isinstance(columns, list):  # the packed route's arrays
        tiles, columns = tiles.tolist(), columns.tolist()
    out = set()
    for t, j in zip(tiles, columns):
        rest = t & below | (t >> (shift + 2)) << above
        for s in rule.columns[t >> shift & 3][j].tiles:
            out.add(rest | s << shift)
    return frozenset(out)


def _splice_block(rule, tiles, columns, h) -> frozenset:
    """The splice as one numpy block.

    The replacement sets are the rows of one table, column by column and
    padded to its widest set; a tile's row is 4 times its column plus its
    digit at h.  One broadcast OR gives every output tile, and the padding
    is masked out.
    """
    shift = 2 * (h - 1)
    if not isinstance(tiles, np.ndarray):
        tiles = np.fromiter(tiles, np.uint64, len(tiles))
    group = (tiles >> shift & 3).astype(np.intp)
    if columns is not None:
        group += np.multiply(columns, 4)
    sets = [s for column in zip(*rule.columns) for s in column]
    sizes = [len(s.tiles) for s in sets]
    width = max(sizes)
    table = np.array([sorted(s.tiles) + [0] * (width - n) for s, n in zip(sets, sizes)], np.uint64)
    rest = tiles & (1 << shift) - 1 | tiles >> shift + 2 << shift + 2 * rule.d
    block = rest[:, None] | table[group] << shift
    if min(sizes) < width:
        block = block[(np.arange(width) < np.array(sizes)[:, None])[group]]
    return frozenset(block.ravel().tolist())


# ---------------------------------------------------------------------------
# one rule per target: every tiling is one application away from the frame


FRAME_LABELLING = {"01": 2, "03": 1, "20": 2, "22": 1}


def universality_rule(k_set: TileSet):
    """A two-column rule that rewrites the fixed 2-dimensional frame
    (the bow, two flippable edges sharing no vertex) into the given tiling.

    Splits the target by its last digit: tiles ending in m, prefix
    collected into V m.  The even columns are (V3, V2) and (V1, V0), the
    odd columns are empty and the canonical tiling of one dimension down.
    Returns the rule and the frame labelling.
    """
    _require_tiling(k_set, "the rewrite target must be a complete tiling")
    n = k_set.dim
    if n < 1:
        raise DimensionError("the rewrite target needs dimension at least 1")
    d = n - 1
    shift = 2 * d
    v = [set(), set(), set(), set()]
    for t in k_set.tiles:
        v[t >> shift & 3].add(t & (1 << shift) - 1)
    def pts(tiles):
        # the low 2d bits of the target's tiles, so in range for d
        return _built(d, frozenset(tiles))

    canon = canonical_tiles(d)
    empty = pts(())
    rule = GeneralizedRule(
        d,
        2,
        (
            (pts(v[3]), pts(v[1])),
            (empty, empty),
            (pts(v[2]), pts(v[0])),
            (canon, canon),
        ),
    )
    return rule, dict(FRAME_LABELLING)


def frame_tiles() -> TileSet:
    """The fixed rewrite frame used by universality_rule: the bow."""
    return bow()


# ---------------------------------------------------------------------------
# rule form of the orientation product


def product_rule(parts) -> GeneralizedRule:
    """The rule that splices one tiling per frame vertex into coordinate k.

    parts is a sequence of equal-dimension complete tilings indexed by
    frame vertex; column j + 1 replaces digit m with m followed by each
    tile of parts[j].  Apply at h = frame dimension with
    product_labelling(frame).
    """
    parts = list(parts)
    if not parts:
        raise DimensionError("need at least one part")
    d = parts[0].dim
    _require_cube_dim(d + 1)
    for p in parts:
        if p.dim != d:
            raise DimensionError("parts of unequal dimensions")
        _require_tiling(p, "every part must be a complete tiling")
    # m < 4 and s < 4^d, so every m | s << 2 is in range for d + 1
    columns = tuple(
        tuple(_built(d + 1, frozenset(m | s << 2 for s in p.tiles)) for p in parts)
        for m in range(4)
    )
    return GeneralizedRule(d + 1, len(parts), columns)


def product_labelling(frame: TileSet) -> dict[str, int]:
    """Label every frame tile with its vertex index plus one."""
    k = frame.dim
    return {_unpack(t, k): _split(t)[0] + 1 for t in frame.tiles}
