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
why sound rules map tilings to tilings in any dimension.

Width 0 rules delete the coordinate; their replacement sets live over the
single empty tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .cube import _require_coordinate
from .errors import (
    DimensionError,
    InternalError,
    InvalidRuleError,
    LabellingError,
)
from .tiling import (
    TileSet,
    _require_tiling,
    canonical_tiles,
    incompatible_tiles,
    pack_lines,
    tile_pack,
    tile_unpack,
    tile_vertex,
)

NAMED_RULE_KINDS = (
    "identity",
    "comb",
    "flip",
    "copy-upper",
    "copy-lower",
    "mirror",
    "partial-swap",
    "take-upper-facet",
    "take-lower-facet",
    "inherit",
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


@dataclass(frozen=True)
class GeneralizedRule:
    """i labelled columns of replacement sets; columns[m][j - 1] is S m, j."""

    d: int
    i: int
    columns: tuple[tuple[TileSet, ...], ...]

    def __post_init__(self):
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
        shown = ", ".join(sorted(tile_unpack(t, d) for t in common)) or "-"
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
            f"{tile_unpack(ta, d)}, {tile_unpack(tb, d)}"
        )
    return out


def validate_generalized(rule: GeneralizedRule) -> list[str]:
    """Violations over every column pairing; empty means valid.

    On a clean rule the even-digit (and odd-digit) replacement sets of all
    columns must project to the same vertex sets; that is implied by the
    pair conditions, so a difference raises InternalError rather than being
    reported.
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
    if not out:
        for m in range(4):
            first = {tile_vertex(t, rule.d) for t in rule.set_for(m, 1).tiles}
            for j in range(2, rule.i + 1):
                vs = {tile_vertex(t, rule.d) for t in rule.set_for(m, j).tiles}
                if vs != first:
                    raise InternalError(
                        f"column vertex projections of S{m} differ despite "
                        f"clean pair checks"
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

    A tile's column is its label, or 1 for every tile when labelling is None.
    """
    if checked:
        violations = validate_generalized(rule)
        if violations:
            raise InvalidRuleError("; ".join(violations))
        _require_tiling(k_set, "input is not a complete tiling")
    k = k_set.dim
    _require_coordinate(h, k)
    columns = None if labelling is None else _label_columns(labelling, k, rule.i)
    shift = 2 * (h - 1)
    below = (1 << shift) - 1
    above = shift + 2 * rule.d
    out = set()
    for t in k_set.tiles:
        j = 1 if columns is None else columns.get(t)
        if j is None:
            raise LabellingError(f"missing label for tile {tile_unpack(t, k)}")
        rest = t & below | (t >> (shift + 2)) << above
        for s in rule.columns[t >> shift & 3][j - 1].tiles:
            out.add(rest | s << shift)
    new_dim = k + rule.d - 1
    if len(out) != 1 << new_dim:
        raise InvalidRuleError(
            f"rewrite produced {len(out)} tiles, expected {1 << new_dim}; "
            f"the rule is not sound on this input"
        )
    return TileSet(new_dim, frozenset(out))


def _label_columns(labelling, k: int, i: int) -> dict[int, int]:
    """The column of each packed key; LabellingError on the first bad item.

    The keys go to tiling.pack_lines as one text, and its tiles are taken
    when every label is an int in 1..i; otherwise the per-key loop raises
    the first defect in the labelling's order.
    """
    labels = list(labelling.values())
    try:
        text = "\n".join(labelling) + "\n"
    except TypeError:  # a key that is not a str
        text = ""
    packed = pack_lines(text, len(labels), k)
    if (
        packed is not None
        and set(map(type, labels)) == {int}
        and 1 <= min(labels) <= max(labels) <= i
    ):
        return dict(zip(packed, labels))
    columns = {}
    for s, j in labelling.items():
        if not 1 <= j <= i:
            raise LabellingError(f"label {j} for tile {s} out of range 1..{i}")
        try:
            if len(s) != k:
                raise ValueError
            columns[tile_pack(s)] = j
        except ValueError:
            raise LabellingError(f"label key {s!r} is not a tile of dimension {k}") from None
    return columns


# ---------------------------------------------------------------------------
# one rule per target: every tiling is one application away from the frame


FRAME_TILES = ("01", "03", "20", "22")
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
        return TileSet(d, frozenset(tiles))

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
    """The fixed rewrite frame used by universality_rule."""
    return TileSet.from_strings(FRAME_TILES)


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
    for p in parts:
        if p.dim != d:
            raise DimensionError("parts of unequal dimensions")
        _require_tiling(p, "every part must be a complete tiling")
    columns = tuple(
        tuple(
            TileSet(d + 1, frozenset(m | s << 2 for s in p.tiles))
            for p in parts
        )
        for m in range(4)
    )
    return GeneralizedRule(d + 1, len(parts), columns)


def product_labelling(frame: TileSet) -> dict[str, int]:
    """Label every frame tile with its vertex index plus one."""
    k = frame.dim
    return {
        tile_unpack(t, k): tile_vertex(t, k) + 1 for t in frame.tiles
    }
