import math
import random
import re

import pytest

from usokit import (
    DimensionError,
    GeneralizedRule,
    InvalidRuleError,
    LabellingError,
    NAMED_RULE_KINDS,
    PartialTileSet,
    SimpleRule,
    TileSet,
    apply_generalized,
    apply_simple,
    as_generalized,
    bow,
    canonical_tiles,
    flippable_edges,
    frame_tiles,
    inherited,
    is_tiling,
    named_rule,
    product,
    product_labelling,
    product_rule,
    tiles_from_uso,
    twins,
    universality_rule,
    uso_from_tiles,
    validate_generalized,
    validate_simple,
)
from usokit import cube, rewrite
from usokit.cube import MAX_FORMAT_DIM
from usokit.tiling import pack_lines, tile_vertex

# the d=2 rule whose application is the worked rewrite fixture
EX_RULE = SimpleRule(
    d=2,
    s0=PartialTileSet.from_strings(["01"]),
    s1=PartialTileSet.from_strings(["11", "31"]),
    s2=PartialTileSet.from_strings(["03", "20", "22"]),
    s3=PartialTileSet.from_strings(["33", "13"]),
)
EX_INPUT = TileSet.from_strings(["10", "30", "02", "22"])
EX_OUTPUT = TileSet.from_strings(
    ["110", "310", "130", "330", "012", "032", "202", "222"]
)

TARGET3 = TileSet.from_strings(
    ["101", "103", "020", "122", "220", "300", "312", "332"]
)


def sets_of(rule, m, j):
    return sorted(rule.set_for(m, j).strings())


def test_named_rule_tables():
    tables = {
        "identity": (["0"], ["1"], ["2"], ["3"]),
        "comb": (["0"], ["0"], ["2"], ["2"]),
        "flip": (["1"], ["0"], ["3"], ["2"]),
        "copy-upper": ([], [], ["0", "2"], ["1", "3"]),
        "copy-lower": (["0", "2"], ["1", "3"], [], []),
        "mirror": (["2"], ["3"], ["0"], ["1"]),
        "partial-swap": (["0"], ["3"], ["2"], ["1"]),
        "take-upper-facet": ([], [], [""], [""]),
        "take-lower-facet": ([""], [""], [], []),
        "inherit": ([""], [], [], [""]),
    }
    assert set(tables) == set(NAMED_RULE_KINDS)
    for kind, (s0, s1, s2, s3) in tables.items():
        r = named_rule(kind)
        assert r.i == 1
        assert sets_of(r, 0, 1) == s0
        assert sets_of(r, 1, 1) == s1
        assert sets_of(r, 2, 1) == s2
        assert sets_of(r, 3, 1) == s3
        assert r.d == (0 if kind in ("take-upper-facet", "take-lower-facet", "inherit") else 1)


def test_named_rule_rejects_unknown():
    with pytest.raises(InvalidRuleError):
        named_rule("frobnicate")


def test_validate_simple_accepts_known_rules():
    assert validate_simple(EX_RULE) == []
    for kind in NAMED_RULE_KINDS:
        assert validate_simple(named_rule(kind)) == []


def test_validate_simple_reports_violations():
    overlap = SimpleRule(
        d=1,
        s0=PartialTileSet.from_strings(["0"]),
        s1=PartialTileSet.from_strings(["1"]),
        s2=PartialTileSet.from_strings(["0", "2"]),
        s3=PartialTileSet.from_strings(["3"]),
    )
    msgs = validate_simple(overlap)
    assert any("share tiles" in m for m in msgs)

    short = SimpleRule(
        d=1,
        s0=PartialTileSet.from_strings(["0"]),
        s1=PartialTileSet.from_strings(["1"]),
        s2=PartialTileSet(1, frozenset()),
        s3=PartialTileSet.from_strings(["3"]),
    )
    msgs = validate_simple(short)
    assert any("needs 2" in m for m in msgs)

    clash = SimpleRule(
        d=1,
        s0=PartialTileSet.from_strings(["0"]),
        s1=PartialTileSet.from_strings(["1"]),
        s2=PartialTileSet.from_strings(["3"]),
        s3=PartialTileSet.from_strings(["3"]),
    )
    msgs = validate_simple(clash)
    assert any("incompatible" in m for m in msgs)


def test_apply_simple_worked_example():
    assert apply_simple(EX_RULE, EX_INPUT, 1) == EX_OUTPUT


def test_apply_simple_identity(catalogue2):
    r = named_rule("identity")
    for ts in catalogue2:
        for h in (1, 2):
            assert apply_simple(r, ts, h) == ts


def test_apply_simple_partial_swap_example():
    r = named_rule("partial-swap")
    k = TileSet.from_strings(
        ["110", "310", "012", "202", "031", "230", "033", "222"]
    )
    want = TileSet.from_strings(
        ["130", "330", "032", "202", "011", "210", "013", "222"]
    )
    assert apply_simple(r, k, 2) == want


def test_apply_simple_rejects_bad_h():
    with pytest.raises(DimensionError):
        apply_simple(EX_RULE, EX_INPUT, 0)
    with pytest.raises(DimensionError):
        apply_simple(EX_RULE, EX_INPUT, 3)


def test_apply_checked_mode_validates():
    bad = SimpleRule(
        d=1,
        s0=PartialTileSet.from_strings(["0"]),
        s1=PartialTileSet.from_strings(["1"]),
        s2=PartialTileSet.from_strings(["0", "2"]),
        s3=PartialTileSet.from_strings(["3"]),
    )
    with pytest.raises(InvalidRuleError):
        apply_simple(bad, EX_INPUT, 1, checked=True)
    # unchecked application does not validate
    apply_simple(bad, canonical_tiles(1), 1)


def test_dimension_arithmetic(catalogue2):
    for kind in NAMED_RULE_KINDS:
        r = named_rule(kind)
        for ts in catalogue2[:4]:
            for h in (1, 2):
                out = apply_simple(r, ts, h)
                assert out.dim == 2 + r.d - 1
                assert len(out) == 1 << out.dim


def test_unsound_rewrite_fails_loudly():
    # a cardinality-deficient rule cannot reach 2^(k + d - 1) output tiles
    short = SimpleRule(
        d=1,
        s0=PartialTileSet.from_strings(["0"]),
        s1=PartialTileSet.from_strings(["1"]),
        s2=PartialTileSet(1, frozenset()),
        s3=PartialTileSet.from_strings(["3"]),
    )
    with pytest.raises(InvalidRuleError):
        apply_simple(short, canonical_tiles(1), 1)


def test_embedded_simple_equals_generalized():
    g = as_generalized(EX_RULE)
    assert g.i == 1
    assert validate_generalized(g) == []
    labels = {s: 1 for s in EX_INPUT.strings()}
    assert apply_generalized(g, EX_INPUT, labels, 1) == apply_simple(EX_RULE, EX_INPUT, 1)


def test_validate_generalized_worked_rule():
    rule, labels = universality_rule(TARGET3)
    assert validate_generalized(rule) == []
    assert labels == {"01": 2, "03": 1, "20": 2, "22": 1}


def test_validate_generalized_reports_cardinality():
    c1 = canonical_tiles(1).strings()
    r = GeneralizedRule(
        d=1,
        i=2,
        columns=(
            (PartialTileSet.from_strings(["0"]), PartialTileSet(1, frozenset())),
            (PartialTileSet(1, frozenset()),) * 2,
            (PartialTileSet.from_strings(["2"]),) * 2,
            (PartialTileSet.from_strings(c1),) * 2,
        ),
    )
    msgs = validate_generalized(r)
    assert any("needs 2" in m for m in msgs)


def test_universality_rule_worked_example():
    rule, labels = universality_rule(TARGET3)
    assert rule.d == 2
    assert rule.i == 2
    assert sets_of(rule, 0, 1) == ["10"]
    assert sets_of(rule, 2, 1) == ["12", "31", "33"]
    assert sets_of(rule, 0, 2) == ["10"]
    assert sets_of(rule, 2, 2) == ["02", "22", "30"]
    for j in (1, 2):
        assert sets_of(rule, 1, j) == []
        assert sets_of(rule, 3, j) == canonical_tiles(2).strings()
    assert apply_generalized(rule, frame_tiles(), labels, 1) == TARGET3


def test_universality_rule_on_the_frame_itself():
    rule, labels = universality_rule(bow())
    # mechanical last-digit split of the bow
    assert sets_of(rule, 0, 1) == ["0"]  # tiles ending in 3
    assert sets_of(rule, 2, 1) == ["2"]  # tiles ending in 2
    assert sets_of(rule, 0, 2) == ["0"]  # tiles ending in 1
    assert sets_of(rule, 2, 2) == ["2"]  # tiles ending in 0
    assert apply_generalized(rule, frame_tiles(), labels, 1) == bow()


def test_universality_rule_canonical_input():
    rule, labels = universality_rule(canonical_tiles(3))
    for j in (1, 2):
        assert sets_of(rule, 0, j) == []
        assert sets_of(rule, 2, j) == canonical_tiles(2).strings()
    assert apply_generalized(rule, frame_tiles(), labels, 1) == canonical_tiles(3)


def test_universality_round_trip_exhaustive(catalogue2):
    for ts in catalogue2:
        rule, labels = universality_rule(ts)
        assert validate_generalized(rule) == []
        assert apply_generalized(rule, frame_tiles(), labels, 1) == ts


def test_universality_dimension_one():
    for strings in (["0", "2"], ["1", "3"]):
        ts = TileSet.from_strings(strings)
        rule, labels = universality_rule(ts)
        assert rule.d == 0
        assert apply_generalized(rule, frame_tiles(), labels, 1) == ts


def test_apply_generalized_missing_label():
    rule, _ = universality_rule(TARGET3)
    with pytest.raises(LabellingError):
        apply_generalized(rule, frame_tiles(), {"01": 2, "03": 1, "20": 2}, 1)
    with pytest.raises(LabellingError):
        apply_generalized(
            rule, frame_tiles(), {"01": 2, "03": 1, "20": 2, "22": 7}, 1
        )


@pytest.mark.parametrize("key", ["200", "2", "0x", "2\uff10"])
def test_apply_generalized_rejects_label_keys_that_are_not_tiles(key):
    # "200" and "2" would pack like "20"
    rule, _ = universality_rule(TARGET3)
    labels = {"01": 2, "03": 1, "20": 2, "22": 1, key: 1}
    message = f"^label key {re.escape(repr(key))} is not a tile of dimension 2$"
    with pytest.raises(LabellingError, match=message):
        apply_generalized(rule, frame_tiles(), labels, 1)


# two columns: digit m becomes m followed by 0, 2 or by 1, 3; sound under
# any labelling
PAIR_RULE = product_rule([canonical_tiles(1), TileSet.from_strings(["1", "3"])])


def _apply_outcome(labelling, ts):
    try:
        return apply_generalized(PAIR_RULE, ts, labelling, 2)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_labellings_give_the_per_key_loop_results(k, sampled_tiling, monkeypatch):
    ts = sampled_tiling(k)
    words = ts.strings()
    rnd = random.Random(k)
    labels = {w: 1 + rnd.getrandbits(1) for w in words}
    strays = {}
    while len(strays) < 2:
        w = "".join(rnd.choice("0123") for _ in range(k))
        if w not in labels:
            strays[w] = len(strays) + 1
    bad_key = "4" * k
    fullwidth_key = "\uff11" * k  # len() k, but no ASCII digit
    missing = dict(labels)
    del missing[words[3]]
    rest = dict(labels)
    del rest[words[1]]
    cases = {
        "good": labels,
        "extra keys": {**labels, **strays},
        "bool label": {**labels, words[0]: True},
        "missing tile": missing,
        "stray in place of a tile": {**missing, next(iter(strays)): 1},
        "bad key": {**labels, bad_key: 1},
        "short key": {**labels, "0" * (k - 1): 1},
        "label out of range": {**labels, words[1]: 3},
        "label 0": {**labels, words[1]: 0},
        "bad key before a bad label": {bad_key: 1, **rest, words[1]: 3},
        "bad label before a bad key": {words[1]: 3, **rest, bad_key: 1},
        "non-string key": {**labels, 5: 1},
        "float label": {**labels, words[2]: 1.5},
        "string label": {**labels, words[2]: "1"},
        "NaN label": {**labels, words[2]: math.nan},
        "non-ASCII key": {**labels, fullwidth_key: 1},
    }
    packed = []

    def recording(*args):
        packed.append(pack_lines(*args))
        return packed[-1]

    monkeypatch.setattr(rewrite, "pack_lines", recording)
    got = {name: _apply_outcome(lab, ts) for name, lab in cases.items()}
    # the block route packs the good labellings from the kernel's threshold on
    assert any(p is not None for p in packed) == (k >= 5)
    monkeypatch.setattr(rewrite, "pack_lines", lambda *args: None)
    for name, lab in cases.items():
        assert got[name] == _apply_outcome(lab, ts), name
    key_error = f"label key {bad_key!r} is not a tile of dimension {k}"
    range_error = f"label 3 for tile {words[1]} out of range 1..2"
    assert isinstance(got["good"], TileSet) and got["extra keys"] == got["good"]
    assert got["missing tile"] == got["stray in place of a tile"] == (
        "LabellingError", f"missing label for tile {words[3]}")
    assert got["bad key"] == got["bad key before a bad label"] == ("LabellingError", key_error)
    assert got["label out of range"] == got["bad label before a bad key"] == (
        "LabellingError", range_error)
    assert got["label 0"] == ("LabellingError", f"label 0 for tile {words[1]} out of range 1..2")
    assert got["non-ASCII key"] == (
        "LabellingError", f"label key {fullwidth_key!r} is not a tile of dimension {k}")
    # labels and keys of the wrong type; a bool is not a column, as it is
    # not a dimension
    assert got["bool label"] == ("LabellingError", f"label True for tile {words[0]} is not an int")
    for name, label in (("float label", "1.5"), ("NaN label", "nan"), ("string label", "'1'")):
        assert got[name] == ("LabellingError", f"label {label} for tile {words[2]} is not an int")
    assert got["non-string key"] == ("LabellingError", f"label key 5 is not a tile of dimension {k}")


def test_inherit_rule_matches_inherited(catalogue2):
    r = named_rule("inherit")
    for ts in catalogue2:
        o = uso_from_tiles(ts)
        assert apply_simple(r, ts, 2) == tiles_from_uso(inherited(o, 1))


def test_flippable_preservation(catalogue2):
    # a d=1 rule whose both unions have twins keeps at least one twin pair
    qualifying = [k for k in NAMED_RULE_KINDS if named_rule(k).d == 1]
    for kind in qualifying:
        r = named_rule(kind)
        for union in (
            r.set_for(0, 1).tiles | r.set_for(2, 1).tiles,
            r.set_for(1, 1).tiles | r.set_for(3, 1).tiles,
        ):
            assert twins(TileSet(1, union))
        for ts in catalogue2:
            assert flippable_edges(uso_from_tiles(ts))
            for h in (1, 2):
                out = apply_simple(r, ts, h)
                assert twins(out)


def _opposing_edges_comb_output(rule, ts, h):
    """Opposing input h-edges force combed connecting edges in the output."""
    o = uso_from_tiles(ts)
    k = o.dim
    d = rule.d
    out_o = uso_from_tiles(apply_simple(rule, ts, h))
    for v in range(1 << k):
        if v >> (h - 1) & 1:
            continue
        for g in range(1, k + 1):
            if g == h or v >> (g - 1) & 1:
                continue
            w = v | 1 << (g - 1)
            if o.direction(v, h) == o.direction(w, h):
                continue
            # blow up the h coordinate: output vertices keep the prefix
            # below h, gain d bits, keep the suffix above h
            g_out = g if g < h else g + d - 1
            lowmask = (1 << (h - 1)) - 1
            for block in range(1 << d):
                x = (v & lowmask) | block << (h - 1) | (v >> h) << (h - 1 + d)
                assert out_o.direction(x, g_out) == o.direction(v, g)


def test_opposing_edges_comb_the_connecting_edges(catalogue2):
    rules = [EX_RULE] + [named_rule(k) for k in NAMED_RULE_KINDS if named_rule(k).d >= 1]
    for rule in rules:
        for ts in catalogue2:
            for h in (1, 2):
                _opposing_edges_comb_output(rule, ts, h)


def _vertex_split(ts):
    """The four prefix sets of a tiling, keyed by its last digit."""
    d = ts.dim - 1
    groups = [[], [], [], []]
    for s in ts.strings():
        groups[int(s[-1])].append(s[:-1])
    return [PartialTileSet.from_strings(g, d) for g in groups]


def _random_two_column_rule(rnd, d, cats):
    cat = cats[d + 1]
    v = _vertex_split(cat[rnd.randrange(len(cat))])
    w = _vertex_split(cat[rnd.randrange(len(cat))])
    return GeneralizedRule(
        d, 2, ((v[3], v[1]), (w[3], w[1]), (v[2], v[0]), (w[2], w[0]))
    )


def _perturbed(rnd, rule, move):
    """The rule with one tile dropped from a set, or moved to another set."""
    cells = [(m, j) for m in range(4) for j in range(rule.i)]
    sets = {c: set(rule.columns[c[0]][c[1]].tiles) for c in cells}
    source = rnd.choice([c for c in cells if sets[c]])
    tile = rnd.choice(sorted(sets[source]))
    sets[source].discard(tile)
    if move:
        sets[rnd.choice([c for c in cells if c != source])].add(tile)
    columns = tuple(
        tuple(PartialTileSet(rule.d, frozenset(sets[m, j])) for j in range(rule.i))
        for m in range(4)
    )
    return GeneralizedRule(rule.d, rule.i, columns)


def test_column_vertex_projections_agree(catalogue1, catalogue2, catalogue3):
    # the pair conditions alone make the columns of each row of an accepted
    # rule project to the same unoriented vertices
    rnd = random.Random(5)
    cats = {1: catalogue1, 2: catalogue2, 3: catalogue3}
    rules = [universality_rule(ts)[0] for ts in catalogue2 + catalogue3]
    rules += [
        product_rule(catalogue2[(n + v) % len(catalogue2)] for v in range(4))
        for n in range(len(catalogue2))
    ]
    rules += [_random_two_column_rule(rnd, rnd.randrange(3), cats) for _ in range(300)]
    rules += [_perturbed(rnd, r, move) for r in rules for move in (False, True)]
    outcomes = set()
    for rule in rules:
        accepted = validate_generalized(rule) == []
        outcomes.add(accepted)
        if not accepted:
            continue
        for row in rule.columns:
            first, *rest = (
                {tile_vertex(t, rule.d) for t in s.tiles} for s in row
            )
            assert all(vs == first for vs in rest)
    assert outcomes == {True, False}


def test_product_rule_emulates_product(catalogue1, catalogue2):
    down = uso_from_tiles(catalogue1[0])
    up = uso_from_tiles(catalogue1[1])
    for frame_ts in catalogue2:
        frame = uso_from_tiles(frame_ts)
        parts = [down if v % 2 else up for v in range(4)]
        rule = product_rule([tiles_from_uso(p) for p in parts])
        assert validate_generalized(rule) == []
        labels = product_labelling(frame_ts)
        direct = product(frame, dict(enumerate(parts)))
        assert apply_generalized(rule, frame_ts, labels, 2) == tiles_from_uso(direct)


ONE = canonical_tiles(1)
MIRROR = named_rule("mirror")


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: GeneralizedRule(1, 0, ()), DimensionError, "a rule needs at least one column"),
        (lambda: GeneralizedRule(1, 1, ((ONE,),) * 3), ValueError,
         "expected four rows of replacement sets"),
        (lambda: GeneralizedRule(1, 2, ((ONE,),) * 4), ValueError, "expected 2 columns per row"),
        (lambda: GeneralizedRule(2, 1, ((ONE,),) * 4), DimensionError,
         "replacement set of width 1 in a rule of width 2"),
        (lambda: universality_rule(canonical_tiles(0)), DimensionError,
         "the rewrite target needs dimension at least 1"),
        (lambda: product_rule([]), DimensionError, "need at least one part"),
        (lambda: product_rule([ONE, canonical_tiles(2)]), DimensionError,
         "parts of unequal dimensions"),
        # a bool width would be written as "rule d=True i=True", which
        # read_rule rejects, and a float column count would reach the
        # validator's range() as a raw TypeError
        (lambda: GeneralizedRule(True, True, MIRROR.columns), DimensionError,
         "rule width must be an int, not True"),
        (lambda: GeneralizedRule(1.0, 1, MIRROR.columns), DimensionError,
         "rule width must be an int, not 1.0"),
        (lambda: GeneralizedRule(1, True, MIRROR.columns), DimensionError,
         "column count must be an int, not True"),
        (lambda: GeneralizedRule(1, 1.0, MIRROR.columns), DimensionError,
         "column count must be an int, not 1.0"),
    ],
)
def test_rule_shape_rejections(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        make()
    assert type(info.value) is error


def _split_rule(rnd, d, i, tilings):
    """A rule of width d with i columns, each row pair a random split of a
    random complete d-tiling: valid for one column, mostly not for two."""
    columns = [[], [], [], []]
    for _ in range(i):
        for m in (0, 1):
            tiles = sorted(rnd.choice(tilings).tiles)
            part = {t for t in tiles if rnd.getrandbits(1)}
            columns[m].append(TileSet(d, part))
            columns[m + 2].append(TileSet(d, set(tiles) - part))
    return GeneralizedRule(d, i, tuple(map(tuple, columns)))


def _subset_rule(rnd, d, i):
    """A rule whose sets are random subsets of all 4^d tiles: unsound."""
    sets = [[TileSet(d, {t for t in range(4 ** d) if rnd.random() < 0.3}) for _ in range(i)]
            for _ in range(4)]
    return GeneralizedRule(d, i, tuple(map(tuple, sets)))


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("k", range(5, 11))
def test_block_splice_is_the_loop(k, sampled_tiling, catalogue1, catalogue2, monkeypatch):
    # seeded rules of widths 0-2 with 1 or 2 columns, product rules and
    # unsound ones, under good and defective labellings: _rewrite gives the
    # same result or message by either splice, and on the columns of every
    # labelling the label reader takes the two splices give one set
    rnd = random.Random(k)
    ts = sampled_tiling(k)
    words = ts.strings()
    tilings = {0: [canonical_tiles(0)], 1: catalogue1, 2: catalogue2}
    rules = [named_rule(rnd.choice(NAMED_RULE_KINDS)) for _ in range(3)]
    rules += [_split_rule(rnd, d, i, tilings[d]) for d in (0, 1, 2) for i in (1, 2)]
    rules += [product_rule(rnd.choices(tilings[d], k=2)) for d in (0, 1)]
    rules += [_subset_rule(rnd, d, 2) for d in (1, 2)]
    for rule in rules:
        labels = {w: 1 + rnd.randrange(rule.i) for w in words}
        stray = "".join(rnd.choice("0123") for _ in range(k))
        missing = dict(labels)
        del missing[rnd.choice(words)]
        labellings = [
            None,
            labels,
            {**labels, stray: 1},
            missing,
            {**labels, rnd.choice(words): rule.i + 1},
            {**labels, "4" * k: 1},
            {**labels, rnd.choice(words): True},
        ]
        for labelling in labellings:
            h = 1 + rnd.randrange(k)
            got = []
            for least in (0, 1 << 40):
                monkeypatch.setattr(rewrite, "SPLICE_MIN_TILES", least)
                got.append(_outcome(apply_generalized, rule, ts, labelling, h)
                           if labelling else _outcome(apply_simple, rule, ts, h))
            assert got[0] == got[1]
            # the label reader's two routes: the packed arrays, and the
            # per-key loop's lists
            routes = [(ts.tiles, None)]
            if labelling is not None:
                routes = []
                for pack in (pack_lines, lambda *args: None):
                    monkeypatch.setattr(rewrite, "pack_lines", pack)
                    routes.append(_outcome(rewrite._tile_columns, labelling, ts, rule.i))
                monkeypatch.setattr(rewrite, "pack_lines", pack_lines)
            for route in routes:
                if isinstance(route[0], str):  # the error _rewrite raised
                    assert route == got[0]
                    continue
                spliced = {rewrite._splice_block(rule, *route, h), rewrite._splice_loop(rule, *route, h)}
                assert len(spliced) == 1
                if isinstance(got[0], TileSet):
                    assert spliced == {got[0].tiles}


def test_block_splice_takes_the_widest_tiles():
    # 32-digit tiles fill the block's uint64 words, bit 63 included, also
    # at h = 32, where the digits above h shift out by 64 bits: both splices
    # keep the lower facet, and the count check reports the fragment
    k, n = MAX_FORMAT_DIM, rewrite.SPLICE_MIN_TILES
    ts = TileSet(k, {t | (t & 1) << 2 * k - 1 for t in range(n)})
    rule = named_rule("take-lower-facet")
    lower = frozenset(t for t in ts.tiles if not t >> 2 * k - 1)
    assert rewrite._splice_block(rule, ts.tiles, None, k) == lower
    assert rewrite._splice_loop(rule, ts.tiles, None, k) == lower
    message = f"rewrite produced {n // 2} tiles, expected {1 << k - 1}; "
    with pytest.raises(InvalidRuleError, match=f"^{re.escape(message)}"):
        apply_simple(rule, ts, k)


@pytest.mark.parametrize("n", [2, rewrite.SPLICE_MIN_TILES])
@pytest.mark.parametrize("labelled", [False, True], ids=["simple", "labelled"])
def test_rewrite_above_the_cap_raises_before_a_splice(n, labelled, monkeypatch):
    # a width-2 rule on 32-digit tiles would give 33 digits, more than a
    # uint64 holds or a reader takes: refused before the labels are read
    # and before either splice runs
    ts = TileSet(MAX_FORMAT_DIM, range(n))
    rule = SimpleRule(2, *[canonical_tiles(2)] * 4)
    for name in ("_tile_columns", "_splice_loop", "_splice_block"):
        monkeypatch.setattr(rewrite, name, None)
    message = f"^dimension {MAX_FORMAT_DIM + 1} exceeds the cap {MAX_FORMAT_DIM}$"
    with pytest.raises(DimensionError, match=message):
        if labelled:
            apply_generalized(rule, ts, dict.fromkeys(ts.strings(), 1), MAX_FORMAT_DIM)
        else:
            apply_simple(rule, ts, 1)


def test_product_rule_refuses_a_width_above_the_cap(monkeypatch):
    # its width is the parts' dimension plus one
    parts = [canonical_tiles(2)] * 2
    monkeypatch.setattr(cube, "MAX_FORMAT_DIM", 2)
    with pytest.raises(DimensionError, match="^dimension 3 exceeds the cap 2$"):
        product_rule(parts)
    monkeypatch.setattr(cube, "MAX_FORMAT_DIM", 3)
    assert product_rule(parts).d == 3
