import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usokit import (
    FormatError,
    Orientation,
    PartialTileSet,
    SimpleRule,
    TileSet,
    as_generalized,
    bow,
    canonical_orientation,
    canonical_tiles,
    named_rule,
    read_labels,
    read_orientation,
    read_rule,
    read_tiling,
    universality_rule,
    uso_from_tiles,
    vertex_bits,
    write_labels,
    write_orientation,
    write_rule,
    write_tiling,
)
from usokit import formats, tiling
from usokit.formats import _BLANKS, _counted_body, _parse_tiles, _read_label_lines

EX_RULE = SimpleRule(
    d=2,
    s0=PartialTileSet.from_strings(["01"]),
    s1=PartialTileSet.from_strings(["11", "31"]),
    s2=PartialTileSet.from_strings(["03", "20", "22"]),
    s3=PartialTileSet.from_strings(["33", "13"]),
)


def test_tiling_text_is_sorted():
    assert write_tiling(bow()) == "uso 2\n01\n03\n20\n22\n"
    assert write_tiling(canonical_tiles(0)) == "uso 0\n-\n"


def test_tiling_round_trip(catalogue2):
    for ts in catalogue2:
        assert read_tiling(write_tiling(ts)) == ts
    for k in (0, 1, 3):
        assert read_tiling(write_tiling(canonical_tiles(k))) == canonical_tiles(k)


def test_tiling_reader_rejections():
    for text in (
        "",
        "usox 2\n",
        "uso x\n",
        "uso -1\n",
        "uso 1\n0\n",
        "uso 1\n0\n2\n1\n",
        "uso 1\n0\n0\n",
        "uso 1\n4\n2\n",
        "uso 1\n00\n2\n",
        "uso 0\n00\n",
    ):
        with pytest.raises(FormatError):
            read_tiling(text)


def test_orientation_text_lists_vertices_in_bit_order():
    assert write_orientation(uso_from_tiles(bow())) == (
        "o 2\n00 01\n01 01\n10 00\n11 00\n"
    )
    assert write_orientation(canonical_orientation(0)) == "o 0\n- -\n"


def test_orientation_round_trip(catalogue2):
    for ts in catalogue2:
        o = uso_from_tiles(ts)
        assert read_orientation(write_orientation(o)) == o
    for k in (0, 1, 3):
        o = canonical_orientation(k)
        assert read_orientation(write_orientation(o)) == o


def test_orientation_reader_rejections():
    for text in (
        "",
        "o one\n",
        "uso 1\n0 0\n1 0\n",
        "o 1\n0 0\n",
        "o 1\n0 0 0\n1 0\n",
        "o 1\n0 2\n1 0\n",
        "o 1\n1 0\n0 0\n",
        "o 1\n0 1\n1 0\n",
        "o 0\n0 0\n",
    ):
        with pytest.raises(FormatError):
            read_orientation(text)


def test_rule_text_layout():
    assert write_rule(EX_RULE) == (
        "rule d=2 i=1\n"
        "S0.1: 01\n"
        "S1.1: 11 31\n"
        "S2.1: 03 20 22\n"
        "S3.1: 13 33\n"
    )
    assert write_rule(named_rule("inherit")) == (
        "rule d=0 i=1\nS0.1: -\nS1.1:\nS2.1:\nS3.1: -\n"
    )


def test_rule_round_trip():
    for kind in ("identity", "comb", "partial-swap", "inherit", "copy-upper"):
        r = named_rule(kind)
        assert read_rule(write_rule(r)) == as_generalized(r)
    assert read_rule(write_rule(EX_RULE)) == as_generalized(EX_RULE)
    two_column, _ = universality_rule(canonical_tiles(3))
    assert read_rule(write_rule(two_column)) == two_column


def test_rule_reader_rejections():
    for text in (
        "",
        "rule d=1\n",
        "rule d=x i=1\n",
        "rule d=1 i=0\n",
        "rule d=-1 i=1\n",
        "rule d=1 i=1\nS0.1: 0\n",
        "rule d=1 i=1\nS0.1: 0\nS2.1: 2\nS1.1: 1\nS3.1: 3\n",
        "rule d=1 i=1\nS0.1: 0 0\nS1.1: 1\nS2.1: 2\nS3.1: 3\n",
        "rule d=1 i=1\nS0.1: 00\nS1.1: 1\nS2.1: 2\nS3.1: 3\n",
    ):
        with pytest.raises(FormatError):
            read_rule(text)


def test_labels_round_trip():
    labels = {"01": 2, "03": 1, "20": 2, "22": 1}
    text = write_labels(labels)
    assert text == "01 2\n03 1\n20 2\n22 1\n"
    assert read_labels(text, 2) == labels
    assert read_labels(write_labels({}), 2) == {}
    assert read_labels(write_labels({"": 1}), 0) == {"": 1}


@pytest.mark.parametrize(
    "key, message",
    [
        (None, "tile None is not a str"),
        (True, "tile True is not a str"),
        (1.0, "tile 1.0 is not a str"),
        ("04", "bad tile character '4'"),
    ],
)
def test_label_keys_are_tile_words(key, message):
    # None was written as "- 1", the empty tile's line, and True or 1.0 as
    # "True 1" or "1.0 1", which no reader takes back
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_labels({"01": 2, key: 1})


def test_labels_reader_rejections():
    for text in (
        "01\n",
        "01 2 3\n",
        "01 x\n",
        "01 0\n",
        "01 1\n01 2\n",
        "0 1\n",
    ):
        with pytest.raises(FormatError):
            read_labels(text, 2)


def test_writers_are_order_independent():
    a = write_tiling(bow())
    b = write_tiling(read_tiling("uso 2\n22\n20\n03\n01\n"))
    assert a == b


def test_orientation_reader_accepts_trailing_blank_lines():
    o = Orientation(1, (0, 0))
    assert read_orientation("o 1\n0 0\n1 0\n\n\n") == o


def test_readers_take_crlf_line_ends():
    assert read_tiling("uso 1\r\n0\r\n2\r\n") == read_tiling("uso 1\n0\n2\n")
    assert read_orientation("o 1\r\n0 0\r\n1 0\r\n") == Orientation(1, (0, 0))


# characters str.splitlines() would also end a line at
OTHER_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("end", OTHER_LINE_ENDS)
def test_readers_end_lines_only_at_newline(end):
    def raises(message, read, *args):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read(*args)

    head = f"uso 1{end}0{end}2"
    raises(f"expected header 'uso <k>', got {head!r}", read_tiling, head + "\n")
    raises("expected 2 tile lines, got 1", read_tiling, f"uso 1\n0{end}2\n")
    raises("expected 2 vertex lines, got 1", read_orientation, f"o 1\n0 0{end}1 0\n")
    raises(
        "expected 4 set lines, got 3",
        read_rule,
        f"rule d=1 i=1\nS0.1: 0{end}S1.1: 1\nS2.1: 2\nS3.1: 3\n",
    )
    line = f"0 1{end}2 2"
    raises(f"expected '<tile> <label>', got {line!r}", read_labels, line + "\n", 1)


# whitespace that str.split() and str.strip() take, and the readers do not:
# words are separated and padded by ASCII space and tab only
OTHER_BLANKS = ["\x85", "\xa0", "\u3000", "\x0c"]


@pytest.mark.parametrize("blank", OTHER_BLANKS)
def test_readers_take_only_space_and_tab_between_words(blank):
    def raises(message, read, *args):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read(*args)

    raises(f"bad tile {blank + '0'!r} for dimension 1", read_tiling, f"uso 1\n{blank}0\n2\n")
    raises(f"bad tile {'2' + blank!r} for dimension 1", read_tiling, f"uso 1\n0\n2{blank}\n")
    head = f"uso{blank}1"
    raises(f"expected header 'uso <k>', got {head!r}", read_tiling, head + "\n0\n2\n")
    line = f"0{blank}0"
    raises(
        f"expected '<vertex> <directions>', got {line!r}",
        read_orientation,
        f"o 1\n{line}\n1 0\n",
    )
    line = f"1 0{blank}"
    raises(
        f"expected '<vertex> <directions>', got {line!r}",
        read_orientation,
        f"o 1\n0 0\n{line}\n",
    )
    raises(
        f"bad tile {'0' + blank!r} for dimension 1",
        read_rule,
        f"rule d=1 i=1\nS0.1: 0{blank}\nS1.1: 1\nS2.1: 2\nS3.1: 3\n",
    )
    head = f"rule d=1{blank}i=1"
    raises(
        f"expected header 'rule d=<d> i=<i>', got {head!r}",
        read_rule,
        head + "\nS0.1: 0\nS1.1: 1\nS2.1: 2\nS3.1: 3\n",
    )
    line = f"0{blank}1"
    raises(f"expected '<tile> <label>', got {line!r}", read_labels, line + "\n", 1)


def test_readers_take_space_and_tab_runs():
    assert read_tiling(" \tuso\t 1 \n\t0 \n 2\t\n") == read_tiling("uso 1\n0\n2\n")
    assert read_orientation("o\t1\n0 \t0\n\t1\t0 \n") == Orientation(1, (0, 0))
    assert read_rule("rule\td=1  i=1\nS0.1:\t0\nS1.1: 1\nS2.1: 2\nS3.1: 3\n") == read_rule(
        "rule d=1 i=1\nS0.1: 0\nS1.1: 1\nS2.1: 2\nS3.1: 3\n"
    )
    assert read_labels("0\t 2\n", 1) == {"0": 2}


# numeric forms int() accepts but the readers do not: sign, underscore,
# non-ASCII digits, negative zero
LOOSE_NUMBERS = ["+1", "0_1", "1_0", "\uff11", "\u0661", "-0"]


@pytest.mark.parametrize("number", LOOSE_NUMBERS)
def test_readers_take_only_ascii_digits(number):
    with pytest.raises(FormatError, match="bad dimension"):
        read_tiling(f"uso {number}\n0\n2\n")
    with pytest.raises(FormatError, match="bad dimension"):
        read_orientation(f"o {number}\n0 0\n1 0\n")
    with pytest.raises(FormatError, match="bad label"):
        read_labels(f"0 {number}\n", 1)
    for header in (f"rule d={number} i=1", f"rule d=1 i={number}"):
        with pytest.raises(FormatError, match="bad rule header"):
            read_rule(header + "\nS0.1: 0\nS1.1: 1\nS2.1: 2\nS3.1: 3\n")


# tile and bit words int() would read; the readers reject each as a word
LOOSE_WORDS = ["0_1", "+1", "\uff10\uff11", "\u0660\u0661"]


@pytest.mark.parametrize("word", LOOSE_WORDS)
def test_readers_take_only_ascii_digit_words(word):
    k = len(word)
    bad_tile = f"^{re.escape(f'bad tile {word!r} for dimension {k}')}$"
    bad_bits = f"^{re.escape(f'bad bit string {word!r} for dimension {k}')}$"
    rest = ["0" * k] * ((1 << k) - 1)
    with pytest.raises(FormatError, match=bad_tile):
        read_tiling("\n".join([f"uso {k}", word, *rest]) + "\n")
    with pytest.raises(FormatError, match=bad_tile):
        read_rule(f"rule d={k} i=1\nS0.1: {word}\nS1.1:\nS2.1:\nS3.1:\n")
    with pytest.raises(FormatError, match=bad_tile):
        read_labels(f"{word} 1\n", k)
    vertices = sorted(range(1 << k), key=lambda v: vertex_bits(v, k))
    lines = [f"{vertex_bits(v, k)} {'0' * k}" for v in vertices]
    with pytest.raises(FormatError, match=bad_bits):
        read_orientation("\n".join([f"o {k}", f"{'0' * k} {word}", *lines[1:]]) + "\n")
    with pytest.raises(FormatError, match=bad_bits):
        read_orientation("\n".join([f"o {k}", f"{word} {'0' * k}", *lines[1:]]) + "\n")


def test_strict_numbers_keep_the_old_messages():
    with pytest.raises(FormatError, match="^bad dimension -1$"):
        read_tiling("uso -1\n")
    with pytest.raises(FormatError, match="^bad label -2$"):
        read_labels("0 -2\n", 1)
    with pytest.raises(FormatError, match="^bad dimension '9{5000}'$"):
        read_tiling(f"uso {'9' * 5000}\n")
    assert read_labels("0 007\n", 1) == {"0": 7}


# fuzzing: text that is nearly right, so the readers get past their headers

NUMBERS = st.one_of(
    st.integers(0, 3).map(str), st.sampled_from(LOOSE_NUMBERS + ["-1", "00", "x", ""])
)
JUNK = st.one_of(
    st.text(alphabet="0123-_+x \t\uff11\x85\xa0\u3000", max_size=3),
    st.sampled_from(LOOSE_WORDS),
)


def _word(draw, alphabet, k):
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    if k == 0:
        return "-"
    return draw(st.text(alphabet=alphabet, min_size=k, max_size=k))


def _number(draw, value):
    return str(value) if draw(st.booleans()) else draw(NUMBERS)


def _lines(draw, lines):
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@st.composite
def tiling_texts(draw):
    k = draw(st.sampled_from([0, 1, 2, 3, 5, 6]))
    n = draw(st.sampled_from([1 << k, draw(st.integers(0, 9))]))
    words = [_word(draw, "0123", k) for _ in range(n)]
    return _lines(draw, [f"uso {_number(draw, k)}", *words])


@st.composite
def orientation_texts(draw):
    k = draw(st.integers(0, 2))
    body = [
        f"{vertex_bits(v, k) or '-'} {_word(draw, '01', k)}"
        for v in sorted(range(1 << k), key=lambda v: vertex_bits(v, k))
    ]
    return _lines(draw, [f"o {_number(draw, k)}", *body])


@st.composite
def rule_texts(draw):
    d, i = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    body = [
        f"S{m}.{j}:" + "".join(
            " " + _word(draw, "0123", d) for _ in range(draw(st.integers(0, 3)))
        )
        for m in range(4)
        for j in range(1, i + 1)
    ]
    return _lines(draw, [f"rule d={_number(draw, d)} i={_number(draw, i)}", *body])


@st.composite
def label_texts(draw):
    dim = draw(st.integers(0, 2))
    lines = [
        f"{_word(draw, '0123', dim)} {_number(draw, draw(st.integers(1, 3)))}"
        for _ in range(draw(st.integers(0, 4)))
    ]
    return dim, _lines(draw, lines)


READERS = {
    "tiling": (tiling_texts(), read_tiling, write_tiling),
    "orientation": (orientation_texts(), read_orientation, write_orientation),
    "rule": (rule_texts(), read_rule, write_rule),
}


@pytest.mark.parametrize("form", sorted(READERS))
def test_reader_fuzz_value_or_format_error(form):
    texts, read, write = READERS[form]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(texts, st.text(max_size=30)))
    def check(text):
        try:
            value = read(text)
        except FormatError:
            return
        assert read(write(value)) == value

    check()


@settings(max_examples=100, deadline=None)
@given(st.one_of(label_texts(), st.tuples(st.integers(0, 2), st.text(max_size=30))))
def test_label_reader_fuzz_value_or_format_error(case):
    dim, text = case
    try:
        labels = read_labels(text, dim)
    except FormatError:
        return
    assert read_labels(write_labels(labels), dim) == labels


# the whole-text label reader against the line reader

def test_label_reader_routes_agree_on_a_k10_table(sampled_tiling, monkeypatch):
    words = sampled_tiling(10).strings()
    labels = {w: 1 + j * 7919 % 100003 for j, w in enumerate(words)}
    text = write_labels(labels)
    assert _read_label_lines(text, 10) == labels

    def refuse(text, dim):
        raise AssertionError("the line reader ran on a plain table")

    monkeypatch.setattr(formats, "_read_label_lines", refuse)
    assert read_labels(text, 10) == labels


# every malformed label text of the tests above, plain tables with a
# repeated tile or a digit above 3, a label int() does not convert, and
# dimension-0 lines without their tile, which split into one word each
MALFORMED_LABELS = [
    *((text, 2) for text in ("01\n", "01 2 3\n", "01 x\n", "01 0\n", "0 1\n")),
    *((text, 2) for text in ("01 1\n01 2\n", "20 1\n01 1\n20 2\n", "01 1\n40 1\n")),
    *((f"0 1{end}2 2\n", 1) for end in OTHER_LINE_ENDS),
    *((f"0{blank}1\n", 1) for blank in OTHER_BLANKS),
    *((f"0 {number}\n", 1) for number in LOOSE_NUMBERS),
    *((f"{word} 1\n", len(word)) for word in LOOSE_WORDS),
    ("0 -2\n", 1),
    (f"0 {'9' * 5000}\n", 1),
    (" 1\n 2\n", 0),
]


@pytest.mark.parametrize("text,dim", MALFORMED_LABELS)
def test_label_reader_keeps_the_line_readers_messages(text, dim):
    got = _outcome(lambda t: read_labels(t, dim), text)
    assert isinstance(got, str)
    assert got == _outcome(lambda t: _read_label_lines(t, dim), text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(label_texts(), st.tuples(st.integers(0, 2), st.text(max_size=30))))
def test_label_reader_fuzz_agrees_with_the_line_reader(case):
    dim, text = case
    assert _outcome(lambda t: read_labels(t, dim), text) == _outcome(
        lambda t: _read_label_lines(t, dim), text
    )


# the block reader against the line reader

def _line_reader(text):
    """Oracle: read_tiling's line route on its own, for every dimension."""
    k, body = _counted_body(text, "uso", "tile")
    return _parse_tiles([ln.strip(_BLANKS) for ln in body], k, "duplicate tiles")


def _outcome(read, text):
    try:
        return read(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


@settings(max_examples=200, deadline=None)
@given(st.one_of(tiling_texts(), st.text(max_size=30)))
def test_tiling_reader_fuzz_agrees_with_the_line_reader(text):
    assert _outcome(read_tiling, text) == _outcome(_line_reader, text)


def _single_edits(text: str, k: int) -> dict[str, str]:
    """Named copies of a tiling text, each with one edit."""
    n = 1 << k
    head = len(f"uso {k}\n")
    edits = {
        "CRLF line ends": text.replace("\n", "\r\n"),
        "no final newline": text[:-1],
        "trailing blank lines": text + "\n\n",
        "lines out of order": text[:head] + "".join(reversed(text[head:].splitlines(True))),
        "header dimension one more": text.replace(f"uso {k}", f"uso {k + 1}", 1),
        "header dimension one less": text.replace(f"uso {k}", f"uso {k - 1}", 1),
    }
    for form in ("uso 0{k}", "uso  {k}", "uso\t{k}", "uso {k} ", " uso {k}", "uso {k}\r"):
        edits[f"header {form!r}"] = text.replace(f"uso {k}", form.format(k=k), 1)
    for j in sorted({0, n // 2, n - 1}):
        s = head + j * (k + 1)  # line j's first digit
        e = s + k  # its newline
        other = head + (j + 1) % n * (k + 1)
        line = text[s:e + 1]
        edits |= {
            f"line {j}: digit 4": text[:s] + "4" + text[s + 1:],
            f"line {j}: digit 4 last": text[:e - 1] + "4" + text[e:],
            f"line {j}: fullwidth digit": text[:s] + "\uff11" + text[s + 1:],
            f"line {j}: Arabic-Indic digit": text[:s] + "\u0662" + text[s + 1:],
            f"line {j}: dropped newline": text[:e] + text[e + 1:],
            f"line {j}: newline made a digit": text[:e] + "0" + text[e + 1:],
            f"line {j}: newline made a tab": text[:e] + "\t" + text[e + 1:],
            f"line {j}: doubled newline": text[:e] + "\n\n" + text[e + 1:],
            f"line {j}: CRLF": text[:e] + "\r\n" + text[e + 1:],
            f"line {j}: trailing tab": text[:e] + "\t\n" + text[e + 1:],
            f"line {j}: leading space": text[:s] + " " + text[s:],
            f"line {j}: repeated in place of the next": text[:other] + line + text[other + k + 1:],
            f"line {j}: repeated": text[:s] + line + text[s:],
            f"line {j}: one digit short": text[:e - 1] + text[e:],
            f"line {j}: one digit long": text[:e] + "0" + text[e:],
        }
    return edits


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_tiling_reader_paths_agree_on_single_edits(k, sampled_tiling):
    text = write_tiling(sampled_tiling(k))
    assert read_tiling(text) == sampled_tiling(k)
    for name, edited in _single_edits(text, k).items():
        assert edited != text, name
        assert _outcome(read_tiling, edited) == _outcome(_line_reader, edited), name


def test_block_codec_is_chosen_by_dimension(monkeypatch, sampled_tiling):
    # np.lexsort runs only in tile_lines' block route, np.frombuffer only
    # in pack_lines'
    used = []

    class CountingNumpy:
        def __getattr__(self, name):
            fn = getattr(np, name)
            if name not in ("lexsort", "frombuffer"):
                return fn

            def wrapper(*args, **kwargs):
                used.append(name)
                return fn(*args, **kwargs)
            return wrapper

    monkeypatch.setattr(tiling, "np", CountingNumpy())
    for k in range(11):
        ts = sampled_tiling(k)
        used.clear()
        assert read_tiling(write_tiling(ts)).strings() == ts.strings()
        # write, read, strings twice: from the kernel's threshold on
        block = ["lexsort", "frombuffer", "lexsort", "lexsort"]
        assert used == (block if k >= 5 else []), k
    used.clear()
    # the widest tiles, 32 digits of a uint64, take the block route too
    wide = TileSet(32, {1, 2})
    assert write_tiling(wide) == f"uso 32\n1{'0' * 31}\n2{'0' * 31}\n"
    assert wide.strings() == [f"1{'0' * 31}", f"2{'0' * 31}"]
    assert used == ["lexsort", "lexsort"]
