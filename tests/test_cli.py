"""End-to-end checks of the command line driver via run()."""

import pytest

from usokit import (
    Edge,
    TileSet,
    bow,
    canonical_tiles,
    flip_edges,
    flippable_edges,
    named_rule,
    sample_markov,
    tile_of,
    tiling_defect,
    uso_from_tiles,
    write_rule,
    write_tiling,
)
from usokit.cli import run

BOW_TEXT = "uso 2\n01\n03\n20\n22\n"
DOWN1_TEXT = "uso 1\n0\n2\n"


@pytest.fixture
def bow_file(tmp_path):
    p = tmp_path / "bow.uso"
    p.write_text(BOW_TEXT)
    return str(p)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_validate_ok(bow_file, capsys):
    assert run(["validate", bow_file]) == 0
    assert capsys.readouterr().out == "uso dim=2 flippable=2 twins=2\n"


def test_validate_not_a_tiling(tmp_path, capsys):
    f = write(tmp_path, "bad.uso", "uso 1\n0\n3\n")
    assert run(["validate", f]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not-a-tiling:")
    assert "incompatible tiles 0 and 3" in err


def test_validate_missing_file(tmp_path, capsys):
    assert run(["validate", str(tmp_path / "nope.uso")]) == 2
    assert capsys.readouterr().err.startswith("error: io:")


def test_validate_parse_error(tmp_path, capsys):
    f = write(tmp_path, "short.uso", "uso 2\n00\n")
    assert run(["validate", f]) == 2
    assert capsys.readouterr().err.startswith("error: parse:")


def test_validate_rejects_a_loose_number(tmp_path, capsys):
    f = write(tmp_path, "one.uso", "uso 0_1\n0\n2\n")
    assert run(["validate", f]) == 2
    assert capsys.readouterr().err == "error: parse: bad dimension '0_1'\n"


def test_validate_reads_line_ends_as_the_library_does(tmp_path, capsys):
    # a bare "\r" ends no line, in the library and on the command line
    cr = tmp_path / "cr.uso"
    cr.write_bytes(b"uso 1\r0\r2\r")
    assert run(["validate", str(cr)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parse: expected header 'uso <k>', got 'uso 1\\r0\\r2'\n"
    crlf = tmp_path / "crlf.uso"
    crlf.write_bytes(b"uso 1\r\n0\r\n2\r\n")
    assert run(["validate", str(crlf)]) == 0
    assert capsys.readouterr().out == "uso dim=1 flippable=1 twins=1\n"


def test_unknown_verb(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_convert_round_trip(tmp_path, bow_file, capsys):
    assert run(["convert", bow_file, "--to", "orientation"]) == 0
    otext = capsys.readouterr().out
    assert otext == "o 2\n00 01\n01 01\n10 00\n11 00\n"
    f = write(tmp_path, "bow.o", otext)
    assert run(["convert", f, "--to", "tiles"]) == 0
    assert capsys.readouterr().out == BOW_TEXT


def test_convert_bad_header(tmp_path, capsys):
    f = write(tmp_path, "junk", "what 2\n")
    assert run(["convert", f, "--to", "tiles"]) == 2
    assert capsys.readouterr().err.startswith("error: parse:")


def test_apply_worked_example(tmp_path, capsys):
    rule = write(
        tmp_path,
        "r.rule",
        "rule d=2 i=1\nS0.1: 01\nS1.1: 11 31\nS2.1: 03 20 22\nS3.1: 13 33\n",
    )
    inp = write(tmp_path, "in.uso", "uso 2\n02\n10\n22\n30\n")
    assert run(["apply", inp, "--rule", rule, "--h", "1"]) == 0
    assert capsys.readouterr().out == (
        "uso 3\n012\n032\n110\n130\n202\n222\n310\n330\n"
    )


def test_apply_partial_swap_example(tmp_path, capsys):
    rule = write(
        tmp_path,
        "ps.rule",
        "rule d=1 i=1\nS0.1: 0\nS1.1: 3\nS2.1: 2\nS3.1: 1\n",
    )
    inp = write(
        tmp_path, "in.uso",
        "uso 3\n012\n031\n033\n110\n202\n222\n230\n310\n",
    )
    assert run(["apply", inp, "--rule", rule, "--h", "2"]) == 0
    assert capsys.readouterr().out == (
        "uso 3\n011\n013\n032\n130\n202\n210\n222\n330\n"
    )


def test_apply_needs_labels_for_two_columns(tmp_path, bow_file, capsys):
    frame = bow_file
    assert run(["uni-rule", frame, "--labels-out", str(tmp_path / "l")]) == 0
    rule = write(tmp_path, "u.rule", capsys.readouterr().out)
    assert run(["apply", frame, "--rule", rule, "--h", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: labelling:")


def test_apply_h_out_of_range(tmp_path, bow_file, capsys):
    assert run(["rule-make", "--kind", "identity"]) == 0
    rule = write(tmp_path, "id.rule", capsys.readouterr().out)
    assert run(["apply", bow_file, "--rule", rule, "--h", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: dimension:")


def test_uni_rule_round_trip(tmp_path, capsys):
    target = write(tmp_path, "t.uso", write_tiling(canonical_tiles(3)))
    labels = str(tmp_path / "t.labels")
    assert run(["uni-rule", target, "--labels-out", labels]) == 0
    rule = write(tmp_path, "t.rule", capsys.readouterr().out)
    frame = write(tmp_path, "frame.uso", BOW_TEXT)
    assert run(["apply", frame, "--rule", rule, "--labels", labels, "--h", "1"]) == 0
    assert capsys.readouterr().out == write_tiling(canonical_tiles(3))


def test_uni_rule_writes_no_rule_when_the_label_file_fails(tmp_path, bow_file, capsys):
    labels = str(tmp_path / "nodir" / "frame.lab")
    assert run(["uni-rule", bow_file, "--labels-out", labels]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: io: ")


def test_rule_make_lists_kinds(capsys):
    assert run(["rule-make", "--kind", "partial-swap"]) == 0
    assert capsys.readouterr().out == (
        "rule d=1 i=1\nS0.1: 0\nS1.1: 3\nS2.1: 2\nS3.1: 1\n"
    )
    assert run(["rule-make", "--kind", "bogus"]) == 2


def test_product(tmp_path, bow_file, capsys):
    part = write(tmp_path, "down.uso", DOWN1_TEXT)
    argv = ["product", bow_file]
    for bits in ("00", "10", "01", "11"):
        argv += ["--part", f"{bits}={part}"]
    assert run(argv) == 0
    assert capsys.readouterr().out == (
        "uso 3\n010\n012\n030\n032\n200\n202\n220\n222\n"
    )


def test_product_missing_vertex(tmp_path, bow_file, capsys):
    part = write(tmp_path, "down.uso", DOWN1_TEXT)
    assert run(["product", bow_file, "--part", f"00={part}"]) == 2
    assert "missing --part for vertex" in capsys.readouterr().err


def test_inherit_recovers_frame(tmp_path, capsys):
    prod = write(
        tmp_path, "p.uso",
        "uso 3\n010\n012\n030\n032\n200\n202\n220\n222\n",
    )
    assert run(["inherit", prod, "--kprime", "2"]) == 0
    assert capsys.readouterr().out == BOW_TEXT


def test_facet(bow_file, capsys):
    assert run(["facet", bow_file, "--h", "1", "--side", "lower"]) == 0
    assert capsys.readouterr().out == "uso 1\n1\n3\n"
    assert run(["facet", bow_file, "--h", "1", "--side", "upper"]) == 0
    assert capsys.readouterr().out == DOWN1_TEXT


def test_flip_and_mirror(bow_file, capsys):
    assert run(["flip", bow_file, "--h", "1"]) == 0
    assert capsys.readouterr().out == "uso 2\n11\n13\n30\n32\n"
    assert run(["mirror", bow_file, "--h", "1"]) == 0
    assert capsys.readouterr().out == "uso 2\n00\n02\n21\n23\n"


def test_partial_swap_fixed_point(bow_file, capsys):
    assert run(["partial-swap", bow_file, "--h", "2"]) == 0
    assert capsys.readouterr().out == BOW_TEXT


def test_phases_output(bow_file, capsys):
    assert run(["phases", bow_file, "--h", "1"]) == 0
    assert capsys.readouterr().out == "00/1 01/1\n"
    assert run(["phases", bow_file, "--h", "2", "--method", "brute"]) == 0
    assert capsys.readouterr().out == "00/2\n10/2\n"


def test_phase_flip(bow_file, capsys):
    assert run(["phase-flip", bow_file, "--h", "1", "--classes", "0"]) == 0
    assert capsys.readouterr().out == "uso 2\n11\n13\n30\n32\n"
    assert run(["phase-flip", bow_file, "--h", "2", "--classes", ""]) == 0
    assert capsys.readouterr().out == BOW_TEXT


def test_phase_flip_repeated_class_flips_once(bow_file, capsys):
    assert run(["phase-flip", bow_file, "--h", "1", "--classes", "0"]) == 0
    once = capsys.readouterr().out
    assert once != BOW_TEXT
    for spec in ("0,0", "0,0,0"):
        assert run(["phase-flip", bow_file, "--h", "1", "--classes", spec]) == 0
        assert capsys.readouterr().out == once


def test_phase_flip_bad_classes(bow_file, capsys):
    assert run(["phase-flip", bow_file, "--h", "1", "--classes", "5"]) == 1
    assert capsys.readouterr().err.startswith("error: phase-selection:")
    assert run(["phase-flip", bow_file, "--h", "1", "--classes", "x"]) == 2
    assert capsys.readouterr().err.startswith("error: usage:")


@pytest.mark.parametrize("spec", ["0,,1", ",", "0,"])
def test_classes_take_no_empty_items(bow_file, capsys, spec):
    assert run(["phase-flip", bow_file, "--h", "1", "--classes", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: usage: --classes wants comma-separated indexes, got {spec!r}\n"


def test_phase_swap(bow_file, capsys):
    assert run(["phase-swap", bow_file, "--h", "1", "--classes", "0"]) == 0
    assert capsys.readouterr().out == "uso 2\n00\n02\n21\n23\n"


def test_hyper_replace(tmp_path, bow_file, capsys):
    sub = write(tmp_path, "sub.uso", write_tiling(canonical_tiles(2)))
    assert run(["hyper-replace", bow_file, "--face", "**", "--with", sub]) == 0
    assert capsys.readouterr().out == write_tiling(canonical_tiles(2))


def test_hyper_replace_rejections(tmp_path, bow_file, capsys):
    sub = write(tmp_path, "sub.uso", DOWN1_TEXT)
    assert run(["hyper-replace", bow_file, "--face", "*2", "--with", sub]) == 2
    assert capsys.readouterr().err.startswith("error: parse:")
    assert run(["hyper-replace", bow_file, "--face", "*0", "--with", sub]) == 1
    assert capsys.readouterr().err.startswith("error: not-a-hypervertex:")


def test_enumerate_stdout_and_file(tmp_path, capsys):
    assert run(["enumerate", "--k", "1", "--method", "brute"]) == 0
    expected = "uso 1\n0\n2\n\nuso 1\n1\n3\n"
    assert capsys.readouterr().out == expected
    out = tmp_path / "all.uso"
    assert run(["enumerate", "--k", "1", "--method", "join", "--out", str(out)]) == 0
    blocks = out.read_text().split("\n\n")
    assert sorted(blocks) == sorted(expected.split("\n\n"))


def test_enumerate_cap(capsys):
    assert run(["enumerate", "--k", "9", "--method", "brute"]) == 2
    assert capsys.readouterr().err.startswith("error: limit:")


def test_count(tmp_path, capsys):
    assert run(["count", "--k", "2", "--method", "brute"]) == 0
    assert capsys.readouterr().out == "count k=2 method=brute value=12\n"
    out = tmp_path / "c.txt"
    assert run(["count", "--k", "2", "--method", "join", "--out", str(out)]) == 0
    assert out.read_text() == "count k=2 method=join value=12\n"


def test_sample_deterministic(capsys):
    assert run(["sample", "--k", "2", "--steps", "7", "--seed", "42"]) == 0
    assert capsys.readouterr().out == "uso 2\n00\n12\n20\n32\n"
    assert run(["sample", "--k", "2", "--steps", "7", "--seed", "42"]) == 0
    assert capsys.readouterr().out == "uso 2\n00\n12\n20\n32\n"


def test_sample_requires_seed(capsys):
    assert run(["sample", "--k", "2", "--steps", "7"]) == 2


def test_sample_rejects_negative_steps(capsys):
    assert run(["sample", "--k", "2", "--steps", "-3", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: usage:")


NUMBER_OPTIONS = {
    "--h": ["flip", "{file}", "--h", "{}"],
    "--kprime": ["inherit", "{file}", "--kprime", "{}"],
    "--k": ["count", "--k", "{}", "--method", "brute"],
    "--jobs": ["count", "--k", "1", "--method", "join", "--jobs", "{}"],
    "--steps": ["sample", "--k", "1", "--steps", "{}", "--seed", "1"],
    "--seed": ["sample", "--k", "1", "--steps", "1", "--seed", "{}"],
    "--classes": ["phase-flip", "{file}", "--h", "1", "--classes", "{}"],
}


@pytest.mark.parametrize("form", ["full-width", "underscore", "plus", "space"])
@pytest.mark.parametrize("option", list(NUMBER_OPTIONS))
def test_options_take_only_ascii_numbers(option, form, tmp_path, capsys):
    f = write(tmp_path, "one.uso", DOWN1_TEXT)
    good = "0" if option in ("--kprime", "--classes") else "1"
    loose = {
        "full-width": chr(ord("０") + int(good)),
        "underscore": "0_" + good,
        "plus": "+" + good,
        "space": " " + good,
    }[form]

    def argv(value):
        return [w.format(value, file=f) for w in NUMBER_OPTIONS[option]]

    assert run(argv(good)) == 0
    capsys.readouterr()
    assert run(argv(loose)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if option == "--classes":
        assert captured.err == f"error: usage: --classes wants comma-separated indexes, got {loose!r}\n"
    else:
        assert captured.err.endswith(f"error: argument {option}: invalid int value: {loose!r}\n")


def test_negative_options_keep_their_range_messages(capsys):
    assert run(["count", "--k", "1", "--method", "join", "--jobs", "-1"]) == 2
    assert capsys.readouterr().err == "error: usage: --jobs must be at least 1, got -1\n"
    assert run(["sample", "--k", "1", "--steps", "-1", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: usage: steps must be non-negative, got -1\n"
    assert run(["sample", "--k", "1", "--steps", "1", "--seed", "-7"]) == 0


@pytest.mark.parametrize("verb", ["enumerate", "count"])
def test_jobs_bounded_before_any_pool(verb, no_processes, capsys):
    import os

    def argv(jobs):
        return [verb, "--k", "2", "--method", "join", "--jobs", str(jobs)]

    for jobs in (0, -4):
        assert run(argv(jobs)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: usage: --jobs")
    assert run(argv(1)) == 0
    want = capsys.readouterr()
    # --jobs is ignored, so no value above 1 depends on the machine
    for jobs in ((os.cpu_count() or 1) + 1, 10**9):
        assert run(argv(jobs)) == 0
        assert capsys.readouterr() == want


def test_jobs_does_not_depend_on_cpu_count(no_processes, monkeypatch, capsys):
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run(["count", "--k", "4", "--method", "join", "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "count k=4 method=join value=5541744\n"
    assert captured.err == ""


def test_count_starts_no_process(no_processes, capsys):
    assert run(["count", "--k", "4", "--method", "join", "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "count k=4 method=join value=5541744\n"
    assert captured.err == ""


def test_out_write_is_atomic(tmp_path, monkeypatch, capsys):
    import usokit.cli
    from usokit import EnumerationLimitError

    def failing_stream(k):
        yield canonical_tiles(k)
        raise EnumerationLimitError("stream stopped")

    out = tmp_path / "all.uso"
    out.write_text("earlier\n")
    monkeypatch.setattr(usokit.cli, "enumerate_brute", failing_stream)
    assert run(["enumerate", "--k", "2", "--method", "brute", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: limit: stream stopped\n"
    assert out.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["all.uso"]


def test_write_out_keeps_earlier_file(tmp_path):
    from usokit.cli import _write_out

    def chunks():
        yield "partial\n"
        raise OSError("disk full")

    out = tmp_path / "labels"
    out.write_text("earlier\n")
    with pytest.raises(OSError, match="disk full"):
        _write_out(str(out), chunks())
    assert out.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["labels"]
    _write_out(str(out), ["new\n"])
    assert out.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["labels"]


def test_out_keeps_an_existing_files_mode(tmp_path, capsys):
    out = tmp_path / "c.txt"
    out.write_text("earlier\n")
    out.chmod(0o640)
    assert run(["count", "--k", "2", "--method", "brute", "--out", str(out)]) == 0
    assert out.read_text() == "count k=2 method=brute value=12\n"
    assert out.stat().st_mode & 0o777 == 0o640


def test_out_writes_through_a_symlink(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text("earlier\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert run(["count", "--k", "2", "--method", "brute", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text() == "count k=2 method=brute value=12\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_out_writes_into_a_fifo(tmp_path, capsys):
    import os
    import stat

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # a non-blocking reader lets the writer open the FIFO at once
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(["count", "--k", "2", "--method", "brute", "--out", str(fifo)]) == 0
        assert os.read(fd, 4096) == b"count k=2 method=brute value=12\n"
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


@pytest.mark.parametrize("k, method", [("5", "join"), ("0", "join"), ("4", "brute")])
def test_rejected_dimension_leaves_direct_targets_untouched(k, method, tmp_path, capsys):
    import os
    import stat

    target = tmp_path / "target.txt"
    target.write_text("earlier\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        for out in (link, fifo):
            assert run(["enumerate", "--k", k, "--method", method, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error: limit: ")
        assert os.read(fd, 4096) == b""
    finally:
        os.close(fd)
    assert target.read_text() == "earlier\n"
    assert link.is_symlink() and stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "pipe", "target.txt"]


def test_out_writes_directly_when_no_temp_file_fits(tmp_path, capsys):
    import os

    out = tmp_path / "c.txt"
    out.write_text("earlier\n")
    # the temp file's name is taken by a directory, so it cannot be created
    blocker = tmp_path / f"c.txt.{os.getpid()}.tmp"
    blocker.mkdir()
    assert run(["count", "--k", "2", "--method", "brute", "--out", str(out)]) == 0
    assert out.read_text() == "count k=2 method=brute value=12\n"
    assert blocker.is_dir()


def test_out_directory_fails_before_the_stream(tmp_path, monkeypatch, capsys):
    import usokit.cli

    def no_stream(k):
        raise AssertionError("the stream was started")
        yield

    monkeypatch.setattr(usokit.cli, "enumerate_brute", no_stream)
    monkeypatch.setattr(usokit.cli, "_join_slices", no_stream)
    for method in ("brute", "join"):
        assert run(["enumerate", "--k", "2", "--method", method, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: io: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_out_errors_name_the_requested_path(tmp_path, capsys):
    missing = tmp_path / "no-dir" / "c.txt"
    assert run(["count", "--k", "2", "--method", "brute", "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: io: [Errno 2] No such file or directory: '{missing}'\n"


@pytest.mark.parametrize(
    "argv", [["flip", "--h", "1"], ["convert", "--to", "orientation"]]
)
def test_input_tiling_verified_once(argv, bow_file, kernel_passes, capsys):
    assert run([argv[0], bow_file, *argv[1:]]) == 0
    assert kernel_passes == {"tiling": 0, "vertex": 1}


@pytest.mark.parametrize(
    "method, line",
    [
        ("pairwise", "error: internal: the pairwise test rejects a complete tiling\n"),
        ("face-scan", "error: internal: the face scan disagrees with the pairwise test\n"),
    ],
)
def test_validate_cross_checks_exit_3(
    method, line, sampled_tiling, tmp_path, monkeypatch, capsys
):
    # each cross-check made to disagree: the pairwise one is the tile pair
    # test, the encoding the verdict did not use; the face scan names the
    # vertex cross-check, the pair test on the vertex table, which the
    # verdict (the face-sink recursion) does not run
    import usokit.cube

    f = write(tmp_path, "k7.uso", write_tiling(sampled_tiling(7)))
    if method == "pairwise":
        monkeypatch.setattr(TileSet, "is_pairwise_adjacent", lambda ts: False)
    else:
        monkeypatch.setattr(usokit.cube, "_pairwise_ok", lambda out, k: False)
    assert run(["validate", f]) == 3
    assert capsys.readouterr() == ("", line)


# each id names the method the cross-check asks for
@pytest.mark.parametrize("k", [3, 6, 7, 8, 9, 10], ids="{}-pairwise".format)
def test_validate_cross_checks_with_the_other_vertex_test(
    k, sampled_tiling, tmp_path, monkeypatch, capsys
):
    # at every k the verdict is the face-sink recursion, so the cross-check
    # is the pair test
    import usokit.cli

    f = write(tmp_path, "k.uso", write_tiling(sampled_tiling(k)))
    assert run(["validate", f]) == 0
    asked = []
    monkeypatch.setattr(usokit.cli, "is_uso", lambda o, m: asked.append(m))
    assert run(["validate", f]) == 3
    line = "error: internal: the face scan disagrees with the pairwise test\n"
    assert capsys.readouterr().err == line
    assert asked == ["pairwise"]


@pytest.mark.parametrize("seed", range(4))
def test_validate_cross_checks_the_other_encoding(
    seed, sampled_tiling, tmp_path, monkeypatch, capsys
):
    # at every k the verdict runs face_sinks_ok on the vertex table; with
    # that binding passing anything, a tiling with one direction digit
    # changed must still fail the tile pair test
    import random

    import usokit.tiling

    monkeypatch.setattr(usokit.tiling, "face_sinks_ok", lambda out, k: True)
    rnd = random.Random(seed)
    for k in (3, 7):
        ts = sampled_tiling(k)
        t = rnd.choice(sorted(ts.tiles))
        bad = TileSet(k, (ts.tiles - {t}) | {t ^ 1 << 2 * rnd.randrange(k)})
        f = write(tmp_path, f"bad{k}.uso", write_tiling(bad))
        assert run(["validate", f]) == 3
        line = "error: internal: the pairwise test rejects a complete tiling\n"
        assert capsys.readouterr() == ("", line)


def test_unknown_method_is_a_usage_error(capsys):
    for verb in ("count", "enumerate"):
        assert run([verb, "--k", "2", "--method", "walk"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # argparse's own line, whose wording varies between Python versions
        assert "--method" in captured.err and "'walk'" in captured.err


def test_convert_reports_the_tiling_defect(tmp_path, capsys):
    f = write(tmp_path, "bad.uso", "uso 1\n0\n3\n")
    assert run(["convert", f, "--to", "orientation"]) == 1
    assert capsys.readouterr().err == "error: not-a-tiling: incompatible tiles 0 and 3\n"


# verb arguments after the input file, and the passes of the tiling kernel
# and of the vertex kernel: one test of the k = 5 input file, which runs on
# its vertex table; validate cross-checks on the tiles, once, and with the
# vertex test the verdict did not use, the face-sink recursion (a vertex
# pass); no transform output is tested; apply adds the rule's two union
# checks on tiles
KERNEL_PASSES = {
    "validate": ([], 1, 2),
    "convert": (["--to", "tiles"], 0, 1),
    "uni-rule": ([], 0, 1),
    "apply": (["--rule", "RULE", "--h", "2"], 2, 1),
    "flip": (["--h", "2"], 0, 1),
    "mirror": (["--h", "2"], 0, 1),
    "partial-swap": (["--h", "2"], 0, 1),
    "facet": (["--h", "2", "--side", "upper"], 0, 1),
    "inherit": (["--kprime", "3"], 0, 1),
    "phase-flip": (["--h", "2", "--classes", "0"], 0, 1),
    "phase-swap": (["--h", "2", "--classes", "0"], 0, 1),
    "phases": (["--h", "2"], 0, 1),
}


@pytest.mark.parametrize("verb", sorted(KERNEL_PASSES))
def test_verbs_verify_each_input_once(verb, tmp_path, kernel_passes, capsys):
    f = write(tmp_path, "k5.uso", write_tiling(sample_markov(5, 64, 11)))
    rule = write(tmp_path, "flip.rule", write_rule(named_rule("flip")))
    extra, tiling_passes, vertex_passes = KERNEL_PASSES[verb]
    argv = [verb, f, *(rule if a == "RULE" else a for a in extra)]
    assert run(argv) == 0, capsys.readouterr().err
    assert kernel_passes == {"tiling": tiling_passes, "vertex": vertex_passes}


def _rejected_k5(case):
    """The k = 5 input of KERNEL_PASSES made not a tiling: one edge that is
    not flippable reversed, so its vertex map stays onto, or one tile moved
    onto the vertex of another, so the map is not onto."""
    o = uso_from_tiles(sample_markov(5, 64, 11))
    if case == "reversed edge":
        edge = min(
            Edge(v, i) for i in range(1, 6) for v in range(32) if not v >> (i - 1) & 1
            and Edge(v, i) not in flippable_edges(o)
        )
        out = flip_edges(o, [edge]).out
        return TileSet(5, {tile_of(v, w, 5) for v, w in enumerate(out)})
    tiles = {tile_of(v, w, 5) for v, w in enumerate(o.out) if v}
    return TileSet(5, tiles | {tile_of(1, o.out[1] ^ 1, 5)})


@pytest.mark.parametrize("case, vertex_passes", [("reversed edge", 1), ("not onto", 0)])
@pytest.mark.parametrize("verb", sorted(KERNEL_PASSES))
def test_verbs_reject_an_input_from_one_table(
    verb, case, vertex_passes, tmp_path, kernel_passes, vertex_tables, capsys
):
    # the verdict builds one vertex table and tests it once; the tile scan
    # that names the defect is the one tile kernel pass
    bad = _rejected_k5(case)
    f = write(tmp_path, "k5.uso", write_tiling(bad))
    where = "" if verb == "convert" else f"{f}: "
    line = f"error: not-a-tiling: {where}{tiling_defect(bad)}\n"
    kernel_passes.update(tiling=0, vertex=0)
    vertex_tables.clear()
    # apply's rule file comes after the input, so it is never read
    argv = [verb, f, *KERNEL_PASSES[verb][0]]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", line)
    assert kernel_passes == {"tiling": 1, "vertex": vertex_passes}
    assert len(vertex_tables) == 1


# build_parser's arguments, verb by verb in order, without argparse's own
# -h: (option or positional name, dest, type, required, default, choices,
# metavar, help, action class).  The help and usage texts follow from it,
# and its entries hold no argparse wording, which varies between versions.
FILE = ("file", "file", None, True, None, None, None, None, "_StoreAction")
H = ("--h", "h", "_integer", True, None, None, None, None, "_StoreAction")
CLASSES = (
    "--classes", "classes", None, True, None, None, "<idx,...>",
    "0-based indexes into the phases output", "_StoreAction",
)
JOBS = ("--jobs", "jobs", "_integer", False, 1, None, None, None, "_StoreAction")
KIND_CHOICES = (
    "identity", "comb", "flip", "copy-upper", "copy-lower", "mirror",
    "partial-swap", "take-upper-facet", "take-lower-facet", "inherit",
)
ARGUMENTS = [
    ("validate", "check a tiling file, report edge stats", [FILE]),
    ("convert", "convert between tiling and orientation form", [
        FILE,
        ("--to", "to", None, True, None, ("tiles", "orientation"), None, None, "_StoreAction"),
    ]),
    ("apply", "apply a rewriting rule at one coordinate", [
        FILE,
        ("--rule", "rule", None, True, None, None, None, None, "_StoreAction"),
        ("--labels", "labels", None, False, None, None, None, None, "_StoreAction"),
        H,
    ]),
    ("rule-make", "emit a built-in rule file", [
        ("--kind", "kind", None, True, None, KIND_CHOICES, None, None, "_StoreAction"),
    ]),
    ("uni-rule", "emit the rule rewriting the frame to this tiling", [
        FILE,
        ("--labels-out", "labels_out", None, False, None, None, None,
         "also write the frame label file here", "_StoreAction"),
    ]),
    ("product", "glue one part tiling onto every frame vertex", [
        ("frame", "frame", None, True, None, None, None, None, "_StoreAction"),
        ("--part", "part", None, False, None, None, "<vertexbits>=<file>",
         "part tiling per frame vertex (repeat for every vertex)", "_AppendAction"),
    ]),
    ("inherit", "collapse down to a lower dimension", [
        FILE,
        ("--kprime", "kprime", "_integer", True, None, None, None, None, "_StoreAction"),
    ]),
    ("facet", "restrict to one facet", [
        FILE,
        H,
        ("--side", "side", None, True, None, ("lower", "upper"), None, None, "_StoreAction"),
    ]),
    ("flip", "reverse every edge of one coordinate", [FILE, H]),
    ("mirror", "swap the two facets of one coordinate", [FILE, H]),
    ("partial-swap", "swap facets along upward edges only", [FILE, H]),
    ("phases", "print the flip classes of one coordinate", [
        FILE,
        H,
        ("--method", "method", None, False, "pairs", ("pairs", "brute"), None, None,
         "_StoreAction"),
    ]),
    ("phase-flip", "reverse chosen flip classes", [FILE, H, CLASSES]),
    ("phase-swap", "swap facets along chosen flip classes", [FILE, H, CLASSES]),
    ("hyper-replace", "reorient inside a combed face", [
        FILE,
        ("--face", "face", None, True, None, None, None, "pattern over 0, 1, *", "_StoreAction"),
        ("--with", "with_file", None, True, None, None, "FILE", None, "_StoreAction"),
    ]),
    ("enumerate", "stream every tiling of a dimension", [
        ("--k", "k", "_integer", True, None, None, None, None, "_StoreAction"),
        ("--method", "method", None, True, None, ("brute", "join"), None,
         "brute caps at k=3, join at k=4", "_StoreAction"),
        ("--out", "out", None, False, None, None, None,
         "write the stream here instead of stdout", "_StoreAction"),
        JOBS,
    ]),
    ("count", "count the tilings of a dimension", [
        ("--k", "k", "_integer", True, None, None, None, None, "_StoreAction"),
        ("--method", "method", None, True, None, ("brute", "join"), None, None, "_StoreAction"),
        ("--out", "out", None, False, None, None, None,
         "write the report line here instead of stdout", "_StoreAction"),
        JOBS,
    ]),
    ("sample", "draw one tiling by a seeded flip walk", [
        ("--k", "k", "_integer", True, None, None, None, "dimension, at most 5", "_StoreAction"),
        ("--steps", "steps", "_integer", True, None, None, None, None, "_StoreAction"),
        ("--seed", "seed", "_integer", True, None, None, None, None, "_StoreAction"),
    ]),
]


def test_parser_arguments_are_pinned():
    import argparse

    from usokit.cli import build_parser

    (verbs,) = build_parser()._subparsers._group_actions
    helps = {a.dest: a.help for a in verbs._choices_actions}
    found = [
        (name, helps[name], [
            (
                "/".join(a.option_strings) or a.dest, a.dest,
                getattr(a.type, "__name__", a.type), a.required, a.default,
                a.choices, a.metavar, a.help, type(a).__name__,
            )
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ])
        for name, p in verbs.choices.items()
    ]
    assert found == ARGUMENTS
