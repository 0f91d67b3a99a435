"""Command line driver.

Every verb reads and writes the text forms of the formats module; outputs
are deterministic.  A verb is a function from its parsed arguments to its
output as text chunks; run() alone writes them, to stdout or to the verb's
--out file, and maps errors to exit codes: 0 on success, 1 on a domain
violation (not a tiling, not an USO, invalid rule, bad phase selection,
bad label), 2 on usage, parse, or range errors, 3 when an internal
cross-check fails (a bug).  Failures print a single line
``error: <category>: <detail>`` to stderr.

Randomized verbs require an explicit --seed; the generator is SplitMix64
(see the enumeration module), so equal seeds reproduce equal output on
any platform.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys

from .cube import (
    Face,
    Orientation,
    _bits,
    flippable_edges,
    is_uso,
    vertex_from_bits,
)
from .enumeration import (
    MAX_BRUTE_DIM,
    MAX_JOIN_DIM,
    MAX_SAMPLE_DIM,
    RNG_ALGORITHM,
    _check_jobs,
    count_usos,
    enumerate_brute,
    enumerate_join,
    sample_markov,
)
from .errors import (
    DimensionError,
    EnumerationLimitError,
    FormatError,
    InternalError,
    LabellingError,
    NotATilingError,
    PhaseSelectionError,
    UsoError,
)
from .formats import (
    _number,
    read_labels,
    read_orientation,
    read_rule,
    read_tiling,
    write_labels,
    write_orientation,
    write_rule,
    write_tiling,
)
from .rewrite import (
    NAMED_RULE_KINDS,
    apply_generalized,
    apply_simple,
    named_rule,
    universality_rule,
)
from .tiling import (
    TileSet,
    tiles_from_uso,
    tiling_defect,
    twins,
    uso_from_tiles,
)
from .transform import (
    facet,
    flip_dimension,
    hypervertex_replace,
    inherited,
    mirror,
    partial_swap,
    phase_flip,
    phase_swap,
    phases,
    product,
)


def _read(path: str) -> str:
    # newline="": the readers see the file's own line ends, as the library
    # does; universal newlines would turn a bare "\r" into "\n"
    with open(path, newline="") as f:
        return f.read()


def _tiling(text: str, where: str = "") -> TileSet:
    """The tiling of a tile text, verified once; the error names the
    defect of the rejected set."""
    ts = read_tiling(text)
    defect = tiling_defect(ts)
    if defect is not None:
        raise NotATilingError(where + defect)
    return ts


def _read_tiling(path: str) -> TileSet:
    return _tiling(_read(path), f"{path}: ")


def _read_uso(path: str) -> Orientation:
    return uso_from_tiles(_read_tiling(path))


def _write_out(path: str, chunks) -> None:
    """Write the text chunks to path.

    A new or regular file goes through a temp file beside it, which takes
    the old mode and is renamed over it, so a failure partway keeps the
    earlier file.  Devices, FIFOs, symlinks, and targets whose directory
    takes no temp file are opened and written directly.
    """
    try:
        st = os.lstat(path)
    except OSError:
        st = None
    sink, tmp = None, f"{path}.{os.getpid()}.tmp"
    if st is None or stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
        with contextlib.suppress(OSError):
            sink = open(tmp, "x")
    if sink is None:
        with open(path, "w") as direct:
            direct.writelines(chunks)
        return
    try:
        with sink:
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            sink.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        # report the path that was asked for, not the temp file
        if exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _integer(text: str) -> int:
    """argparse type: a number in the formats' ASCII form, else a usage error.

    Plain int() also takes "+1", " 1", "0_1" and non-ASCII digits.
    """
    try:
        return _number(text, "")
    except FormatError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


# ---------------------------------------------------------------------------
# verbs


def _cmd_validate(args):
    ts = _read_tiling(args.file)
    o = uso_from_tiles(ts)
    # the verdict tested the vertex table; the tile pair test is the
    # encoding it did not use
    if not ts.is_pairwise_adjacent():
        raise InternalError("the pairwise test rejects a complete tiling")
    # and the vertex test it did not use: the verdict is the face-sink
    # recursion, so the pair test
    if not is_uso(o, "pairwise"):
        raise InternalError("the face scan disagrees with the pairwise test")
    flips = len(flippable_edges(o))
    pairs = len(twins(ts))
    if flips != pairs:
        raise InternalError(f"{flips} flippable edges but {pairs} twin pairs")
    return [f"uso dim={ts.dim} flippable={flips} twins={pairs}\n"]


def _cmd_convert(args):
    text = _read(args.file)
    words = text.split(None, 1)
    first = words[0] if words else ""
    if first == "uso":
        o = uso_from_tiles(_tiling(text))
    elif first == "o":
        o = read_orientation(text)
    else:
        raise FormatError(f"unrecognized header in {args.file}")
    return [write_tiling(tiles_from_uso(o)) if args.to == "tiles" else write_orientation(o)]


def _cmd_apply(args):
    ts = _read_tiling(args.file)
    rule = read_rule(_read(args.rule))
    if args.labels:
        labels = read_labels(_read(args.labels), ts.dim)
        result = apply_generalized(rule, ts, labels, args.h, checked=True)
    elif rule.i == 1:
        result = apply_simple(rule, ts, args.h, checked=True)
    else:
        raise LabellingError(f"rule has {rule.i} columns, --labels required")
    return [write_tiling(result)]


def _cmd_rule_make(args):
    return [write_rule(named_rule(args.kind))]


def _cmd_uni_rule(args):
    ts = _read_tiling(args.file)
    rule, labels = universality_rule(ts)
    # the label file first: a failed write leaves no rule on stdout
    if args.labels_out:
        _write_out(args.labels_out, [write_labels(labels)])
    return [write_rule(rule)]


def _cmd_product(args):
    frame = _read_uso(args.frame)
    parts = {}
    for spec in args.part or []:
        bits, _, path = spec.partition("=")
        if not path:
            raise ValueError(f"--part wants <vertexbits>=<file>, got {spec!r}")
        if len(bits) != frame.dim:
            raise ValueError(
                f"vertex {bits!r} does not match frame dimension {frame.dim}"
            )
        v = vertex_from_bits(bits)
        if v in parts:
            raise ValueError(f"vertex {bits!r} given twice")
        parts[v] = _read_uso(path)
    missing = [v for v in range(1 << frame.dim) if v not in parts]
    if missing:
        raise ValueError(
            f"missing --part for vertex {_bits(missing[0], frame.dim)}"
        )
    return [write_tiling(tiles_from_uso(product(frame, parts)))]


def _transform_verb(transform, *options):
    """The verb returning transform(input, *option values) as a tiling."""

    def cmd(args):
        o = _read_uso(args.file)
        result = transform(o, *(getattr(args, name) for name in options))
        return [write_tiling(tiles_from_uso(result))]

    return cmd


def _cmd_phases(args):
    o = _read_uso(args.file)
    return [
        " ".join(f"{_bits(e.vertex, o.dim)}/{e.dim}" for e in sorted(cls)) + "\n"
        for cls in phases(o, args.h, args.method).classes
    ]


def _parse_class_indexes(spec: str, n: int) -> list[int]:
    try:
        # "" picks no class; any other empty item is an error
        picked = [_number(x, "") for x in spec.split(",")] if spec else []
    except FormatError:
        raise ValueError(f"--classes wants comma-separated indexes, got {spec!r}") from None
    for c in picked:
        if not 0 <= c < n:
            raise PhaseSelectionError(f"class index {c} out of range 0..{n - 1}")
    return picked


def _phase_verb(edit):
    """The verb returning edit(input, h, the --classes picked) as a tiling."""

    def cmd(args):
        o = _read_uso(args.file)
        classes = phases(o, args.h).classes
        picked = _parse_class_indexes(args.classes, len(classes))
        result = edit(o, args.h, [classes[c] for c in picked])
        return [write_tiling(tiles_from_uso(result))]

    return cmd


def _swap_classes(o: Orientation, h: int, classes) -> Orientation:
    return phase_swap(o, h, frozenset().union(*classes))


def _cmd_hyper_replace(args):
    o = _read_uso(args.file)
    try:
        face = Face(args.face)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    sub = _read_uso(args.with_file)
    return [write_tiling(tiles_from_uso(hypervertex_replace(o, face, sub)))]


def _cmd_enumerate(args):
    _check_jobs(args.jobs, "--jobs")
    # enumerate_* check k before run() opens --out; tilings are made as written
    if args.method == "brute":
        stream = enumerate_brute(args.k)
    else:
        stream = enumerate_join(args.k, args.jobs)
    return (("\n" if idx else "") + write_tiling(ts) for idx, ts in enumerate(stream))


def _cmd_count(args):
    _check_jobs(args.jobs, "--jobs")
    return [count_usos(args.k, args.method, args.jobs).line() + "\n"]


def _cmd_sample(args):
    return [write_tiling(sample_markov(args.k, args.steps, args.seed))]


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usokit",
        description="Unique sink orientations of cubes: validate, rewrite, "
        "transform, enumerate, sample.",
        epilog="Exit codes: 0 ok, 1 domain violation, 2 usage or parse error, "
        "3 internal check failed. "
        f"Randomness: {RNG_ALGORITHM}, reproducible per --seed.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="<verb>")

    def verb(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        return p

    # the arguments that several verbs take, each declared once
    shared = {
        "file": {},
        "--h": {"type": _integer, "required": True},
        "--classes": {"required": True, "metavar": "<idx,...>",
                      "help": "0-based indexes into the phases output"},
        "--jobs": {"type": _integer, "default": 1},
    }

    def add(p, *names):
        for name in names:
            p.add_argument(name, **shared[name])

    p = verb("validate", _cmd_validate, "check a tiling file, report edge stats")
    add(p, "file")

    p = verb("convert", _cmd_convert, "convert between tiling and orientation form")
    add(p, "file")
    p.add_argument("--to", required=True, choices=("tiles", "orientation"))

    p = verb("apply", _cmd_apply, "apply a rewriting rule at one coordinate")
    add(p, "file")
    p.add_argument("--rule", required=True)
    p.add_argument("--labels")
    add(p, "--h")

    p = verb("rule-make", _cmd_rule_make, "emit a built-in rule file")
    p.add_argument("--kind", required=True, choices=NAMED_RULE_KINDS)

    p = verb("uni-rule", _cmd_uni_rule, "emit the rule rewriting the frame to this tiling")
    add(p, "file")
    p.add_argument("--labels-out", help="also write the frame label file here")

    p = verb("product", _cmd_product, "glue one part tiling onto every frame vertex")
    p.add_argument("frame")
    p.add_argument(
        "--part",
        action="append",
        metavar="<vertexbits>=<file>",
        help="part tiling per frame vertex (repeat for every vertex)",
    )

    p = verb("inherit", _transform_verb(inherited, "kprime"),
             "collapse down to a lower dimension")
    add(p, "file")
    p.add_argument("--kprime", type=_integer, required=True)

    p = verb("facet", _transform_verb(facet, "h", "side"), "restrict to one facet")
    add(p, "file", "--h")
    p.add_argument("--side", required=True, choices=("lower", "upper"))

    p = verb("flip", _transform_verb(flip_dimension, "h"),
             "reverse every edge of one coordinate")
    add(p, "file", "--h")

    p = verb("mirror", _transform_verb(mirror, "h"),
             "swap the two facets of one coordinate")
    add(p, "file", "--h")

    p = verb("partial-swap", _transform_verb(partial_swap, "h"),
             "swap facets along upward edges only")
    add(p, "file", "--h")

    p = verb("phases", _cmd_phases, "print the flip classes of one coordinate")
    add(p, "file", "--h")
    p.add_argument("--method", default="pairs", choices=("pairs", "brute"))

    p = verb("phase-flip", _phase_verb(phase_flip), "reverse chosen flip classes")
    add(p, "file", "--h", "--classes")

    p = verb("phase-swap", _phase_verb(_swap_classes), "swap facets along chosen flip classes")
    add(p, "file", "--h", "--classes")

    p = verb("hyper-replace", _cmd_hyper_replace, "reorient inside a combed face")
    add(p, "file")
    p.add_argument("--face", required=True, help="pattern over 0, 1, *")
    p.add_argument("--with", dest="with_file", required=True, metavar="FILE")

    p = verb("enumerate", _cmd_enumerate, "stream every tiling of a dimension")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--method", required=True, choices=("brute", "join"),
                   help=f"brute caps at k={MAX_BRUTE_DIM}, join at k={MAX_JOIN_DIM}")
    p.add_argument("--out", help="write the stream here instead of stdout")
    add(p, "--jobs")

    p = verb("count", _cmd_count, "count the tilings of a dimension")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--method", required=True, choices=("brute", "join"))
    p.add_argument("--out", help="write the report line here instead of stdout")
    add(p, "--jobs")

    p = verb("sample", _cmd_sample, "draw one tiling by a seeded flip walk")
    p.add_argument("--k", type=_integer, required=True,
                   help=f"dimension, at most {MAX_SAMPLE_DIM}")
    p.add_argument("--steps", type=_integer, required=True)
    p.add_argument("--seed", type=_integer, required=True)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        chunks = args.func(args)
        if getattr(args, "out", None):
            _write_out(args.out, chunks)
        else:
            sys.stdout.writelines(chunks)
        return 0
    except UsoError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        if isinstance(exc, InternalError):
            return 3
        if isinstance(exc, (FormatError, DimensionError, EnumerationLimitError)):
            return 2
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
