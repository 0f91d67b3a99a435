"""The command line byte contract, checked in as a transcript.

A deterministic corpus of inputs and invocations covers the verbs
``phases`` (both methods), ``phase-flip``, ``phase-swap``, ``convert`` and
``hyper-replace``, with their rejections: a coordinate or class index out
of range, an empty ``--classes`` item, a face that is not a hypervertex
or does not fit the cube, a replacement of the wrong dimension, and
inputs that are not tilings or exceed the phase cap.  On k = 8 and 10
products it also covers ``validate``, ``convert`` (both directions) and
``apply`` with and without ``--labels``, with bad label tables, and
``sample --k 5``.  Edited copies of a k = 8 tiling hold the text forms
the reader must keep: CRLF and tab-padded lines, a repeated line, a
digit 4, a missing final newline and the headers ``uso 08`` and
``uso  8``.  A third slice runs ``rule-make`` for every kind,
``uni-rule`` with and without ``--labels-out`` (its label file then
rewrites the frame back into the target through ``apply``), and
``product`` on good parts and on every rejected ``--part``: no ``=``,
bits of the wrong length or character, a repeated or missing vertex,
parts of unequal dimension, a missing or non-tiling part.  A fourth
runs ``flip``, ``mirror``, ``partial-swap``, ``facet`` and ``inherit`` at
every coordinate, facet side and ``--kprime`` of the small inputs and the
k = 8 and 10 products, and rejects a coordinate out of range, a missing
file and non-tilings of dimension 2 to 10.  (A split or
stray swap cannot be asked for on the command line, since ``--classes``
picks whole classes; ``tests/test_transform.py`` covers both.)  A fifth
runs ``count`` and ``enumerate`` with both methods at every dimension up
to 3 they take, with ``--jobs 1`` and ``2``, and ``count --k 4 --method
join``; it rejects each method's out-of-range ``--k`` and ``--jobs 0``,
and writes ``--out`` to a new file, into a missing directory, and over an
existing file that a rejected ``--k`` must leave as it was.

Every invocation runs in-process through ``run()``, in a directory that
holds the corpus files, and the digest of its exit code, stdout and
stderr, and for an ``--out`` call the target's text afterwards, must equal
the one in ``cli_transcript.json``.  The test names the
first invocation that differs.  No invocation reaches an argparse error,
whose wording varies between Python versions.

A change that means to alter the output rewrites the digests with

    PYTHONPATH=src python tests/test_cli_transcript.py

and lists the invocations whose digests changed.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
import tempfile
from pathlib import Path

from usokit import (
    NAMED_RULE_KINDS,
    Orientation,
    TileSet,
    canonical_orientation,
    canonical_tiles,
    enumerate_brute,
    frame_tiles,
    named_rule,
    phases,
    product,
    product_rule,
    read_tiling,
    sample_markov,
    tile_of,
    tiles_from_uso,
    universality_rule,
    uso_from_tiles,
    write_labels,
    write_orientation,
    write_rule,
    write_tiling,
)
from usokit.cli import run

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")

CAT3_PICKS = 10  # catalogue-3 entries, chosen by a seeded draw
SAMPLED = {4: 5, 5: 3}  # sampled inputs per dimension
BRUTE_DIM = 4  # phases --method brute runs up to this dimension
BIG = {8: 2, 10: 1}  # product inputs per dimension


def _sub_uso(d: int, j: int):
    """A fixed USO of dimension d, for hyper-replace --with."""
    if d <= 3:
        cat = list(enumerate_brute(d))
        return cat[j * 97 % len(cat)]
    return sample_markov(d, 40, 100 + j)


def build_corpus(root: Path) -> list[list[str]]:
    """Write the input files under root and return the invocations."""
    rng = random.Random(13)
    files = {}
    cat3 = list(enumerate_brute(3))
    for idx in sorted(rng.sample(range(len(cat3)), CAT3_PICKS)):
        files[f"c3_{idx:03d}.uso"] = cat3[idx]
    for k, n in SAMPLED.items():
        for s in range(n):
            files[f"s{k}_{s}.uso"] = sample_markov(k, 30 + 7 * s, 1000 * k + s)
    texts = {name: write_tiling(ts) for name, ts in files.items()}
    for name, ts in files.items():
        texts[name[:-4] + ".o"] = write_orientation(uso_from_tiles(ts))
    for d in range(6):
        for j in range(2):
            texts[f"w{d}_{j}.uso"] = write_tiling(_sub_uso(d, j))
    texts["big6.uso"] = write_tiling(tiles_from_uso(canonical_orientation(6)))
    texts["broken.uso"] = "uso 2\n00\n01\n20\n23\n"
    for name, text in texts.items():
        (root / name).write_text(text)

    calls = []
    for name, ts in files.items():
        k, o = ts.dim, uso_from_tiles(ts)
        calls.append(["convert", name, "--to", "orientation"])
        calls.append(["convert", name[:-4] + ".o", "--to", "tiles"])
        for h in range(1, k + 1):
            n = len(phases(o, h).classes)
            calls.append(["phases", name, "--h", str(h)])
            if k <= BRUTE_DIM:
                calls.append(["phases", name, "--h", str(h), "--method", "brute"])
            some = [str(c) for c in range(n) if rng.getrandbits(1)] or ["0"]
            for verb in ("phase-flip", "phase-swap"):
                for spec in (",".join(map(str, range(n))), ",".join(some)):
                    calls.append([verb, name, "--h", str(h), "--classes", spec])
        h = 1 + rng.randrange(k)
        for verb in ("phase-flip", "phase-swap"):
            calls.append([verb, name, "--h", str(h), "--classes", ""])
            calls.append([verb, name, "--h", str(h), "--classes", "0,0"])
            calls.append([verb, name, "--h", str(h), "--classes", str(len(phases(o, h).classes))])
            calls.append([verb, name, "--h", str(h), "--classes", "0,,1"])
            calls.append([verb, name, "--h", str(k + 1), "--classes", "0"])
        calls.append(["phases", name, "--h", "0"])
        calls.append(["phases", name, "--h", str(k + 1)])
        faces = ["*" * k, "0" * k]
        for _ in range(3):
            faces.append("".join("01*"[rng.randrange(3)] for _ in range(k)))
        for face in faces:
            d = face.count("*")
            calls.append(["hyper-replace", name, "--face", face, "--with", f"w{d}_{rng.randrange(2)}.uso"])
        calls.append(["hyper-replace", name, "--face", "*" * (k - 1), "--with", "w0_0.uso"])
        calls.append(["hyper-replace", name, "--face", "0" * (k - 1) + "*", "--with", "w2_0.uso"])
        calls.append(["hyper-replace", name, "--face", "2" * k, "--with", "w0_0.uso"])
    for name in ("big6.uso", "broken.uso", "missing.uso"):
        calls.append(["phases", name, "--h", "1"])
        for verb in ("phase-flip", "phase-swap"):
            calls.append([verb, name, "--h", "1", "--classes", "0"])
    calls.append(["convert", "broken.uso", "--to", "orientation"])
    calls.append(["hyper-replace", "broken.uso", "--face", "**", "--with", "w2_0.uso"])
    calls += _big_corpus(root, files)
    calls += _rule_corpus(root, files)
    calls += _transform_corpus(root, files)
    calls += _enumeration_corpus(root)
    return calls


def _product(k: int, rng: random.Random) -> Orientation:
    """A k-dimensional product of sampled (k/2)-dimensional USOs."""
    pool = [uso_from_tiles(sample_markov(k // 2, 30, rng.getrandbits(32))) for _ in range(4)]
    parts = {v: rng.choice(pool) for v in range(1 << k // 2)}
    return product(rng.choice(pool), parts)


def _unflippable(o: Orientation, rng: random.Random) -> Orientation:
    """o with one unflippable edge (direction words differ) reversed: no USO."""
    while True:
        bit = 1 << rng.randrange(o.dim)
        v = rng.randrange(1 << o.dim) & ~bit
        if o.out[v] != o.out[v | bit]:
            break
    out = list(o.out)
    out[v] ^= bit
    out[v | bit] ^= bit
    return Orientation(o.dim, tuple(out))


def _big_corpus(root: Path, small: dict) -> list[list[str]]:
    """Inputs of dimension 8 and 10, their edited copies, and their calls."""
    rng = random.Random(17)
    texts, big = {}, []
    for k, n in BIG.items():
        for s in range(n):
            name = f"big{k}_{s}"
            o = _product(k, rng)
            texts[f"{name}.uso"] = write_tiling(tiles_from_uso(o))
            texts[f"{name}.o"] = write_orientation(o)
            bad = _unflippable(o, rng).out
            # written unverified: the tiles of a table that is no USO
            texts[f"{name}.bad.uso"] = write_tiling(
                TileSet(k, frozenset(tile_of(v, bad[v], k) for v in range(1 << k)))
            )
            big.append((name, k))
    text = texts["big8_0.uso"]
    head, *lines = text.splitlines()
    edits = {
        "crlf": text.replace("\n", "\r\n"),
        "tab": "".join(ln + "\t\n" for ln in [head, *lines]),
        "dup": "\n".join([head, *lines[:-1], lines[0]]) + "\n",
        "extra": text + lines[5] + "\n",
        "digit4": text.replace("\n" + lines[7] + "\n", "\n4" + lines[7][1:] + "\n"),
        "nofinal": text[:-1],
        "blank": text + "\n\n",
        "head08": text.replace("uso 8", "uso 08", 1),
        "headsp": text.replace("uso 8", "uso  8", 1),
    }
    for edit, body in edits.items():
        texts[f"big8_0.{edit}.uso"] = body
    texts["flip.rule"] = write_rule(named_rule("flip"))
    # two columns: digit m becomes m followed by 0, 2 or by 1, 3
    pair = product_rule([canonical_tiles(1), TileSet.from_strings(["1", "3"])])
    texts["pair.rule"] = write_rule(pair)
    for name, k in big:
        strings = read_tiling(texts[f"{name}.uso"]).strings()
        labels = {s: 1 + rng.getrandbits(1) for s in strings}
        texts[f"{name}.lab"] = write_labels(labels)
        missing = dict(labels)
        del missing[strings[rng.randrange(len(strings))]]
        texts[f"{name}.miss.lab"] = write_labels(missing)
        texts[f"{name}.range.lab"] = write_labels({**labels, strings[-1]: 3})
        stray = next(w for w in ("0" * k, "1" * k, "3" * k) if w not in labels)
        texts[f"{name}.extra.lab"] = write_labels({**labels, stray: 2})
        # "4" sorts after every tile word; write_labels takes tile words only
        texts[f"{name}.digit4.lab"] = write_labels(labels) + "4" * k + " 1\n"
        texts[f"{name}.long.lab"] = write_labels({**missing, "0" * (k + 1): 1})
    for name, body in texts.items():
        (root / name).write_text(body)

    calls = [["validate", name] for name in small]
    for name, k in big:
        calls.append(["validate", f"{name}.uso"])
        calls.append(["validate", f"{name}.bad.uso"])
        calls.append(["convert", f"{name}.uso", "--to", "orientation"])
        calls.append(["convert", f"{name}.o", "--to", "tiles"])
        calls.append(["convert", f"{name}.bad.uso", "--to", "orientation"])
        h = 1 + rng.randrange(k)
        calls.append(["apply", f"{name}.uso", "--rule", "flip.rule", "--h", str(h)])
        calls.append(["apply", f"{name}.uso", "--rule", "pair.rule", "--h", str(h)])
        for lab in ("lab", "miss.lab", "range.lab", "extra.lab", "digit4.lab", "long.lab"):
            calls.append(
                ["apply", f"{name}.uso", "--rule", "pair.rule", "--labels", f"{name}.{lab}",
                 "--h", str(1 + rng.randrange(k))]
            )
    for edit in edits:
        calls.append(["validate", f"big8_0.{edit}.uso"])
        calls.append(["convert", f"big8_0.{edit}.uso", "--to", "orientation"])
    for seed in (1, 2, 3):
        calls.append(["sample", "--k", "5", "--steps", "40", "--seed", str(seed)])
    return calls


def _rule_corpus(root: Path, small: dict) -> list[list[str]]:
    """Calls of rule-make, uni-rule and product on the small inputs."""
    rng = random.Random(19)
    calls = [["rule-make", "--kind", kind] for kind in NAMED_RULE_KINDS]
    (root / "frame.uso").write_text(write_tiling(frame_tiles()))
    targets = ["w0_0.uso", "w1_0.uso", "w2_1.uso", "w5_0.uso", "big6.uso", *small]
    for name in targets:
        calls.append(["uni-rule", name])
        calls.append(["uni-rule", name, "--labels-out", f"{name}.lab"])
        ts = read_tiling((root / name).read_text())
        if ts.dim:  # the frame labels and this rule give the target back
            (root / f"{name}.rule").write_text(write_rule(universality_rule(ts)[0]))
            calls.append(["apply", "frame.uso", "--rule", f"{name}.rule",
                          "--labels", f"{name}.lab", "--h", "1"])
    for name in ("broken.uso", "missing.uso"):
        calls.append(["uni-rule", name, "--labels-out", f"{name}.lab"])
    calls.append(["uni-rule", "w2_0.uso", "--labels-out", "nodir/w2_0.lab"])

    def parts(frame_dim: int, d: int) -> list[str]:
        out = []
        for v in range(1 << frame_dim):
            bits = "".join(str(v >> c & 1) for c in range(frame_dim))
            out += ["--part", f"{bits}=w{d}_{rng.randrange(2)}.uso"]
        return out

    for frame, frame_dim in (("w0_0.uso", 0), ("w1_1.uso", 1), ("w2_0.uso", 2), ("w3_1.uso", 3)):
        for d in range(5 - frame_dim):
            calls.append(["product", frame, *parts(frame_dim, d)])
    good = parts(2, 1)
    calls += [
        ["product", "w2_0.uso"],
        ["product", "w2_0.uso", *good[:-2], "--part", "11w1_0.uso"],
        ["product", "w2_0.uso", *good[:-2], "--part", "11="],
        ["product", "w2_0.uso", *good[:-2], "--part", "110=w1_0.uso"],
        ["product", "w2_0.uso", *good[:-2], "--part", "1=w1_0.uso"],
        ["product", "w2_0.uso", *good[:-2], "--part", "1x=w1_0.uso"],
        ["product", "w2_0.uso", *good[:-2], "--part", "00=w1_0.uso"],
        ["product", "w2_0.uso", *good[:-2]],
        ["product", "w2_0.uso", *good[:-2], "--part", "11=w2_0.uso"],
        ["product", "w2_0.uso", *good[:-2], "--part", "11=missing.uso"],
        ["product", "w2_0.uso", *good[:-2], "--part", "11=broken.uso"],
        ["product", "broken.uso", *good],
    ]
    return calls


def _transform_corpus(root: Path, small: dict) -> list[list[str]]:
    """Calls of flip, mirror, partial-swap, facet and inherit.

    Every coordinate, both facet sides and every --kprime on the small
    inputs and the k = 8 and 10 products, then the rejections: a
    coordinate or --kprime out of range, a missing file, and non-tilings
    of dimension 2, 5, 8 and 10, whose messages name an incompatible pair.
    One k = 5 copy has an unflippable edge reversed, another a tile moved
    onto a vertex that another tile holds.
    """
    rng = random.Random(23)
    o = uso_from_tiles(small["s5_0.uso"])
    bad = _unflippable(o, rng).out
    (root / "s5_0.bad.uso").write_text(
        write_tiling(TileSet(5, frozenset(tile_of(v, bad[v], 5) for v in range(32))))
    )
    tiles = {v: tile_of(v, o.out[v], 5) for v in range(32)}
    tiles[9] = tile_of(22, o.out[22] ^ 1, 5)
    (root / "s5_0.twice.uso").write_text(write_tiling(TileSet(5, frozenset(tiles.values()))))

    inputs = [(name, ts.dim) for name, ts in small.items()]
    inputs += [(f"big{k}_{s}.uso", k) for k, n in BIG.items() for s in range(n)]
    calls = []
    for name, k in inputs:
        for h in map(str, range(1, k + 1)):
            for verb in ("flip", "mirror", "partial-swap"):
                calls.append([verb, name, "--h", h])
            for side in ("lower", "upper"):
                calls.append(["facet", name, "--h", h, "--side", side])
        for kprime in range(k):
            calls.append(["inherit", name, "--kprime", str(kprime)])

    name, k = inputs[0]
    rejected = [(name, "0"), (name, str(k + 1))]
    for file in ("broken.uso", "s5_0.bad.uso", "s5_0.twice.uso", "big8_0.bad.uso",
                 "big10_0.bad.uso", "missing.uso"):
        rejected.append((file, "1"))
    for file, h in rejected:
        for verb in ("flip", "mirror", "partial-swap"):
            calls.append([verb, file, "--h", h])
        calls.append(["facet", file, "--h", h, "--side", "upper"])
        calls.append(["inherit", file, "--kprime", str(k) if file == name else "0"])
    return calls


def _enumeration_corpus(root: Path) -> list[list[str]]:
    """Calls of count and enumerate, on stdout and through --out."""
    calls = []
    for verb in ("count", "enumerate"):
        for method, ks, rejected in (("brute", range(4), (-1, 4)), ("join", range(1, 4), (0, 5))):
            for k in ks:
                for jobs in ("1", "2"):
                    calls.append([verb, "--k", str(k), "--method", method, "--jobs", jobs])
            for k in rejected:
                calls.append([verb, "--k", str(k), "--method", method])
        calls.append([verb, "--k", "2", "--method", "join", "--jobs", "0"])
    calls.append(["count", "--k", "4", "--method", "join"])
    (root / "kept.txt").write_text("earlier\n")
    for verb, k, method in (("count", "3", "join"), ("enumerate", "2", "brute")):
        calls.append([verb, "--k", k, "--method", method, "--out", f"{verb}.out"])
        calls.append([verb, "--k", k, "--method", method, "--out", f"nodir/{verb}.out"])
    calls.append(["count", "--k", "5", "--method", "join", "--out", "kept.txt"])
    calls.append(["enumerate", "--k", "4", "--method", "brute", "--out", "kept.txt"])
    return calls


def digest(argv) -> str:
    """sha256 prefix of run(argv)'s exit code, stdout and stderr.

    An --out call adds the target's text after the run, or None if there
    is no target file.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    parts = [code, out.getvalue(), err.getvalue()]
    if "--out" in argv:
        target = Path(argv[argv.index("--out") + 1])
        parts.append(target.read_bytes().decode() if target.is_file() else None)
    blob = json.dumps(parts)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_cli_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = build_corpus(tmp_path)
    expected = json.loads(TRANSCRIPT.read_text())
    assert [argv for argv, _ in expected] == calls, "the corpus no longer matches the transcript"
    for argv, want in expected:
        assert digest(argv) == want, f"first differing invocation: usokit {shlex.join(argv)}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            calls = build_corpus(Path(tmp))
            entries = [[argv, digest(argv)] for argv in calls]
        finally:
            os.chdir(cwd)
    lines = ",\n".join(json.dumps(e) for e in entries)
    TRANSCRIPT.write_text(f"[\n{lines}\n]\n")
    print(f"{len(entries)} invocations written to {TRANSCRIPT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
