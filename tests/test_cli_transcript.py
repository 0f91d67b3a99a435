"""The command line byte contract, checked in as a transcript.

A deterministic corpus of inputs and invocations covers the verbs
``phases`` (both methods), ``phase-flip``, ``phase-swap``, ``convert`` and
``hyper-replace``, with their rejections: a coordinate or class index out
of range, an empty ``--classes`` item, a face that is not a hypervertex
or does not fit the cube, a replacement of the wrong dimension, and
inputs that are not tilings or exceed the phase cap.  (A split or stray
swap cannot be asked for on the command line, since ``--classes`` picks
whole classes; ``tests/test_transform.py`` covers both.)

Every invocation runs in-process through ``run()``, in a directory that
holds the corpus files, and the digest of its exit code, stdout and
stderr must equal the one in ``cli_transcript.json``.  The test names the
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
    canonical_orientation,
    enumerate_brute,
    phases,
    sample_markov,
    tiles_from_uso,
    uso_from_tiles,
    write_orientation,
    write_tiling,
)
from usokit.cli import run

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")

CAT3_PICKS = 10  # catalogue-3 entries, chosen by a seeded draw
SAMPLED = {4: 5, 5: 3}  # sampled inputs per dimension
BRUTE_DIM = 4  # phases --method brute runs up to this dimension


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
    return calls


def digest(argv) -> str:
    """sha256 prefix of run(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
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
