"""Mutation sweep: every mutant below must make its tests fail.

An entry of MUTANTS is (name, file under src/usokit, exact old text, new
text, tests).  For each entry the sweep copies src/ to a temporary
directory, makes the one substitution and runs ``pytest -x`` on the named
tests in one child process with that copy on PYTHONPATH; the child must
fail.  Before any mutant, the same tests run once on an unchanged copy and
must pass, so a failure is the mutant's doing.  An entry whose old text is
not found exactly once fails the sweep, so entries cannot go stale.

EQUIVALENT holds mutants that no test should kill, each with its reason.
Their old text must still be found exactly once; they are not run.

    python tests/mutants.py

About 25 s on two cores.  Exits 1 and names every mutant that survived or
no longer applies.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNEL_LOOP = """\
    while True:
        grown = np.bitwise_or.reduce(linked * masks[:, None, :], axis=2)
        if (grown == masks).all():
            return masks
        masks = grown
"""

WALKS = "tests/test_enumeration.py::test_edge_classes_match_phase_projections_on_walks"

MUTANTS = [
    (
        "kernel with no growth round",
        "transform.py",
        KERNEL_LOOP,
        "    return masks\n",
        [WALKS],
    ),
    (
        "kernel with one growth round",
        "transform.py",
        KERNEL_LOOP,
        "    return np.bitwise_or.reduce(linked * masks[:, None, :], axis=2)\n",
        [WALKS],
    ),
    (
        # passes every other tier-1 test: only the deepest walk state
        # (6 growing rounds at k = 5) tells it from the fixpoint
        "kernel capped at 5 rounds",
        "transform.py",
        KERNEL_LOOP,
        "    for _ in range(5):\n"
        "        masks = np.bitwise_or.reduce(linked * masks[:, None, :], axis=2)\n"
        "    return masks\n",
        [WALKS + "[5]"],
    ),
    (
        "_distinct in reverse order",
        "transform.py",
        "    return tuple(mask for p, mask in enumerate(masks) if not mask & (1 << p) - 1)\n",
        "    return tuple(reversed([m for p, m in enumerate(masks) if not m & (1 << p) - 1]))\n",
        ["tests/test_enumeration.py::test_sample_frozen_value"],
    ),
    (
        "_union keeps only the last class",
        "transform.py",
        "            word |= cls\n",
        "            word = cls\n",
        ["tests/test_enumeration.py::test_phase_walk_mixes_exactly"],
    ),
    (
        "_flip without the upper endpoint",
        "enumeration.py",
        "            out[v | ibit] ^= ibit\n",
        "",
        ["tests/test_enumeration.py::test_walk_stays_on_tilings"],
    ),
    (
        "i-edges on the wrong coordinate",
        "transform.py",
        "insert_bit(p, i - 1, 0)",
        "insert_bit(p, i % k, 0)",
        ["tests/test_cli.py::test_phases_output"],
    ),
    (
        "phases() drops the top edge of each class",
        "transform.py",
        "        while mask:\n",
        "        while mask & mask - 1:\n",
        ["tests/test_transform.py::test_phases_of_canonical"],
    ),
]

EQUIVALENT = [
    (
        # joined and its transpose are the two vertex pairs straddling i
        # that one pair of i-edges has.  Forward reach alone gave the same
        # classes on every k <= 3 table at every coordinate, on all 744^2
        # combed joins (which covers every k = 4 USO at every coordinate)
        # and on 378,165 k = 5 walk cases; that is not a proof.
        "kernel without the transpose",
        "transform.py",
        "    linked = joined | joined.transpose(0, 2, 1)\n",
        "    linked = joined\n",
    ),
    (
        # one more round turns the start into linked @ index.weights
        "kernel starting from each edge alone",
        "transform.py",
        "    masks = linked @ index.weights\n",
        "    masks = np.broadcast_to(index.weights, linked.shape[:2])\n",
    ),
]


def _pytest(src: Path, tests) -> int:
    # no bytecode: a mutant of the same size and second as a cached .pyc
    # would otherwise be read from that cache
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True)
    return done.returncode


def main() -> int:
    stale = [
        name
        for name, file, old, *_ in MUTANTS + EQUIVALENT
        if (ROOT / "src" / "usokit" / file).read_text().count(old) != 1
    ]
    for name in stale:
        print(f"{name}: old text not found exactly once", file=sys.stderr)
    if stale:
        return 1
    survived = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for *_, named in MUTANTS for t in named})
        if _pytest(src, tests) != 0:
            print("the named tests fail on the unchanged source", file=sys.stderr)
            return 1
        for name, file, old, new, named in MUTANTS:
            path = src / "usokit" / file
            text = path.read_text()
            path.write_text(text.replace(old, new))
            code = _pytest(src, named)
            path.write_text(text)
            # the unchanged copy passed, so any failure (a test, or a module
            # that no longer imports or collects) is the mutant's
            print(f"{name}: {f'killed (pytest exit {code})' if code else 'SURVIVED'}")
            if not code:
                survived.append(name)
    print(f"{len(MUTANTS)} mutants, {len(EQUIVALENT)} equivalent, "
          f"{time.perf_counter() - start:.1f} s")
    for name in survived:
        print(f"survived: {name}", file=sys.stderr)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
