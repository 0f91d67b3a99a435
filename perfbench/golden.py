"""Regenerate golden.json, the reference digests the benchmark checks.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/golden.py

It records
- ``catalogue3``: per 3-dimensional USO (in enumerate_brute order), the
  digest of the seed-independent part of a rewrite-sweep operation;
- ``stream``: per slice size, digests of consecutive slices of
  enumerate_join(4), which do not depend on the seed either;
- ``ops``: per workload and reference seed, the digests of the first
  operations, which cover the seeded outputs.
A run with another seed checks the seed-independent digests and the
cross-checks in each operation's check.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import tempfile

import run

SEEDS = (1, 2, 3)
OPS = {"rewrite-sweep": 100, "big-cube": 80, "enumerate-k4": 60, "cli-verbs": 25}
STREAM_SLICES = 10


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    workdir = run.Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        workloads, wl = run.load_workload("rewrite-sweep")
        st = wl.setup(0, workdir)
        st.order = list(range(len(st.cat3)))
        tracer = run.NullTracer()
        catalogue = [
            wl.deterministic_digest(wl.run(st, wl.spec(st, i), tracer))
            for i in range(len(st.cat3))
        ]
        size = workloads.EnumerateK4.SLICE
        stream = workloads.uk.enumerate_join(4)
        slices = [
            workloads.stream_digest(list(itertools.islice(stream, size)))
            for _ in range(STREAM_SLICES)
        ]
        golden = {"catalogue3": catalogue, "stream": {str(size): slices}, "ops": {}}
        for name, n in OPS.items():
            golden["ops"][name] = {}
            for seed in SEEDS:
                wl = workloads.WORKLOADS.get(name, workloads.CliVerbs)()
                st = wl.setup(seed, workdir)
                wl.warm(st)
                st.golden = golden
                ops = run.measure(wl, st, tracer, 0, 0, [], count=n)
                bad = [p for op in ops for p in op.problems]
                if bad:
                    print(f"{name} seed {seed}: {bad[:5]}", file=sys.stderr)
                    return 1
                golden["ops"][name][str(seed)] = [op.digest for op in ops]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
