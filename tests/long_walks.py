"""Hold the flip walk to the reference walk over long chains.

The walk draws its SplitMix64 words a numpy block at a time
(enumeration._words); the reference walk in test_enumeration.py draws each
word through SplitMix64.randbelow and closes every table's classes afresh.
tier-1 compares them over a few blocks; this compares every table of
20,000-step walks at k = 3, 4 and 5 on several seeds, each seed's words
crossing hundreds of block boundaries, about 10 s on one core, so it runs
as its own CI step:

    PYTHONPATH=src python tests/long_walks.py

Exits 1 and names each walk whose tables differ, at the first step that
differs.
"""

import sys

from test_enumeration import REJECTED, WORD_SEEDS, _reference_walk

from usokit.enumeration import _walk

STEPS = 20_000


def main() -> int:
    bad = []
    for k in (3, 4, 5):
        for seed in WORD_SEEDS + REJECTED:
            pairs = zip(_walk(k, STEPS, seed), _reference_walk(k, STEPS, seed))
            step = next((n for n, (got, want) in enumerate(pairs) if got != want), None)
            if step is not None:
                bad.append(f"k={k} seed={seed}: the walk leaves the reference at step {step}")
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
