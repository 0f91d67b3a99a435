"""Pin the whole k = 4 join stream: its length and its digest.

The digest is perfbench's stream_digest, blake2b-8 over every tiling's
sorted packed tiles in stream order.  tier-1 pins only the head of the
stream (test_enumeration.py); this walks all 5,541,744 tilings, about
25 s on one core, so it runs as its own CI step:

    PYTHONPATH=src python tests/join_stream_k4.py

Exits 1 and names the mismatch if the stream or the count differs.
"""

import hashlib
import sys

from usokit import count_usos, enumerate_join

DIGEST = "0bffa3ddf2e46959"
COUNT = 5_541_744


def main() -> int:
    h = hashlib.blake2b(digest_size=8)
    n = 0
    for ts in enumerate_join(4):
        h.update(bytes(sorted(ts.tiles)))
        n += 1
    found = {
        "stream digest": (h.hexdigest(), DIGEST),
        "stream length": (n, COUNT),
        "count, jobs=1": (count_usos(4, "join", 1).count, COUNT),
        "count, jobs=2": (count_usos(4, "join", 2).count, COUNT),
    }
    bad = [f"{name}: {got}, expected {want}" for name, (got, want) in found.items() if got != want]
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
