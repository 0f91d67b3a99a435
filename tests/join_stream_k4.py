"""Pin the whole k = 4 join stream and its CLI text.

The digest is perfbench's stream_digest, blake2b-8 over every tiling's
sorted packed tiles in stream order.  tier-1 pins only the head of the
stream (test_enumeration.py); this walks all 5,541,744 tilings, about
25 s on one core, and then has `usokit enumerate --k 4 --method join`
write the whole text to a temporary file, 482,131,727 bytes whose sha256
it checks, so it runs as its own CI step:

    PYTHONPATH=src python tests/join_stream_k4.py

Prints the CLI's wall time.  Exits 1 and names the mismatch if the
stream, the count or the text differs.
"""

import hashlib
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from usokit import count_usos, enumerate_join

DIGEST = "0bffa3ddf2e46959"
COUNT = 5_541_744
TEXT_SHA256 = "f80b37879746282e8fa6d7051c7a3beaf7a5f7d6a375b453a6c247d25703ffac"


def _text_sha256() -> str:
    """The sha256 of the CLI's whole k = 4 join text, written by a child
    process to a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "k4.txt"
        argv = ["enumerate", "--k", "4", "--method", "join", "--out", str(out)]
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "usokit.cli", *argv], check=True)
        print(f"usokit {' '.join(argv[:-1])} <tmp>: {time.perf_counter() - start:.1f} s")
        h = hashlib.sha256()
        with open(out, "rb") as f:
            while chunk := f.read(1 << 20):
                h.update(chunk)
        return h.hexdigest()


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
        "CLI text sha256": (_text_sha256(), TEXT_SHA256),
    }
    bad = [f"{name}: {got}, expected {want}" for name, (got, want) in found.items() if got != want]
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
