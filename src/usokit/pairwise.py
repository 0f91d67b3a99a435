"""The two vertex tests behind every unique-sink and tiling verifier.

The pair test checks one condition on pairs of words.  Each element of a
set carries a vertex word x and a direction word y, and a pair (a, b) is
incompatible when the two vertices differ nowhere with equal direction
bits:

    (x[a] ^ x[b]) & ~(y[a] ^ y[b]) == 0

For an orientation x is the vertex and y its direction word.  For packed
tiles x is the high bit of every digit moved onto the low bit's slot and y
is the tile itself; x is zero outside the low slots, so the high bits of y
never count.

``incompatible_pairs`` yields the incompatible pairs of a sequence in
lexicographic (a, b) order.  Sets of fewer than 2^KERNEL_MIN_DIM words go
through the pure-Python double loop, which is also the reference; larger
sets go through numpy, one block of rows against all later columns at a
time, so a corrupted input stops at the first block holding a failure,
and only that block is searched for its pairs, row by row.  Both routes
yield the same pairs in the same order.

``face_sinks_ok`` tests the property itself, a unique sink in every face,
which the pair condition is equivalent to (Szabo and Welzl, "Unique sink
orientations of cubes", FOCS 2001), so either one is an exact verdict.
It takes one coordinate c per pass and keeps the direction word of the
sink of every face whose free coordinates were all passed already.  A
face free at c has exactly one sink iff exactly one of its two c-facets'
sinks has its c-edge entering, that is iff the c-bits of the two sinks'
words agree: both 0 and the lower sink is the face's, both 1 and the
upper one is.  The 1-faces are the edges, so a table whose edge ends
disagree fails there.  That is 3^k words against 2^(2k-1) pair cells:
best of 30 on a product table (2 cores, Python 3.11.7, numpy 2.4.6), the
recursion against the pair test took 0.063 against 0.035 ms at k = 8,
0.087 against 0.20 ms at k = 9 and 0.14 against 0.49 ms at k = 10, so
the verdict of cube._require_uso and tiling._tiling_ok is the recursion
from FACE_SINK_MIN_DIM = 9 up, at every k, and the pair test below it.
The recursion's numpy route writes at most _FACE_CELLS words per block,
so it needs no dimension cap (a cap would only trade its memory for the
pair test's 4^k/3^k time).  Below KERNEL_MIN_DIM it runs on lists (27
against 28 us at k = 5, 78 against 36 us at k = 6).

numpy is imported on the first numpy route taken (see _lazy), so sets
below KERNEL_MIN_DIM never import it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ._lazy import np

# Smallest dimension whose complete sets (2^k words) go through numpy.
# Below it the loop beats numpy's per-call overhead.
KERNEL_MIN_DIM = 5

# Pair cells per numpy block.  On the 1,024 words of a k = 10 table, 64k
# cells took 0.48 ms against 0.88 ms at 16k (best of 60, 2 cores), and 256k
# was slower again; a table of 2^KERNEL_MIN_DIM words is one block at any
# of these sizes.
_BLOCK_CELLS = 1 << 16

# Smallest dimension whose verdict is the face-sink recursion (measured
# above); below it the pair test is faster.
FACE_SINK_MIN_DIM = 9

# Words one pass of the recursion's numpy route reads per block of faces.
# A pass reads at most 3^(k-1), so up to k = 13 (3^12 < 2^20) a table is
# one block.
_FACE_CELLS = 1 << 20

# by name, so that importing this module does not import numpy
_DTYPES = ((8, "uint8"), (16, "uint16"), (32, "uint32"), (64, "uint64"))


def incompatible_pairs(
    x: Sequence[int], y: Sequence[int], width: int
) -> Iterator[tuple[int, int]]:
    """Index pairs (a, b), a < b, failing the pair condition, in order.

    width bounds the bit length of every word, at most 64: the words are
    vertices or packed tiles of at most cube.MAX_FORMAT_DIM digits.  Lazy:
    a caller that stops after the first pair skips the rest of the work.
    """
    if len(x) < 1 << KERNEL_MIN_DIM:
        return _incompatible_pairs_py(x, y)
    return _incompatible_pairs_np(x, y, width)


def _incompatible_pairs_py(x, y) -> Iterator[tuple[int, int]]:
    """Reference: the plain double loop."""
    n = len(x)
    for a in range(n):
        xa, ya = x[a], y[a]
        for b in range(a + 1, n):
            if not (xa ^ x[b]) & ~(ya ^ y[b]):
                yield a, b


def _incompatible_pairs_np(
    x, y, width: int, cells: int = _BLOCK_CELLS
) -> Iterator[tuple[int, int]]:
    """Blocks of rows [a0, a1) against columns (a0, n).

    A block also holds the cells with b <= a.  The diagonal always fails
    and is cleared; a failure below it mirrors one above it in an earlier
    row of the same block, so a block without failures above the diagonal
    has none at all, and the failures above it are kept in row-major, that
    is lexicographic, order.
    """
    n = len(x)
    dtype = next(t for bits, t in _DTYPES if width <= bits)
    xs = np.asarray(x, dtype)
    ys = np.asarray(y, dtype)
    a0 = 0
    while a0 < n - 1:
        a1 = min(n - 1, a0 + max(1, cells // (n - a0 - 1)))
        xb, yb = xs[a0 + 1:], ys[a0 + 1:]
        dx = xs[a0:a1, None] ^ xb
        dy = ys[a0:a1, None] ^ yb
        np.invert(dy, out=dy)
        np.bitwise_and(dx, dy, out=dx)
        bad = dx == 0
        diag = np.arange(1, a1 - a0)
        bad[diag, diag - 1] = False
        if bad.any():
            # only a failing block is searched, row by row, so a caller
            # that stops at the first pair pays for one row
            for r in np.flatnonzero(bad.any(axis=1)).tolist():
                for c in np.flatnonzero(bad[r, r:]).tolist():
                    yield a0 + r, a0 + r + 1 + c
        a0 = a1


def face_sinks_ok(out: Sequence[int], k: int) -> bool:
    """Whether the direction words out[v] of the k-cube's 2^k vertices give
    every face exactly one sink, by the face-sink recursion."""
    if k < KERNEL_MIN_DIM:
        return _face_sinks_ok_py(out, k)
    return _face_sinks_ok_np(out, k)


def _face_sinks_ok_py(out, k: int) -> bool:
    """The recursion on a list, top coordinate first.  The list halves are
    the faces with the top unpassed bit 0 and 1; each pass puts the sinks
    of the two facets and of their face side by side."""
    w = list(out)
    for b in reversed(range(k)):
        bit = 1 << b
        half = len(w) >> 1
        nxt = []
        for lo, hi in zip(w[:half], w[half:]):
            if (lo ^ hi) & bit:
                return False
            nxt += (lo, hi, hi if lo & bit else lo)
        w = nxt
    return True


def _face_sinks_ok_np(out, k: int, cells: int = _FACE_CELLS) -> bool:
    dtype = next(t for bits, t in _DTYPES if k <= bits)
    return not k or _sinks_agree(np.asarray(out, dtype).reshape(-1, 1), k - 1, cells)


def _sinks_agree(s, b: int, cells: int) -> bool:
    """Passes b, b - 1, ..., 0 of the recursion on s.

    s has a row per value of bits b..0, bit b slowest, and a column per
    face of the bits passed already.  No pass mixes columns, so when one
    would write more than cells words, each half of the columns goes on
    alone.
    """
    while True:
        half, cols = len(s) >> 1, s.shape[1]
        if half * cols > cells and cols > 1:
            m = cols >> 1
            return _sinks_agree(s[:, :m], b, cells) and _sinks_agree(s[:, m:], b, cells)
        lo, hi = s[:half], s[half:]
        bit = 1 << b
        if ((lo ^ hi) & bit).any():
            return False
        if not b:
            return True
        nxt = np.empty((half, 3, cols), s.dtype)
        nxt[:, 0] = lo
        nxt[:, 1] = hi
        nxt[:, 2] = np.where(lo & bit, hi, lo)
        s = nxt.reshape(half, 3 * cols)
        b -= 1
