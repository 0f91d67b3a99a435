"""The pairwise kernel behind every unique-sink and tiling verifier.

Both verifiers test one condition on pairs of words.  Each element of a
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
time, so a corrupted input stops at the first block holding a failure.
Both routes yield the same pairs in the same order.  numpy is imported on
the first block (see _lazy), so smaller sets never import it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ._lazy import np

# Smallest dimension whose complete sets (2^k words) go through numpy.
# Below it the loop beats numpy's per-call overhead.
KERNEL_MIN_DIM = 5

# Widest word the numpy route holds; wider words take the loop.
MAX_WORD_BITS = 64

# Pair cells per numpy block.  On the 1,024 words of a k = 10 table, 64k
# cells took 0.48 ms against 0.88 ms at 16k (best of 60, 2 cores), and 256k
# was slower again; a table of 2^KERNEL_MIN_DIM words is one block at any
# of these sizes.
_BLOCK_CELLS = 1 << 16

# by name, so that importing this module does not import numpy
_DTYPES = ((8, "uint8"), (16, "uint16"), (32, "uint32"), (64, "uint64"))


def incompatible_pairs(
    x: Sequence[int], y: Sequence[int], width: int
) -> Iterator[tuple[int, int]]:
    """Index pairs (a, b), a < b, failing the pair condition, in order.

    width bounds the bit length of every word.  Lazy: a caller that stops
    after the first pair skips the rest of the work.
    """
    if len(x) < 1 << KERNEL_MIN_DIM or width > MAX_WORD_BITS:
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
    xs = np.fromiter(x, dtype, n)
    ys = np.fromiter(y, dtype, n)
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
            rows, cols = np.nonzero(bad)
            rows += a0
            cols += a0 + 1
            for a, b in zip(rows.tolist(), cols.tolist()):
                if a < b:
                    yield a, b
        a0 = a1
