"""Orientation transformations: products, collapses, facets, swaps, phases.

Everything here consumes and produces whole orientations.  Each operation
also exists as a rewriting rule (width 0 or 1, or a generalized rule for
the product); the orientation-level versions are direct and fast, and the
test suite holds the two routes equal.

Inputs are verified once: the unique sink verdict is kept on the immutable
orientation (``cube._require_uso``), so passing one value through several
transforms tests it once.  Outputs are not tested: each transform maps
USOs to USOs by a theorem (the paper's swaps, Schurr's phase flips and
hypervertex replacement, the standard products, facets and collapses), so
``cube._verified`` builds them with only the word-range test, and the
test suite, which holds each to its rule emulation, is the guard.
``is_uso`` always runs its test.

Phases of a dimension i are the finest partition of the i-edges such that
reversing any union of parts keeps the unique sink property.  The pairwise
sink condition splits per vertex pair, and for a pair straddling dimension
i with no witness elsewhere it forces the two i-edges to flip together (an
equality, never an inequality, because the unflipped input already
satisfies the pair).  Valid flip sets are therefore exactly the unions of
connected components of that constraint graph, which is what the default
method computes.  method="brute" instead tries all 2^(2^(k-1)) subsets
against the sink test, literally; both are capped at k <= 5.
The pair rule has one home, ``_linked``: one fused numpy pass over
``_edge_index``'s pair cells, the lower end of edge p with the upper end
of q and the lower end of q with the upper end of p, gathered a vertex
per row, XORed, tested where the cell's vertices differ and ORed, on one
table or a batch.  Its closure has two forms, each growing the
components as bitmasks of projection indices:
``_edge_classes`` is a numpy fixpoint over a batch of tables, which the
facet join runs on whole batches (see ``enumeration``), and
``_phase_masks`` closes one table, given as a byte per vertex, in Python
ints, where numpy's fixed cost per operation would dominate: the rule's
rows reach it packed, one matrix product with the edge weights.  Both give
each class's mask once, in order of its lowest edge; the batch closure
writes 0 at its other edges.  The tests check both against a
pure-Python union-find.  Both run on ``_edge_index``'s numpy arrays, so
phases, phase_flip and phase_swap import numpy on first use (see
``_lazy``); the other transforms never do.
``_reversal`` is the one edge reversal on masks: it reads the table as one
int, a byte lane per vertex, and gives the XOR mask that reverses the
edges of a word, looked up per byte of the word in a cached per-(k, i)
table, so reversing any set of edges is one XOR.  ``phase_flip`` ORs the
masks of the chosen classes and reverses that word through it, and so
does each step of the flip walk, which keeps a coordinate's classes
across its consecutive steps there (reversing i-edges changes no
pair-rule input at i).  ``phase_swap`` tests its edge
word against the same masks; ``_edge_bits`` is the one Edge-to-bit map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from ._lazy import np
from .cube import (
    Edge,
    Face,
    Orientation,
    _require_coordinate,
    _require_cube_dim,
    _require_dim,
    _require_face,
    _require_uso,
    _verified,
    _vertex_words,
    drop_bit,
    insert_bit,
)
from .errors import (
    DimensionError,
    EnumerationLimitError,
    HypervertexError,
    InternalError,
    PhaseSelectionError,
)
from .pairwise import _incompatible_pairs_py

PHASE_DIM_CAP = 5


# ---------------------------------------------------------------------------
# frame products and collapses


def product(frame: Orientation, parts) -> Orientation:
    """One part orientation glued onto every frame vertex.

    parts maps each frame vertex to an equal-dimension orientation; the
    result has the frame in coordinates 1..k and the chosen part in the
    remaining d.  Every fiber over a frame vertex orders like its part,
    every cross edge like the frame.
    """
    _require_uso(frame)
    k = frame.dim
    missing = [v for v in range(1 << k) if v not in parts]
    if missing:
        raise ValueError(f"parts mapping is missing vertex {missing[0]}")
    dims = {parts[v].dim for v in range(1 << k)}
    if len(dims) != 1:
        raise DimensionError("parts of unequal dimensions")
    d = dims.pop()
    _require_cube_dim(k + d)
    for v in range(1 << k):
        _require_uso(parts[v])
    out = []
    for x in range(1 << (k + d)):
        xf = x & (1 << k) - 1
        xp = x >> k
        out.append(frame.out[xf] | parts[xf].out[xp] << k)
    return _verified(k + d, out)


def inherited(o: Orientation, k_prime: int) -> Orientation:
    """Collapse the top dimensions down to k_prime, one at a time.

    Each step keeps, for every vertex of the smaller cube, the direction
    word of the sink of its top-coordinate edge.  The collapse order does
    not matter; tests pin that down.
    """
    _require_uso(o)
    _require_dim(k_prime)
    if not 0 <= k_prime < o.dim:
        raise DimensionError(f"target dimension {k_prime} out of range 0..{o.dim - 1}")
    out = list(o.out)
    k = o.dim
    while k > k_prime:
        top = 1 << (k - 1)
        out = [
            out[v | top] & top - 1 if out[v] >> (k - 1) & 1 else out[v] & top - 1
            for v in range(top)
        ]
        k -= 1
    return _verified(k_prime, out)


def facet(o: Orientation, h: int, side: str = "lower") -> Orientation:
    """Restrict to one h-facet, deleting coordinate h."""
    _require_uso(o)
    _require_coordinate(h, o.dim)
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be lower or upper, not {side!r}")
    pos = h - 1
    bit = 1 if side == "upper" else 0
    # the facet's vertices in increasing order: every other run of 2^pos words
    run = 1 << pos
    starts = range(bit * run, 1 << o.dim, 2 * run)
    out = [drop_bit(w, pos) for j in starts for w in o.out[j:j + run]]
    return _verified(o.dim - 1, out)


def flip_dimension(o: Orientation, i: int) -> Orientation:
    """Reverse every i-edge."""
    _require_uso(o)
    _require_coordinate(i, o.dim)
    ibit = 1 << (i - 1)
    return _verified(o.dim, tuple(w ^ ibit for w in o.out))


def mirror(o: Orientation, h: int) -> Orientation:
    """Swap the two h-facets, keeping each h-edge's direction."""
    _require_uso(o)
    _require_coordinate(h, o.dim)
    hbit = 1 << (h - 1)
    out = tuple(o.out[v ^ hbit] for v in range(1 << o.dim))
    return _verified(o.dim, out)


def partial_swap(o: Orientation, h: int) -> Orientation:
    """Exchange, across coordinate h, the endpoints of every upward h-edge.

    Tile form: toggle digit 1 <-> 3 at coordinate h, digits 0 and 2 stay.
    """
    _require_uso(o)
    _require_coordinate(h, o.dim)
    hbit = 1 << (h - 1)
    out = o.out
    return _verified(o.dim, tuple(out[v ^ hbit] if w & hbit else w for v, w in enumerate(out)))


# ---------------------------------------------------------------------------
# phases


@dataclass(frozen=True)
class PhasePartition:
    """The i-edge classes whose unions are exactly the sound flip sets."""

    dim_index: int
    classes: tuple[frozenset, ...]


class _EdgeIndex(NamedTuple):
    """The i-edges of the k-cube by projection index p, and their pair cells.

    Cell (h, q, p) is one vertex pair straddling i: half 0 pairs the lower
    endpoint of edge p with the upper one of edge q, half 1 the lower
    endpoint of q with the upper one of p.  _linked reads the cells with
    their axes reversed, as (p, q, h).
    """

    ends: tuple  # lower endpoint of edge p, as ints
    low: np.ndarray  # (2, m, m): the cell's lower endpoint
    up: np.ndarray  # (2, m, m): the cell's upper endpoint
    apart: np.ndarray  # (m, m, 2): ends[p] ^ ends[q], at cell (p, q, h)
    weights: np.ndarray  # 1 << p


@lru_cache(maxsize=None)
def _edge_index(k: int, i: int) -> _EdgeIndex:
    ends = tuple(insert_bit(p, i - 1, 0) for p in range(1 << (k - 1)))
    m = len(ends)
    p = np.broadcast_to(np.array(ends), (m, m))  # entry (q, p) is ends[p]
    q = p.T
    # vertex words of phase tables fit a byte (PHASE_DIM_CAP, MAX_JOIN_DIM)
    apart = np.stack([p ^ q] * 2).astype(np.uint8).T
    weights = 1 << np.arange(m, dtype=np.int64)
    index = _EdgeIndex(ends, np.stack([p, q]), np.stack([q, p]) | 1 << (i - 1), apart, weights)
    for a in index[1:]:
        a.flags.writeable = False
    return index


@lru_cache(maxsize=None)
def _edge_bits(k: int, i: int) -> MappingProxyType:
    """Edge(lower endpoint, i) -> 1 << projection index, read-only."""
    return MappingProxyType({Edge(v, i): 1 << p for p, v in enumerate(_edge_index(k, i).ends)})


@lru_cache(maxsize=None)
def _reversal_rows(k: int, i: int) -> tuple[tuple[int, ...], ...]:
    """Per byte of an i-edge word, per value of that byte: the XOR mask that
    reverses those edges in a table held as one int, a byte lane per vertex
    (int.from_bytes(table, "little"), vertex v's word in bits 8v..8v+7)."""
    ibit = 1 << (i - 1)
    lanes = [ibit << 8 * v | ibit << 8 * (v | ibit) for v in _edge_index(k, i).ends]
    rows = []
    for start in range(0, len(lanes), 8):
        row = [0]
        for lane in lanes[start:start + 8]:
            row += [mask | lane for mask in row]
        rows.append(tuple(row))
    return tuple(rows)


def _reversal(rows: tuple, word: int) -> int:
    """The XOR mask that reverses, in a table held as one int, the i-edges
    whose projection indices are the set bits of word; rows is
    _reversal_rows(k, i)."""
    mask = 0
    for row in rows:
        mask ^= row[word & 0xFF]
        word >>= 8
    return mask


def _linked(tables: np.ndarray, index: _EdgeIndex) -> np.ndarray:
    """The pair rule: entry (..., p, q) links i-edges p and q of a table.

    tables is one table of 2^k words, or a batch of them, a row each, and
    each satisfies the pairwise sink condition.  Edges p and q give two
    vertex pairs straddling i, the two halves of index's cells (p, q).  A
    pair is joined when its words differ at every other coordinate where
    its vertices differ, so no coordinate but i can witness it.  Forward
    reach alone (half 0) gave the same classes on all k <= 4 tables and
    378,165 k = 5 cases, but that is unproven, so both stay.  The
    diagonal is set, and the result is symmetric in p and q.

    The gathers take the table's words a vertex per row, so a batch's
    cells copy whole rows and its tables stay innermost in memory.
    """
    words = np.ascontiguousarray(tables.T)
    ok = (words[index.low] ^ words[index.up]).T & index.apart == index.apart
    return ok[..., 0] | ok[..., 1]


def _edge_classes(tables: np.ndarray, k: int, i: int) -> np.ndarray:
    """Phase classes of the i-edges for a batch of direction tables.

    Each edge's mask takes in its linked edges' masks until none changes.
    Entry (r, p) of the result is then the bitmask of the class of i-edge
    p in table r if p is that class's lowest edge, and 0 otherwise: a
    row's nonzero entries, in order, are _phase_masks of its table.
    The link matrix is symmetric, and a round reads it by columns, along
    which _linked's batch layout keeps the tables innermost.
    """
    index = _edge_index(k, i)
    linked = _linked(tables, index)
    masks = linked @ index.weights
    while True:
        grown = np.bitwise_or.reduce(linked * masks[:, :, None], axis=1)
        if (grown == masks).all():
            return np.where(masks & index.weights - 1, 0, masks)
        masks = grown


def _union(classes, pick: int) -> int:
    """The union of the class masks picked by the bits of pick."""
    word = 0
    while pick:
        word |= classes[(pick & -pick).bit_length() - 1]
        pick &= pick - 1
    return word


# The closure of one table, in Python ints: a numpy round costs more than
# the whole bit-frontier walk over 2^(k-1) <= 16 row masks.  The key is
# the table's bytes, from phases(), phase_flip and the flip walk alike.
# The walk asks only when its coordinate changes, about 4 steps in 5 at
# k = 5.  Sized to the reuse there is: rewrite-sweep's 2,232 k=3 tables
# (744 USOs at 3 coordinates), and about 51 at a time in a k=5
# sample/walk pair, whose second chain hits the first one's entries.
# Long k=5 walks fill any size; 1 << 16 entries held about 43 MB.
@lru_cache(maxsize=1 << 12)
def _phase_masks(table: bytes, k: int, i: int) -> tuple[int, ...]:
    """The i-edge classes of one table, as masks, in order of lowest edge.

    table holds the 2^k direction words, one byte each.

    Each class grows from the lowest edge not yet placed: the edges linked
    to a frontier edge join the class and the frontier, until it is empty.
    """
    index = _edge_index(k, i)
    # the rows packed by one matrix product: np.packbits with a
    # little-endian view took 0.4 us more at k = 5 (numpy 2.4)
    rows = (_linked(np.frombuffer(table, np.uint8), index) @ index.weights).tolist()
    classes = []
    left = (1 << len(rows)) - 1
    while left:
        cls = frontier = left & -left
        while frontier:
            edge = frontier & -frontier
            new = rows[edge.bit_length() - 1] & ~cls
            cls |= new
            frontier ^= edge | new
        classes.append(cls)
        left &= ~cls
    return tuple(classes)


def _brute_phase_masks(out: tuple, k: int, i: int) -> tuple[int, ...]:
    """Literal subset sweep: try every i-edge flip set against the sink test.

    The class of an edge is the intersection of the sound sets containing
    it; the sweep also re-checks that sound sets are exactly the unions of
    classes, which must hold.  Classes come in order of their lowest edge.
    """
    ibit = 1 << (i - 1)
    lower = _edge_index(k, i).ends
    m = len(lower)
    vertices = _vertex_words(k)
    current = list(out)
    valid = []
    gray = 0
    for code in range(1 << m):
        if code:
            p = (code ^ code >> 1 ^ gray).bit_length() - 1
            gray ^= 1 << p
            current[lower[p]] ^= ibit
            current[lower[p] | ibit] ^= ibit
        # most candidates fail within a few pairs, where the reference
        # loop's early exit beats the numpy route's fixed cost per call
        if next(_incompatible_pairs_py(vertices, current), None) is None:
            valid.append(gray)
    member = [(1 << m) - 1] * m
    for s in valid:
        for p in range(m):
            if s >> p & 1:
                member[p] &= s
    # its own ordering and union test, not the pairs route's helpers
    classes = tuple(sorted(set(member), key=lambda c: c & -c))
    if len(valid) != 1 << len(classes):
        raise InternalError(
            f"{len(valid)} sound flip sets for {len(classes)} phase classes"
        )
    for s in valid:
        if any(member[p] & ~s for p in range(m) if s >> p & 1):
            raise InternalError("a sound flip set is not a union of phase classes")
    return classes


def _require_phase_input(o: Orientation, i: int) -> None:
    _require_uso(o)
    _require_coordinate(i, o.dim)
    if o.dim > PHASE_DIM_CAP:
        raise EnumerationLimitError(f"phase computation is capped at dimension {PHASE_DIM_CAP}")


def phases(o: Orientation, i: int, method: str = "pairs") -> PhasePartition:
    """Partition the i-edges into their flip classes."""
    _require_phase_input(o, i)
    if method == "pairs":
        masks = _phase_masks(bytes(o.out), o.dim, i)
    elif method == "brute":
        masks = _brute_phase_masks(o.out, o.dim, i)
    else:
        raise ValueError(f"unknown method {method!r}")
    bits = _edge_bits(o.dim, i).items()
    return PhasePartition(i, tuple(frozenset(e for e, b in bits if mask & b) for mask in masks))


def phase_flip(o: Orientation, i: int, classes) -> Orientation:
    """Reverse the union of whole phase classes; always an USO again.

    Each class is packed to its word of projection indices and must be one
    of the masks of _phase_masks.
    """
    _require_phase_input(o, i)
    table = bytes(o.out)
    known = set(_phase_masks(table, o.dim, i))
    bits = _edge_bits(o.dim, i)
    word = 0
    for cls in classes:
        try:
            mask = sum(bits[e] for e in frozenset(cls))
        except KeyError:  # not a lower endpoint of an i-edge
            mask = 0
        if mask not in known:
            raise PhaseSelectionError(f"not a phase class of dimension {i}: {sorted(cls)}")
        word |= mask
    state = int.from_bytes(table, "little") ^ _reversal(_reversal_rows(o.dim, i), word)
    return _verified(o.dim, state.to_bytes(len(table), "little"))


def phase_swap(o: Orientation, h: int, edges) -> Orientation:
    """Exchange, across coordinate h, the endpoints of the given h-edges.

    The edge set must be a union of h-phases.  Tile form: toggle the high
    bit of digit h on every tile whose vertex touches a chosen edge.
    """
    wanted = set(edges)
    _require_phase_input(o, h)
    bits = _edge_bits(o.dim, h)
    word = sum(bits.get(e, 0) for e in wanted)  # a set holds each edge once
    if any(cls & word and cls & ~word for cls in _phase_masks(bytes(o.out), o.dim, h)):
        raise PhaseSelectionError(f"edge set splits a phase class of dimension {h}")
    stray = wanted.difference(bits)
    if stray:
        raise PhaseSelectionError(f"not h-edges of this cube: {sorted(stray)}")
    hbit = 1 << (h - 1)
    lower = {e.vertex for e, bit in bits.items() if word & bit}
    out = tuple(o.out[v ^ hbit] if v & ~hbit in lower else w for v, w in enumerate(o.out))
    return _verified(o.dim, out)


# ---------------------------------------------------------------------------
# hypervertices


@dataclass(frozen=True)
class HypervertexWitness:
    """A face all of whose crossing edges are combed, per fixed coordinate."""

    face: Face
    directions: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.directions)


def hypervertex_check(o: Orientation, f: Face):
    """Witness that f behaves like a single vertex, or the violations.

    For every fixed coordinate of f, all edges leaving the face in that
    coordinate must share one direction.  Returns a HypervertexWitness on
    success and a list of violation strings otherwise.
    """
    _require_face(f, o.dim)
    some = 0  # direction bits set at some vertex of the face
    every = (1 << o.dim) - 1  # direction bits set at every vertex of it
    for v in f.vertices():
        some |= o.out[v]
        every &= o.out[v]
    violations = []
    directions = []
    for i in range(1, o.dim + 1):
        if f.pattern[i - 1] == "*":
            continue
        if (some ^ every) >> (i - 1) & 1:
            violations.append(f"mixed directions across coordinate {i}")
        else:
            directions.append((i, every >> (i - 1) & 1))
    if violations:
        return violations
    return HypervertexWitness(f, tuple(directions))


def hypervertex_replace(o: Orientation, f: Face, sub: Orientation) -> Orientation:
    """Reorient the inside of a hypervertex face by sub, keeping the rest."""
    witness = hypervertex_check(o, f)
    if not isinstance(witness, HypervertexWitness):
        raise HypervertexError("; ".join(witness))
    if sub.dim != f.dim:
        raise DimensionError(
            f"replacement of dimension {sub.dim} for a face of dimension {f.dim}"
        )
    _require_uso(o)
    _require_uso(sub)
    # deposit[p]: bit a of p moved to free coordinate a, by doubling
    deposit = [0]
    for pos in f.free_positions():
        deposit += [x | 1 << pos for x in deposit]
    free, fixed = f.free_mask, f.fixed_values
    out = list(o.out)
    for p, w in enumerate(sub.out):
        v = fixed | deposit[p]
        out[v] = out[v] & ~free | deposit[w]
    return _verified(o.dim, out)
