"""Cube combinatorics and the direction-word view of unique sink orientations.

Conventions used throughout the package:

* A vertex of the k-cube is an ``int`` in ``range(2 ** k)``.  Coordinate
  ``i`` (1-based) lives at bit ``i - 1``, and text forms spell coordinate 1
  first, so vertex ``0b10`` of the 2-cube prints as ``"01"``.
* ``Orientation.out[v]`` is a k-bit direction word: bit ``i - 1`` is 1
  exactly when the i-edge at ``v`` points into the upper i-facet.  Both
  endpoints of an edge carry the same bit, so the table is redundant.
  Edges are checked where a table enters: the constructors reject a
  caller's table whose endpoints disagree.
* An edge is named by its endpoint in the lower i-facet plus ``i``.

A vertex is a sink of a face when no edge of the face leaves it, which is
the single word test ``(out[v] ^ v) & free == 0``: an i-edge leaves ``v``
exactly when its direction bit differs from ``v``'s own i-bit.

The unique sink property is equivalent to the pairwise condition: for any
two distinct vertices some coordinate where they differ carries equal
direction bits at both.  ``is_uso`` implements that test and the face-sink
recursion, which finds the sink of every one of the 3^k faces from the
sinks of its facets (both in ``pairwise``); the two must always agree.
``unique_sink`` searches one face literally, and the tests hold the
recursion to that search.

An orientation is verified once.  Operations that need unique sinks go
through ``_require_uso``, which runs the face-sink recursion
(``pairwise.face_sinks_ok``, on byte lanes up to k = 8 and on numpy
above) on first use and keeps the verdict on the immutable value;
results that are unique sink orientations by construction carry the
verdict from birth.  The public ``is_uso`` always runs its test.
``_consistent`` builds an orientation with only the word-range test from
a table whose edges agree by construction;
``_verified`` adds the verdict, for a transform's output (an USO by
theorem, which the test suite guards), the all-down table and a verified
tiling's vertex table, which the tile set keeps as its own verdict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as iproduct
from typing import Iterator, Mapping, NamedTuple

from .errors import DimensionError, NotAnUsoError
from .pairwise import face_sinks_ok, incompatible_pairs

FACE_CHARS = "01*"

# Largest dimension of any value, by _require_cube_dim: a packed tile takes
# 2 bits per digit, so 32 digits fill one uint64, the widest word of the
# numpy routes and of the file formats.
MAX_FORMAT_DIM = 32

_BIT_WORD = re.compile("[01]*")


# ---------------------------------------------------------------------------
# vertices and edges


def vertex_bits(v: int, k: int) -> str:
    """Text form of a vertex, coordinate 1 first.  Empty for k = 0."""
    _require_cube_dim(k)
    _require_vertex(v, k)
    return _bits(v, k)


def _bits(v: int, k: int) -> str:
    """vertex_bits without the checks, for the library's own vertices and
    words."""
    return "".join("1" if v >> i & 1 else "0" for i in range(k))


def vertex_from_bits(bits: str) -> int:
    """The vertex of a bit word; the pattern test comes first, as int()
    also takes "_", "+", whitespace and non-ASCII digits."""
    _require_str(bits, "bit string")
    if not _BIT_WORD.fullmatch(bits):
        bad = next(c for c in bits if c not in "01")
        raise ValueError(f"bad vertex character {bad!r}")
    return int(bits[::-1], 2) if bits else 0


def _require_dim(k, what: str = "dimension") -> None:
    """Raise DimensionError unless k's type is int: the one type check of a
    dimension or a coordinate, where one enters the package."""
    if type(k) is not int:
        raise DimensionError(f"{what} must be an int, not {k!r}")


def _require_cube_dim(k) -> None:
    """_require_dim, and k in 0..MAX_FORMAT_DIM by comparison alone: the one
    dimension bound, checked where a dimension enters or is derived, before
    any value of size 2^k is built."""
    _require_dim(k)
    if k < 0:
        raise DimensionError(f"dimension {k} is negative")
    if k > MAX_FORMAT_DIM:
        raise DimensionError(f"dimension {k} exceeds the cap {MAX_FORMAT_DIM}")


def _require_coordinate(i: int, k: int) -> None:
    _require_dim(i, "coordinate")
    if not 1 <= i <= k:
        raise DimensionError(f"coordinate {i} out of range 1..{k}")


def _require_vertex(v: int, k: int | None, what: str = "vertex") -> None:
    """Raise DimensionError unless v is an int, not a bool, in range(2^k):
    the one check of a vertex where one is named.  With k None, as edge_at
    and check_edge know no dimension, the range is that of the largest
    cube, range(2^MAX_FORMAT_DIM)."""
    _require_dim(v, what)
    if v < 0 or v >> (MAX_FORMAT_DIM if k is None else k):
        where = "" if k is None else f" for dimension {k}"
        raise DimensionError(f"{what} {v} out of range{where}")


def neighbor(v: int, i: int, k: int) -> int:
    """The vertex across the i-edge at v."""
    _require_cube_dim(k)
    _require_coordinate(i, k)
    _require_vertex(v, k)
    return v ^ (1 << (i - 1))


class Edge(NamedTuple):
    """An i-edge, named by its endpoint in the lower i-facet."""

    vertex: int
    dim: int


def edge_at(v: int, i: int) -> Edge:
    """The i-edge incident to v, in canonical (lower endpoint) form."""
    _require_dim(i, "coordinate")
    if i < 1:
        raise DimensionError(f"coordinate {i} is less than 1")
    # no cube has a coordinate above MAX_FORMAT_DIM
    _require_coordinate(i, MAX_FORMAT_DIM)
    _require_vertex(v, None)
    return Edge(v & ~(1 << (i - 1)), i)


def check_edge(e: Edge, k: int) -> None:
    _require_coordinate(e.dim, k)
    _require_vertex(e.vertex, None, "edge vertex")
    if e.vertex >> k:
        raise DimensionError(f"edge vertex {e.vertex} out of range")
    if e.vertex >> (e.dim - 1) & 1:
        raise DimensionError(
            f"malformed edge: vertex {_bits(e.vertex, k)} not in the "
            f"lower {e.dim}-facet"
        )


def drop_bit(x: int, pos: int) -> int:
    """Remove bit ``pos`` from x, shifting higher bits down."""
    return (x & ((1 << pos) - 1)) | (x >> (pos + 1)) << pos


def insert_bit(x: int, pos: int, bit: int) -> int:
    """Inverse of drop_bit: splice ``bit`` in at position ``pos``."""
    return (x >> pos) << (pos + 1) | bit << pos | (x & ((1 << pos) - 1))


# ---------------------------------------------------------------------------
# faces


@dataclass(frozen=True)
class Face:
    """A face of the k-cube as a pattern over {0, 1, *}, coordinate 1 first."""

    pattern: str

    def __post_init__(self):
        _require_str(self.pattern, "face pattern")
        for c in self.pattern:
            if c not in FACE_CHARS:
                raise ValueError(f"bad face character {c!r}")

    @property
    def cube_dim(self) -> int:
        return len(self.pattern)

    @property
    def dim(self) -> int:
        return self.pattern.count("*")

    @property
    def free_mask(self) -> int:
        return vertex_from_bits(self.pattern.replace("1", "0").replace("*", "1"))

    @property
    def fixed_values(self) -> int:
        return vertex_from_bits(self.pattern.replace("*", "0"))

    def free_positions(self) -> list[int]:
        """0-based bit positions of the free coordinates, ascending."""
        return [i for i, c in enumerate(self.pattern) if c == "*"]

    def vertices(self) -> Iterator[int]:
        """Vertices of the face in lexicographic bit-string order."""
        choices = [("0", "1") if c == "*" else (c,) for c in self.pattern]
        for bits in iproduct(*choices):
            yield vertex_from_bits("".join(bits))

    def __contains__(self, v: int) -> bool:
        return v & ~self.free_mask == self.fixed_values

    @classmethod
    def full(cls, k: int) -> "Face":
        return cls("*" * k)


def _require_face(f: Face, k: int) -> None:
    if f.cube_dim != k:
        raise DimensionError(f"face pattern length {f.cube_dim} does not match dimension {k}")


# ---------------------------------------------------------------------------
# orientations


@dataclass(frozen=True)
class Orientation:
    """Direction words for every vertex of the k-cube, edge-consistent.

    out is stored as a tuple.  _verdict is None until the orientation is
    verified, then whether it has unique sinks; see _require_uso.
    """

    dim: int
    out: tuple[int, ...]
    _verdict: bool | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        _require_cube_dim(self.dim)
        _require_iterable(self.out, "direction table")
        k, out = self.dim, tuple(self.out)
        object.__setattr__(self, "out", out)
        if not _all_ints(out):
            v, w = next((v, w) for v, w in enumerate(out) if type(w) is not int)
            raise ValueError(f"direction word {w!r} at vertex {v} out of range")
        _check_words(k, out)
        _check_edges(k, out)

    def direction(self, v: int, i: int) -> int:
        """Direction bit of the i-edge at v (1 points to the upper facet)."""
        _require_coordinate(i, self.dim)
        _require_vertex(v, self.dim)
        return self.out[v] >> (i - 1) & 1

    def edges(self) -> Iterator[Edge]:
        for i in range(1, self.dim + 1):
            ibit = 1 << (i - 1)
            for v in range(1 << self.dim):
                if not v & ibit:
                    yield Edge(v, i)


def _require_iterable(values, what: str) -> None:
    """Raise ValueError naming what unless values is iterable: the first
    check of a caller's whole table, before any of its words is read."""
    try:
        iter(values)
    except TypeError:
        raise ValueError(f"{what} {values!r} is not iterable") from None


def _require_str(value, what: str) -> None:
    """Raise ValueError naming what unless value is a str: the first check
    of a caller's word or text, before any of its characters is read."""
    if not isinstance(value, str):
        raise ValueError(f"{what} {value!r} is not a str")


def _all_ints(values) -> bool:
    """Whether the type of every value is int, as _is_word tests one: the
    type test of a caller's table where one enters, one pass in C."""
    return {int}.issuperset(map(type, values))


def _is_word(w, n: int) -> bool:
    """Whether w's type is int (so not a bool or another subclass) and w is
    in range(n): the one test of a vertex, word or tile a caller names."""
    return type(w) is int and 0 <= w < n


def _check_words(k: int, out: tuple) -> None:
    """Raise ValueError unless out holds 2^k words in range(2^k).

    One min and max over the table; the first bad word is looked up only
    to name it.
    """
    n = 1 << k
    if len(out) != n:
        raise ValueError(f"expected {n} direction words, got {len(out)}")
    if not 0 <= min(out) <= max(out) < n:
        v, w = next((v, w) for v, w in enumerate(out) if not 0 <= w < n)
        raise ValueError(f"direction word {w} at vertex {v} out of range")


def _consistent(k: int, out) -> Orientation:
    """The orientation of a table whose edges agree by construction: the
    constructor without its edge scan.  _verdict stays None, its default.
    """
    out = tuple(out)
    _check_words(k, out)
    o = object.__new__(Orientation)
    object.__setattr__(o, "dim", k)
    object.__setattr__(o, "out", out)
    return o


def _verified(k: int, out) -> Orientation:
    """The orientation of a table known to have unique sinks, which make the
    ends of every edge agree; born with its verdict."""
    return _keep_verdict(_consistent(k, out), True)


def _check_edges(k: int, out, support=None, what: str = "inconsistent direction of"):
    """Raise ValueError naming the edge of lowest coordinate, then lowest
    vertex, whose endpoints in support (default: all 2^k) disagree on it.
    """
    vertices = range(1 << k) if support is None else sorted(support)
    for i in range(k):
        ibit = 1 << i
        for v in vertices:
            w = v | ibit
            if w != v and (support is None or w in support) and (out[v] ^ out[w]) & ibit:
                raise ValueError(f"{what} the {i + 1}-edge at {_bits(v, k)}")


def canonical_orientation(k: int) -> Orientation:
    """All edges point down; the unique sink is the all-zero vertex."""
    _require_cube_dim(k)
    return _verified(k, (0,) * (1 << k))


def unique_sink(o: Orientation, f: Face):
    """The sink of face f, or "none" / "multiple"."""
    _require_face(f, o.dim)
    sinks = _face_sinks(o.out, f.fixed_values, f.free_mask)
    if len(sinks) == 1:
        return sinks[0]
    return "multiple" if sinks else "none"


@lru_cache(maxsize=None)
def _vertex_words(k: int) -> tuple[int, ...]:
    return tuple(range(1 << k))


def _pairwise_ok(out, k: int) -> bool:
    """Every pair of vertices differs somewhere with equal direction bits."""
    return next(incompatible_pairs(_vertex_words(k), out, k), None) is None


def _face_sinks(out, fixed: int, free: int) -> list[int]:
    """Sinks of the face with these fixed values and free mask, up to two."""
    sinks = []
    sub = free
    while True:
        v = fixed | sub
        if not (out[v] ^ v) & free:
            sinks.append(v)
            if len(sinks) > 1:
                break
        if sub == 0:
            break
        sub = (sub - 1) & free
    return sinks


def is_uso(o: Orientation, method: str = "pairwise") -> bool:
    """Whether every non-empty face has exactly one sink.

    method "pairwise" runs the quadratic vertex-pair test at every k,
    "face-scan" the face-sink recursion over all 3^k faces.  They agree on
    every orientation.  Either test runs on every call; the pairwise
    verdict is also kept.
    """
    if method == "pairwise":
        _keep_verdict(o, _pairwise_ok(o.out, o.dim))
        return o._verdict
    if method == "face-scan":
        return face_sinks_ok(o.out, o.dim)
    raise ValueError(f"unknown method {method!r}")


def _keep_verdict(value, verdict):
    """Record a verification verdict on a frozen Orientation or TileSet."""
    object.__setattr__(value, "_verdict", verdict)
    return value


def _require_uso(o: Orientation) -> None:
    """Raise NotAnUsoError unless o has unique sinks.

    The first call on a value runs the face-sink recursion; later calls
    read the verdict it kept.
    """
    if o._verdict is None:
        _keep_verdict(o, face_sinks_ok(o.out, o.dim))
    if not o._verdict:
        raise NotAnUsoError("input is not a unique sink orientation")


def flippable_edges(o: Orientation) -> set[Edge]:
    """Edges whose endpoints have identical direction words."""
    _require_uso(o)
    found = set()
    for i in range(1, o.dim + 1):
        ibit = 1 << (i - 1)
        for v in range(1 << o.dim):
            if not v & ibit and o.out[v] == o.out[v | ibit]:
                found.add(Edge(v, i))
    return found


def flip_edges(o: Orientation, edges) -> Orientation:
    """Reverse the given edges at both ends.  No unique-sink guarantee."""
    out = list(o.out)
    for e in set(edges):
        check_edge(e, o.dim)
        ibit = 1 << (e.dim - 1)
        out[e.vertex] ^= ibit
        out[e.vertex | ibit] ^= ibit
    return _consistent(o.dim, out)


# ---------------------------------------------------------------------------
# partial orientations


@dataclass(frozen=True, eq=False)
class PartialOrientation:
    """Direction words on a vertex subset.

    Covers exactly the edges with at least one endpoint in the support; a
    cut edge's direction is read off the supported endpoint.  Treat
    instances as immutable.
    """

    dim: int
    support: frozenset[int]
    out: Mapping[int, int]

    def __post_init__(self):
        _require_cube_dim(self.dim)
        n = 1 << self.dim
        if set(self.out) != set(self.support):
            raise ValueError("direction words must cover exactly the support")
        for v in self.support:
            if not _is_word(v, n):
                raise ValueError(f"vertex {v!r} out of range")
            if not _is_word(self.out[v], n):
                raise ValueError(f"direction word at vertex {v} out of range")
        _check_edges(self.dim, self.out, self.support)

    def __eq__(self, other):
        if not isinstance(other, PartialOrientation):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.support == other.support
            and dict(self.out) == dict(other.out)
        )

    @classmethod
    def restrict(cls, o: Orientation, support) -> "PartialOrientation":
        """o on the support.  o is read only at vertices in range; any other
        vertex gets the word None, and the constructor names the vertex."""
        sup = frozenset(support)
        n = len(o.out)
        return cls(o.dim, sup, {v: o.out[v] if _is_word(v, n) else None for v in sup})


def combine(a: PartialOrientation, b: PartialOrientation) -> Orientation:
    """Glue two partial orientations whose supports partition the cube.

    The two sides must agree on the directions of the cut edges.
    """
    if a.dim != b.dim:
        raise DimensionError("dimension mismatch")
    k = a.dim
    if a.support & b.support or len(a.support) + len(b.support) != 1 << k:
        raise ValueError("supports do not partition the vertex set")
    merged = {**a.out, **b.out}
    out = [merged[v] for v in range(1 << k)]
    # each side is consistent on its own, so any disagreement is on the cut
    _check_edges(k, out, what="cut disagreement on")
    return _consistent(k, out)
