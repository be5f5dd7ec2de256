"""Non-crossing perfect matchings of 2n points on a circle.

Points are labeled 1..2n clockwise.  A chord is a sorted pair (a, b) with
odd span b-a; a matching is a set of n pairwise non-crossing chords covering
every point.  Everything here is exact integer combinatorics: arc lengths,
hidden points, visibility from the circle center, and (for even n) signed
edge weights.  No floating point is used outside the test-only oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

Chord = tuple[int, int]


def make_chord(n: int, a: int, b: int) -> Chord:
    """Validate and normalize a chord on 2n points.

    Endpoints must be distinct labels in 1..2n with odd span, since an
    admissible chord must leave an even number of points on each side.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= a <= 2 * n and 1 <= b <= 2 * n):
        raise ValueError(f"chord endpoints {a},{b} out of range 1..{2 * n}")
    if a == b:
        raise ValueError("chord endpoints must be distinct")
    if a > b:
        a, b = b, a
    if (b - a) % 2 == 0:
        raise ValueError(f"chord ({a},{b}) has even span; it can never occur "
                         "in a perfect non-crossing matching")
    return (a, b)


def chord_length(n: int, e: Chord) -> int:
    """Number of matching edges on the smaller side of e.

    Equals min(d-1, 2n-d-1)/2 for span d; 0 exactly for perimeter edges.
    """
    a, b = e
    d = b - a
    return min(d - 1, 2 * n - d - 1) // 2


def max_length(n: int) -> int:
    """Largest chord length occurring in any matching: ceil((n-2)/2) for n >= 2."""
    if n < 2:
        return 0
    return (n - 1) // 2 if n % 2 else (n - 2) // 2


def _hides_fast(n: int, a: int, b: int, p: int) -> bool:
    # p strictly inside the minority arc of the chord (a, b), a < b, that
    # is, the ray from the center to p crosses it; p is not an endpoint,
    # and a diameter hides nothing
    d = b - a
    if d < n:
        return a < p < b
    if d == n:
        return False
    return p < a or p > b


def opening_endpoint(n: int, e: Chord) -> int:
    """Endpoint whose clockwise successor arc is the minority side of e.

    Orienting e from this endpoint to the other puts the circle center on
    the right of the ray.  Undefined for diameters (raises).
    """
    a, b = e
    d = b - a
    if d == n:
        raise ValueError(f"chord {e} is a diameter; it has no minority side")
    return a if d < n else b


class Matching:
    """An immutable non-crossing perfect matching on 2n circle points."""

    __slots__ = ("n", "pairs", "_partner", "_hash")

    def __init__(self, n: int, pairs: Iterable[Iterable[int]]):
        chords = tuple(sorted(make_chord(n, *p) for p in pairs))
        if len(chords) != n:
            raise ValueError(f"expected {n} chords, got {len(chords)}")
        partner = [0] * (2 * n + 1)
        for a, b in chords:
            if partner[a] or partner[b]:
                raise ValueError(f"point {a if partner[a] else b} used twice")
            partner[a] = b
            partner[b] = a
        # non-crossing check: balanced-parenthesis scan over openers/closers
        stack: list[int] = []
        for x in range(1, 2 * n + 1):
            if partner[x] > x:
                stack.append(x)
            elif not stack or stack[-1] != partner[x]:
                raise ValueError(f"chords {(partner[x], x)} and "
                                 f"({stack[-1]},{partner[stack[-1]]}) cross")
            else:
                stack.pop()
        self.n = n
        self.pairs = chords
        self._partner = tuple(partner)
        self._hash = hash((n, chords))

    @classmethod
    def _from_partner(cls, n: int, partner: Iterable[int]) -> "Matching":
        # fast path for internally generated, already-valid matchings
        self = object.__new__(cls)
        pt = tuple(partner)
        self.n = n
        self._partner = pt
        self.pairs = tuple((x, pt[x]) for x in range(1, 2 * n + 1) if pt[x] > x)
        self._hash = hash((n, self.pairs))
        return self

    def to_text(self) -> str:
        return ",".join(f"{a}-{b}" for a, b in self.pairs)

    def __contains__(self, chord) -> bool:
        a, b = chord
        if a > b:
            a, b = b, a
        return 1 <= a <= 2 * self.n and self._partner[a] == b

    def __iter__(self) -> Iterator[Chord]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matching)
                and self.n == other.n and self.pairs == other.pairs)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Matching({self.n}, {self.to_text()!r})"


def perimeter_matching(n: int, shifted: bool = False) -> Matching:
    """One of the two all-perimeter matchings.

    shifted=False gives {1,2},{3,4},...; shifted=True the rotation by one
    point {2,3},{4,5},...,{2n,1}.  For even n these are the all-positive and
    all-negative matchings.
    """
    if shifted:
        pairs = [(2 * i, 2 * i + 1) for i in range(1, n)] + [(1, 2 * n)]
    else:
        pairs = [(2 * i - 1, 2 * i) for i in range(1, n + 1)]
    return Matching(n, pairs)


def perimeter_edge_count(m: Matching) -> int:
    """Number of edges of length 0."""
    return sum(1 for e in m.pairs if chord_length(m.n, e) == 0)


def diameter_chord(m: Matching) -> Chord | None:
    """The chord through the center, if present (odd n only)."""
    n = m.n
    for a in range(1, n + 1):
        if m._partner[a] == a + n:
            return (a, a + n)
    return None


def visible_edges(m: Matching) -> list[Chord]:
    """Edges whose endpoints are reachable by uncrossed rays from the center.

    A diameter chord is itself not visible and is ignored when deciding the
    visibility of the other edges.  Returned sorted.
    """
    return _visible(m.n, m.pairs)


def _visible(n: int, pairs: Sequence[Chord]) -> list[Chord]:
    # visible_edges of the matching whose sorted chords are pairs
    out = []
    for e in pairs:
        a, b = e
        if b - a == n:
            continue
        vis = True
        for f in pairs:
            if f is e or f[1] - f[0] == n:
                continue
            if _hides_fast(n, f[0], f[1], a):
                vis = False
                break
        if vis:
            out.append(e)
    return out


def hidden_behind(m: Matching, e: Chord) -> list[Chord]:
    """Edges of m with both endpoints strictly inside the minority arc of e."""
    n = m.n
    a, b = e
    if e not in m:
        raise ValueError(f"{e} is not an edge of the matching")
    if b - a == n:
        return []
    return [f for f in m.pairs
            if f != (a, b) and _hides_fast(n, a, b, f[0])]


def segment(m: Matching, e: Chord) -> tuple[list[Chord], list[Chord]]:
    """(segment of e, segment minus e): e plus everything hidden behind it.

    e must be visible in m; the segments taken over all visible edges
    partition the matching.
    """
    if e not in m:
        raise ValueError(f"{e} is not an edge of the matching")
    if e not in visible_edges(m):
        raise ValueError(f"{e} is not visible in the matching")
    rest = hidden_behind(m, e)
    return sorted([tuple(e)] + rest), sorted(rest)


def chord_sign(n: int, e: Chord) -> int:
    """+1 or -1 for a chord on an even number of edges.

    Orient e as (i, j) with strictly fewer points on the clockwise arc from
    i to j (the circle center then sits right of the ray i->j); the sign is
    +1 when i is odd.  Defined for even n only, where no diameters exist.
    """
    if n % 2:
        raise ValueError("signs are defined for even n only")
    i = opening_endpoint(n, e)
    return 1 if i % 2 else -1


def weight(m: Matching) -> int:
    """Sum of sign * length over all edges; even n only."""
    if m.n % 2:
        raise ValueError("weights are defined for even n only")
    from .dyck import _weight, to_dyck    # dyck imports this module
    return _weight(m.n, to_dyck(m))


def is_centrally_symmetric(m: Matching) -> bool:
    """True iff the matching is fixed by point reflection through the center."""
    from .dyck import _symmetric, to_dyck
    return _symmetric(m.n, to_dyck(m))
