"""Flips between non-crossing matchings.

Two edges spanning an empty quadrilateral can be exchanged for the other
pair of opposite sides.  A flip is "centered" when the quadrilateral
contains the circle center, decided here by the exact integer criterion:
the four side lengths sum to n-2 (any smaller sum means non-centered; a
center on the quadrilateral boundary still counts as centered).

On balanced words a flip is a transposition of two letters, so the rank
of every neighbour follows from the current rank in O(1).  flip_cells
below is the one code that lists a matching's flips: graph builds, the
rainbow search, flippable_pairs and neighbors all read it.  It is a
pass over a stream of (word, rank) pairs that keeps its state between
words, so each word redoes only the letters after the prefix it shares
with the one before, after undoing the previous word's letters there.
_is_flippable, is_centered, apply_flip and replay decide a single flip
from the chords instead, and so check routes independently of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .chords import Chord, Matching, chord_length, make_chord
from .dyck import _d_terms, rank, to_dyck, unrank


@dataclass(frozen=True)
class Flip:
    """One flip: edges out1,out2 leave the matching, in1,in2 enter."""

    out1: Chord
    out2: Chord
    in1: Chord
    in2: Chord
    centered: bool

    def reversed(self) -> "Flip":
        return Flip(self.in1, self.in2, self.out1, self.out2, self.centered)


def _in_chords(e: Chord, f: Chord) -> tuple[Chord, Chord]:
    """The opposite pair of quadrilateral sides, for non-interleaved e, f."""
    p1, p2, p3, p4 = sorted(e + f)
    es = frozenset(e)
    if es in (frozenset((p1, p2)), frozenset((p3, p4))):
        return (p2, p3), (p1, p4)
    if es in (frozenset((p1, p4)), frozenset((p2, p3))):
        return (p1, p2), (p3, p4)
    raise ValueError(f"chords {e} and {f} interleave; no quadrilateral")


def is_centered(n: int, e: Chord, f: Chord) -> bool:
    """True iff the quadrilateral spanned by e and f contains the center."""
    e = make_chord(n, *e)
    f = make_chord(n, *f)
    if set(e) & set(f):
        raise ValueError(f"chords {e} and {f} share an endpoint")
    in1, in2 = _in_chords(e, f)
    total = (chord_length(n, e) + chord_length(n, f)
             + chord_length(n, in1) + chord_length(n, in2))
    return total == n - 2


def _arc_contains(x: int, y: int, u: int) -> bool:
    # u strictly inside the clockwise arc x -> y
    if x < y:
        return x < u < y
    return u > x or u < y


def _is_flippable(n: int, partner, e: Chord, f: Chord) -> bool:
    """Direct test: no edge has one endpoint in each connecting arc."""
    p1, p2, p3, p4 = sorted(e + f)
    es = frozenset(e)
    if es in (frozenset((p1, p2)), frozenset((p3, p4))):
        arc1, arc2 = (p2, p3), (p4, p1)
    elif es in (frozenset((p1, p4)), frozenset((p2, p3))):
        arc1, arc2 = (p1, p2), (p3, p4)
    else:
        return False
    for u in range(1, 2 * n + 1):
        if _arc_contains(*arc1, u) and _arc_contains(*arc2, partner[u]):
            return False
    return True


@lru_cache(maxsize=None)
def _span_lengths(n: int) -> tuple[int, ...]:
    # chord_length by span b - a, for spans 1..2n-1
    return (0,) + tuple(min(s - 1, 2 * n - s - 1) // 2
                        for s in range(1, 2 * n))


def flip_cells(n: int, words: Iterable[tuple[str, int]],
               centered_only: bool = False) -> Iterator[list[tuple]]:
    """Every flip of each word in a stream of (balanced word, rank) pairs.

    Yields, per pair and in stream order, a list of (target rank,
    centered, a, b, c, d): (a, b) and (c, d), a < c, are the two chords
    that leave, as 1-based points.  Each word must be a balanced word of
    length 2n and each rank its rank; the stream may be in any order and
    may repeat words.  centered_only drops the other flips.  A list is
    unordered.  One word is a one-pair stream.

    Two chords span an empty quadrilateral exactly when they are parent
    and child or siblings in the nesting forest of the matching's chords
    (a virtual root makes all outermost chords mutual siblings), so the
    pass keeps, per open chord, the children closed inside it so far, and
    at each D pairs the closed chord with them and with its earlier
    siblings.  With p1 < p2 < p3 < p4 the endpoints as
    0-based positions, a flip transposes two letters of the word:
      siblings (p1,p2), (p3,p4) -> (p2,p3), (p1,p4): p2 turns D->U and p3
        U->D, and every letter strictly between them rises by 2;
      parent (p1,p4), child (p2,p3) -> (p1,p2), (p3,p4): p2 turns U->D and
        p3 D->U, and every letter strictly between them drops by 2.
    The rank is the sum of c(i, h) over D positions i with height h before
    them (dyck._d_terms), so with h_i the height before position i
      siblings:     delta = -c(p2, h2) + c(p3, h3 + 2) + S+
      parent-child: delta = +c(p2, h2) - c(p3, h3)     + S-
    where S+ and S- sum c(i, h_i + 2) - c(i, h_i) and c(i, h_i - 2) - c(i, h_i)
    over the Ds strictly between p2 and p3.  One left-to-right pass keeps
    both as prefix sums, so S- is a difference taken when the child closes
    and S+ splits into a part known when the first sibling closes and one
    known when the second opens: O(1) per flip.  The flip is centered iff
    the lengths of the four sides, looked up by span, sum to n - 2.

    A flip is emitted at the D of its later chord and depends on the
    letters up to it only, and its delta does not depend on the rank, so
    the pass keeps its state between words: at every position it records
    k, S+, S- and the number of flips emitted before it.  A new word
    keeps the prefix it shares with the previous one (found from the XOR
    of the two words read as integers) and redoes only the letters after
    it.  First the previous word's letters after the prefix are undone,
    right to left: a U pops the open-chord stack; a D pops the sibling
    entry it added to the enclosing chord and pushes back the entry it
    closed.  Then the flips emitted after the prefix are dropped and the
    forward pass runs over the new suffix.
    """
    c = _d_terms(n)
    span = _span_lengths(n)
    stride = n + 3
    goal = n - 2
    n2 = 2 * n
    cells: list[tuple] = []     # (delta, centered, a, b, c, d) of the word
    # open chords: (opener, its index into c, S+ and S- prefixes at the
    # opener, closed children as (p1, p2, sibling part, parent-child delta))
    stack: list[tuple] = [(0, 0, 0, 0, [])]
    at = [(0, 0, 0, 0)] * (n2 + 1)  # (k, su, sd, len(cells)) before i
    closed_by = [None] * n2         # the entry the D at i popped
    prev, prev_key = "", 0
    for word, rank in words:
        key = int.from_bytes(word.encode(), "big")
        p = n2 - ((key ^ prev_key).bit_length() + 7) // 8
        for i in range(len(prev) - 1, p - 1, -1):
            if prev[i] == "U":
                stack.pop()
            else:
                stack[-1][4].pop()
                stack.append(closed_by[i])
        # k = i * stride + height before position i
        k, su, sd, m = at[p]
        del cells[m:]
        for i in range(p, n2):
            at[i] = (k, su, sd, len(cells))
            if word[i] == "U":
                stack.append((i, k, su, sd, []))
                k += stride + 1
                continue
            closed_by[i] = entry = stack.pop()
            j, kj, su_j, sd_j, kids = entry
            ck = c[k]
            side = span[i - j]
            for p2, p3, _, delta in kids:
                cen = (side + span[p2 - j] + span[p3 - p2]
                       + span[i - p3]) == goal
                if cen or not centered_only:
                    cells.append((delta, cen, j + 1, i + 1, p2 + 1, p3 + 1))
            siblings = stack[-1][4]
            opened = c[kj + 2] + su_j
            for p1, p2, closed, _ in siblings:
                cen = (side + span[p2 - p1] + span[j - p2]
                       + span[i - p1]) == goal
                if cen or not centered_only:
                    cells.append((closed + opened, cen,
                                  p1 + 1, p2 + 1, j + 1, i + 1))
            delta = c[kj] - ck + sd - sd_j
            # c(i, h - 2) only counts inside a child, where h >= 3
            su += c[k + 2] - ck
            sd += c[k - 2] - ck
            siblings.append((j, i, -ck - su, delta))
            k += stride - 1
        at[n2] = (k, su, sd, len(cells))
        prev, prev_key = word, key
        yield [(rank + d, cen, a, b, x, y) for d, cen, a, b, x, y in cells]


def flippable_pairs(m: Matching) -> list[tuple[Chord, Chord]]:
    """Unordered edge pairs of m that admit a flip, sorted canonically."""
    return sorted(((a, b), (c, d)) for _, _, a, b, c, d
                  in next(flip_cells(m.n, [(to_dyck(m), 0)])))


def make_flip(n: int, e: Chord, f: Chord) -> Flip:
    """Build the Flip record for a pair (no matching-level validation)."""
    e = make_chord(n, *e)
    f = make_chord(n, *f)
    in1, in2 = _in_chords(e, f)
    return Flip(e, f, in1, in2, is_centered(n, e, f))


def apply_flip(m: Matching, e: Chord, f: Chord) -> Matching:
    """Flip edges e and f of m; raises if the pair is not flippable."""
    n = m.n
    e = make_chord(n, *e)
    f = make_chord(n, *f)
    if e not in m or f not in m:
        raise ValueError(f"{e} and {f} must both be edges of the matching")
    if e == f:
        raise ValueError("cannot flip an edge with itself")
    if not _is_flippable(n, m._partner, e, f):
        raise ValueError(f"pair {e}, {f} is blocked; quadrilateral not empty")
    in1, in2 = _in_chords(e, f)
    pairs = [c for c in m.pairs if c != e and c != f] + [in1, in2]
    return Matching(n, pairs)


def replay(m: Matching, flips) -> Matching:
    """Apply a flip sequence, validating each step; returns the endpoint."""
    cur = m
    for fl in flips:
        nxt = apply_flip(cur, fl.out1, fl.out2)
        if not (fl.in1 in nxt and fl.in2 in nxt):
            raise ValueError(f"flip {fl} recorded wrong in-chords")
        if fl.centered != is_centered(m.n, fl.out1, fl.out2):
            raise ValueError(f"flip {fl} recorded wrong centeredness")
        cur = nxt
    return cur


def neighbors(m: Matching, mode: str = "all") -> list[Matching]:
    """Matchings one flip away, in rank order (as FlipGraph.neighbors).

    mode="centered" keeps only centered flips.
    """
    if mode not in ("all", "centered"):
        raise ValueError(f"unknown mode {mode!r}")
    cells = next(flip_cells(m.n, [(to_dyck(m), rank(m))], mode == "centered"))
    return [unrank(m.n, r) for r in sorted(cell[0] for cell in cells)]
