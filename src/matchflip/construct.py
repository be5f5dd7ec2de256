"""Explicit centered-flip routes through the flip graph, for odd n.

Two constructions: a reduction that walks any matching down to one of the
two all-perimeter matchings in at most 4n-11 centered flips, and a direct
path of exactly 3n-7 centered flips between the two all-perimeter
matchings themselves.  The reduction steps one partner list with
flips._flip, so each of its flips is checked as it is made and a bad one
raises ValueError; the swap path is only recorded.  Either route is a
proof only once the caller has replayed it from its start with
flips.replay.
"""

from __future__ import annotations

from .chords import (Chord, Matching, _hides_fast, _visible, chord_length,
                     diameter_chord, opening_endpoint)
from .errors import VerificationError
from .flips import Flip, _flip, flippable_pairs, make_flip


def _arc_contains(x: int, y: int, u: int) -> bool:
    # u strictly inside the clockwise arc x -> y
    if x < y:
        return x < u < y
    return u > x or u < y


def _anti(n: int, x: int) -> int:
    return (x + n - 1) % (2 * n) + 1


def _refl(n: int, r: int, x: int) -> int:
    # reflection through the axis that runs through point r (and r + n)
    return (2 * r - x - 1) % (2 * n) + 1


def _refl_chord(n: int, r: int, e: Chord) -> Chord:
    a, b = _refl(n, r, e[0]), _refl(n, r, e[1])
    return (a, b) if a < b else (b, a)


def _sorted(a: int, b: int) -> Chord:
    return (a, b) if a < b else (b, a)


def _pairs(partner: list[int]) -> list[Chord]:
    # the chords of a partner list, sorted as Matching.pairs
    return [(x, y) for x, y in enumerate(partner) if y > x]


def _reduce_batch(n: int, partner: list[int]) -> list[Flip]:
    """One visibility-increasing batch of 3 or 4 centered flips, stepped
    on partner.

    Precondition: the matching has no diameter edge and at least one
    non-perimeter edge.  The batch removes a longest edge; the result has
    strictly more visible edges and again no diameter edge.
    """
    pairs = _pairs(partner)
    # longest edge (always visible); ties broken toward the least smaller
    # endpoint
    a = max(pairs, key=lambda e: (chord_length(n, e), -e[0]))
    vis = set(_visible(n, pairs))
    p = opening_endpoint(n, a)
    xstar = {_anti(n, x) for x in range(1, 2 * n + 1)
             if x not in a and _hides_fast(n, a[0], a[1], x)}
    # the partner edge: visible, with an endpoint in the reflected shadow;
    # take the qualifying endpoint first clockwise after the antipode of p
    pstar = _anti(n, p)
    r = None
    for off in range(1, 2 * n):
        pt = (pstar - 1 + off) % (2 * n) + 1
        if pt in xstar and _sorted(pt, partner[pt]) in vis:
            r = pt
            break
    if r is None:
        raise VerificationError(
            f"no visible edge reaches the reflected shadow of {a}")
    rstar = _anti(n, r)
    if _arc_contains(rstar, r, partner[r]):
        return _batch_core(n, partner, a, r)
    # mirror image: run the batch on a reflected copy, then step the
    # reflected-back flips on partner
    refl = [0] * (2 * n + 1)
    for x in range(1, 2 * n + 1):
        refl[_refl(n, r, x)] = _refl(n, r, partner[x])
    return [_flip(n, partner, _refl_chord(n, r, rf.out1),
                  _refl_chord(n, r, rf.out2))
            for rf in _batch_core(n, refl, _refl_chord(n, r, a), r)]


def _batch_core(n: int, partner: list[int], a: Chord, r: int) -> list[Flip]:
    # assumes the mirror normalization: partner of r on the clockwise side
    # of the axis through r
    p = opening_endpoint(n, a)
    q = a[0] if p == a[1] else a[1]
    rstar = _anti(n, r)
    bprime = _sorted(q, partner[r])
    f1 = _flip(n, partner, a, _sorted(r, partner[r]))
    b = _sorted(p, r)

    # edges straddling the axis through r; all live in the shadow of a and
    # form a nested chain around the antipode of r
    crossing = [e for e in _pairs(partner)
                if r not in e and rstar not in e
                and _arc_contains(r, rstar, e[0]) != _arc_contains(r, rstar, e[1])]
    crossing.sort(key=lambda e: -chord_length(n, e))

    if not crossing:
        f2 = _flip(n, partner, b, _sorted(rstar, partner[rstar]))
        f3 = _flip(n, partner, _sorted(r, rstar), bprime)
        return [f1, f2, f3]

    c = crossing[0]
    u = c[0] if opening_endpoint(n, c) == c[1] else c[1]
    f2 = _flip(n, partner, b, c)
    e_edge = (crossing[1] if len(crossing) > 1
              else _sorted(rstar, partner[rstar]))
    f3 = _flip(n, partner, _sorted(r, u), e_edge)
    f4 = _flip(n, partner, _sorted(r, opening_endpoint(n, e_edge)), bprime)
    return [f1, f2, f3, f4]


def canonical_flip_sequence(m: Matching) -> list[Flip]:
    """Centered flips from m to an all-perimeter matching; odd n only.

    At most 4n-11 flips: one to remove a center edge if present, then
    batches of at most 4 that each gain a visible edge.  Which of the two
    all-perimeter matchings is reached depends on m.  The flips are made
    on one partner list and checked as they are made; callers still prove
    the route by replaying it from m.
    """
    n = m.n
    if n % 2 == 0:
        raise ValueError("the reduction is defined for odd n only")
    if n < 3:
        raise ValueError("n must be >= 3")
    seq: list[Flip] = []
    partner = list(m._partner)
    diam = diameter_chord(m)
    if diam is not None:
        other = next((f if e == diam else e for e, f in flippable_pairs(m)
                      if diam in (e, f)), None)
        if other is None:
            raise VerificationError(f"center edge {diam} has no flip")
        seq.append(_flip(n, partner, diam, other))
    while any(chord_length(n, e) > 0 for e in _pairs(partner)):
        seq.extend(_reduce_batch(n, partner))
    return seq


def _lift_chord(n: int, e: Chord) -> Chord:
    # embed the (n-2)-instance: skip old points 1,2 and n+1,n+2
    def lift(x: int) -> int:
        return x + 2 if x <= n - 2 else x + 4
    return _sorted(lift(e[0]), lift(e[1]))


def perimeter_swap_path(n: int) -> list[Flip]:
    """Exactly 3n-7 centered flips from one all-perimeter matching to the
    other; odd n only.

    Three flips park the pair on points 1,2 and n+1,n+2, the instance two
    sizes smaller is solved recursively in between, and three flips undo
    the parking with the opposite alignment.  Nothing is replayed here:
    callers prove the path by replaying it from perimeter_matching(n).
    """
    if n % 2 == 0:
        raise ValueError("the path is defined for odd n only")
    if n < 3:
        raise ValueError("n must be >= 3")
    if n == 3:
        return [make_flip(3, (1, 2), (3, 4)), make_flip(3, (1, 4), (5, 6))]
    lifted = [make_flip(n, _lift_chord(n, fl.out1), _lift_chord(n, fl.out2))
              for fl in perimeter_swap_path(n - 2)]
    return ([make_flip(n, (1, 2), (n, n + 1)),
             make_flip(n, (1, n + 1), (n + 2, n + 3)),
             make_flip(n, (1, n + 3), (2, n))]
            + lifted
            + [make_flip(n, (n + 1, n + 2), (3, 2 * n)),
               make_flip(n, (1, 2), (n + 2, 2 * n)),
               make_flip(n, (3, n + 1), (2, n + 2))])
