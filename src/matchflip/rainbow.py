"""Rainbow cycles: cycles along which every admissible chord appears
exactly r times.

Such a cycle can only use centered flips, so the search runs in the
centered flip graph.  For odd n an exact averaging argument rules out all
cycles without any search; for even n a threshold on r does the same.
Below the threshold the search is exhaustive: a "none" answer means the
full reduced space was explored.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .chords import Chord, Matching, max_length
from .counts import narayana
from .dyck import _unrank_word, orbit_minima, unrank
from .errors import VerificationError
from .flips import Flip, _flip, _in_chords, flip_cells, make_flip
from .graphs import component_census


@lru_cache(maxsize=None)
def admissible_chords(n: int) -> tuple[Chord, ...]:
    """All n^2 chords with odd span, in lexicographic order."""
    return tuple((a, b) for a in range(1, 2 * n + 1)
                 for b in range(a + 1, 2 * n + 1) if (b - a) % 2)


@lru_cache(maxsize=None)
def _chord_index(n: int) -> dict[Chord, int]:
    return {c: i for i, c in enumerate(admissible_chords(n))}


class RainbowResult(NamedTuple):
    n: int
    r: int
    status: str                     # "found" | "none" | "budget"
    reason: str | None = None       # for "none": why nothing can exist
    certificate: dict | None = None
    start: Matching | None = None
    cycle: tuple[Flip, ...] | None = None
    expanded: int = 0

    @property
    def length(self) -> int | None:
        return len(self.cycle) if self.cycle is not None else None


def nonexistence_bound(n: int) -> Fraction:
    """Exact r threshold for even n: above it no r-rainbow cycle exists."""
    if n % 2:
        raise ValueError("the threshold applies to even n only")
    from fractions import Fraction      # not at import: it loads decimal
    return Fraction(2 * narayana(1, n, n // 2), n * n)


def odd_average_certificate(n: int) -> dict:
    """Exact averaging certificate ruling out all rainbow cycles, odd n.

    The mean length over all admissible chords strictly exceeds the mean
    length of the four chords of any flip, but a rainbow cycle would force
    these two means to agree.
    """
    if n % 2 == 0:
        raise ValueError("the averaging certificate applies to odd n only")
    mu = max_length(n)
    total = sum(c * 2 * n for c in range(mu)) + mu * n
    from fractions import Fraction
    return {"average_chord_length": Fraction(total, n * n),
            "max_flip_average_length": Fraction(n - 2, 4)}


def _candidate_rows(n: int, ranks) -> Iterator[list[tuple]]:
    """_candidates of each rank in turn, from one flip_cells stream."""
    idx = _chord_index(n)
    words = ((_unrank_word(n, v), v) for v in ranks)
    for cells in flip_cells(n, words, centered_only=True):
        out = []
        for target, _, a, b, c, d in cells:
            e, f = (a, b), (c, d)
            g, h = _in_chords(e, f)
            key = tuple(sorted((idx[g], idx[h])))
            out.append((key, target, idx[e], idx[f], idx[g], idx[h], e, f))
        out.sort()
        yield [t[1:] for t in out]


def _candidates(n: int, rank_: int) -> list[tuple]:
    """Centered flips out of one vertex: (target, in-key, out1, out2)."""
    return next(_candidate_rows(n, (rank_,)))


class _Budget(Exception):
    pass


class _Search:
    """Depth-first search for one fixed (n, r) over one component.

    How often each admissible chord has vanished (fields 0..n^2-1) and
    appeared (fields n^2..2n^2-1) is packed into one int, w =
    r.bit_length() + 1 bits per field.  Every field starts at
    2^(w-1) - 1 - r, so a count above r sets its top bit and one
    (state + inc) & guard tests all four chords of a flip.  A flip adds at
    most 1 to a field whose top bit is clear, so no carry crosses fields.
    """

    def __init__(self, n: int, r: int, length: int, budget: int):
        self.n = n
        self.r = r
        self.length = length
        self.budget = budget
        self.expanded = 0
        self.minima = orbit_minima(n, mirrors=False)

    def run(self, comp: list[int]) -> tuple[list[tuple[Chord, Chord]], int] | None:
        n, length, budget = self.n, self.length, self.budget
        nn = n * n
        w = self.r.bit_length() + 1
        field = [1 << (w * i) for i in range(2 * nn)]
        ones = sum(field)           # a 1 in every field
        top = 1 << (w - 1)
        guard = top * ones
        fill = (top - 1 - self.r) * ones
        # per vertex, (target, inc) in _candidates order; a flip is fixed
        # by the two matchings it joins, so a hit's walk names its flips
        cand: list[tuple] = [()] * (max(comp) + 1)
        for v, row in zip(comp, _candidate_rows(n, comp)):
            cand[v] = tuple((t, field[ie] + field[if_] + field[nn + ig]
                             + field[nn + ih])
                            for t, ie, if_, ig, ih, _, _ in row)
        visited = bytearray(len(cand))
        expanded = self.expanded

        def dfs(at: int, state: int, left: int) -> list | None:
            # left = flips still to take after this one; the walk comes
            # back reversed
            nonlocal expanded
            if expanded >= budget:
                raise _Budget
            expanded += 1
            if not left:
                for target, inc in cand[at]:
                    if target == start and not (state + inc) & guard:
                        return [start, at]
                return None
            for target, inc in cand[at]:
                if target <= start or visited[target]:
                    continue
                nxt = state + inc
                if nxt & guard:
                    continue
                visited[target] = 1
                walk = dfs(target, nxt, left - 1)
                if walk is not None:
                    walk.append(at)
                    return walk
                visited[target] = 0
            return None

        try:
            for start in comp:
                if self.minima[start]:
                    walk = dfs(start, fill, length - 1)
                    if walk is not None:
                        walk.reverse()
                        return [next((e, f) for t, _, _, _, _, e, f
                                     in _candidates(n, u) if t == v)
                                for u, v in zip(walk, walk[1:])], start
        finally:
            self.expanded = expanded
            dfs = None      # dfs refers to itself; unbind it to free cand now
        return None


def find_rainbow_cycle(n: int, r: int, budget: int = 10 ** 9,
                       force_search: bool = False, threads: int = 1,
                       mem_budget: int | None = None) -> RainbowResult:
    """Search for an r-rainbow cycle on 2n points.

    A "none" result is a proof: either a closed-form certificate (see the
    reason field) or an exhausted search of every big-enough component.
    For odd n the averaging certificate answers immediately unless
    force_search asks for the explicit search.  Budget counts node
    expansions; running out gives status "budget", never "none".  The
    centered graph's components come from component_census, with threads
    and mem_budget, and only once no certificate has answered; no flip
    graph is built.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if r < 1:
        raise ValueError("r must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if n % 2 and not force_search:
        return RainbowResult(n, r, "none", "average-length",
                             odd_average_certificate(n))
    if (r * n * n) % 2:
        return RainbowResult(n, r, "none", "parity",
                             {"twice_length": r * n * n})
    length = r * n * n // 2
    if n % 2 == 0 and r * n * n > 2 * narayana(1, n, n // 2):
        # r > nonexistence_bound(n), tested in integers
        return RainbowResult(
            n, r, "none", "threshold",
            {"threshold": nonexistence_bound(n),
             "max_component_bound": narayana(1, n, n // 2)})
    census = component_census(n, "centered", threads, mem_budget)
    searcher = _Search(n, r, length, budget)
    searched_any = False
    comps = census.components()
    try:
        for comp in comps:
            if len(comp) < length:
                continue
            if census.component_edge_count(comp) == len(comp) - 1:
                continue        # a tree has no cycles at all
            searched_any = True
            hit = searcher.run(comp)
            if hit is not None:
                path, start_rank = hit
                start = unrank(n, start_rank)
                flips = [make_flip(n, e, f) for e, f in path]
                ok, why = verify_rainbow(n, r, start, flips)
                if not ok:
                    raise VerificationError(f"found cycle fails replay: {why}")
                return RainbowResult(n, r, "found", start=start,
                                     cycle=tuple(flips),
                                     expanded=searcher.expanded)
    except _Budget:
        return RainbowResult(n, r, "budget", expanded=searcher.expanded)
    if searched_any:
        return RainbowResult(n, r, "none", "exhausted",
                             expanded=searcher.expanded)
    # nothing was searchable: every component with a cycle is too small
    largest_cyclic = max((len(c) for c in comps
                          if census.component_edge_count(c) >= len(c)),
                         default=0)
    return RainbowResult(n, r, "none", "component-size",
                         {"required_length": length,
                          "largest_cyclic_component": largest_cyclic},
                         expanded=searcher.expanded)


def verify_rainbow(n: int, r: int, start: Matching,
                   flips) -> tuple[bool, str]:
    """Replay a purported r-rainbow cycle and check every condition."""
    if start.n != n:
        raise ValueError("start matching size does not match n")
    flips = list(flips)
    if 2 * len(flips) != r * n * n:
        return False, (f"length {len(flips)} != r*n^2/2 = {r * n * n}/2")
    appear: dict[Chord, int] = {}
    vanish: dict[Chord, int] = {}
    partner = list(start._partner)
    seen = {start._partner}
    for i, fl in enumerate(flips):
        try:
            got = _flip(n, partner, fl.out1, fl.out2)
        except ValueError as exc:
            return False, f"flip {i} not applicable: {exc}"
        if not (fl.centered and got.centered):
            return False, f"flip {i} is not a centered flip"
        if {fl.in1, fl.in2} != {got.in1, got.in2}:
            return False, f"flip {i} records wrong incoming chords"
        for c in (fl.out1, fl.out2):
            vanish[c] = vanish.get(c, 0) + 1
        for c in (fl.in1, fl.in2):
            appear[c] = appear.get(c, 0) + 1
        if i + 1 < len(flips):
            if tuple(partner) in seen:
                return False, f"vertex repeated after flip {i}"
            seen.add(tuple(partner))
    if tuple(partner) != start._partner:
        return False, "cycle does not close"
    for c in admissible_chords(n):
        if appear.get(c, 0) != r:
            return False, f"chord {c} appears {appear.get(c, 0)} != {r} times"
        if vanish.get(c, 0) != r:
            return False, f"chord {c} disappears {vanish.get(c, 0)} != {r} times"
    return True, "ok"
