"""Rainbow cycles: cycles along which every admissible chord appears
exactly r times.

Such a cycle can only use centered flips, so the search runs in the
centered flip graph.  For odd n an exact averaging argument rules out all
cycles without any search; for even n a threshold on r does the same.
Below the threshold the search is exhaustive: a "none" answer means the
full reduced space was explored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chords import Chord, Matching, max_length
from .counts import narayana
from .dyck import _unrank_word, orbit_ranks, unrank
from .errors import VerificationError
from .flips import (Flip, _in_chords, apply_flip, flip_cells, is_centered,
                    make_flip)
from .graphs import FlipGraph, build_flip_graph


@lru_cache(maxsize=None)
def admissible_chords(n: int) -> tuple[Chord, ...]:
    """All n^2 chords with odd span, in lexicographic order."""
    return tuple((a, b) for a in range(1, 2 * n + 1)
                 for b in range(a + 1, 2 * n + 1) if (b - a) % 2)


@lru_cache(maxsize=None)
def _chord_index(n: int) -> dict[Chord, int]:
    return {c: i for i, c in enumerate(admissible_chords(n))}


@dataclass(frozen=True)
class RainbowResult:
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
    return {"average_chord_length": Fraction(total, n * n),
            "max_flip_average_length": Fraction(n - 2, 4)}


def _candidates(n: int, rank_: int) -> list[tuple]:
    """Centered flips out of one vertex: (target, in-key, out1, out2)."""
    idx = _chord_index(n)
    out = []
    for target, _, a, b, c, d in flip_cells(n, _unrank_word(n, rank_), rank_,
                                            centered_only=True):
        e, f = (a, b), (c, d)
        g, h = _in_chords(e, f)
        key = tuple(sorted((idx[g], idx[h])))
        out.append((key, target, idx[e], idx[f], idx[g], idx[h], e, f))
    out.sort()
    return [t[1:] for t in out]


class _Budget(Exception):
    pass


class _Search:
    """Depth-first search for one fixed (n, r) over one component."""

    def __init__(self, n: int, r: int, length: int, budget: int):
        self.n = n
        self.r = r
        self.length = length
        self.budget = budget
        self.expanded = 0
        self.n_chords = n * n

    def run(self, comp: list[int]) -> tuple[list[tuple[Chord, Chord]], int] | None:
        cand = {v: _candidates(self.n, v) for v in comp}
        for start in comp:
            if not self._orbit_minimal(start):
                continue
            appear = [0] * self.n_chords
            vanish = [0] * self.n_chords
            self.start = start
            self.cand = cand
            self.visited = {start}
            self.path: list[tuple[Chord, Chord]] = []
            if self._dfs(start, 0, appear, vanish):
                return self.path, start
        return None

    def _orbit_minimal(self, v: int) -> bool:
        return all(r >= v for r in orbit_ranks(_unrank_word(self.n, v),
                                                mirrors=False))

    def _dfs(self, at: int, depth: int,
             appear: list[int], vanish: list[int]) -> bool:
        if self.expanded >= self.budget:
            raise _Budget
        self.expanded += 1
        r = self.r
        last = depth + 1 == self.length
        for target, ie, if_, ig, ih, e, f in self.cand[at]:
            if (vanish[ie] >= r or vanish[if_] >= r
                    or appear[ig] >= r or appear[ih] >= r):
                continue
            if last:
                if target == self.start:
                    self.path.append((e, f))
                    return True
                continue
            if target <= self.start or target in self.visited:
                continue
            vanish[ie] += 1
            vanish[if_] += 1
            appear[ig] += 1
            appear[ih] += 1
            self.visited.add(target)
            self.path.append((e, f))
            if self._dfs(target, depth + 1, appear, vanish):
                return True
            self.path.pop()
            self.visited.remove(target)
            vanish[ie] -= 1
            vanish[if_] -= 1
            appear[ig] -= 1
            appear[ih] -= 1
        return False


def find_rainbow_cycle(n: int, r: int, budget: int = 10 ** 9,
                       force_search: bool = False,
                       graph: FlipGraph | None = None) -> RainbowResult:
    """Search for an r-rainbow cycle on 2n points.

    A "none" result is a proof: either a closed-form certificate (see the
    reason field) or an exhausted search of every big-enough component.
    For odd n the averaging certificate answers immediately unless
    force_search asks for the explicit search.  Budget counts node
    expansions; running out gives status "budget", never "none".
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
    if n % 2 == 0:
        bound = nonexistence_bound(n)
        if r > bound:
            return RainbowResult(
                n, r, "none", "threshold",
                {"threshold": bound,
                 "max_component_bound": narayana(1, n, n // 2)})
    g = graph if graph is not None else build_flip_graph(n, "centered")
    if g.n != n or g.mode != "centered":
        raise ValueError("graph must be the centered flip graph for this n")
    searcher = _Search(n, r, length, budget)
    searched_any = False
    comps = g.components()
    try:
        for comp in comps:
            if len(comp) < length:
                continue
            if g.component_edge_count(comp) == len(comp) - 1:
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
                          if g.component_edge_count(c) >= len(c)), default=0)
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
    seen = {start}
    cur = start
    for i, fl in enumerate(flips):
        try:
            nxt = apply_flip(cur, fl.out1, fl.out2)
        except ValueError as exc:
            return False, f"flip {i} not applicable: {exc}"
        if not (fl.centered and is_centered(n, fl.out1, fl.out2)):
            return False, f"flip {i} is not a centered flip"
        if {fl.in1, fl.in2} != set(nxt.pairs) - set(cur.pairs):
            return False, f"flip {i} records wrong incoming chords"
        for c in (fl.out1, fl.out2):
            vanish[c] = vanish.get(c, 0) + 1
        for c in (fl.in1, fl.in2):
            appear[c] = appear.get(c, 0) + 1
        cur = nxt
        if i + 1 < len(flips):
            if cur in seen:
                return False, f"vertex repeated after flip {i}"
            seen.add(cur)
    if cur != start:
        return False, "cycle does not close"
    for c in admissible_chords(n):
        if appear.get(c, 0) != r:
            return False, f"chord {c} appears {appear.get(c, 0)} != {r} times"
        if vanish.get(c, 0) != r:
            return False, f"chord {c} disappears {vanish.get(c, 0)} != {r} times"
    return True, "ok"
