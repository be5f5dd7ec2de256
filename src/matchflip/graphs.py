"""Flip graphs over all matchings of a given size.

Vertices are the C_n non-crossing perfect matchings identified by their
canonical rank; edges join matchings one flip apart.  mode="all" keeps
every flip (with a per-edge centered flag), mode="centered" only the
centered ones.  Storage is compact: one offsets array plus one flat sorted
targets array, so neighbor lists are deterministic slices.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice, repeat, tee
from operator import itemgetter, lt, sub
from typing import Iterator

from .dyck import (_symmetric, _unrank_word, _weight, catalan, dyck_words,
                   orbit_minima, unrank)
from .errors import ResourceLimitError
from .flips import flip_cells

MODES = ("all", "centered")
_first, _second = itemgetter(0), itemgetter(1)
# ranks per worker task: the parent merges one such chunk at a time
_CHUNK_RANKS = 2048


def _chunk_rows(args) -> tuple[list[int], array, bytes]:
    """Adjacency rows for ranks [start, stop); multiprocessing worker."""
    n, mode, start, stop = args
    centered_only = mode == "centered"
    counts: list[int] = []
    targets = array("i")
    flags = bytearray()
    words = zip(dyck_words(n, start), range(start, stop))
    for cells in flip_cells(n, words, centered_only):
        cells.sort()
        counts.append(len(cells))
        targets.extend(map(_first, cells))
        flags.extend(map(_second, cells))
    return counts, targets, bytes(flags)


def _estimate_bytes(n: int) -> int:
    v = catalan(n)
    # the mean degree is 2n(n-1)/(n+2) < 2n (the degrees add up to
    # C_n * 2n(n-1)/(n+2), checked by enumeration for n = 2..11), though
    # UDUD...UD has degree n(n-1)/2; 5 bytes per stored arc end
    return 8 * (v + 1) + 5 * 2 * n * v


class FlipGraph:
    """Immutable flip graph in compressed sparse row form."""

    __slots__ = ("n", "mode", "offsets", "targets", "flags")

    def __init__(self, n: int, mode: str, offsets: array, targets: array,
                 flags: bytes):
        self.n = n
        self.mode = mode
        self.offsets = offsets
        self.targets = targets
        self.flags = flags

    @property
    def vertex_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def edge_count(self) -> int:
        return len(self.targets) // 2

    @property
    def centered_edge_count(self) -> int:
        return sum(self.flags) // 2

    def neighbors(self, r: int) -> array:
        return self.targets[self.offsets[r]:self.offsets[r + 1]]

    def neighbor_flags(self, r: int) -> bytes:
        return self.flags[self.offsets[r]:self.offsets[r + 1]]

    def degree(self, r: int) -> int:
        return self.offsets[r + 1] - self.offsets[r]

    def degrees(self) -> list[int]:
        off = self.offsets
        return [off[i + 1] - off[i] for i in range(self.vertex_count)]

    def edges(self) -> Iterator[tuple[int, int, bool]]:
        """(src, dst, centered) with src < dst, in lexicographic order.

        One itertools pipeline over the arc ends: the source of every arc
        is its row number repeated degree times, and the arcs kept are
        those whose source is below their target.
        """
        off, tg = self.offsets, self.targets
        degrees = map(sub, islice(off, 1, None), off)
        src, src2 = tee(chain.from_iterable(
            map(repeat, range(self.vertex_count), degrees)))
        return compress(zip(src, tg, map(bool, self.flags)),
                        map(lt, src2, tg))

    def matching(self, r: int):
        return unrank(self.n, r)

    def word(self, r: int) -> str:
        return _unrank_word(self.n, r)

    def degree_summary(self) -> dict:
        degs = self.degrees()
        lo, hi = min(degs), max(degs)
        hist: dict[int, int] = {}
        for d in degs:
            hist[d] = hist.get(d, 0) + 1
        return {"min": lo, "max": hi, "min_count": hist[lo],
                "max_count": hist[hi],
                "histogram": dict(sorted(hist.items()))}

    def components(self) -> list[list[int]]:
        """Connected components as sorted rank lists, largest first.

        Ties on size break by smallest contained rank, so the order is
        deterministic.
        """
        dist = array("i", [-1]) * self.vertex_count
        comps = [sorted(_bfs(self, s, dist))
                 for s in range(self.vertex_count) if dist[s] < 0]
        comps.sort(key=lambda c: (-len(c), c[0]))
        return comps

    def component_edge_count(self, comp: list[int]) -> int:
        return sum(self.degree(r) for r in comp) // 2

    def is_connected(self) -> bool:
        dist = array("i", [-1]) * self.vertex_count
        return len(_bfs(self, 0, dist)) == self.vertex_count

    def is_bipartite(self) -> bool:
        # an odd cycle exists iff some edge joins two BFS distances of
        # equal parity
        dist = array("i", [-1]) * self.vertex_count
        for s in range(self.vertex_count):
            if dist[s] < 0:
                _bfs(self, s, dist)
        return all((dist[a] - dist[b]) % 2 for a, b, _ in self.edges())


def component_report(g: FlipGraph) -> list[dict]:
    """Structure of every component: size, tree test, symmetry, weights.

    Weight histograms are attached for even n only; signs need antipodal
    point classes that odd n does not have.
    """
    even = g.n % 2 == 0
    sym = bytearray()
    wts = array("b")
    for w in dyck_words(g.n):
        sym.append(_symmetric(g.n, w))
        if even:
            wts.append(_weight(g.n, w))
    report = []
    for comp in g.components():
        edges = g.component_edge_count(comp)
        row: dict = {"size": len(comp), "edges": edges,
                     "is_tree": edges == len(comp) - 1,
                     "min_rank": comp[0],
                     "symmetric_count": sum(sym[r] for r in comp)}
        if even:
            hist = Counter(wts[r] for r in comp)
            row["weights"] = {str(w): hist[w] for w in sorted(hist)}
        report.append(row)
    return report


def build_flip_graph(n: int, mode: str = "all", threads: int = 1,
                     mem_budget: int | None = None) -> FlipGraph:
    """Enumerate all matchings of size n and wire up their flips.

    threads > 1 hands chunks of at most _CHUNK_RANKS ranks, at least 4
    per worker, to fork workers in rank order; the parent appends each
    chunk's rows as it arrives, so besides the graph it holds only a few
    chunks.  The result is byte-identical for any thread count.
    mem_budget (bytes) is checked against a size estimate before any
    allocation.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if mem_budget is not None and _estimate_bytes(n) > mem_budget:
        raise ResourceLimitError(
            f"graph for n={n} needs an estimated {_estimate_bytes(n)} bytes, "
            f"over the budget of {mem_budget}")
    v = catalan(n)
    if threads == 1 or v < 4 * threads:
        counts, targets, flags = _chunk_rows((n, mode, 0, v))
        offsets = array("q", accumulate(counts, initial=0))
    else:
        import multiprocessing as mp

        size = min(_CHUNK_RANKS, -(-v // (4 * threads)))
        jobs = [(n, mode, s, min(s + size, v)) for s in range(0, v, size)]
        offsets = array("q", [0])
        targets = array("i")
        flags = bytearray()
        ctx = mp.get_context("fork")
        with ctx.Pool(threads) as pool:
            # a chunk's offsets go on from the last one, so no list of
            # row counts outlives its chunk
            for counts, tg, fl in pool.imap(_chunk_rows, jobs):
                offsets.extend(accumulate(counts, initial=offsets.pop()))
                targets.extend(tg)
                flags.extend(fl)
        flags = bytes(flags)
    return FlipGraph(n, mode, offsets, targets, flags)


def _bfs(g: FlipGraph, src: int, dist: array | list[int]) -> array:
    """Visit order of a BFS from src, as an array("i"); the one traversal
    loop.

    dist is caller-owned, -1 meaning unseen; the BFS fills in the distance
    from src of every vertex it reaches and skips vertices already seen.
    """
    off, tg = g.offsets, g.targets
    dist[src] = 0
    queue = array("i", [src])
    for x in queue:
        dx = dist[x] + 1
        for y in tg[off[x]:off[x + 1]]:
            if dist[y] < 0:
                dist[y] = dx
                queue.append(y)
    return queue


def bfs_distances(g: FlipGraph, src: int) -> list[int]:
    """Distance from src to every vertex as a list; -1 where unreachable."""
    dist = [-1] * g.vertex_count    # ~25% faster BFS than on array("i")
    _bfs(g, src, dist)
    return dist


def _farthest(g: FlipGraph, sources) -> dict[int, tuple[int, int]]:
    """{source: (eccentricity, smallest rank at that distance)}.

    A multi-source BFS (Then et al., PVLDB 8(4), 2014): each source is one
    bit of a 64-bit word per vertex, so one pass over the CSR serves up to
    64 sources; longer source lists run in batches of 64.  front[x] holds
    the bits reaching x in the current layer and nxt collects the next;
    bits already in seen[x] are dropped.  A source's eccentricity is the
    last layer in which its bit is new, and its far end is the first
    vertex, in ascending rank, where the bit is new in that layer.  Both
    stay within the source's component.  Memory is three array("Q"), 24
    bytes per vertex.
    """
    off, tg = g.offsets, g.targets
    ranks = range(g.vertex_count)
    front = array("Q", [0]) * len(ranks)
    nxt = array("Q", [0]) * len(ranks)
    out = {}
    todo = list(dict.fromkeys(sources))
    for at in range(0, len(todo), 64):
        batch = todo[at:at + 64]
        seen = array("Q", [0]) * len(ranks)
        for i, s in enumerate(batch):
            front[s] = 1 << i
        ecc = [0] * len(batch)
        far = [0] * len(batch)
        d = 0
        while True:
            claimed = 0                 # bits already new in this layer
            for x in compress(ranks, front):
                new = front[x] & ~seen[x]
                front[x] = 0
                if new:
                    seen[x] |= new
                    first = new & ~claimed
                    if first:
                        claimed |= first
                        while first:
                            low = first & -first
                            i = low.bit_length() - 1
                            ecc[i], far[i] = d, x
                            first ^= low
                    for y in tg[off[x]:off[x + 1]]:
                        nxt[y] |= new
            if not claimed:
                break                   # nothing pushed: front, nxt all 0
            front, nxt = nxt, front
            d += 1
        out.update(zip(batch, zip(ecc, far)))
    return out


@dataclass(frozen=True)
class DiameterResult:
    connected: bool
    exact: bool
    value: int | None          # None when disconnected (infinite)
    lower: int | None
    upper: int | None
    witness: tuple[int, int] | None


def diameter(g: FlipGraph, exact_limit: int = 6000, samples: int = 32,
             seed: int = 0) -> DiameterResult:
    """Graph diameter; exact up to exact_limit vertices, else bounds.

    Rotations and mirrors act on every flip graph by automorphisms, so
    eccentricity is constant on their orbits: exact mode takes the
    smallest rank of each orbit, runs them through the multi-source
    `_farthest` in rank-ordered passes of 64 sources, and keeps the first
    maximum in rank order.  The witness is the smallest rank of maximum
    eccentricity (the minimum of its orbit) and the smallest rank farthest
    from it.  Larger graphs get deterministic bounds from double sweeps:
    one pass from the sorted sampled starts, one from their far ends not
    already swept; lower is the largest eccentricity of a far end, upper
    twice the smallest eccentricity of a start.  Either mode holds 24
    bytes per vertex while it sweeps.  A disconnected graph has infinite
    diameter (value None).  g must be a whole flip graph (C_n vertices).
    """
    v = g.vertex_count
    if v != catalan(g.n):
        raise ValueError(f"{v} vertices is not a flip graph of n={g.n}")
    if not g.is_connected():
        return DiameterResult(False, True, None, None, None, None)
    if v == 1:
        return DiameterResult(True, True, 0, 0, 0, (0, 0))
    if v <= exact_limit:
        reps = list(compress(range(v), orbit_minima(g.n)))
        farthest = _farthest(g, reps)
        s = max(reps, key=lambda r: farthest[r][0])     # the first maximum
        best, far = farthest[s]
        return DiameterResult(True, True, best, best, best, (s, far))
    # bounds only: double sweep from rank 0 and from sampled starts
    rng = random.Random(seed)
    starts = {0, v - 1}
    starts.update(rng.randrange(v) for _ in range(samples))
    starts = sorted(starts)
    farthest = _farthest(g, starts)
    farthest.update(_farthest(
        g, [far for _, far in farthest.values() if far not in farthest]))
    lower = 0
    upper = None
    witness = None
    for s in starts:
        ecc, far = farthest[s]
        if upper is None or 2 * ecc < upper:
            upper = 2 * ecc
        # sweep once more from the far end
        ecc2, far2 = farthest[far]
        if ecc2 > lower:
            lower, witness = ecc2, (far, far2)
    return DiameterResult(True, False, None, lower, upper, witness)


_DOT_EDGE = ("  %d -- %d [style=dashed];", "  %d -- %d [style=solid];")


def dot_lines(g: FlipGraph) -> Iterator[str]:
    """Graphviz form; centered flips solid, other flips dashed."""
    yield f'graph "flips_n{g.n}_{g.mode}" {{'
    yield "  node [shape=box];"
    yield from map('  %d [label="%s"];'.__mod__, enumerate(dyck_words(g.n)))
    for r, s, cen in g.edges():
        yield _DOT_EDGE[cen] % (r, s)
    yield "}"


def csv_lines(g: FlipGraph) -> Iterator[str]:
    return chain(("src_rank,dst_rank,centered",),
                 map("%d,%d,%d".__mod__, g.edges()))


def graph_json_obj(g: FlipGraph) -> dict:
    return {
        "n": g.n,
        "mode": g.mode,
        "vertex_count": g.vertex_count,
        "edge_count": g.edge_count,
        "edges": [[r, s, int(cen)] for r, s, cen in g.edges()],
        "words": list(dyck_words(g.n)),
    }
