"""Flip graphs over all matchings of a given size.

Vertices are the C_n non-crossing perfect matchings identified by their
canonical rank; edges join matchings one flip apart.  mode="all" keeps
every flip (with a per-edge centered flag), mode="centered" only the
centered ones.  Every reader takes the rows from one chunk stream,
_chunks, which builds them in process or reads them from forked workers:
- FlipGraph, a CSR of one offsets array and one flat sorted targets
  array, holds both ends of every edge; the BFS kernels that measure
  distances walk it.
- edge_text hands each row's targets above it, each edge once, to an
  edge formatter chunk by chunk, as _chunks reads them, so with
  threads > 1 the parent holds one chunk at a time.  No engine code
  builds an EdgeRows, a tuple of FlipGraph's five fields over those
  upward rows; the tests build one for edges() and graph_json_obj.
- Census holds, per vertex, the smallest rank of its component and
  its degree, from one union-find pass over the upward rows, which it
  does not keep: 8 bytes per vertex for the degrees, components and
  component report.
"""

from __future__ import annotations

import os
import random
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import (accumulate, chain, compress, count, cycle, islice,
                       repeat, starmap)
from operator import itemgetter, sub
from typing import BinaryIO, Callable, Iterator, NamedTuple, NoReturn

from .dyck import _symmetric, _weight, catalan, dyck_words, orbit_minima
from .errors import ResourceLimitError, WorkerError
from .flips import flip_cells

MODES = ("all", "centered")
_first, _second = itemgetter(0), itemgetter(1)
# ranks per worker job: the parent merges one such chunk at a time
_CHUNK_RANKS = 2048
# a worker's exit status for MemoryError, which the parent raises again
_EXIT_NO_MEMORY = 3


def _chunk_rows(args) -> tuple[array, array, bytes]:
    """Adjacency rows for ranks [start, stop): the row counts as an
    array("i"), the sorted targets and the centered flags; upward keeps
    the targets above the row only."""
    n, mode, start, stop, upward = args
    counts = array("i")
    targets = array("i")
    flags = bytearray()
    words = zip(dyck_words(n, start), range(start, stop))
    for cells in flip_cells(n, words, mode == "centered", upward):
        cells.sort()
        counts.append(len(cells))
        targets.extend(map(_first, cells))
        flags.extend(map(_second, cells))
    return counts, targets, bytes(flags)


def _worker(out: BinaryIO, jobs: list[tuple], inherited: list,
            hold: bool) -> NoReturn:
    """Body of a forked build worker; it never returns.

    It closes the read ends it inherited and writes to out, for each job,
    the row counts, targets and flags.  With hold it first builds every
    job and keeps them, and writes their edge counts as an array("q").
    It ends with os._exit, so it neither flushes the stdio buffers it
    inherited nor runs atexit.  MemoryError exits with _EXIT_NO_MEMORY;
    any other error prints its traceback to fd 2 and exits with 1.
    """
    status = 1
    try:
        for src in inherited:
            src.close()
        chunks = map(_chunk_rows, jobs)
        if hold:
            chunks = list(chunks)
            out.write(array("q", [len(targets) for _, targets, _ in chunks]))
        for chunk in chunks:
            out.writelines(chunk)
        # flushed, not closed: os._exit closes the pipe after it has set
        # the status, so a kill after the parent's last read leaves it 0
        out.flush()
        status = 0
    except MemoryError:
        status = _EXIT_NO_MEMORY
    except Exception:
        import traceback
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _read(src: BinaryIO, size: int) -> bytes:
    if len(got := src.read(size)) < size:
        raise EOFError
    return got


def _estimate_bytes(n: int) -> int:
    v = catalan(n)
    # the mean degree is 2n(n-1)/(n+2) < 2n (the degrees add up to
    # C_n * 2n(n-1)/(n+2), checked by enumeration for n = 2..11), though
    # UDUD...UD has degree n(n-1)/2; 5 bytes per stored arc end
    return 8 * (v + 1) + 5 * 2 * n * v


def _census_bytes(n: int) -> int:
    # 8 bytes per vertex, and one chunk of upward rows: 4 bytes per row
    # and 6 per edge (its target, and its flag twice, as _chunk_rows
    # copies the flags into bytes), and no row longer than the largest
    # degree, n(n-1)/2
    v = catalan(n)
    return 8 * v + min(v, _CHUNK_RANKS) * (4 + 6 * n * (n - 1) // 2)


def _row_numbers(lengths, start: int = 0):
    """Each row number from start on, repeated by its row's length."""
    return chain.from_iterable(map(repeat, count(start), lengths))


def _union(root: array, edges) -> None:
    """Join the two ends of every edge (x, y) in the union-find forest
    root (Tarjan, JACM 22(2), 1975): link the larger root under the
    smaller and halve the path of each find.  A parent is never above
    its child, so every root is the smallest rank of its set."""
    for x, y in edges:
        while (p := root[x]) != x:
            root[x] = x = root[p]
        while (p := root[y]) != y:
            root[y] = y = root[p]
        if x < y:
            root[y] = x
        elif y < x:
            root[x] = y


def _finish(root: array) -> array:
    """Point every vertex at its set's root in one ascending sweep: a
    parent is below its child, so it already points at the root."""
    for r, p in enumerate(root):
        root[r] = root[p]
    return root


def _groups(root: array) -> list[list[int]]:
    """The sets of a finished forest as sorted rank lists, largest first;
    ties on size break by smallest rank, so the order is deterministic."""
    comps: dict[int, list[int]] = {}
    for r, f in enumerate(root):
        if f == r:
            comps[r] = [r]
        else:
            comps[f].append(r)
    return sorted(comps.values(), key=len, reverse=True)   # stable


class FlipGraph(NamedTuple):
    """Immutable flip graph in compressed sparse row form: row r holds,
    sorted, every neighbour of r, with its centered flag."""

    n: int
    mode: str
    offsets: array
    targets: array
    flags: bytes

    @property
    def vertex_count(self) -> int:
        return len(self.offsets) - 1

    def neighbors(self, r: int) -> array:
        return self.targets[self.offsets[r]:self.offsets[r + 1]]

    def neighbor_flags(self, r: int) -> bytes:
        return self.flags[self.offsets[r]:self.offsets[r + 1]]

    def components(self) -> list[list[int]]:
        """Census.components() of this graph, from the same union-find
        pass over its arcs above the diagonal."""
        off = self.offsets
        arcs = zip(_row_numbers(map(sub, islice(off, 1, None), off)),
                   self.targets)
        root = array("i", range(self.vertex_count))
        _union(root, ((x, y) for x, y in arcs if x < y))
        return _groups(_finish(root))

    def is_bipartite(self) -> bool:
        # an odd cycle exists iff some edge joins two BFS distances of
        # equal parity
        dist = array("i", [-1]) * self.vertex_count
        for s in range(self.vertex_count):
            if dist[s] < 0:
                _bfs(self, s, dist)
        off, tg = self.offsets, self.targets
        return all((dx - dist[y]) % 2 for x, dx in enumerate(dist)
                   for y in tg[off[x]:off[x + 1]])


class EdgeRows(NamedTuple):
    """The upward half of a flip graph's rows: row r holds, sorted, the
    targets above r with their centered flags, so each edge is stored
    once, at its lower end; edges() lists its edges for graph_json_obj."""

    n: int
    mode: str
    offsets: array
    targets: array
    flags: bytes

    @property
    def vertex_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def edge_count(self) -> int:
        return len(self.targets)

    def edges(self) -> Iterator[tuple[int, int, bool]]:
        """(src, dst, centered) with src < dst, in lexicographic order:
        each row number repeated by its row's length, zipped with the
        row's targets and flags."""
        off = self.offsets
        return zip(_row_numbers(map(sub, islice(off, 1, None), off)),
                   self.targets, map(bool, self.flags))


class Census(NamedTuple):
    """Degrees and components of a flip graph, 8 bytes per vertex:
    root[r] is the smallest rank in r's component and degree[r] its
    number of edges.  No edge leaves a component, so a component's edges
    are half its degree sum."""

    n: int
    mode: str
    root: array
    degree: array
    centered_edge_count: int

    @property
    def vertex_count(self) -> int:
        return len(self.root)

    @property
    def edge_count(self) -> int:
        return sum(self.degree) // 2

    def degree_summary(self) -> dict:
        hist = Counter(self.degree)
        lo, hi = min(hist), max(hist)
        return {"min": lo, "max": hi, "min_count": hist[lo],
                "max_count": hist[hi],
                "histogram": dict(sorted(hist.items()))}

    def components(self) -> list[list[int]]:
        """Connected components as sorted rank lists, largest first.

        Ties on size break by smallest contained rank, so the order is
        deterministic.
        """
        return _groups(self.root)

    def component_edge_count(self, comp: list[int]) -> int:
        return sum(map(self.degree.__getitem__, comp)) // 2

    def is_connected(self) -> bool:
        return not any(self.root)


def component_report(c: Census) -> list[dict]:
    """Structure of every component: size, tree test, symmetry, weights.

    Weight histograms are attached for even n only; signs need antipodal
    point classes that odd n does not have.  Every count is kept per
    component root, so no component is listed rank by rank.
    """
    even = c.n % 2 == 0
    sym = bytearray()
    wts = array("b")
    for w in dyck_words(c.n):
        sym.append(_symmetric(c.n, w))
        if even:
            wts.append(_weight(c.n, w))
    sizes = Counter(c.root)
    # no edge leaves its component, so each is counted at both ends
    ends: Counter = Counter()
    for f, d in zip(c.root, c.degree):
        ends[f] += d
    symmetric = Counter(compress(c.root, sym))
    weights: dict[int, dict[str, int]] = {f: {} for f in sizes}
    for (f, w), k in sorted(Counter(zip(c.root, wts)).items()):
        weights[f][str(w)] = k
    report = []
    for f, size in sorted(sizes.items(), key=lambda fs: (-fs[1], fs[0])):
        edges = ends[f] // 2
        row: dict = {"size": size, "edges": edges,
                     "is_tree": edges == size - 1, "min_rank": f,
                     "symmetric_count": symmetric[f]}
        if even:
            row["weights"] = weights[f]
        report.append(row)
    return report


def build_flip_graph(n: int, mode: str = "all", threads: int = 1,
                     mem_budget: int | None = None) -> FlipGraph:
    """Enumerate all matchings of size n and wire up their flips.

    The rows are appended chunk by chunk as _chunks builds or reads
    them; the result is byte-identical for any thread count.  mem_budget
    (bytes) is checked against a size estimate before any allocation.
    """
    _check(n, mode, threads, mem_budget, _estimate_bytes)
    offsets, targets, flags = array("q", [0]), array("i"), bytearray()
    with _chunks(n, mode, threads, False, False) as (_, chunks):
        for _, counts, chunk_targets, chunk_flags in chunks:
            # a chunk's offsets go on from the last one
            offsets.extend(accumulate(counts, initial=offsets.pop()))
            targets.extend(chunk_targets)
            flags.extend(chunk_flags)
    return FlipGraph(n, mode, offsets, targets, bytes(flags))


def component_census(n: int, mode: str = "all", threads: int = 1,
                     mem_budget: int | None = None) -> Census:
    """Degrees and components of build_flip_graph's graph without its
    rows.

    The upward rows arrive one chunk of ranks at a time from _chunks.
    Each chunk adds its row lengths to the degrees of its rows, one to
    the degree of each target, and each of its edges to the union-find
    forest, and is then dropped; a last sweep points every vertex at its
    root.  The two arrays are allocated after _chunks has forked its
    workers, so no worker maps them and no write to them copies a page
    the workers share.  Identical for any thread count; mem_budget is
    checked against _census_bytes, the two arrays and one chunk.
    """
    _check(n, mode, threads, mem_budget, _census_bytes)
    v = catalan(n)
    centered = 0
    with _chunks(n, mode, threads, True, False) as (_, chunks):
        root, degree = array("i", range(v)), array("i", [0]) * v
        for start, counts, targets, flags in chunks:
            for r, k in zip(count(start), counts):
                degree[r] += k
            for y in targets:
                degree[y] += 1
            _union(root, zip(_row_numbers(counts, start), targets))
            centered += flags.count(1)
    return Census(n, mode, _finish(root), degree, centered)


def _check(n: int, mode: str, threads: int, mem_budget: int | None,
           estimate: Callable[[int], int]) -> None:
    """Reject bad arguments, and a run whose estimate(n) in bytes
    exceeds mem_budget."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if mem_budget is not None and (need := estimate(n)) > mem_budget:
        raise ResourceLimitError(
            f"graph for n={n} needs an estimated {need} bytes, "
            f"over the budget of {mem_budget}")


def _jobs(n: int, mode: str, threads: int, upward: bool) -> list[tuple]:
    """_chunk_rows jobs over every rank: chunks of at most _CHUNK_RANKS,
    at least 4 per worker."""
    v = catalan(n)
    size = min(_CHUNK_RANKS, -(-v // (4 * threads)))
    return [(n, mode, s, min(s + size, v), upward) for s in range(0, v, size)]


@contextmanager
def _chunks(n: int, mode: str, threads: int, upward: bool, hold: bool):
    """Yield (edges, chunks): chunks runs, in rank order, over the rows
    (start, counts, targets, flags) of the _chunk_rows jobs, with counts
    and targets as array("i") and flags as bytes; with hold, edges is
    their number of edges, which is known before the first chunk is
    read, and otherwise None.

    With one thread, or too few ranks to give each of threads workers 4
    chunks, the jobs run here one after another; with hold they are all
    built first.  Otherwise threads forked workers run them (see
    _workers) and the chunks are read from their pipes, job k from
    reader k mod threads: a full pipe holds each worker about one chunk
    ahead, so besides what the caller keeps the parent holds about one
    chunk.  The chunks are read lazily: use them inside the with block.
    """
    jobs = _jobs(n, mode, threads, upward)
    if threads == 1 or catalan(n) < 4 * threads:
        chunks = ((job[2], *_chunk_rows(job)) for job in jobs)
        if hold:
            chunks = list(chunks)
            yield sum(len(targets) for _, _, targets, _ in chunks), chunks
        else:
            yield None, chunks
        return
    with _workers(jobs, threads, hold) as readers:
        edges = array("q")
        if hold:
            for w, src in enumerate(readers):
                edges.fromfile(src, len(jobs[w::threads]))
        yield sum(edges) if hold else None, _read_chunks(jobs, readers)


def _read_chunks(jobs: list[tuple], readers: list[BinaryIO]):
    """The rows of every job, as _chunks yields them, from the pipes."""
    for (_, _, start, stop, _), src in zip(jobs, cycle(readers)):
        counts, targets = array("i"), array("i")
        counts.fromfile(src, stop - start)
        targets.fromfile(src, sum(counts))
        yield start, counts, targets, _read(src, len(targets))


@contextmanager
def _workers(jobs: list[tuple], threads: int, hold: bool):
    """Fork threads workers over the _chunk_rows jobs and yield their
    pipes' read ends: worker w runs jobs w, w + threads, ... and writes
    to the w-th, as _worker says, holding its chunks if hold.

    The caller reads the chunks in rank order, job k from reader k mod
    threads, and lets the EOFError of a short read end the block: the
    workers' statuses say why.  However it ends, every pipe is closed,
    the workers are killed if the block did not finish, and all of them
    are reaped; a worker's MemoryError is raised again as MemoryError,
    and any other worker failure or short read as WorkerError, a
    RuntimeError.  Any other exception in the block passes through
    after the reaping.
    """
    pids, readers, done = [], [], False
    try:
        for w in range(threads):
            rfd, wfd = os.pipe()
            readers.append(open(rfd, "rb"))
            with open(wfd, "wb") as out:
                if not (pid := os.fork()):
                    _worker(out, jobs[w::threads], readers, hold)
            pids.append(pid)
        yield readers
        done = True
    except EOFError:
        pass                            # a worker died: its status says why
    finally:
        # kill before closing, so no worker sees a broken pipe; 9 is
        # SIGKILL, named without the signal module, which takes 1 ms to import
        for pid in pids if not done else ():
            os.kill(pid, 9)
        for src in readers:
            src.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(p, 0)[1]) for p in pids]
    if _EXIT_NO_MEMORY in codes:
        raise MemoryError("a graph build worker ran out of memory")
    if not done or any(codes):
        raise WorkerError(f"graph build workers exited with {codes}")


@contextmanager
def edge_text(n: int, mode: str, threads: int, mem_budget: int | None,
              text: Callable[..., Iterator[str]]):
    """Yield (edge count, text) for the upward rows' edges, where text
    runs, in rank order, over every string that the edge formatter
    text(start, counts, targets, flags) yields for each chunk of _chunks,
    which holds its rows (hold), so the edge count is known first.

    With threads forked workers, each builds its own chunks and keeps
    them, and the parent formats each chunk as it arrives, so it holds
    one chunk at a time.  The text is read lazily: use it inside the
    with block.  A worker that fails while building raises on entry,
    before any text; a stream that ends early raises at the end of the
    block, after part of the text.  mem_budget is checked against the
    full graph's estimate before anything is built.
    """
    _check(n, mode, threads, mem_budget, _estimate_bytes)
    with _chunks(n, mode, threads, True, True) as (edges, chunks):
        yield edges, chain.from_iterable(starmap(text, chunks))


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


# the most bytes per vertex that _farthest holds: seen and front, 8 each,
# and a slot of the list nxt, 8, with the int it points at, at most 40
# for a 64-bit word
_SWEEP_BYTES = 64


def _diameter_bytes(n: int) -> int:
    """The graph's estimate and the sweep over it."""
    return _estimate_bytes(n) + _SWEEP_BYTES * catalan(n)


def _farthest(g: FlipGraph, sources) -> tuple[dict, int]:
    """({source: (eccentricity, smallest rank at that distance)}, the
    number of vertices the first source reaches).

    A multi-source BFS (Then et al., PVLDB 8(4), 2014): each source is one
    bit of a 64-bit word per vertex, so one pass over the CSR serves up to
    64 sources; longer source lists run in batches of 64.  front[x] holds
    the bits reaching x in the current layer and nxt collects the next;
    bits already in seen[x] are dropped.  A source's eccentricity is the
    last layer in which its bit is new, and its far end is the first
    vertex, in ascending rank, where the bit is new in that layer.  Both
    stay within the source's component; so does the first source's bit,
    which seen holds after the first batch on every vertex it reaches.
    seen and front are array("Q"); each layer ORs into a fresh list nxt,
    which spares converting a word at every arc, and becomes the next
    front once the layer ends.  That holds at most _SWEEP_BYTES per
    vertex.
    """
    off, tg = g.offsets, g.targets
    v = g.vertex_count
    ranks = range(v)
    out, reach = {}, 0
    todo = list(dict.fromkeys(sources))
    for at in range(0, len(todo), 64):
        batch = todo[at:at + 64]
        seen = array("Q", [0]) * v
        front = array("Q", [0]) * v
        for i, s in enumerate(batch):
            front[s] = 1 << i
        ecc = [0] * len(batch)
        far = [0] * len(batch)
        d = 0
        while True:
            claimed = 0                 # bits already new in this layer
            nxt = [0] * v
            for x in compress(ranks, front):
                new = front[x] & ~seen[x]
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
                break                   # nothing pushed: nxt all 0
            del front
            front = array("Q", nxt)
            del nxt                     # before the next layer's list
            d += 1
        out.update(zip(batch, zip(ecc, far)))
        if not at:
            reach = sum(map((1).__and__, seen))
    return out, reach


class DiameterResult(NamedTuple):
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
    twice the smallest eccentricity of a start.  Both source lists are
    sorted and begin with rank 0, so the first pass of 64 sources also
    tells whether rank 0 reaches every vertex; if it does not, the graph
    is disconnected, its diameter infinite (value None), and the sweep
    stops there.  Either mode holds at most _SWEEP_BYTES, 64 bytes per
    vertex, while it sweeps.
    g must be a whole flip graph (C_n vertices).
    """
    v = g.vertex_count
    if v != catalan(g.n):
        raise ValueError(f"{v} vertices is not a flip graph of n={g.n}")
    if v == 1:
        return DiameterResult(True, True, 0, 0, 0, (0, 0))
    exact = v <= exact_limit
    if exact:
        sources = list(compress(range(v), orbit_minima(g.n)))
    else:
        # bounds only: double sweep from rank 0 and from sampled starts
        rng = random.Random(seed)
        starts = {0, v - 1}
        starts.update(rng.randrange(v) for _ in range(samples))
        sources = sorted(starts)
    farthest, reach = _farthest(g, sources[:64])
    if reach < v:
        return DiameterResult(False, True, None, None, None, None)
    farthest.update(_farthest(g, sources[64:])[0])
    if exact:
        s = max(sources, key=lambda r: farthest[r][0])  # the first maximum
        best, far = farthest[s]
        return DiameterResult(True, True, best, best, best, (s, far))
    farthest.update(_farthest(
        g, [far for _, far in farthest.values() if far not in farthest])[0])
    upper = 2 * min(farthest[s][0] for s in sources)
    lower, witness = 0, None
    for s in sources:
        far = farthest[s][1]
        ecc2, far2 = farthest[far]      # the sweep from the far end
        if ecc2 > lower:
            lower, witness = ecc2, (far, far2)
    return DiameterResult(True, False, None, lower, upper, witness)


def graph_json_obj(g: EdgeRows) -> dict:
    return {
        "n": g.n,
        "mode": g.mode,
        "vertex_count": g.vertex_count,
        "edge_count": g.edge_count,
        "edges": [[r, s, int(cen)] for r, s, cen in g.edges()],
        "words": list(dyck_words(g.n)),
    }
