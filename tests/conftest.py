"""Shared fixtures: session-wide flip-graph and census caches, the
graphs' edges from the nested-loop oracle, the upward rows as the chunk
stream reads them, a build-worker fault injector and the acceptance
criterion recorder that prints one PASS/FAIL line per criterion."""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from functools import lru_cache
from itertools import accumulate

import pytest

from matchflip import (apply_flip, build_flip_graph, component_census,
                       flippable_pairs, is_centered)
from matchflip import graphs

import oracles


@lru_cache(maxsize=None)
def cached_graph(n: int, mode: str):
    # big builds share workers; smaller ones are cheaper single-threaded
    return build_flip_graph(n, mode, threads=4 if n >= 10 else 1)


@lru_cache(maxsize=None)
def cached_census(n: int, mode: str):
    return component_census(n, mode, threads=4 if n >= 10 else 1)


def full_edges(g) -> list:
    """(src, dst, centered) of every edge of the flip graph g, src < dst,
    from the nested loop over its full rows."""
    return oracles.csr_edges(g.offsets, g.targets, g.flags)


@lru_cache(maxsize=None)
def oracle_edge_rows(n: int, mode: str) -> graphs.EdgeRows:
    """EdgeRows of cached_graph(n, mode) rebuilt from full_edges: the
    reference that the edge exports are checked against."""
    g = cached_graph(n, mode)
    edges = full_edges(g)
    per_row = Counter(r for r, _, _ in edges)
    offsets = accumulate(map(per_row.__getitem__, range(g.vertex_count)),
                         initial=0)
    return graphs.EdgeRows(n, mode, array("q", offsets),
                           array("i", [s for _, s, _ in edges]),
                           bytes(cen for _, _, cen in edges))


def chunked_edge_rows(n: int, mode: str) -> graphs.EdgeRows:
    """EdgeRows of the upward rows that graphs._chunks reads, appended
    chunk by chunk."""
    offsets, targets, flags = array("q", [0]), array("i"), bytearray()
    with graphs._chunks(n, mode, 1, True, False) as (_, chunks):
        for _, counts, chunk_targets, chunk_flags in chunks:
            offsets.extend(accumulate(counts, initial=offsets.pop()))
            targets.extend(chunk_targets)
            flags.extend(chunk_flags)
    return graphs.EdgeRows(n, mode, offsets, targets, bytes(flags))


def flip_neighbors(m, mode: str = "all"):
    """Matchings one flip away from m, flipped one pair at a time by
    apply_flip; mode "centered" keeps the centered flips only."""
    return [apply_flip(m, e, f) for e, f in flippable_pairs(m)
            if mode == "all" or is_centered(m.n, e, f)]


def _fault_on_job(monkeypatch, exc, fails):
    """Make graph build jobs raise exc where fails(start, stop) holds."""
    # patched before the build, so the forked workers inherit the fault
    chunk_rows = graphs._chunk_rows

    def faulty(args):
        if fails(*args[2:4]):
            raise exc
        return chunk_rows(args)
    monkeypatch.setattr(graphs, "_chunk_rows", faulty)


@pytest.fixture(scope="session")
def graph():
    return cached_graph


_criteria: dict[int, tuple[str, bool]] = {}


@contextlib.contextmanager
def criterion(num: int, desc: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        _criteria[num] = (desc, ok)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criteria):
        desc, ok = _criteria[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[criterion {num:2d}] {status}  {desc}")
