"""Flip graph construction, traversal, diameter, and export formats."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from array import array
from functools import lru_cache
from itertools import accumulate

import pytest

from matchflip import graphs
from matchflip.cli import main
from matchflip.counts import MEASURED, catalan
from matchflip.dyck import (_unrank_word, enumerate_matchings, rank, to_dyck,
                            unrank)
from matchflip.errors import ResourceLimitError
from matchflip.flips import is_centered
from matchflip.graphs import (EdgeRows, FlipGraph, _farthest, bfs_distances,
                              build_flip_graph, component_census,
                              component_report, diameter, graph_json_obj)

import oracles
from conftest import (_fault_on_job, cached_census, cached_graph,
                      chunked_edge_rows, flip_neighbors, full_edges)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("mode", ["all", "centered"])
def test_adjacency_matches_per_matching_neighbors(n, mode):
    # rows from flip_cells against apply_flip, one pair at a time
    g = cached_graph(n, mode)
    assert g.vertex_count == catalan(n)
    for r in range(g.vertex_count):
        m = unrank(n, r)
        expected = sorted(rank(nb) for nb in flip_neighbors(m, mode))
        assert list(g.neighbors(r)) == expected
        assert g.offsets[r + 1] - g.offsets[r] == len(expected)


@pytest.mark.parametrize("n", range(2, 8))
def test_rows_match_brute_force_repairings(n):
    # re-pairings, centeredness and ranks all come from the oracles
    ranks = oracles.oracle_ranks(n)
    g = cached_graph(n, "all")
    h = cached_graph(n, "centered")
    assert g.vertex_count == h.vertex_count == len(ranks)
    for pairs, r in ranks.items():
        row = sorted(
            (ranks[tuple(sorted([c for c in pairs if c not in (e, f)]
                                + [gg, hh]))],
             oracles.oracle_centered(n, e, f))
            for (e, f), (gg, hh)
            in oracles.oracle_flippable_pairs(n, pairs).items())
        assert list(g.neighbors(r)) == [s for s, _ in row]
        assert list(g.neighbor_flags(r)) == [int(cen) for _, cen in row]
        assert list(h.neighbors(r)) == [s for s, cen in row if cen]
        assert set(h.neighbor_flags(r)) <= {1}


# sha256 prefixes of the little-endian offsets ("q"), targets ("i") and
# flags bytes, recorded from the earlier build_flip_graph, which re-ranked
# every flipped partner array in full (_partner_rank), before the
# rank-delta kernel replaced it
_CSR_DIGESTS = {
    ("all", 2): ("ab25350e3e65efeb", "7c9fa136d4413fa6", "9dcf97a184f32623"),
    ("all", 3): ("ec8174b810bb33b9", "bd5844fa9d4efe03", "3ee5f0d83bf791f0"),
    ("all", 4): ("1bfd6bab54fc7651", "3a7eb7a4fc25fd70", "200cf4729d918486"),
    ("all", 5): ("46146100c0e1dd85", "bc5ebb19fd2b8243", "e2fd93ed0fc6df72"),
    ("all", 6): ("496fa0045fccafb4", "66903382f5d58182", "0c04a648a7608983"),
    ("all", 7): ("4d8ad38d74707cf6", "e16c20a00404ed85", "fe99f8f7f3f42f8a"),
    ("all", 8): ("3f47fec5344dbc57", "cb144bb77fac8a94", "512477f6cb5e6cd2"),
    ("all", 9): ("04941baa613b1616", "417478e4e91f2545", "54f2f690367868a0"),
    ("all", 10): ("5d39402eccbd12d5", "6e64e9c7a00d67b1", "c0cc6aba24b917a4"),
    ("centered", 2): ("ab25350e3e65efeb", "7c9fa136d4413fa6", "9dcf97a184f32623"),
    ("centered", 3): ("ec8174b810bb33b9", "bd5844fa9d4efe03", "3ee5f0d83bf791f0"),
    ("centered", 4): ("38945f8592d74025", "d63f660a1ccd9d10", "5b8b4d29020ea5b1"),
    ("centered", 5): ("1f3dc5889d27ebaa", "b1d4975c7214c69d", "89ae85497a48890d"),
    ("centered", 6): ("f5a5225e57263307", "15514f7f5335d022", "98df7ad86eb96679"),
    ("centered", 7): ("3e1aebde7c673ab4", "115f11d2639ef869", "ddafcf6fa8c46c12"),
    ("centered", 8): ("39de22a8ee3b79b2", "fb821cf646c31871", "51dab7014a653c69"),
    ("centered", 9): ("16c7e11301da5da1", "1a8552906b1c3684", "427f59b2a12bd0dc"),
    ("centered", 10): ("e6e4784c3a74b03b", "3161713019500d36", "fad1e0cf8c58ce71"),
}


def _le_digest(data) -> str:
    if isinstance(data, array) and sys.byteorder == "big":
        data = array(data.typecode, data)
        data.byteswap()
    return hashlib.sha256(bytes(data)).hexdigest()[:16]


@pytest.mark.parametrize("mode, n", sorted(_CSR_DIGESTS))
def test_csr_bytes_are_pinned(mode, n):
    g = cached_graph(n, mode)
    assert (g.offsets.itemsize, g.targets.itemsize) == (8, 4)
    got = tuple(_le_digest(x) for x in (g.offsets, g.targets, g.flags))
    assert got == _CSR_DIGESTS[(mode, n)]


@pytest.mark.parametrize("n", range(2, 7))
def test_symmetric_adjacency_with_matching_flags(n):
    g = cached_graph(n, "all")
    adj = {r: dict(zip(g.neighbors(r), g.neighbor_flags(r)))
           for r in range(g.vertex_count)}
    for r, row in adj.items():
        assert list(row) == sorted(row)
        for s, flag in row.items():
            assert adj[s][r] == flag
            assert r != s


@pytest.mark.parametrize("n", range(2, 7))
def test_centered_mode_is_the_flagged_subgraph(n):
    g = cached_graph(n, "all")
    h = cached_graph(n, "centered")
    kept = {(r, s) for r, s, cen in full_edges(g) if cen}
    assert {(r, s) for r, s, cen in full_edges(h)} == kept
    assert all(cen for _, _, cen in full_edges(h))
    assert sum(g.flags) // 2 == len(kept) == len(h.targets) // 2
    # flags agree with the flip predicate itself
    for r, s, cen in full_edges(g):
        m = unrank(n, r)
        moved = sorted(set(m.pairs) ^ set(unrank(n, s).pairs))
        e, f = [c for c in moved if c in m]
        assert cen == is_centered(n, e, f)


def test_vertex_labels_round_trip():
    for r in range(catalan(4)):
        assert _unrank_word(4, r) == to_dyck(unrank(4, r))
        assert rank(unrank(4, r)) == r


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_flip_graph(3, mode="weird")
    with pytest.raises(ValueError):
        build_flip_graph(0)
    with pytest.raises(ValueError):
        build_flip_graph(3, threads=0)
    with pytest.raises(ValueError):
        component_census(3, mode="weird")


def test_memory_budget_is_enforced_before_allocation():
    with pytest.raises(ResourceLimitError):
        build_flip_graph(8, mem_budget=1024)
    with pytest.raises(ResourceLimitError):
        component_census(8, mem_budget=1024)
    g = build_flip_graph(4, mem_budget=10 ** 8)
    assert g.vertex_count == 14


def test_census_budget_is_the_census_estimate(capsys, monkeypatch):
    # the census is checked against its own estimate, which is below the
    # full graph's; a budget under it is refused before any row is built
    need = graphs._census_bytes(10)
    assert need < graphs._estimate_bytes(10)
    assert main(["stats", "--n", "10", "--mem-budget", str(need)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(graphs, "_chunk_rows", None)
    assert main(["stats", "--n", "10", "--mem-budget", str(need - 1)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and f"needs an estimated {need} bytes" in err


def test_diameter_budget_covers_the_sweep(capsys, monkeypatch):
    # the diameter command is checked against the graph's estimate and
    # the sweep's bytes per vertex; a budget under that is refused before
    # any row is built
    need = graphs._diameter_bytes(8)
    assert need > graphs._estimate_bytes(8)
    assert main(["diameter", "--n", "8", "--mem-budget", str(need)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(graphs, "_chunk_rows", None)
    assert main(["diameter", "--n", "8", "--mem-budget", str(need - 1)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and f"needs an estimated {need} bytes" in err


@pytest.mark.parametrize("n", [6, 7])
def test_verify_budget_covers_the_diameter_sweeps(capsys, monkeypatch, n):
    # verify sweeps H_n and G_n at these n; its budget covers each graph
    # and the sweep over it, checked before any row is built
    need = graphs._diameter_bytes(n)
    assert main(["verify", "--n", str(n)]) == 0
    want = capsys.readouterr().out
    budget = max(need, graphs._census_bytes(n), graphs._estimate_bytes(n))
    assert main(["verify", "--n", str(n), "--mem-budget", str(budget)]) == 0
    assert capsys.readouterr().out == want
    monkeypatch.setattr(graphs, "_chunk_rows", None)
    assert main(["verify", "--n", str(n), "--mem-budget", str(need - 1)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and f"needs an estimated {need} bytes" in err


# every chunk but the first starts the flip stream mid-order; at n = 10
# the 16,796 ranks are not a multiple of the 2,048-rank chunk
@pytest.mark.parametrize("n, mode, threads", [
    pytest.param(5, "all", 2, id="2"), pytest.param(5, "all", 3, id="3")]
    + [(9, mode, t) for mode in ("all", "centered") for t in (2, 3, 7)]
    + [(10, "all", 2)])
def test_threaded_build_is_byte_identical(n, mode, threads):
    # the reference is built in one process (cached_graph is below n = 10)
    a = build_flip_graph(n, mode) if n >= 10 else cached_graph(n, mode)
    b = build_flip_graph(n, mode, threads=threads)
    assert a.offsets == b.offsets
    assert a.targets == b.targets
    assert a.flags == b.flags


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("mode", ["all", "centered"])
def test_edge_rows_are_the_rows_above_the_diagonal(n, mode):
    # every thread count gives the same chunks in rank order: the full
    # rows cut to their targets above the row, each edge once; with hold
    # the edge count comes before the first chunk
    g = cached_graph(n, mode)
    above = [[(s, f) for s, f in zip(g.neighbors(r), g.neighbor_flags(r))
              if s > r] for r in range(g.vertex_count)]
    for threads in (1, 2, 3):
        for hold in (False, True):
            rows = []
            with graphs._chunks(n, mode, threads, True, hold) as (edges,
                                                                  chunks):
                assert edges == (len(g.targets) // 2 if hold else None)
                for start, counts, targets, flags in chunks:
                    assert start == len(rows)
                    assert (counts.typecode, targets.typecode) == ("i", "i")
                    assert type(flags) is bytes
                    assert sum(counts) == len(targets) == len(flags)
                    ends = list(accumulate(counts, initial=0))
                    rows += [list(zip(targets[a:b], flags[a:b]))
                             for a, b in zip(ends, ends[1:])]
            assert rows == above


# one failing job: the first (worker 0, whose partner is then killed
# mid-build) or the last (worker 1, after worker 0 has finished)
_JOBS = {"first": lambda start, stop: start == 0,
         "last": lambda start, stop: stop == catalan(9)}


@pytest.mark.parametrize("job", _JOBS)
def test_worker_error_raises_runtime_error_and_reaps(monkeypatch, capfd, job):
    _fault_on_job(monkeypatch, ValueError("bad chunk"), _JOBS[job])
    with pytest.raises(RuntimeError, match="exited with"):
        build_flip_graph(9, "all", threads=2)
    err = capfd.readouterr().err
    # one traceback: the other worker was killed, not left to a broken pipe
    assert err.count("Traceback") == 1 and "ValueError: bad chunk" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("job", _JOBS)
def test_worker_memory_error_raises_memory_error_and_reaps(monkeypatch, job):
    _fault_on_job(monkeypatch, MemoryError(), _JOBS[job])
    with pytest.raises(MemoryError):
        build_flip_graph(9, "all", threads=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_leave_inherited_stdout_alone():
    # stdout to a pipe is block-buffered, so "x" is still in the buffer
    # when the workers fork; they must neither flush it nor need a Pool
    code = ("import sys\n"
            "from matchflip.graphs import build_flip_graph\n"
            "sys.stdout.write('x')\n"
            "build_flip_graph(9, 'all', threads=2)\n"
            "sys.exit(sys.stdout.write_through\n"
            "         or 'multiprocessing' in sys.modules)\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env)
    assert proc.returncode == 0
    assert proc.stdout == b"x"


@pytest.mark.parametrize("n", range(2, 11))
def test_degree_sum_and_maximum(n):
    # the mean degree behind _estimate_bytes, and the largest degree,
    # that of UDUD...UD, whose chords are pairwise flippable
    g = cached_graph(n, "all")
    assert len(g.targets) * (n + 2) == catalan(n) * 2 * n * (n - 1)
    degs = [b - a for a, b in zip(g.offsets, g.offsets[1:])]
    assert max(degs) == degs[-1] == n * (n - 1) // 2
    assert _unrank_word(n, g.vertex_count - 1) == "UD" * n


def test_degree_summary_is_consistent():
    g = cached_census(5, "centered")
    summary = g.degree_summary()
    h = cached_graph(5, "centered")
    degs = [b - a for a, b in zip(h.offsets, h.offsets[1:])]
    assert summary["min"] == min(degs)
    assert summary["max"] == max(degs)
    assert summary["min_count"] == degs.count(summary["min"])
    assert summary["max_count"] == degs.count(summary["max"])
    assert sum(summary["histogram"].values()) == g.vertex_count
    assert summary["histogram"][summary["max"]] == summary["max_count"]
    assert [r for r, d in enumerate(degs) if d == summary["max"]] == [
        r for r in range(g.vertex_count) if g.degree[r] == summary["max"]]


def test_components_ordering_and_sizes():
    h4 = cached_census(4, "centered")
    comps = h4.components()
    assert [len(c) for c in comps] == [8, 3, 3]
    assert comps[1][0] < comps[2][0]
    for comp in comps:
        assert comp == sorted(comp)
    assert cached_graph(4, "centered").components() == comps
    assert not h4.is_connected()
    assert cached_census(4, "all").is_connected()


def test_component_edge_count_tree_check():
    h6 = cached_census(6, "centered")
    comps = h6.components()
    sizes = sorted((len(c) for c in comps), reverse=True)
    assert len(comps) == 8 and sum(sizes) == catalan(6)
    trees = [c for c in comps if h6.component_edge_count(c) == len(c) - 1]
    assert len(trees) == 5
    assert all(len(c) == 4 for c in trees)


def test_component_report_structure():
    h6 = cached_census(6, "centered")
    report = component_report(h6)
    assert len(report) == 8
    assert sum(entry["size"] for entry in report) == catalan(6)
    assert sum(entry["is_tree"] for entry in report) == 5
    assert sum(entry["symmetric_count"] for entry in report) == 20
    comps = h6.components()
    for entry, comp in zip(report, comps):
        assert entry["min_rank"] == comp[0]
        assert entry["edges"] == h6.component_edge_count(comp)
        ws = sorted(int(k) for k in entry["weights"])
        assert sum(entry["weights"].values()) == entry["size"]
        assert len(ws) <= 2
        if len(ws) == 2:
            assert ws[1] - ws[0] == 4  # the two weights of one merged class


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("mode", ["all", "centered"])
def test_component_report_matches_matching_oracles(n, mode):
    # per component: symmetry as "fixed by a half turn", weights from the
    # floating-point sign and length oracles
    g = cached_census(n, mode)
    ms = list(enumerate_matchings(n))
    report = component_report(g)
    comps = g.components()
    assert len(report) == len(comps)
    for entry, comp in zip(report, comps):
        assert entry["symmetric_count"] == sum(
            oracles.rotate(n, ms[r].pairs, n) == ms[r].pairs for r in comp)
        if n % 2:
            assert "weights" not in entry
            continue
        hist = {}
        for r in comp:
            w = oracles.oracle_weight(n, ms[r].pairs)
            hist[str(w)] = hist.get(str(w), 0) + 1
        assert entry["weights"] == hist


@lru_cache(maxsize=None)
def _census_oracle(n, mode):
    """(root, up, degree, centered edges, component report) of
    cached_graph(n, mode): components from networkx over the nested-loop
    edges, degrees from the full rows, symmetry and weights from the
    floating-point matching oracles."""
    nx = pytest.importorskip("networkx")
    g = cached_graph(n, mode)
    edges = full_edges(g)
    ng = nx.Graph()
    ng.add_nodes_from(range(g.vertex_count))
    ng.add_edges_from((r, s) for r, s, _ in edges)
    comps = sorted((sorted(c) for c in nx.connected_components(ng)),
                   key=lambda c: (-len(c), c[0]))
    root = [0] * g.vertex_count
    for c in comps:
        for r in c:
            root[r] = c[0]
    up = [sum(s > r for s in g.neighbors(r)) for r in range(g.vertex_count)]
    degree = [b - a for a, b in zip(g.offsets, g.offsets[1:])]
    ms = list(enumerate_matchings(n))
    report = []
    for c in comps:
        inside = sum(root[r] == c[0] for r, _, _ in edges)
        row = {"size": len(c), "edges": inside,
               "is_tree": inside == len(c) - 1, "min_rank": c[0],
               "symmetric_count": sum(
                   oracles.rotate(n, ms[r].pairs, n) == ms[r].pairs
                   for r in c)}
        if n % 2 == 0:
            ws = [oracles.oracle_weight(n, ms[r].pairs) for r in c]
            row["weights"] = {str(w): ws.count(w) for w in sorted(set(ws))}
        report.append(row)
    return root, up, degree, sum(cen for _, _, cen in edges), report


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("mode", ["all", "centered"])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_census_matches_networkx_and_the_full_rows(n, mode, threads):
    root, up, degree, centered, report = _census_oracle(n, mode)
    c = component_census(n, mode, threads=threads)
    assert (c.n, c.mode, c.vertex_count) == (n, mode, catalan(n))
    assert all(a.typecode == "i" for a in (c.root, c.degree))
    assert list(c.root) == root
    assert list(c.degree) == degree
    assert c.edge_count == sum(up)
    assert c.centered_edge_count == centered
    assert c.is_connected() == (len(report) == 1)
    assert component_report(c) == report


def test_bfs_helpers_agree():
    g = cached_graph(5, "all")
    src = 7
    dist = bfs_distances(g, src)
    # every vertex is reached, src alone at distance 0, and every other
    # vertex has a neighbour one step closer and none further than one
    assert -1 not in dist
    assert [r for r, d in enumerate(dist) if d == 0] == [src]
    for r, d in enumerate(dist):
        near = [dist[s] for s in g.neighbors(r)]
        assert all(abs(x - d) <= 1 for x in near)
        assert r == src or d - 1 in near
    assert [dist[dst] for dst in (0, 13, 41)] == [2, 3, 2]


def test_bfs_distance_unreachable_is_none():
    h4 = cached_graph(4, "centered")
    comps = cached_census(4, "centered").components()
    a, b = comps[0][0], comps[1][0]
    assert bfs_distances(h4, a)[b] == -1


def test_diameter_exact_small():
    diam_g, diam_h = MEASURED["G diameter"], MEASURED["H diameter"]
    assert diameter(cached_graph(4, "all")).value == diam_g[4]
    assert diameter(cached_graph(5, "all")).value == diam_g[5]
    res = diameter(cached_graph(5, "centered"))
    assert res.connected and res.exact and res.value == diam_h[5]
    a, b = res.witness
    assert bfs_distances(cached_graph(5, "centered"), a)[b] == diam_h[5]


def test_diameter_disconnected():
    res = diameter(cached_graph(4, "centered"))
    assert not res.connected
    assert res.value is None and res.lower is None and res.upper is None


def test_diameter_bounds_mode_is_deterministic():
    g = cached_graph(5, "all")
    res = diameter(g, exact_limit=10, samples=4, seed=1)
    assert res.connected and not res.exact
    assert res.value is None
    assert res.lower <= 4 <= res.upper
    again = diameter(g, exact_limit=10, samples=4, seed=1)
    assert (res.lower, res.upper, res.witness) == (
        again.lower, again.upper, again.witness)


def _all_pairs_diameter(g):
    # (value, witness) from one BFS per vertex; (None, None) if disconnected
    best, witness = -1, None
    for s in range(g.vertex_count):
        dist = bfs_distances(g, s)
        if -1 in dist:
            return None, None
        ecc = max(dist)
        if ecc > best:
            best, witness = ecc, (s, dist.index(ecc))
    return best, witness


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("mode", ["all", "centered"])
def test_diameter_matches_all_pairs_bfs(n, mode):
    g = cached_graph(n, mode)
    res = diameter(g)
    value, witness = _all_pairs_diameter(g)
    assert res.exact and (res.value, res.witness) == (value, witness)
    if value is not None:
        b = diameter(g, exact_limit=1, samples=4)
        assert b.lower <= value <= b.upper
        a, z = b.witness
        assert bfs_distances(g, a)[z] == b.lower


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("mode", ["all", "centered"])
def test_analysis_matches_networkx(n, mode):
    nx = pytest.importorskip("networkx")
    g = cached_graph(n, mode)
    ng = nx.Graph()
    ng.add_nodes_from(range(g.vertex_count))
    ng.add_edges_from((r, s) for r, s, _ in full_edges(g))
    comps = sorted((sorted(c) for c in nx.connected_components(ng)),
                   key=lambda c: (-len(c), c[0]))
    assert g.components() == comps
    assert cached_census(n, mode).components() == comps
    assert g.is_bipartite() == nx.is_bipartite(ng)
    res = diameter(g)
    assert res.connected == nx.is_connected(ng)
    if res.connected:
        assert res.value == nx.diameter(ng)
        assert nx.shortest_path_length(ng, *res.witness) == res.value


# computed by the all-pairs BFS that orbit reduction replaced
_N9_DIAMETERS = {"centered": (20, (2806, 4861)), "all": (8, (0, 8))}


@pytest.mark.parametrize("mode", sorted(_N9_DIAMETERS))
def test_n9_diameters_are_pinned(mode):
    res = diameter(cached_graph(9, mode))
    assert res.exact and (res.value, res.witness) == _N9_DIAMETERS[mode]


# recorded from the one-BFS-per-source bounds mode; the witness order
# follows the seed, so a wrong far-end rule shows
_N9_BOUNDS = {("centered", 0): (20, 24, (4861, 2806)),
              ("centered", 7): (20, 24, (4861, 2806)),
              ("centered", 1): (20, 24, (2806, 4861)),
              ("all", 0): (8, 16, (8, 0)),
              ("all", 1): (8, 16, (8, 0)),
              ("all", 7): (8, 16, (8, 0))}


@pytest.mark.parametrize("mode, seed", sorted(_N9_BOUNDS))
def test_n9_bounds_are_pinned(mode, seed):
    res = diameter(cached_graph(9, mode), exact_limit=1, seed=seed)
    assert not res.exact
    assert (res.lower, res.upper, res.witness) == _N9_BOUNDS[mode, seed]


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("mode", ["all", "centered"])
def test_multi_source_farthest_matches_single_bfs(n, mode):
    g = cached_graph(n, mode)
    v = g.vertex_count
    for k in (1, 64, 65):
        # 17 is coprime to C_n for n <= 8, so the list is unsorted, covers
        # min(k, C_n) vertices, and 65 sources cross a batch from n = 6 on
        sources = [(v - 1 - 17 * i) % v for i in range(k)]
        want = {}
        for s in sources:
            dist = bfs_distances(g, s)      # -1 outside s's component
            want[s] = (max(dist), dist.index(max(dist)))
        reach = v - bfs_distances(g, sources[0]).count(-1)
        assert _farthest(g, sources) == (want, reach)
        assert _farthest(g, sources + sources[:1]) == (want, reach)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("exact_limit", [6000, 1])
def test_diameter_runs_only_the_multi_source_kernel(n, exact_limit,
                                                    monkeypatch):
    # connectivity comes from _farthest's first pass, not from a BFS;
    # H_4 is disconnected and H_5 connected
    def no_bfs(*args):
        raise AssertionError("diameter ran a single-source BFS")

    monkeypatch.setattr(graphs, "_bfs", no_bfs)
    res = diameter(cached_graph(n, "centered"), exact_limit=exact_limit)
    assert res.connected == (n % 2 == 1)
    if not res.connected:
        assert (res.value, res.lower, res.upper, res.witness) == (None,) * 4


@pytest.mark.parametrize("exact_limit", [6000, 1])
def test_diameter_memory_per_vertex(exact_limit):
    # seen and front are array("Q") and each layer ORs into a list: the
    # peak here is 58-62 bytes per vertex; with lists for all three it is
    # 103-114
    g = cached_graph(9, "all")
    tracemalloc.start()
    try:
        diameter(g, exact_limit=exact_limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * g.vertex_count


def test_diameter_rejects_a_graph_that_is_not_a_flip_graph():
    # the triangle of test_bipartite_rejects_odd_cycle: 3 vertices, n = 1
    triangle = FlipGraph(1, "all", array("q", [0, 2, 4, 6]),
                         array("i", [1, 2, 0, 2, 0, 1]), bytes(6))
    with pytest.raises(ValueError, match="not a flip graph"):
        diameter(triangle)


@pytest.mark.parametrize("n", range(2, 7))
def test_flip_graph_is_bipartite(n):
    assert cached_graph(n, "all").is_bipartite()
    assert cached_graph(n, "centered").is_bipartite()


def test_bipartite_rejects_odd_cycle():
    triangle = FlipGraph(1, "all", array("q", [0, 2, 4, 6]),
                         array("i", [1, 2, 0, 2, 0, 1]), bytes(6))
    assert not triangle.is_bipartite()


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("mode", ["all", "centered"])
def test_edges_equal_nested_loop_oracle(n, mode):
    # the one edge lister, on the upward rows, against the nested loop
    # over the full rows
    got = list(chunked_edge_rows(n, mode).edges())
    assert got == full_edges(cached_graph(n, mode))
    assert all(type(cen) is bool for _, _, cen in got)


# each case: a full CSR, for the oracle, and its rows cut to the targets
# above the row, which EdgeRows holds
@pytest.mark.parametrize("full, upward", [
    pytest.param(
        ([0, 2, 4, 6], [1, 2, 0, 2, 0, 1], bytes([1, 0, 1, 0, 0, 0])),
        ([0, 2, 3, 3], [1, 2, 2], bytes([1, 0, 0])), id="triangle"),
    # rows 0 and 3 empty, a path 1 - 2 - 4 and a loop at 4, which is no
    # edge: src < dst does not hold, and no row keeps it above the row
    pytest.param(
        ([0, 0, 1, 3, 3, 5], [2, 1, 4, 2, 4], bytes([1, 1, 0, 0, 1])),
        ([0, 0, 1, 2, 2, 2], [2, 4], bytes([1, 0])),
        id="empty-rows-and-loop"),
])
def test_edges_equal_nested_loop_oracle_on_small_csr(full, upward):
    offsets, targets, flags = upward
    rows = EdgeRows(1, "all", array("q", offsets), array("i", targets), flags)
    got = list(rows.edges())
    assert got == oracles.csr_edges(*full)
    assert all(type(cen) is bool for _, _, cen in got)
    assert len(got) == rows.edge_count


def _export(capsys, n: int, fmt: str) -> list[str]:
    assert main(["graph", "--n", str(n), "--format", fmt]) == 0
    return capsys.readouterr().out.splitlines()


def test_dot_output_shape(capsys):
    g = cached_graph(3, "all")
    lines = _export(capsys, 3, "dot")
    assert lines[0].startswith("graph ") and lines[-1] == "}"
    labels = [ln for ln in lines if "label=" in ln]
    assert len(labels) == g.vertex_count
    assert f'[label="{_unrank_word(3, 0)}"]' in labels[0]
    solid = sum("style=solid" in ln for ln in lines)
    dashed = sum("style=dashed" in ln for ln in lines)
    assert solid == sum(g.flags) // 2
    assert solid + dashed == len(g.targets) // 2


def test_csv_round_trips_edges(capsys):
    g = cached_graph(4, "all")
    lines = _export(capsys, 4, "csv")
    assert lines[0] == "src_rank,dst_rank,centered"
    parsed = [tuple(int(x) for x in ln.split(",")) for ln in lines[1:]]
    assert parsed == [(r, s, int(c)) for r, s, c in full_edges(g)]
    assert len(parsed) == len(g.targets) // 2


def test_json_obj_fields():
    g = cached_graph(3, "centered")
    obj = graph_json_obj(chunked_edge_rows(3, "centered"))
    assert obj["n"] == 3 and obj["mode"] == "centered"
    assert obj["vertex_count"] == 5
    assert len(obj["edges"]) == obj["edge_count"] == len(g.targets) // 2
    assert obj["words"] == [_unrank_word(3, r) for r in range(5)]
