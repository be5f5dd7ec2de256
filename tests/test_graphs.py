"""Flip graph construction, traversal, diameter, and export formats."""

import hashlib
import sys
import tracemalloc
from array import array

import pytest

from matchflip.chords import rotate
from matchflip.counts import catalan
from matchflip.dyck import enumerate_matchings, rank, to_dyck, unrank
from matchflip.errors import ResourceLimitError
from matchflip.flips import is_centered, neighbors
from matchflip.graphs import (FlipGraph, _farthest, bfs_distances,
                              build_flip_graph, component_report, csv_lines,
                              diameter, dot_lines, graph_json_obj)

import oracles
from conftest import cached_graph


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("mode", ["all", "centered"])
def test_adjacency_matches_per_matching_neighbors(n, mode):
    g = cached_graph(n, mode)
    assert g.vertex_count == catalan(n)
    for r in range(g.vertex_count):
        m = g.matching(r)
        expected = sorted(rank(nb) for nb in neighbors(m, mode=mode))
        assert list(g.neighbors(r)) == expected
        assert g.degree(r) == len(expected)


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
    kept = {(min(r, s), max(r, s)) for r, s, cen in g.edges() if cen}
    assert {(r, s) for r, s, cen in h.edges()} == kept
    assert all(cen for _, _, cen in h.edges())
    assert g.centered_edge_count == len(kept) == h.edge_count
    # flags agree with the flip predicate itself
    for r, s, cen in g.edges():
        m = g.matching(r)
        moved = sorted(set(m.pairs) ^ set(g.matching(s).pairs))
        e, f = [c for c in moved if c in m]
        assert cen == is_centered(n, e, f)


def test_vertex_labels_round_trip():
    g = cached_graph(4, "all")
    for r in range(g.vertex_count):
        assert g.word(r) == to_dyck(g.matching(r))
        assert rank(g.matching(r)) == r
    assert g.matching(5) == unrank(4, 5)


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_flip_graph(3, mode="weird")
    with pytest.raises(ValueError):
        build_flip_graph(0)
    with pytest.raises(ValueError):
        build_flip_graph(3, threads=0)


def test_memory_budget_is_enforced_before_allocation():
    with pytest.raises(ResourceLimitError):
        build_flip_graph(8, mem_budget=1024)
    g = build_flip_graph(4, mem_budget=10 ** 8)
    assert g.vertex_count == 14


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


@pytest.mark.parametrize("n", range(2, 11))
def test_degree_sum_and_maximum(n):
    # the mean degree behind _estimate_bytes, and the largest degree,
    # that of UDUD...UD, whose chords are pairwise flippable
    g = cached_graph(n, "all")
    assert 2 * g.edge_count * (n + 2) == catalan(n) * 2 * n * (n - 1)
    assert max(g.degrees()) == g.degree(g.vertex_count - 1) == n * (n - 1) // 2
    assert g.word(g.vertex_count - 1) == "UD" * n


def test_degree_summary_is_consistent():
    g = cached_graph(5, "centered")
    summary = g.degree_summary()
    degs = g.degrees()
    assert summary["min"] == min(degs)
    assert summary["max"] == max(degs)
    assert summary["min_count"] == degs.count(summary["min"])
    assert summary["max_count"] == degs.count(summary["max"])
    assert sum(summary["histogram"].values()) == g.vertex_count
    assert summary["histogram"][summary["max"]] == summary["max_count"]
    assert [r for r, d in enumerate(degs) if d == summary["max"]] == [
        r for r in range(g.vertex_count) if g.degree(r) == summary["max"]]


def test_components_ordering_and_sizes():
    h4 = cached_graph(4, "centered")
    comps = h4.components()
    assert [len(c) for c in comps] == [8, 3, 3]
    assert comps[1][0] < comps[2][0]
    for comp in comps:
        assert comp == sorted(comp)
    assert not h4.is_connected()
    assert cached_graph(4, "all").is_connected()


def test_component_edge_count_tree_check():
    h6 = cached_graph(6, "centered")
    comps = h6.components()
    sizes = sorted((len(c) for c in comps), reverse=True)
    assert len(comps) == 8 and sum(sizes) == catalan(6)
    trees = [c for c in comps if h6.component_edge_count(c) == len(c) - 1]
    assert len(trees) == 5
    assert all(len(c) == 4 for c in trees)


def test_component_report_structure():
    h6 = cached_graph(6, "centered")
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
    g = cached_graph(n, mode)
    ms = list(enumerate_matchings(n))
    report = component_report(g)
    comps = g.components()
    assert len(report) == len(comps)
    for entry, comp in zip(report, comps):
        assert entry["symmetric_count"] == sum(
            rotate(ms[r], n) == ms[r] for r in comp)
        if n % 2:
            assert "weights" not in entry
            continue
        hist = {}
        for r in comp:
            w = oracles.oracle_weight(n, ms[r].pairs)
            hist[str(w)] = hist.get(str(w), 0) + 1
        assert entry["weights"] == hist


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
    comps = h4.components()
    a, b = comps[0][0], comps[1][0]
    assert bfs_distances(h4, a)[b] == -1


def test_diameter_exact_small():
    assert diameter(cached_graph(4, "all")).value == 3
    assert diameter(cached_graph(5, "all")).value == 4
    res = diameter(cached_graph(5, "centered"))
    assert res.connected and res.exact and res.value == 8
    a, b = res.witness
    assert bfs_distances(cached_graph(5, "centered"), a)[b] == 8


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
    ng.add_edges_from((r, s) for r, s, _ in g.edges())
    comps = sorted((sorted(c) for c in nx.connected_components(ng)),
                   key=lambda c: (-len(c), c[0]))
    assert g.components() == comps
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
        assert _farthest(g, sources) == want
        assert _farthest(g, sources + sources[:1]) == want


@pytest.mark.parametrize("exact_limit", [6000, 1])
def test_diameter_memory_per_vertex(exact_limit):
    # the kernel's three array("Q") take 24 bytes per vertex; with lists
    # of Python ints in their place the peak here is 103-114
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
    g = cached_graph(n, mode)
    got = list(g.edges())
    assert got == oracles.csr_edges(g.offsets, g.targets, g.flags)
    assert all(type(cen) is bool for _, _, cen in got)


@pytest.mark.parametrize("offsets, targets, flags", [
    pytest.param(
        [0, 2, 4, 6], [1, 2, 0, 2, 0, 1], bytes([1, 0, 1, 0, 0, 0]),
        id="triangle"),
    # rows 0 and 3 empty, a path 1 - 2 - 4 and a loop at 4, which is no
    # edge: src < dst does not hold
    pytest.param(
        [0, 0, 1, 3, 3, 5], [2, 1, 4, 2, 4], bytes([1, 1, 0, 0, 1]),
        id="empty-rows-and-loop"),
])
def test_edges_equal_nested_loop_oracle_on_small_csr(offsets, targets,
                                                     flags):
    g = FlipGraph(1, "all", array("q", offsets), array("i", targets), flags)
    got = list(g.edges())
    assert got == oracles.csr_edges(g.offsets, g.targets, g.flags)
    assert all(type(cen) is bool for _, _, cen in got)
    assert len(got) == g.edge_count


def test_dot_output_shape():
    g = cached_graph(3, "all")
    lines = list(dot_lines(g))
    assert lines[0].startswith("graph ") and lines[-1] == "}"
    labels = [ln for ln in lines if "label=" in ln]
    assert len(labels) == g.vertex_count
    assert f'[label="{g.word(0)}"]' in labels[0]
    solid = sum("style=solid" in ln for ln in lines)
    dashed = sum("style=dashed" in ln for ln in lines)
    assert solid == g.centered_edge_count
    assert solid + dashed == g.edge_count


def test_csv_round_trips_edges():
    g = cached_graph(4, "all")
    lines = list(csv_lines(g))
    assert lines[0] == "src_rank,dst_rank,centered"
    parsed = [tuple(int(x) for x in ln.split(",")) for ln in lines[1:]]
    assert parsed == [(r, s, int(c)) for r, s, c in g.edges()]
    assert len(parsed) == g.edge_count


def test_json_obj_fields():
    g = cached_graph(3, "centered")
    obj = graph_json_obj(g)
    assert obj["n"] == 3 and obj["mode"] == "centered"
    assert obj["vertex_count"] == 5
    assert len(obj["edges"]) == obj["edge_count"] == g.edge_count
    assert obj["words"] == [g.word(r) for r in range(5)]
