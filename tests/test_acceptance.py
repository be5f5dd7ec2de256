"""Acceptance gate: the ten headline results, re-derived at full scale.

Every comparison is an exact integer equality; timed checks use wall
clock budgets.  One PASS/FAIL line per criterion is printed in the
terminal summary (see conftest).
"""

import time
from fractions import Fraction
from itertools import combinations
from math import comb

from matchflip.chords import (Matching, chord_length, chord_sign,
                              is_centrally_symmetric, max_length,
                              perimeter_edge_count, perimeter_matching,
                              segment, visible_edges, weight)
from matchflip.construct import canonical_flip_sequence, perimeter_swap_path
from matchflip.counts import (catalan, narayana, predicted_extremes,
                              symmetric_count)
from matchflip.dyck import (band_weight, bits_to_symmetric, dyck_words,
                            enumerate_matchings, from_dyck, peaks, rank,
                            segment_to_dyck, symmetric_to_bits, to_dyck,
                            unrank)
from matchflip.flips import apply_flip, flippable_pairs, is_centered
from matchflip.graphs import diameter
from matchflip.rainbow import (find_rainbow_cycle, nonexistence_bound,
                               verify_rainbow)

from conftest import cached_graph, criterion
from oracles import oracle_centered


def test_criterion_01_enumeration_counts():
    with criterion(1, "enumeration counts C_n for n=2..12, n=12 under 10s"):
        for n in range(2, 12):
            assert sum(1 for _ in enumerate_matchings(n)) == catalan(n)
        t0 = time.perf_counter()
        assert sum(1 for _ in enumerate_matchings(12)) == 208012
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_degrees_odd():
    with criterion(2, "odd-n degrees: visible-edge rule and extremes"):
        for n in (3, 5, 7, 9):
            h = cached_graph(n, "centered")
            degs = h.degrees()
            for r in range(h.vertex_count):
                assert degs[r] == len(visible_edges(h.matching(r)))
            assert max(degs) == n
            assert degs.count(n) == 2
            assert min(degs) == 2
            assert degs.count(2) == n * catalan((n - 3) // 2) ** 2


def test_criterion_03_degrees_even():
    with criterion(3, "even-n degrees: max n/2 counts, min 1 structure"):
        for n in (2, 4, 6, 8, 10):
            h = cached_graph(n, "centered")
            degs = h.degrees()
            assert max(degs) == n // 2
            assert (degs.count(n // 2)
                    == predicted_extremes(n)["max_degree_count"])
            assert min(degs) == 1
            assert degs.count(1) == n * catalan((n - 2) // 2) ** 2
            mu = max_length(n)
            for r in [r for r, d in enumerate(degs) if d == 1]:
                m = h.matching(r)
                longest = sum(1 for e in m.pairs
                              if chord_length(n, e) == mu)
                assert longest == 2


def test_criterion_04_connectivity_and_diameters():
    with criterion(4, "connectivity and diameters of both graphs"):
        for n, want in ((3, 2), (5, 8), (7, 14)):
            h = cached_graph(n, "centered")
            assert h.is_connected()
            res = diameter(h)
            assert res.exact and res.value == want
        t0 = time.perf_counter()
        h9 = cached_graph(9, "centered")
        assert h9.is_connected()
        res9 = diameter(h9)
        assert res9.exact and res9.value == 20
        assert time.perf_counter() - t0 < 1800.0
        for n in range(3, 10):
            res = diameter(cached_graph(n, "all"))
            assert res.exact and res.value == n - 1
        for n in range(2, 9):
            assert cached_graph(n, "all").is_bipartite()


def _replayed(m, seq):
    cur = m
    for fl in seq:
        assert fl.centered and is_centered(cur.n, fl.out1, fl.out2)
        cur = apply_flip(cur, fl.out1, fl.out2)
        assert fl.in1 in cur and fl.in2 in cur
    return cur


def test_criterion_05_constructive_paths():
    with criterion(5, "reduction and swap-path lengths, replay-verified"):
        for n in (3, 5, 7):
            ends = {perimeter_matching(n), perimeter_matching(n, True)}
            for m in enumerate_matchings(n):
                seq = canonical_flip_sequence(m)
                assert len(seq) <= 4 * n - 11
                assert _replayed(m, seq) in ends
        for n in (3, 5, 7, 9, 11):
            seq = perimeter_swap_path(n)
            assert len(seq) == 3 * n - 7
            assert _replayed(perimeter_matching(n), seq) == \
                perimeter_matching(n, True)


def test_criterion_06_component_structure_even():
    with criterion(6, "even-n component census up to n=12"):
        for n in (2, 4, 6, 8, 10, 12):
            h = cached_graph(n, "centered")
            comps = h.components()
            if n >= 4:
                assert len(comps) == catalan(n // 2) + n - 3
            trees = [c for c in comps
                     if h.component_edge_count(c) == len(c) - 1]
            assert len(trees) == catalan(n // 2)
            assert all(len(c) == n // 2 + 1 for c in trees)
            sym_in_trees = sum(
                1 for c in trees for r in c
                if is_centrally_symmetric(h.matching(r)))
            assert sym_in_trees == comb(n, n // 2)
            assert sum(len(c) for c in trees) == comb(n, n // 2)
            tree_ranks = {r for c in trees for r in c}
            for c in comps:
                if c[0] in tree_ranks:
                    continue
                assert not any(is_centrally_symmetric(h.matching(r))
                               for r in c)
            assert max(len(c) for c in comps) <= narayana(1, n, n // 2)


def test_criterion_07_weights():
    with criterion(7, "weight range, flip alternation, class sizes"):
        for n in (2, 4, 6, 8, 10):
            h = cached_graph(n, "centered")
            ws = [weight(h.matching(r)) for r in range(h.vertex_count)]
            hist: dict[int, int] = {}
            for w in ws:
                assert -(n - 2) <= w <= n - 2
                hist[w] = hist.get(w, 0) + 1
            for r, s, _ in h.edges():
                assert abs(ws[r] - ws[s]) == n - 2
            for r in range(h.vertex_count):
                nb = h.neighbors(r)
                if len(nb):
                    vals = {ws[s] for s in nb}
                    assert len(vals) == 1   # forces +- alternation on walks
            assert hist.get(0, 0) == 2
            assert narayana(1, n, 1) // 2 == 1
            for c in range(1, n - 1):
                assert hist.get(c, 0) == narayana(1, n, c + 1) // 2
                assert hist.get(-c, 0) == narayana(1, n, c + 1) // 2
            perim = [0] * (n + 1)
            for r in range(h.vertex_count):
                perim[perimeter_edge_count(h.matching(r))] += 1
            for c in range(0, n - 1):
                paired = (hist.get(0, 0) if c == 0
                          else hist.get(c, 0) + hist.get(-c, 0))
                # +-c weight pair fills one perimeter class, sized by N_1
                assert paired == perim[n - c]
                assert perim[n - c] == narayana(1, n, c + 1)
        # explicit three-step walks on one mid-size instance
        h6 = cached_graph(6, "centered")
        w6 = [weight(h6.matching(r)) for r in range(h6.vertex_count)]
        for a in range(h6.vertex_count):
            for b in h6.neighbors(a):
                d1 = w6[b] - w6[a]
                for c in h6.neighbors(b):
                    d2 = w6[c] - w6[b]
                    assert d2 == -d1
                    for d in h6.neighbors(c):
                        assert w6[d] - w6[c] == d1


def test_criterion_08_bijections():
    with criterion(8, "codec round trips and counting bijections"):
        for n in range(2, 11):
            for r, m in enumerate(enumerate_matchings(n)):
                w = to_dyck(m)
                assert from_dyck(w) == m
                assert rank(w) == r
            assert unrank(n, r) == m
        for n in (2, 4, 6, 8, 10):
            sym = [m for m in enumerate_matchings(n)
                   if is_centrally_symmetric(m)]
            assert len(sym) == comb(n, n // 2)
            for m in sym:
                assert bits_to_symmetric(n, symmetric_to_bits(m)) == m
            decoded = {bits_to_symmetric(n, "".join(
                "1" if i in ones else "0" for i in range(n)))
                for ones in combinations(range(n), n // 2)}
            assert decoded == set(sym)
        for n in (3, 5, 7, 9):
            found = sum(1 for m in enumerate_matchings(n)
                        if is_centrally_symmetric(m))
            assert found == n * catalan((n - 1) // 2) == symmetric_count(n)
        for n in range(1, 13):
            bw_hist = [0] * (n + 2)
            pk_hist = [0] * (n + 2)
            for w in dyck_words(n):
                bw_hist[band_weight(w)] += 1
                pk_hist[peaks(w)] += 1
            for k in range(1, n + 1):
                assert bw_hist[k] == pk_hist[n - k + 1]
                assert bw_hist[k] == narayana(0, n, k)
        for n in (2, 4, 6, 8):
            for m in enumerate_matchings(n):
                wm = weight(m)
                if wm == 0:
                    continue
                expect_sign = 1 if wm > 0 else -1
                total = 0
                for e in visible_edges(m):
                    assert chord_sign(n, e) == expect_sign
                    seg, _ = segment(m, e)
                    w_seg = sum(chord_sign(n, f) * chord_length(n, f)
                                for f in seg)
                    assert w_seg == expect_sign * band_weight(
                        segment_to_dyck(m, e))
                    total += w_seg
                assert total == wm


def test_criterion_09_rainbow():
    with criterion(9, "rainbow cycles: hits, exhaustive misses, thresholds"):
        res4 = find_rainbow_cycle(4, 1, graph=cached_graph(4, "centered"))
        assert res4.status == "found" and res4.length == 8
        ok, why = verify_rainbow(4, 1, res4.start, res4.cycle)
        assert ok, why
        for n in (3, 5):
            res = find_rainbow_cycle(n, 1)
            assert res.status == "none" and res.reason == "average-length"
            forced = find_rainbow_cycle(n, 1, force_search=True)
            assert forced.status == "none" and forced.reason == "parity"
        res6 = find_rainbow_cycle(6, 1, graph=cached_graph(6, "centered"))
        assert res6.status == "none" and res6.reason == "exhausted"
        t0 = time.perf_counter()
        res62 = find_rainbow_cycle(6, 2, graph=cached_graph(6, "centered"))
        assert time.perf_counter() - t0 < 3600.0
        assert res62.status == "found" and res62.length == 36
        ok, why = verify_rainbow(6, 2, res62.start, res62.cycle)
        assert ok, why
        assert nonexistence_bound(6) == Fraction(10, 3)
        assert nonexistence_bound(8) == Fraction(35, 2)
        thr6 = find_rainbow_cycle(6, 4)
        assert thr6.status == "none" and thr6.reason == "threshold"
        assert thr6.certificate == {"threshold": Fraction(10, 3),
                                    "max_component_bound": 60}
        thr8 = find_rainbow_cycle(8, 18)
        assert thr8.status == "none" and thr8.reason == "threshold"
        assert thr8.certificate == {"threshold": Fraction(35, 2),
                                    "max_component_bound": 560}


def test_criterion_10_oracle_agreement():
    with criterion(10, "integer centered test vs geometric oracle, n<=8"):
        for n in range(2, 9):
            for m in enumerate_matchings(n):
                for e, f in flippable_pairs(m):
                    assert is_centered(n, e, f) == oracle_centered(n, e, f)
