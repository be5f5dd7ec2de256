"""Closed-form counting formulas against brute enumeration."""

from fractions import Fraction
from math import comb, pi, sqrt

import pytest

from matchflip.chords import (is_centrally_symmetric, perimeter_edge_count,
                              weight)
from matchflip.counts import (MEASURED, CountReport, CountRow, catalan,
                              class_partition_size, component_size_fraction,
                              narayana, perimeter_class_size,
                              predicted_extremes, symmetric_count,
                              verify_counts, weight_class_size)
from matchflip.dyck import enumerate_matchings

from oracles import brute_narayana


CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_catalan_values():
    assert [catalan(n) for n in range(13)] == CATALAN
    with pytest.raises(ValueError):
        catalan(-1)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_narayana_against_brute(r):
    for n in range(max(r, 1), 10):
        for k in range(1, n - r + 1):
            assert narayana(r, n, k) == brute_narayana(r, n, k)


def test_narayana_row_sums():
    for n in range(1, 12):
        assert sum(narayana(0, n, k) for k in range(1, n + 1)) == catalan(n)
    for n in range(2, 12):
        # paths with one unmatched upstep, counted by the ballot number
        assert (sum(narayana(1, n, k) for k in range(1, n)) ==
                2 * comb(2 * n - 1, n - 1) // (n + 1))


def test_narayana_domain():
    with pytest.raises(ValueError):
        narayana(0, 3, 0)
    with pytest.raises(ValueError):
        narayana(0, 3, 4)
    with pytest.raises(ValueError):
        narayana(1, 3, 3)
    with pytest.raises(ValueError):
        narayana(-1, 3, 1)
    with pytest.raises(ValueError):
        narayana(0, 0, 1)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_weight_classes_match_enumeration(n):
    hist: dict[int, int] = {}
    for m in enumerate_matchings(n):
        w = weight(m)
        hist[w] = hist.get(w, 0) + 1
    assert set(hist) <= set(range(-(n - 2), n - 1))
    assert hist.get(0, 0) == 2 * weight_class_size(n, 0) == 2
    for c in range(1, n - 1):
        assert hist.get(c, 0) == weight_class_size(n, c)
        assert hist.get(-c, 0) == weight_class_size(n, -c)
        assert weight_class_size(n, c) == weight_class_size(n, -c)


def test_weight_class_domain():
    with pytest.raises(ValueError):
        weight_class_size(5, 0)
    with pytest.raises(ValueError):
        weight_class_size(6, 5)
    with pytest.raises(ValueError):
        class_partition_size(6, -1)
    with pytest.raises(ValueError):
        class_partition_size(6, 5)
    with pytest.raises(ValueError):
        class_partition_size(5, 0)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_merged_classes_partition_everything(n):
    assert (sum(class_partition_size(n, c) for c in range(n - 1)) ==
            catalan(n))


@pytest.mark.parametrize("n", [4, 6])
def test_perimeter_classes_match_enumeration(n):
    hist = [0] * (n + 1)
    for m in enumerate_matchings(n):
        hist[perimeter_edge_count(m)] += 1
    for k in range(2, n + 1):
        assert hist[k] == perimeter_class_size(n, k)
    assert sum(hist) == catalan(n)
    with pytest.raises(ValueError):
        perimeter_class_size(n, 1)
    with pytest.raises(ValueError):
        perimeter_class_size(n, n + 1)


@pytest.mark.parametrize("n", [4, 6])
def test_weight_pairs_count_perimeter_classes(n):
    # |{weight +-c}| equals the size of the (n-c)-perimeter-edge class
    whist: dict[int, int] = {}
    phist = [0] * (n + 1)
    for m in enumerate_matchings(n):
        w = weight(m)
        whist[w] = whist.get(w, 0) + 1
        phist[perimeter_edge_count(m)] += 1
    for c in range(1, n - 1):
        assert whist.get(c, 0) + whist.get(-c, 0) == phist[n - c]
    assert whist.get(0, 0) == phist[n]


@pytest.mark.parametrize("n", range(2, 9))
def test_symmetric_count_matches_enumeration(n):
    found = sum(is_centrally_symmetric(m) for m in enumerate_matchings(n))
    assert found == symmetric_count(n)
    if n % 2 == 0:
        assert symmetric_count(n) == comb(n, n // 2)
    else:
        assert symmetric_count(n) == n * catalan((n - 1) // 2)


def test_predicted_extremes_even():
    rec = predicted_extremes(6)
    assert rec == {
        "n": 6,
        "catalan": 132,
        "max_edge_length": 2,
        "symmetric_count": 20,
        "max_degree": 3,
        "max_degree_count": MEASURED["H max degree count"][6],
        "min_degree": 1,
        "min_degree_count": 6 * catalan(2) ** 2,
        "tree_component_count": 5,
        "tree_component_size": 4,
        "component_count": 8,
        "max_component_bound": 60,
        "weight_classes": {"-4": 3, "-3": 20, "-2": 30, "-1": 12, "0": 1,
                           "1": 12, "2": 30, "3": 20, "4": 3},
        "class_partition": {"0": 4, "1": 32, "2": 60, "3": 32, "4": 4},
        "perimeter_classes": {"2": 6, "3": 40, "4": 60, "5": 24, "6": 2},
        "max_component_fraction": Fraction(5, 11),
        "max_component_fraction_float": 2 / sqrt(pi * 6),
    }


def test_predicted_extremes_odd():
    rec = predicted_extremes(5)
    assert rec == {
        "n": 5,
        "catalan": 42,
        "max_edge_length": 2,
        "symmetric_count": 10,
        "max_degree": 5,
        "max_degree_count": 2,
        "min_degree": 2,
        "min_degree_count": 5 * catalan(1) ** 2,
    }
    with pytest.raises(ValueError):
        predicted_extremes(1)


def test_component_size_fraction_values():
    frac, approx = component_size_fraction(6)
    assert frac == Fraction(5, 11)
    assert abs(approx - 2 / sqrt(6 * pi)) < 1e-12
    assert component_size_fraction(4)[0] == Fraction(4, 7)
    with pytest.raises(ValueError):
        component_size_fraction(5)


@pytest.mark.parametrize("n", range(2, 9))
def test_verify_counts_is_clean(n):
    report = verify_counts(n)
    assert report.ok
    assert report.n == n


def test_report_api():
    report = verify_counts(4)
    obj = report.as_json_obj()
    assert obj["n"] == 4 and obj["ok"] is True
    assert {r["name"] for r in obj["rows"]} >= {"matchings", "symmetric"}
    lines = report.table_lines()
    assert len(lines) == len(report.rows) + 1
    assert lines[0].startswith("quantity")
    assert all(ln.endswith("yes") for ln in lines[1:])
    bad = CountReport(4, (CountRow("matchings", 14, 13),))
    assert not bad.ok
    assert bad.table_lines()[1].endswith("NO")
