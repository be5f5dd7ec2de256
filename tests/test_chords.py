import pytest

from matchflip import (Matching, chord_length, chord_sign, diameter_chord,
                       hidden_behind, is_centrally_symmetric, make_chord,
                       max_length, opening_endpoint, perimeter_edge_count,
                       perimeter_matching, segment, visible_edges, weight)
from matchflip.chords import _hides_fast
from matchflip.construct import _anti
from matchflip.dyck import enumerate_matchings

import oracles


def all_chords(n):
    return [(a, b) for a in range(1, 2 * n + 1)
            for b in range(a + 1, 2 * n + 1) if (b - a) % 2]


def test_make_chord_normalizes_and_validates():
    assert make_chord(3, 4, 1) == (1, 4)
    with pytest.raises(ValueError):
        make_chord(3, 1, 3)         # even span never occurs in a matching
    with pytest.raises(ValueError):
        make_chord(3, 0, 1)
    with pytest.raises(ValueError):
        make_chord(3, 2, 7)
    with pytest.raises(ValueError):
        make_chord(3, 2, 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_chord_length_against_oracle(n):
    for e in all_chords(n):
        assert chord_length(n, e) == oracles.oracle_chord_length(n, e)


def test_max_length_values():
    assert [max_length(n) for n in range(2, 10)] == [0, 1, 1, 2, 2, 3, 3, 4]
    for n in range(2, 30):
        assert max_length(n) == max(chord_length(n, e)
                                    for e in all_chords(n))


@pytest.mark.parametrize("n", range(2, 8))
def test_hides_against_oracle(n):
    # every chord and every point that is not one of its endpoints
    for a, b in all_chords(n):
        for p in range(1, 2 * n + 1):
            if p not in (a, b):
                assert _hides_fast(n, a, b, p) == \
                    oracles.oracle_hides(n, (a, b), p), (a, b, p)


def test_hides_wrapped_minority_side():
    # d=5 > n=4, so the minority side of (3,8) is the wrapped arc {1,2}
    assert _hides_fast(4, 3, 8, 1) and _hides_fast(4, 3, 8, 2)
    for p in (4, 5, 6, 7):
        assert not _hides_fast(4, 3, 8, p)
    # a true diameter hides nothing
    assert not any(_hides_fast(3, 2, 5, p) for p in (1, 3, 4, 6))


@pytest.mark.parametrize("n", range(2, 9))
def test_opening_endpoint_geometry(n):
    # center lies strictly right of the ray opening -> closing
    for e in all_chords(n):
        if e[1] - e[0] == n:
            continue                # a diameter has no minority side
        p = opening_endpoint(n, e)
        q = e[0] if p == e[1] else e[1]
        pa, pb = oracles.point(n, p), oracles.point(n, q)
        assert oracles._cross(pa, pb, (0.0, 0.0)) < -oracles.TOL


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_chord_sign_against_oracle(n):
    for e in all_chords(n):
        assert chord_sign(n, e) == oracles.oracle_sign(n, e)


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching(2, [(1, 3), (2, 4)])           # crossing
    with pytest.raises(ValueError):
        Matching(2, [(1, 2), (3, 3)])
    with pytest.raises(ValueError):
        Matching(2, [(1, 2), (1, 4)])
    m = Matching(2, [(3, 4), (2, 1)])
    assert m.pairs == ((1, 2), (3, 4))


def test_matching_text_round_trip():
    m = Matching(3, [(4, 5), (1, 2), (6, 3)])
    assert m.to_text() == "1-2,3-6,4-5"
    assert repr(m) == "Matching(3, '1-2,3-6,4-5')"
    with pytest.raises(ValueError):
        Matching(3, [(1, 2)])                   # too few chords


def test_matching_lookup_api():
    m = Matching(3, [(1, 2), (3, 6), (4, 5)])
    assert (3, 6) in m and (6, 3) in m and (1, 4) not in m
    assert len(m) == 3
    assert sorted(m) == [(1, 2), (3, 6), (4, 5)]


def test_perimeter_matchings():
    m0 = perimeter_matching(4)
    assert m0.pairs == ((1, 2), (3, 4), (5, 6), (7, 8))
    shifted = perimeter_matching(4, shifted=True)
    assert (1, 8) in shifted and (2, 3) in shifted
    assert perimeter_edge_count(m0) == 4
    assert perimeter_edge_count(shifted) == 4


def test_diameter_chord():
    m = Matching(3, [(1, 4), (2, 3), (5, 6)])
    assert diameter_chord(m) == (1, 4)
    assert diameter_chord(perimeter_matching(3)) is None
    # even n has no diameters at all
    for mm in enumerate_matchings(4):
        assert diameter_chord(mm) is None


@pytest.mark.parametrize("n", range(2, 7))
def test_visible_edges_against_oracle(n):
    for m in enumerate_matchings(n):
        expect = {e for e in m.pairs
                  if oracles.oracle_visible(n, m.pairs, e)}
        assert set(visible_edges(m)) == expect, m


def test_visible_edges_excludes_diameter():
    m = Matching(3, [(1, 4), (2, 3), (5, 6)])
    vis = visible_edges(m)
    assert (1, 4) not in vis
    assert (2, 3) in vis and (5, 6) in vis


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_weight_against_oracle(n):
    for m in enumerate_matchings(n):
        assert weight(m) == oracles.oracle_weight(n, m.pairs), m


def test_hidden_behind_and_segment():
    m = Matching(6, [(2, 9), (3, 4), (5, 6), (7, 8), (10, 11), (1, 12)])
    assert set(hidden_behind(m, (2, 9))) == {(10, 11), (1, 12)}
    seg, hid = segment(m, (2, 9))
    assert set(hid) == {(10, 11), (1, 12)}
    assert set(seg) == {(2, 9), (10, 11), (1, 12)}
    with pytest.raises(ValueError):
        segment(m, (10, 11))       # hidden, hence not visible
    with pytest.raises(ValueError):
        hidden_behind(m, (1, 2))   # not even an edge of m


def test_rotate_mirror_symmetry():
    # the pair-list references that the symmetry tests compare against
    m = Matching(3, [(1, 2), (3, 6), (4, 5)])
    r = oracles.rotate(3, m.pairs, 1)
    assert r == ((1, 4), (2, 3), (5, 6))
    assert oracles.rotate(3, r, 2 * 3 - 1) == m.pairs
    assert oracles.mirror(3, oracles.mirror(3, m.pairs)) == m.pairs
    for n in (3, 4):
        for mm in enumerate_matchings(n):
            assert oracles.rotate(n, mm.pairs, 2 * n) == mm.pairs


def test_antipodal():
    # construct._anti, the one antipode map: the half turn on points
    assert (_anti(3, 1), _anti(3, 2)) == (4, 5)
    assert (_anti(3, 2), _anti(3, 5)) == (5, 2)     # diameters are fixed
    assert (_anti(4, 7), _anti(4, 8)) == (3, 4)
    assert all(_anti(n, _anti(n, x)) == x
               for n in (3, 4) for x in range(1, 2 * n + 1))


@pytest.mark.parametrize("n", range(2, 7))
def test_central_symmetry_matches_rotation(n):
    for m in enumerate_matchings(n):
        assert is_centrally_symmetric(m) == (
            oracles.rotate(n, m.pairs, n) == m.pairs)
