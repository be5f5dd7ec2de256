"""Constructive centered-flip routes: reduction to a perimeter matching
and the fixed-length path between the two perimeter matchings."""

import hashlib

import pytest

from matchflip.chords import Matching, diameter_chord, perimeter_matching
from matchflip.construct import canonical_flip_sequence, perimeter_swap_path
from matchflip.dyck import enumerate_matchings
from matchflip.flips import apply_flip, is_centered, make_flip, replay


def _replay_checked(m, seq):
    """Apply a flip sequence step by step, re-deriving every flip."""
    cur = m
    for fl in seq:
        assert fl.out1 in cur and fl.out2 in cur
        assert is_centered(cur.n, fl.out1, fl.out2) == fl.centered
        cur = apply_flip(cur, fl.out1, fl.out2)
        assert fl.in1 in cur and fl.in2 in cur
    return cur


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_swap_path_length_and_endpoints(n):
    seq = perimeter_swap_path(n)
    assert len(seq) == 3 * n - 7
    assert all(fl.centered for fl in seq)
    end = _replay_checked(perimeter_matching(n), seq)
    assert end == perimeter_matching(n, shifted=True)
    assert replay(perimeter_matching(n), seq) == end


def test_swap_path_reverses():
    n = 7
    seq = perimeter_swap_path(n)
    back = [make_flip(n, fl.in1, fl.in2) for fl in reversed(seq)]
    assert _replay_checked(perimeter_matching(n, shifted=True),
                           back) == perimeter_matching(n)


@pytest.mark.parametrize("n", [2, 4, 1])
def test_swap_path_rejects_bad_n(n):
    with pytest.raises(ValueError):
        perimeter_swap_path(n)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_reduction_reaches_a_perimeter_matching(n):
    targets = {perimeter_matching(n), perimeter_matching(n, shifted=True)}
    bound = 4 * n - 11
    for m in enumerate_matchings(n):
        seq = canonical_flip_sequence(m)
        assert len(seq) <= max(bound, 0)
        assert all(fl.centered for fl in seq)
        assert _replay_checked(m, seq) in targets


def test_reduction_on_perimeter_matchings_is_empty():
    for n in (3, 5, 7, 9):
        assert canonical_flip_sequence(perimeter_matching(n)) == []
        assert canonical_flip_sequence(
            perimeter_matching(n, shifted=True)) == []


def test_reduction_removes_center_edge_first():
    n = 5
    for m in enumerate_matchings(n):
        if diameter_chord(m) is None:
            continue
        seq = canonical_flip_sequence(m)
        assert seq, "a center edge always forces at least one flip"
        first = seq[0]
        assert diameter_chord(m) in (first.out1, first.out2)
        after = apply_flip(m, first.out1, first.out2)
        assert diameter_chord(after) is None


@pytest.mark.parametrize("n", [2, 4, 1])
def test_reduction_rejects_bad_n(n):
    with pytest.raises(ValueError):
        canonical_flip_sequence(perimeter_matching(n))


def test_short_instances_have_short_routes():
    # n=3: bound 4n-11 = 1, so every matching is one centered flip away
    for m in enumerate_matchings(3):
        assert len(canonical_flip_sequence(m)) <= 1


# sha256 of the repr of every route's (out1, out2, in1, in2, centered)
# records at n = 3, 5, 7 and 9, in rank order, recorded when each route
# step built a new Matching
_ROUTES_SHA256 = ("703c187937667b0882f6978017d13b28"
                  "0e74f91dd4fe1373a19c432023667ec1")


def test_routes_are_pinned():
    routes = [[(f.out1, f.out2, f.in1, f.in2, f.centered)
               for f in canonical_flip_sequence(m)]
              for n in (3, 5, 7, 9) for m in enumerate_matchings(n)]
    assert len(routes) == 5338
    digest = hashlib.sha256(repr(routes).encode()).hexdigest()
    assert digest == _ROUTES_SHA256


def test_replay_builds_one_matching(monkeypatch):
    # the replay steps one partner list and builds only its endpoint
    start, path = perimeter_matching(11), perimeter_swap_path(11)
    built = []
    init, from_partner = Matching.__init__, Matching._from_partner.__func__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_from_partner(cls, *args):
        built.append(args)
        return from_partner(cls, *args)

    monkeypatch.setattr(Matching, "__init__", counted_init)
    monkeypatch.setattr(Matching, "_from_partner",
                        classmethod(counted_from_partner))
    end = replay(start, path)
    assert len(built) == 1
    assert end == perimeter_matching(11, shifted=True)
