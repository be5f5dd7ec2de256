"""Randomized structural invariants over uniformly ranked matchings."""

from hypothesis import given, settings, strategies as st

from matchflip.chords import (Matching, chord_length, hidden_behind,
                              perimeter_matching, visible_edges, weight)
from matchflip.construct import canonical_flip_sequence
from matchflip.counts import catalan
from matchflip.dyck import from_dyck, rank, to_dyck, unrank
from matchflip.flips import (apply_flip, flip_cells, flippable_pairs,
                             is_centered, make_flip, replay)

import oracles
from conftest import flip_neighbors


@st.composite
def matchings(draw, sizes=tuple(range(2, 10))):
    n = draw(st.sampled_from(sizes))
    r = draw(st.integers(min_value=0, max_value=catalan(n) - 1))
    return unrank(n, r)


common = settings(max_examples=80, deadline=None, derandomize=True)


def _rotate(m, steps):
    return Matching(m.n, oracles.rotate(m.n, m.pairs, steps))


def _mirror(m):
    return Matching(m.n, oracles.mirror(m.n, m.pairs))


@common
@given(matchings(sizes=tuple(range(2, 13))))
def test_codec_round_trip(m):
    w = to_dyck(m)
    assert from_dyck(w) == m
    assert unrank(m.n, rank(w)) == m


@common
@given(matchings(), st.randoms(use_true_random=False))
def test_flips_are_involutions(m, rng):
    pairs = flippable_pairs(m)
    if not pairs:
        return
    e, f = rng.choice(pairs)
    fl = make_flip(m.n, e, f)
    g, h = fl.in1, fl.in2
    nxt = apply_flip(m, e, f)
    assert g in nxt and h in nxt
    assert apply_flip(nxt, g, h) == m
    assert is_centered(m.n, e, f) == is_centered(m.n, g, h)


@common
@given(matchings(), st.integers(min_value=1, max_value=23))
def test_rotation_is_a_flip_graph_automorphism(m, steps):
    rot = _rotate(m, steps)
    assert ({_rotate(x, steps) for x in flip_neighbors(m)} ==
            set(flip_neighbors(rot)))
    assert ({_rotate(x, steps) for x in flip_neighbors(m, "centered")} ==
            set(flip_neighbors(rot, "centered")))


@common
@given(matchings())
def test_mirror_is_a_flip_graph_automorphism(m):
    mir = _mirror(m)
    assert _mirror(mir) == m
    assert ({_mirror(x) for x in flip_neighbors(m)} ==
            set(flip_neighbors(mir)))
    assert ({_mirror(x) for x in flip_neighbors(m, "centered")} ==
            set(flip_neighbors(mir, "centered")))


@common
@given(matchings(sizes=(2, 4, 6, 8, 10)))
def test_weight_flips_sign_under_unit_rotation(m):
    # shifting every label by one flips the parity of every opening point
    assert weight(_rotate(m, 1)) == -weight(m)
    assert weight(_rotate(m, 2)) == weight(m)
    assert -(m.n - 2) <= weight(m) <= m.n - 2


@common
@given(matchings(sizes=(2, 4, 6, 8)))
def test_segments_partition_even_matchings(m):
    seen = []
    for e in visible_edges(m):
        seen.append(e)
        seen.extend(hidden_behind(m, e))
    assert sorted(seen) == sorted(m.pairs)


@common
@given(matchings())
def test_hidden_edge_count_matches_chord_length(m):
    n = m.n
    for e in m.pairs:
        if e[1] - e[0] == n:
            continue
        assert len(hidden_behind(m, e)) == chord_length(n, e)


@common
@given(matchings(sizes=(3, 5, 7, 9)))
def test_reduction_stays_within_budget(m):
    seq = canonical_flip_sequence(m)
    assert len(seq) <= 4 * m.n - 11
    assert all(fl.centered for fl in seq)
    # construct checks each flip as it makes it; the replay from m is
    # still the proof
    assert replay(m, seq) in (perimeter_matching(m.n),
                              perimeter_matching(m.n, shifted=True))


@common
@given(matchings())
def test_centered_neighbor_counts_never_exceed_all_flips(m):
    # flip_cells' targets and centered flags against apply_flip and
    # is_centered, one pair at a time
    cells = next(flip_cells(m.n, [(to_dyck(m), rank(m))]))
    every = sorted(rank(x) for x in flip_neighbors(m))
    cen = sorted(rank(x) for x in flip_neighbors(m, "centered"))
    assert sorted(cell[0] for cell in cells) == every
    assert sorted(cell[0] for cell in cells if cell[1]) == cen
    assert set(cen) <= set(every)
