import random
from itertools import combinations

import pytest

from matchflip import (Flip, Matching, apply_flip, diameter_chord,
                       flippable_pairs, is_centered, make_flip, replay)
from matchflip.counts import catalan
from matchflip.dyck import (_unrank_word, dyck_words, enumerate_matchings,
                            rank, unrank)
from matchflip.flips import _in_chords, flip_cells

import oracles
from conftest import cached_graph, flip_neighbors


@pytest.mark.parametrize("n", range(2, 8))
def test_flippable_pairs_against_brute_force(n):
    # flippable_pairs reads the (a, b, c, d) chord fields of flip_cells;
    # apply_flip decides every pair of chords on its own, blocked ones too
    for m in enumerate_matchings(n):
        expect = oracles.oracle_flippable_pairs(n, m.pairs)
        got = flippable_pairs(m)
        assert sorted(got) == sorted(expect), m
        for e, f in got:
            assert set(_in_chords(e, f)) == set(expect[(e, f)]), (m, e, f)
        for e, f in combinations(m.pairs, 2):
            if (e, f) not in expect:
                with pytest.raises(ValueError):
                    apply_flip(m, e, f)
                continue
            nxt = apply_flip(m, e, f)
            assert all(c in nxt for c in expect[(e, f)]), (m, e, f)


@pytest.mark.parametrize("n", range(2, 7))
def test_centered_against_float_oracle(n):
    for m in enumerate_matchings(n):
        for e, f in flippable_pairs(m):
            assert is_centered(n, e, f) == oracles.oracle_centered(n, e, f)


def test_in_chords_patterns():
    # side-by-side pair closes over, nested pair opens up
    assert set(_in_chords((1, 2), (3, 4))) == {(2, 3), (1, 4)}
    assert set(_in_chords((1, 4), (2, 3))) == {(1, 2), (3, 4)}
    assert set(_in_chords((2, 9), (4, 7))) == {(2, 4), (7, 9)}
    assert set(_in_chords((4, 7), (2, 9))) == {(2, 4), (7, 9)}


def test_apply_flip_round_trip():
    for n in (3, 4, 5):
        for m in enumerate_matchings(n):
            for e, f in flippable_pairs(m):
                m2 = apply_flip(m, e, f)
                assert m2 != m
                assert len(set(m.pairs) ^ set(m2.pairs)) == 4
                g, h = _in_chords(e, f)
                assert apply_flip(m2, g, h) == m


def test_apply_flip_rejects_bad_pairs():
    m = Matching(4, [(1, 2), (3, 4), (5, 6), (7, 8)])
    with pytest.raises(ValueError):
        apply_flip(m, (1, 2), (1, 2))
    with pytest.raises(ValueError):
        apply_flip(m, (1, 2), (2, 3))      # not an edge of m


def test_blocked_pair_exists_and_rejected():
    # {1,2} and {4,5} cannot flip: {3,8} separates them
    m = Matching(4, [(1, 2), (3, 8), (4, 5), (6, 7)])
    pairs = flippable_pairs(m)
    assert ((1, 2), (4, 5)) not in pairs
    with pytest.raises(ValueError):
        apply_flip(m, (1, 2), (4, 5))


def test_make_flip_fields():
    fl = make_flip(3, (1, 2), (3, 4))
    assert fl.out1 == (1, 2) and fl.out2 == (3, 4)
    assert {fl.in1, fl.in2} == {(2, 3), (1, 4)}
    assert fl.centered == is_centered(3, (1, 2), (3, 4))
    rev = make_flip(3, fl.in1, fl.in2)         # the flip back
    assert {rev.out1, rev.out2} == {fl.in1, fl.in2}
    assert {rev.in1, rev.in2} == {fl.out1, fl.out2}
    assert rev.centered == fl.centered


@pytest.mark.parametrize("e, f", [((1, 2), (2, 5)), ((1, 2), (1, 4)),
                                  ((3, 6), (1, 6)), ((1, 4), (2, 5))])
def test_chords_sharing_an_endpoint_or_interleaving_are_rejected(e, f):
    # the first three share an endpoint, the last pair interleaves
    for check in (is_centered, make_flip):
        with pytest.raises(ValueError):
            check(3, e, f)


def test_replay_checks_each_step():
    m = Matching(3, [(1, 2), (3, 4), (5, 6)])
    f1 = make_flip(3, (1, 2), (3, 4))
    end = replay(m, [f1])
    assert (2, 3) in end and (1, 4) in end
    # a flip that does not apply must be rejected mid-replay, and so must
    # a record whose in-chords or centered flag are not what the flip does
    for bad in ([f1, f1],
                [Flip(f1.out1, f1.out2, (1, 6), (2, 5), f1.centered)],
                [Flip(f1.out1, f1.out2, f1.in1, f1.in2, not f1.centered)]):
        with pytest.raises(ValueError):
            replay(m, bad)


@pytest.mark.parametrize("mode", ("all", "centered"))
def test_neighbors_match_flippable_pairs(mode):
    # distinct pairs give distinct neighbours, and each flips back to m in
    # the same mode
    for n in (3, 4, 5):
        for m in enumerate_matchings(n):
            nbrs = flip_neighbors(m, mode)
            assert len(set(nbrs)) == len(nbrs)
            assert all(m in flip_neighbors(x, mode) for x in nbrs), m


@pytest.mark.parametrize("mode", ("all", "centered"))
def test_neighbors_in_rank_order(mode):
    # a FlipGraph row is the apply_flip neighbours' ranks, increasing
    for n in (3, 4, 5, 6):
        g = cached_graph(n, mode)
        for r in range(g.vertex_count):
            row = list(g.neighbors(r))
            assert all(x < y for x, y in zip(row, row[1:])), r
            got = {rank(x) for x in flip_neighbors(unrank(n, r), mode)}
            assert row == sorted(got), r


@pytest.mark.parametrize("n", (3, 5, 7))
def test_diameter_flips_are_centered(n):
    # odd n: any flip that moves the diameter chord is automatically centered
    for m in enumerate_matchings(n):
        d = diameter_chord(m)
        if d is None:
            continue
        for e, f in flippable_pairs(m):
            if d in (e, f):
                assert is_centered(n, e, f), (m, e, f)


def test_centered_quadrilateral_length_sum():
    # the four side lengths of a centered flip sum to n-2, and only then
    from matchflip import chord_length
    for n in (4, 5, 6):
        for m in enumerate_matchings(n):
            for e, f in flippable_pairs(m):
                g, h = _in_chords(e, f)
                total = sum(chord_length(n, c) for c in (e, f, g, h))
                assert is_centered(n, e, f) == (total == n - 2)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("mode", ("all", "centered"))
def test_flip_stream_equals_one_word_streams(n, mode):
    # the stream keeps the prefix each word shares with the one before;
    # out of rank order, repeated, changed only in the two letters before
    # the final D (ranks C_n - 2 and C_n - 1), or jumping from the last
    # rank back to 0, every word must get the cells it gets alone
    v = catalan(n)
    rng = random.Random(n)
    ranks = [rng.randrange(v) for _ in range(60)]
    ranks += [ranks[-1], ranks[-1], v - 2, v - 1, v - 2, v - 1, 0, 0]
    stream = [(_unrank_word(n, r), r) for r in ranks]
    centered_only = mode == "centered"
    g = cached_graph(n, mode)
    got = list(flip_cells(n, stream, centered_only))
    assert len(got) == len(stream)
    for (w, r), cells in zip(stream, got):
        alone = sorted(next(flip_cells(n, [(w, r)], centered_only)))
        assert sorted(cells) == alone, (w, r)
        assert [cell[0] for cell in alone] == list(g.neighbors(r))


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("mode", ("all", "centered"))
def test_upward_cells_are_the_flips_to_higher_ranks(n, mode):
    # a parent-child flip goes up in rank and a sibling flip down, so the
    # upward cells of each word are its full cells above its rank
    words = list(zip(dyck_words(n), range(catalan(n))))
    centered_only = mode == "centered"
    full = flip_cells(n, words, centered_only)
    up = flip_cells(n, words, centered_only, upward=True)
    for (w, r), cells, upward in zip(words, full, up, strict=True):
        assert sorted(upward) == sorted(c for c in cells if c[0] > r), w
