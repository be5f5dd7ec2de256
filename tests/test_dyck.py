"""Balanced-word codec: round trips, rank order, statistics, sub-codecs."""

from math import comb

import pytest

from matchflip.chords import (Matching, mirror, perimeter_edge_count,
                              perimeter_matching, rotate)
from matchflip import dyck
from matchflip.counts import catalan
from matchflip.errors import VerificationError
from matchflip.dyck import (band_weight, bits_to_symmetric, dyck_words,
                            enumerate_matchings, from_dyck, orbit_minima,
                            orbit_ranks, peaks, rank, segment_to_dyck,
                            symmetric_to_bits, to_dyck, unrank,
                            validate_word)

import oracles
from oracles import (brute_band_weight, brute_peaks, is_noncrossing,
                     successor_words)


@pytest.mark.parametrize("n", range(1, 8))
def test_orbit_ranks_are_the_dihedral_images(n):
    minima, rotation_minima = orbit_minima(n), orbit_minima(n, mirrors=False)
    for r, m in enumerate(enumerate_matchings(n)):
        w = to_dyck(m)
        rotations = [rank(rotate(m, k)) for k in range(2 * n)]
        mirrored = [rank(rotate(mirror(m), k)) for k in range(2 * n)]
        assert list(orbit_ranks(w, mirrors=False)) == rotations
        assert list(orbit_ranks(w)) == rotations + mirrored
        assert rotations[0] == r
        assert minima[r] == (r == min(rotations + mirrored))
        assert rotation_minima[r] == (r == min(rotations))


@pytest.mark.parametrize("n", range(1, 9))
def test_word_round_trip_full(n):
    seen = set()
    for m in enumerate_matchings(n):
        w = to_dyck(m)
        assert len(w) == 2 * n
        assert from_dyck(w) == m
        seen.add(w)
    assert len(seen) == catalan(n)


def test_words_are_noncrossing_matchings():
    for m in enumerate_matchings(5):
        assert is_noncrossing(5, m.pairs)


def _lex_key(w: str) -> str:
    # package order is U < D; ASCII sorts the other way
    return w.translate(str.maketrans("UD", "01"))


@pytest.mark.parametrize("n", range(1, 8))
def test_rank_unrank_is_lexicographic(n):
    words = [to_dyck(unrank(n, r)) for r in range(catalan(n))]
    assert words == sorted(words, key=_lex_key)
    assert words[0] == "U" * n + "D" * n
    assert words[-1] == "UD" * n
    assert unrank(n, catalan(n) - 1) == perimeter_matching(n)
    for r, w in enumerate(words):
        assert rank(w) == r
        assert rank(from_dyck(w)) == r


def test_rank_spot_checks_large():
    n = 10
    assert rank(unrank(n, 0)) == 0
    assert rank(unrank(n, 12345)) == 12345
    assert rank(unrank(n, catalan(n) - 1)) == catalan(n) - 1


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank(3, -1)
    with pytest.raises(ValueError):
        unrank(3, catalan(3))


@pytest.mark.parametrize("n", range(1, 7))
def test_stream_matches_rank_order(n):
    words = list(dyck_words(n))
    assert words == [to_dyck(unrank(n, r)) for r in range(catalan(n))]
    ms = list(enumerate_matchings(n))
    assert [to_dyck(m) for m in ms] == words


@pytest.mark.parametrize("n", range(1, 8))
def test_stream_from_every_rank_equals_successor_oracle(n):
    words = successor_words(n)
    assert len(words) == catalan(n)
    for s in range(len(words)):
        assert list(dyck_words(n, s)) == words[s:]


@pytest.mark.parametrize("n", range(8, 13))
def test_stream_from_sampled_ranks_equals_successor_oracle(n):
    words = successor_words(n)
    last = len(words) - 1
    # ranks at which the first n letters change, i.e. a new prefix starts
    fresh = [r for r in range(1, len(words))
             if words[r][:n] != words[r - 1][:n]]
    mid = fresh[len(fresh) // 2]
    starts = {0, 1, last // 7, last // 2, last - 1, last,
              fresh[0], fresh[-1], mid - 1, mid, mid + 1}
    for s in sorted(starts):
        assert list(dyck_words(n, s)) == words[s:], s


def test_validate_word_accepts_both_alphabets():
    assert validate_word("UUDD") == "UUDD"
    assert validate_word("(())") == "UUDD"
    assert to_dyck(from_dyck("()()")) == "UDUD"


@pytest.mark.parametrize("bad", ["UDD", "DU", "UDDU", "UDX", "UU", "((", ")("])
def test_validate_word_rejections(bad):
    with pytest.raises(ValueError):
        validate_word(bad)


def test_from_dyck_rejects_empty():
    with pytest.raises(ValueError):
        from_dyck("")


@pytest.mark.parametrize("n", range(2, 12))
def test_word_census_equals_partner_references(n):
    # symmetry, weight and the (1, 2n) chord are read from the word; the
    # partner-array forms they replaced are the references
    for w in dyck_words(n):
        p = dyck._partner_from_word(w)
        assert dyck._symmetric(n, w) == oracles.partner_symmetric(n, p), w
        assert dyck._wraps(n, w) == (p[1] == 2 * n), w
        if n % 2 == 0:
            assert dyck._weight(n, w) == oracles.partner_weight(n, p), w


@pytest.mark.parametrize("n", [2, 4, 6])
def test_partner_weight_reference_equals_geometric_oracle(n):
    for m in enumerate_matchings(n):
        assert (oracles.partner_weight(n, m._partner)
                == oracles.oracle_weight(n, m.pairs)), m


def test_peaks_and_band_weight_hand_values():
    assert peaks("UUDD") == 1
    assert peaks("UDUD") == 2
    assert peaks("UUDUDD") == 2
    assert band_weight("UUDD") == 1
    assert band_weight("UDUD") == 2
    assert band_weight("UUDUDD") == 1
    assert band_weight("UUUUDDDD") == 2


@pytest.mark.parametrize("n", range(1, 8))
def test_statistics_against_brute(n):
    for w in dyck_words(n):
        assert peaks(w) == brute_peaks(w)
        assert band_weight(w) == brute_band_weight(w)


@pytest.mark.parametrize("n", range(1, 8))
def test_peak_count_distribution_mirrors_band_weight(n):
    from collections import Counter
    bw = Counter()
    pk = Counter()
    for w in dyck_words(n):
        bw[band_weight(w)] += 1
        pk[peaks(w)] += 1
    # same distribution after the reflection k -> n - k + 1
    assert bw == Counter({n - k + 1: v for k, v in pk.items()})


@pytest.mark.parametrize("n", range(2, 8))
def test_peaks_count_short_edges(n):
    # a UD factor at positions i, i+1 is exactly the edge (i, i+1), so
    # peaks misses only the wrapped short edge (1, 2n)
    for m in enumerate_matchings(n):
        wrapped = 1 if m.partner_of(1) == 2 * n else 0
        assert peaks(to_dyck(m)) == perimeter_edge_count(m) - wrapped


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_symmetric_bit_codec_round_trip(n):
    from itertools import combinations
    from matchflip.chords import is_centrally_symmetric
    seen = set()
    for ones in combinations(range(n), n // 2):
        bits = "".join("1" if i in ones else "0" for i in range(n))
        m = bits_to_symmetric(n, bits)
        assert is_centrally_symmetric(m)
        assert symmetric_to_bits(m) == bits
        seen.add(m)
    assert len(seen) == comb(n, n // 2)
    # and the decoder inverts the encoder on every symmetric matching
    sym = [m for m in enumerate_matchings(n) if is_centrally_symmetric(m)]
    assert set(sym) == seen
    for m in sym:
        assert bits_to_symmetric(n, symmetric_to_bits(m)) == m


def test_symmetric_decoding_self_check_raises(monkeypatch):
    monkeypatch.setattr(dyck, "symmetric_to_bits", lambda m: "0101")
    with pytest.raises(VerificationError):
        bits_to_symmetric(4, "1100")


def test_symmetric_bit_codec_rejections():
    with pytest.raises(ValueError):
        symmetric_to_bits(Matching.from_text(3, "1-2,3-6,4-5"))  # odd n
    with pytest.raises(ValueError):
        symmetric_to_bits(Matching.from_text(4, "1-2,3-8,4-5,6-7"))
    with pytest.raises(ValueError):
        bits_to_symmetric(3, "101")
    with pytest.raises(ValueError):
        bits_to_symmetric(4, "10")
    with pytest.raises(ValueError):
        bits_to_symmetric(4, "1110")
    with pytest.raises(ValueError):
        bits_to_symmetric(4, "10a0")


def test_segment_word_reads_minority_arc_in_arc_order():
    m = Matching.from_text(6, "2-9,3-4,5-6,7-8,10-11,1-12")
    # (2,9) opens at 9; the hidden arc 10,11,12,1 carries two edges
    assert segment_to_dyck(m, (2, 9)) == "UDUD"
    assert segment_to_dyck(m, (3, 4)) == ""
    m2 = Matching.from_text(6, "1-6,2-5,3-4,7-8,9-10,11-12")
    assert segment_to_dyck(m2, (1, 6)) == "UUDD"


def test_segment_word_rejects_invisible_or_missing_edges():
    m = Matching.from_text(6, "2-9,3-4,5-6,7-8,10-11,1-12")
    with pytest.raises(ValueError):
        segment_to_dyck(m, (10, 11))  # hidden behind (2,9)
    with pytest.raises(ValueError):
        segment_to_dyck(m, (1, 2))    # not an edge
    with pytest.raises(ValueError):
        # a diameter chord never counts as visible
        segment_to_dyck(Matching.from_text(3, "1-6,2-5,3-4"), (2, 5))
