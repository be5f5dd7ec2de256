"""Rainbow cycle search: certificates, exhaustive searches, verification."""

import gc
from fractions import Fraction

import pytest

from matchflip import rainbow
from matchflip.chords import chord_length
from matchflip.cli import EXIT_MISMATCH, main
from matchflip.dyck import rank, unrank
from matchflip.errors import VerificationError
from matchflip.flips import Flip, make_flip
from matchflip.rainbow import (admissible_chords, find_rainbow_cycle,
                               nonexistence_bound, odd_average_certificate,
                               verify_rainbow)

from conftest import cached_census
from oracles import oracle_rainbow_dfs


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_admissible_chords_are_the_odd_span_chords(n):
    chords = admissible_chords(n)
    assert len(chords) == n * n
    assert len(set(chords)) == n * n
    assert list(chords) == sorted(chords)
    for a, b in chords:
        assert 1 <= a < b <= 2 * n
        assert (b - a) % 2 == 1
        chord_length(n, (a, b))  # must be constructible


def test_nonexistence_bound_values():
    assert nonexistence_bound(6) == Fraction(10, 3)
    assert nonexistence_bound(8) == Fraction(35, 2)
    assert nonexistence_bound(4) == Fraction(2 * 8, 16)
    with pytest.raises(ValueError):
        nonexistence_bound(5)


def test_odd_average_certificate_values():
    cert = odd_average_certificate(5)
    assert cert["average_chord_length"] == Fraction(4, 5)
    assert cert["max_flip_average_length"] == Fraction(3, 4)
    assert cert["average_chord_length"] > cert["max_flip_average_length"]
    cert3 = odd_average_certificate(3)
    assert cert3["average_chord_length"] == Fraction(1, 3)
    assert cert3["max_flip_average_length"] == Fraction(1, 4)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_every_odd_size_gets_the_averaging_certificate(n):
    cert = odd_average_certificate(n)
    assert cert["average_chord_length"] > cert["max_flip_average_length"]
    res = find_rainbow_cycle(n, 1)
    assert res.status == "none" and res.reason == "average-length"
    assert res.certificate == cert


def test_smallest_instance_has_no_cycle_at_all():
    # the two matchings on 4 points form a single tree component
    res = find_rainbow_cycle(2, 1)
    assert res.status == "none" and res.reason == "component-size"
    assert res.certificate == {"required_length": 2,
                               "largest_cyclic_component": 0}


def test_found_single_visit_cycle():
    res = find_rainbow_cycle(4, 1)
    assert res.status == "found"
    assert res.length == 8
    assert len(res.cycle) == 8
    assert all(fl.centered for fl in res.cycle)
    ok, why = verify_rainbow(4, 1, res.start, res.cycle)
    assert ok, why


def test_found_double_visit_cycle():
    res = find_rainbow_cycle(6, 2)
    assert res.status == "found"
    assert res.length == 36
    ok, why = verify_rainbow(6, 2, res.start, res.cycle)
    assert ok, why


def test_failed_replay_of_found_cycle_raises(monkeypatch, capsys):
    # an explicit check, so it holds under python -O as well
    monkeypatch.setattr(rainbow, "verify_rainbow", lambda *a: (False, "x"))
    with pytest.raises(VerificationError):
        find_rainbow_cycle(6, 2)
    assert main(["rainbow", "--n", "6", "--r", "2"]) == EXIT_MISMATCH
    assert capsys.readouterr().out == ""


def test_exhaustive_none_even():
    res = find_rainbow_cycle(6, 1)
    assert res.status == "none" and res.reason == "exhausted"
    assert res.certificate is None
    assert res.expanded == 1202
    # the golden CLI digests stop at n = 7
    res8 = find_rainbow_cycle(8, 1)
    assert (res8.status, res8.reason) == ("none", "exhausted")
    assert res8.expanded == 372755


def test_exhaustive_none_odd_forced():
    res = find_rainbow_cycle(5, 2, force_search=True)
    assert res.status == "none" and res.reason == "exhausted"


def test_parity_rules_out_odd_products():
    res = find_rainbow_cycle(5, 1, force_search=True)
    assert res.status == "none" and res.reason == "parity"
    assert res.certificate == {"twice_length": 25}
    res3 = find_rainbow_cycle(3, 3, force_search=True)
    assert res3.status == "none" and res3.reason == "parity"


def test_threshold_certificates():
    res = find_rainbow_cycle(6, 4)
    assert res.status == "none" and res.reason == "threshold"
    assert res.certificate["threshold"] == Fraction(10, 3)
    assert res.certificate["max_component_bound"] == 60
    res8 = find_rainbow_cycle(8, 18)
    assert res8.status == "none" and res8.reason == "threshold"
    assert res8.certificate["threshold"] == Fraction(35, 2)


def test_component_size_rules_out_long_cycles():
    # 3 visits of 36 chords needs 54 flips but the largest piece has 48
    res = find_rainbow_cycle(6, 3)
    assert res.status == "none" and res.reason == "component-size"
    assert res.certificate == {"required_length": 54,
                               "largest_cyclic_component": 48}
    res3 = find_rainbow_cycle(3, 2, force_search=True)
    assert res3.status == "none" and res3.reason == "component-size"
    assert res3.certificate["required_length"] == 9


def test_budget_interrupts_search():
    res = find_rainbow_cycle(6, 2, budget=50)
    assert res.status == "budget"
    assert res.reason is None
    assert res.expanded == 50
    res8 = find_rainbow_cycle(8, 2, budget=20000)
    assert res8.status == "budget" and res8.expanded == 20000


# short lengths make r >= 2 cheap to search exhaustively; n = 7 keeps the
# widest field (r = 17) and one narrow one to stay about a second
@pytest.mark.parametrize("n,r", [(n, r) for n in (4, 5, 6)
                                 for r in (1, 2, 3, 17)] + [(7, 2), (7, 17)])
def test_search_matches_list_counter_oracle(n, r):
    budget = 20000
    comps = [c for c in cached_census(n, "centered").components()
             if len(c) > 2][:3]
    for comp in comps:
        cand = {v: rainbow._candidates(n, v) for v in comp}
        probe = rainbow._Search(n, r, 2, budget)
        starts = [v for v in comp if probe.minima[v]]
        for length in range(2, 11):
            search = rainbow._Search(n, r, length, budget)
            try:
                hit, stopped = search.run(comp), False
            except rainbow._Budget:
                hit, stopped = None, True
            assert (hit, search.expanded, stopped) == oracle_rainbow_dfs(
                cand, starts, n * n, r, length, budget), (comp[0], length)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        find_rainbow_cycle(1, 1)
    with pytest.raises(ValueError):
        find_rainbow_cycle(4, 0)
    with pytest.raises(ValueError):
        find_rainbow_cycle(4, 1, budget=0)


def test_verifier_rejects_corrupted_cycles():
    res = find_rainbow_cycle(4, 1)
    flips = list(res.cycle)
    assert verify_rainbow(4, 1, res.start, flips[:-1])[0] is False
    assert verify_rainbow(4, 2, res.start, flips)[0] is False

    # swapping one flip's direction breaks the replay
    tampered = flips.copy()
    tampered[3] = make_flip(4, tampered[3].in1, tampered[3].in2)
    assert verify_rainbow(4, 1, res.start, tampered)[0] is False

    # lying about centeredness is caught
    lied = flips.copy()
    fl = lied[0]
    lied[0] = Flip(fl.out1, fl.out2, fl.in1, fl.in2, False)
    assert verify_rainbow(4, 1, res.start, lied)[0] is False

    # starting elsewhere breaks closure
    other = unrank(4, (rank(res.start) + 1) % 14)
    assert verify_rainbow(4, 1, other, flips)[0] is False


@pytest.mark.parametrize("n, r, force", [(6, 2, False), (5, 2, True)])
def test_search_leaves_no_cyclic_garbage(n, r, force):
    # each component's candidate table is freed by refcount when its
    # search ends, not left for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        find_rainbow_cycle(n, r, force_search=force)
        assert gc.collect() == 0
    finally:
        gc.enable()
