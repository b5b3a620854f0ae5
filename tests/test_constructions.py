"""Sentence families: fraction ordering, congruence encodings, power sets,
and the tower constructions, checked against direct number theory."""

import numpy as np
import pytest

from ringspectra.arith import frac_mod, sieve
from ringspectra.constructions import (
    FAMILIES,
    congruence_sentence,
    cyclotomic_sentence,
    exp_family,
    frac_lt,
    mod_count_sentence,
    power_residue_sentence,
    prime_sentence,
    psi_sentence,
    supexp_family,
    theta_sentence,
)
from ringspectra.density import alternating_set, geometric_sequence
from ringspectra.evaluate import RingContext, eval_naive, eval_sentence
from ringspectra.fastengine import eval_fast
from ringspectra.logic import formula_to_text, free_vars, parse_formula
from ringspectra.spectra import spectrum


def sat_set(formula, m, cross_check=False):
    """Values of z satisfying an open formula in Z_m via the fast engine."""
    ctx = RingContext(m)
    rel = eval_fast(ctx, formula)
    assert rel.cols == ("z",)
    got = [int(v) for v in rel.rows[:, 0]]
    if cross_check:
        naive = [z for z in range(m) if eval_naive(ctx, formula, {"z": z})]
        assert got == naive
    return got


def test_frac_lt_orders_ring_fractions():
    assert eval_sentence(frac_lt(3, 1, 4), 5, engine="both") is True
    assert eval_sentence(frac_lt(1, 3, 4), 5, engine="both") is False
    for m in (5, 7, 11):
        assert eval_sentence(frac_lt(2, 2, 4), m) is False
    with pytest.raises(ValueError):
        frac_lt(0, 1, 4)


def test_congruence_sentence_examples():
    theta = congruence_sentence(1, 4)
    assert eval_sentence(theta, 5, engine="both") is True
    assert eval_sentence(theta, 7, engine="both") is False
    with pytest.raises(ValueError):
        congruence_sentence(4, 4)
    with pytest.raises(ValueError):
        congruence_sentence(0, 4)


def test_congruence_sentences_detect_residues():
    table = sieve(200)
    for d in range(2, 7):
        for a in range(1, d):
            s = congruence_sentence(a, d)
            for p in table.primes:
                p = int(p)
                if p <= d:
                    continue
                assert eval_sentence(s, p) is (p % d == a), (a, d, p)


def test_fraction_minimum_sits_at_complement():
    # the smallest of 1/d .. (d-1)/d in Z_p is c/d where p + c = 0 mod d
    table = sieve(1_000)
    for d in range(2, 13):
        for p in table.primes:
            p = int(p)
            if p <= d:
                continue
            best = min(range(1, d), key=lambda i: frac_mod(i, d, p))
            assert (p + best) % d == 0, (d, p)


def test_congruence_iff_minimal_fraction():
    table = sieve(1_000)
    for d in range(2, 13):
        for p in table.primes:
            p = int(p)
            if p <= d:
                continue
            smallest = min(frac_mod(i, d, p) for i in range(1, d))
            for a in range(1, d):
                lhs = p % d == a
                rhs = frac_mod(d - a, d, p) == smallest
                assert lhs == rhs, (a, d, p)


def test_cyclotomic_sentence():
    assert eval_sentence(cyclotomic_sentence(6), 7, engine="both") is True
    c4 = cyclotomic_sentence(4)
    assert eval_sentence(c4, 5, engine="both") is True
    assert eval_sentence(c4, 7, engine="both") is False
    with pytest.raises(ValueError):
        cyclotomic_sentence(1)


def test_mod_count_sentence():
    only_two = mod_count_sentence(0, 2)
    odd = mod_count_sentence(1, 2)
    for p in (2, 3, 5, 7, 11, 13):
        assert eval_sentence(only_two, p) is (p == 2)
        assert eval_sentence(odd, p) is (p != 2)
    two_mod_five = mod_count_sentence(2, 5)
    for p in (2, 7, 11, 17, 47, 97):
        assert eval_sentence(two_mod_five, p, engine="both") is (p % 5 == 2)
    with pytest.raises(ValueError):
        mod_count_sentence(5, 5)
    with pytest.raises(ValueError):
        mod_count_sentence(0, 1)


def test_power_residue_counts_nonzero_powers():
    cubes = power_residue_sentence(3, 3, 1)
    assert eval_sentence(cubes, 13, engine="both") is True  # 4 cubes, 4 = 1 mod 3
    assert eval_sentence(cubes, 7, engine="both") is False  # 2 cubes
    assert eval_sentence(cubes, 31, engine="both") is True  # 31 = 4 mod 9
    squares = power_residue_sentence(2, 2, 0)
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        assert eval_sentence(squares, p, engine="both") is (p % 4 == 1)
    with pytest.raises(ValueError):
        power_residue_sentence(1, 3, 0)
    with pytest.raises(ValueError):
        power_residue_sentence(3, 3, 3)


def test_prime_sentence_matches_primality():
    s = prime_sentence()
    for m in range(2, 61):
        is_p = all(m % d for d in range(2, m))
        assert eval_sentence(s, m) is is_p, m


def test_exp_family_frozen_sets():
    fam = exp_family(3)
    assert sat_set(fam.exp, 101) == [1, 3, 9, 27, 81]
    assert sat_set(fam.maxexp, 101) == [81]
    assert sat_set(fam.maxexp_sq, 101) == [81]
    assert sat_set(fam.exp_sq, 50) == [1, 9]
    # small ring, verified against the reference engine
    assert sat_set(fam.exp, 30, cross_check=True) == [1, 3, 9, 27]
    assert sat_set(fam.maxexp, 30, cross_check=True) == [27]


def test_composite_base_rejected():
    with pytest.raises(ValueError):
        exp_family(4)
    with pytest.raises(ValueError):
        supexp_family(6)
    with pytest.raises(ValueError):
        psi_sentence(9)
    with pytest.raises(ValueError):
        theta_sentence(15)


def test_supexp_frozen_sets():
    fam2 = supexp_family(2)
    assert sat_set(fam2.supexp, 100) == [2, 4, 16]
    assert sat_set(fam2.supexp_sq, 100) == [2, 16]
    assert sat_set(fam2.supmaxexp, 100) == [16]
    assert sat_set(fam2.supmaxexp_sq, 100) == [16]
    fam3 = supexp_family(3)
    assert sat_set(fam3.supexp, 30, cross_check=True) == [3, 27]


def test_psi_interval_pattern():
    psi = psi_sentence(3)
    table = sieve(250)

    def in_pattern(p):
        n = 1
        while n < p:
            if n < p < 3 * n:
                return True
            n *= 9
        return False

    for p in table.primes:
        p = int(p)
        if p <= 3:
            continue
        assert eval_sentence(psi, p) is in_pattern(p), p


def test_psi_spot_values():
    psi = psi_sentence(3)
    assert eval_sentence(psi, 11, engine="both") is True  # 9 < 11 < 27
    assert eval_sentence(psi, 29, engine="both") is False  # 27 < 29 < 81


def test_psi_spectrum_is_its_closed_form():
    # above q, psi(q) holds exactly between q^2n and q^2n+1: the alternating
    # set of 19, 19^2, 19^3, 19^4 is the primes in (361, 6859)
    got = spectrum(psi_sentence(19), 7500, workers=1)
    want = alternating_set(geometric_sequence(19, 4), 7500)
    above = got.table.primes > 19
    assert np.array_equal(got.bits[above], want.bits[above])
    # psi(3) holds from 9^5 to 3 * 9^5 = 177147, which lies between these primes
    assert eval_sentence(psi_sentence(3), 177131) is True
    assert eval_sentence(psi_sentence(3), 177167) is False


def test_theta_tower_intervals():
    theta = theta_sentence(2)
    # towers 2^(2^n): maximal plain and square towers coincide on (2,4) and
    # (16,256); 13 sits in the excluded (4,16), 257 just past 256
    for p, want in ((3, True), (13, False), (17, True), (251, True), (257, False)):
        assert eval_sentence(theta, p) is want, p


def test_family_registry():
    assert sorted(FAMILIES) == [
        "congruence",
        "cyclotomic",
        "modcount",
        "powres",
        "prime",
        "psi",
        "theta",
    ]
    s = FAMILIES["congruence"].build(a=2, d=5)
    assert not free_vars(s)
    assert eval_sentence(s, 7) is True  # 7 = 2 mod 5
    assert FAMILIES["prime"].build() == prime_sentence()
    with pytest.raises(ValueError):
        FAMILIES["psi"].build(q=3, extra=1)
    with pytest.raises(ValueError):
        FAMILIES["congruence"].build(a=1)


def test_built_sentences_round_trip_through_grammar():
    builds = [
        congruence_sentence(2, 5),
        cyclotomic_sentence(8),
        mod_count_sentence(2, 5),
        power_residue_sentence(3, 3, 1),
        prime_sentence(),
        psi_sentence(3),
        theta_sentence(2),
    ]
    for s in builds:
        assert parse_formula(formula_to_text(s)) == s
