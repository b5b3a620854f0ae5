"""Spectrum computation, Boolean algebra on spectra, and classification."""

import math

import numpy as np
import pytest

from ringspectra import evaluate, fastengine
from ringspectra.arith import IntPolynomial, cyclotomic, poly_roots_mod, sieve
from ringspectra.constructions import congruence_sentence, cyclotomic_sentence
from ringspectra.errors import DegenerateInputError, ResourceLimitError
from ringspectra.logic import parse_sentence
from ringspectra.spectra import (
    CongruenceClass,
    Spectrum,
    almost_equal,
    class_spectrum,
    complement,
    exceptional_moduli,
    fit_congruences,
    from_members,
    intersection,
    lagarias_in_B,
    poly_spectrum,
    power_residue_count,
    resolve_workers,
    spectrum,
    union,
)

X2P1 = IntPolynomial((1, 0, 1))  # x^2 + 1
X2M2 = IntPolynomial((-2, 0, 1))  # x^2 - 2


def test_quadratic_spectrum_small_bound():
    s = spectrum(parse_sentence("E x. (x * x + 1 = 0)"), 100)
    assert s.members() == [2, 5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    assert poly_spectrum(X2P1, 100) == s


def test_trivial_sentences():
    assert spectrum(parse_sentence("0 = 0"), 50).count() == 15
    assert spectrum(parse_sentence("!(0 = 0)"), 50).count() == 0


def test_poly_and_sentence_paths_agree():
    texts = {
        X2P1: "E x. (x * x + 1 = 0)",
        X2M2: "E x. (x * x = 2)",
        IntPolynomial((-2, 0, 0, 1)): "E x. (x * x * x = 2)",
        cyclotomic(5): "E x. (x*x*x*x + x*x*x + x*x + x + 1 = 0)",
    }
    for f, text in texts.items():
        assert poly_spectrum(f, 500) == spectrum(parse_sentence(text), 500)


def test_linear_poly_always_has_root():
    s = poly_spectrum(IntPolynomial((-5, 1)), 30)
    assert s.members() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sqrt_minus_two_spectrum():
    assert poly_spectrum(X2M2, 50).members() == [2, 7, 17, 23, 31, 41, 47]


def test_quadratic_residue_congruence_structure():
    f = poly_spectrum(X2P1, 10_000)
    target = class_spectrum(4, [1], 10_000) | from_members([2], 10_000)
    assert almost_equal(f, target).exceptions == ()

    g = poly_spectrum(X2M2, 10_000)
    target = class_spectrum(8, [1, 7], 10_000) | from_members([2], 10_000)
    assert almost_equal(g, target).exceptions == ()


def test_boolean_combination_carves_residue_class():
    f = poly_spectrum(X2P1, 10_000)
    g = poly_spectrum(X2M2, 10_000)
    mix = intersection(complement(g), f)
    rep = almost_equal(mix, class_spectrum(8, [5], 10_000), threshold=2)
    assert rep.plausible
    assert set(rep.exceptions) <= {2}


def test_boolean_algebra_identities():
    s = poly_spectrum(X2P1, 300)
    assert union(s, complement(s)).count() == len(s.table)
    assert intersection(s, complement(s)).count() == 0
    with pytest.raises(ValueError):
        union(s, poly_spectrum(X2P1, 200))


def test_almost_equal_reflexive_and_reports():
    s = poly_spectrum(X2P1, 200)
    rep = almost_equal(s, s)
    assert rep.exceptions == () and rep.largest is None and rep.plausible

    f6 = poly_spectrum(cyclotomic(6), 10_000)
    rep = almost_equal(f6, class_spectrum(6, [1], 10_000), threshold=3)
    assert rep.exceptions == (3,)
    assert rep.largest == 3
    assert rep.plausible
    assert not almost_equal(f6, class_spectrum(6, [1], 10_000)).plausible


def test_cyclotomic_spectra_contain_unit_class():
    for n in (3, 4, 5, 8, 12):
        fn = poly_spectrum(cyclotomic(n), 2_000)
        rep = almost_equal(class_spectrum(n, [1], 2_000), fn, threshold=n)
        assert rep.left_only == ()  # class inside spectrum, no exceptions
        for p in rep.right_only:
            assert n % p == 0


def test_schur_style_infinitude_evidence():
    for f in (X2P1, X2M2, IntPolynomial((-2, 0, 0, 1)), cyclotomic(5)):
        assert poly_spectrum(f, 10_000).count() >= 100


def test_lagarias_criterion():
    assert lagarias_in_B(5, 8) is True
    assert lagarias_in_B(2, 5) is False
    assert lagarias_in_B(1, 7) is True
    assert lagarias_in_B(4, 6) is True  # shares a factor with 6
    with pytest.raises(ValueError):
        lagarias_in_B(5, 5)
    with pytest.raises(ValueError):
        lagarias_in_B(0, 5)


def test_exceptional_moduli_frozen_list():
    assert exceptional_moduli(30) == [1, 2, 3, 4, 6, 8, 12, 24]
    assert exceptional_moduli(5) == [1, 2, 3, 4]
    assert 9 not in exceptional_moduli(30)  # 2^2 = 4 != 1 mod 9


def test_lagarias_consistent_with_exceptional_moduli():
    special = set(exceptional_moduli(30))
    for d in range(2, 31):
        all_classes_ok = all(lagarias_in_B(a, d) for a in range(1, d))
        assert all_classes_ok == (d in special)


def test_fit_congruences_quadratic_example():
    f = poly_spectrum(X2P1, 10_000)
    fits = {cls.modulus: cls.residues for cls, _ in fit_congruences(f, 8)}
    assert fits == {4: (1,), 8: (1, 5)}
    for cls, rep in fit_congruences(f, 8):
        assert rep.plausible  # detected classes explain everything above cutoff


def test_fit_congruences_full_set_and_interval_set():
    everything = Spectrum(2_000, np.ones(303, dtype=bool))
    for cls, rep in fit_congruences(everything, 6):
        want = tuple(a for a in range(1, cls.modulus) if math.gcd(a, cls.modulus) == 1)
        assert cls.residues == want
        assert rep.plausible

    table = sieve(10_000)
    interval = from_members(
        [int(p) for p in table.primes if 100 < p < 200], 10_000
    )
    assert fit_congruences(interval, 12) == []


def test_power_residue_count_examples():
    assert power_residue_count(13, 3) == 4
    assert power_residue_count(13, 5) == 12
    assert power_residue_count(11, 1) == 10
    for p in (7, 13, 19, 31):
        for n in (2, 3):
            if (p - 1) % n == 0:
                assert power_residue_count(p, n) == (p - 1) // n
    with pytest.raises(ValueError):
        power_residue_count(15, 2)


def test_spectrum_determinism_across_workers():
    s = parse_sentence("E x. (x * x + 1 = 0)")
    assert spectrum(s, 2_000, workers=1) == spectrum(s, 2_000, workers=3)


def test_worker_resolution(monkeypatch):
    monkeypatch.delenv("RINGSPECTRA_WORKERS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(4) == 4
    monkeypatch.setenv("RINGSPECTRA_WORKERS", "6")
    assert resolve_workers() == 6
    assert resolve_workers(2) == 2  # explicit argument wins
    monkeypatch.setenv("RINGSPECTRA_WORKERS", "zero")
    with pytest.raises(ValueError):
        resolve_workers()
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_spectrum_error_names_offending_prime():
    hard = parse_sentence("E x. E y. E z. (x + y = z & x < y & y < z)")
    with pytest.raises(ResourceLimitError) as exc:
        spectrum(hard, 500, tuple_budget=900)
    assert "at prime" in str(exc.value)


def test_validation_errors():
    with pytest.raises(DegenerateInputError):
        poly_spectrum(IntPolynomial((7,)), 100)
    with pytest.raises(ValueError):
        spectrum(parse_sentence("0 = 0"), 1)
    with pytest.raises(ValueError):
        Spectrum(100, np.ones(7, dtype=bool))
    with pytest.raises(ValueError):
        CongruenceClass(4, ())
    with pytest.raises(ValueError):
        CongruenceClass(4, (5,))
    with pytest.raises(ValueError):
        CongruenceClass(1, (0,))


def test_membership_and_counts():
    s = from_members([5, 13, 17], 100)
    assert 13 in s and 7 not in s and 99 not in s
    assert s.counts_up_to([4, 5, 13, 100]) == [0, 1, 2, 3]
    assert s.members() == [5, 13, 17]
    cls = CongruenceClass(6, (1, 4))
    assert cls.unit_flags() == (True, False)
    assert cls.spectrum(50).members() == [7, 13, 19, 31, 37, 43]


def test_poly_spectrum_counts_vanishing_reduction_as_member():
    # leading coefficients divisible by p collapse the polynomial mod p
    f = IntPolynomial((6, 0, 6))  # 6x^2 + 6 vanishes identically mod 2 and 3
    s = poly_spectrum(f, 30)
    assert 2 in s and 3 in s
    assert (5 in s) == bool(poly_roots_mod(IntPolynomial((1, 0, 1)), 5))


def test_default_spectrum_never_calls_the_reference_evaluator(monkeypatch):
    s = cyclotomic_sentence(20)
    calls = []
    original = evaluate.eval_naive

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # the package reaches the reference evaluator only through evaluate
    monkeypatch.setattr(evaluate, "eval_naive", counting)
    assert not hasattr(fastengine, "eval_naive")
    sp = spectrum(s, 500, workers=1)
    assert calls == []
    naive = [evaluate.eval_sentence(s, int(p), engine="naive") for p in sp.table.primes]
    assert len(calls) >= len(naive) > 0  # the wrapper does see reference calls
    assert sp.bits.tolist() == naive


def test_sweep_compiles_the_sentence_once(monkeypatch):
    s = congruence_sentence(5, 12)
    fastengine._plan.cache_clear()
    compiled = []
    original = fastengine._compile

    def counting(formula):
        compiled.append(formula)
        return original(formula)

    monkeypatch.setattr(fastengine, "_compile", counting)
    sp = spectrum(s, 2000, workers=1)
    assert len(sp.table.primes) == 303
    assert compiled == [s]
    # p = 5 mod 12, except 5 itself: the sentence needs p > 12
    assert sp.members() == [
        int(p) for p in sp.table.primes if p % 12 == 5 and p != 5
    ]
