"""Prime tables, integer polynomials and roots vs brute-force oracles."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from ringspectra import arith
from ringspectra.arith import (
    IntPolynomial,
    cyclotomic,
    eval_mod_array,
    frac_mod,
    poly_roots_mod,
    sieve,
)
from ringspectra.errors import (
    DegenerateInputError,
    NoInverseError,
    ResourceLimitError,
)
from ringspectra.evaluate import MAX_MODULUS


# -- oracles ----------------------------------------------------------------


def _is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _long_divide(num: list[int], den: list[int]) -> list[int]:
    """Schoolbook exact division over Z, coefficients lowest first."""
    num = num[:]
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        assert r == 0
        quot[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    assert not any(num)
    return quot


# -- sieve / PrimeTable -------------------------------------------------------


def test_sieve_against_trial_division():
    table = sieve(3000)
    expected = {n for n in range(3001) if _is_prime_trial(n)}
    assert set(int(p) for p in table.primes) == expected
    assert table.pi(3000) == len(expected)


def test_prime_counts_known_values():
    table = sieve(1_000_000)
    assert table.pi(10) == 4
    assert table.pi(100) == 25
    assert table.pi(10_000) == 1229
    assert table.pi(100_000) == 9592
    assert table.pi(1_000_000) == 78498


def test_prime_table_queries():
    table = sieve(100)
    assert table.pi(1) == 0
    with pytest.raises(ResourceLimitError):
        table.pi(101)


def test_sieve_bound_cap():
    with pytest.raises(ResourceLimitError):
        sieve(5_000_001)


# -- frac_mod -----------------------------------------------------------------


def test_frac_mod_small_denominators_mod_5():
    # quarters mod 5: 1/4, 2/4, 3/4
    assert frac_mod(1, 4, 5) == 4
    assert frac_mod(2, 4, 5) == 3
    assert frac_mod(3, 4, 5) == 2


def test_frac_mod_defining_property():
    table = sieve(200)
    for p in table:
        for d in range(1, min(p, 13)):
            for a in range(1, 2 * d + 1):
                r = frac_mod(a, d, p)
                assert (r * d - a) % p == 0
                assert 0 <= r < p


def test_frac_mod_errors():
    with pytest.raises(NoInverseError):
        frac_mod(1, 5, 5)
    with pytest.raises(NoInverseError):
        frac_mod(3, 14, 7)
    with pytest.raises(ValueError):
        frac_mod(0, 4, 5)


# -- IntPolynomial ------------------------------------------------------------


def test_polynomial_arithmetic_basics():
    f = IntPolynomial((1, 0, 1))
    g = IntPolynomial((-2, 0, 1))
    assert (f * g).coeffs == (-2, 0, -1, 0, 1)
    assert (f * f).coeffs == (1, 0, 2, 0, 1)
    assert f(3) == 10
    assert f.degree == 2
    assert IntPolynomial().degree == -1


def test_exact_division_and_failure():
    f = IntPolynomial((1, 0, 1))
    g = IntPolynomial((-2, 0, 1))
    prod = f * g
    assert prod.exact_div(f) == g
    assert prod.exact_div(g) == f
    with pytest.raises(ValueError):
        IntPolynomial((2, 0, 1)).exact_div(g)


def test_cyclotomic_12_by_independent_long_division():
    # F_12 = (x^12 - 1) / (F_1 F_2 F_3 F_4 F_6), all divisors hand-coded
    hand = {
        1: [-1, 1],
        2: [1, 1],
        3: [1, 1, 1],
        4: [1, 0, 1],
        6: [1, -1, 1],
    }
    den = [1]
    for f in hand.values():
        out = [0] * (len(den) + len(f) - 1)
        for i, a in enumerate(den):
            for j, b in enumerate(f):
                out[i + j] += a * b
        den = out
    num = [-1] + [0] * 11 + [1]
    assert _long_divide(num, den) == [1, 0, -1, 0, 1]
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_product_identity():
    for n in range(1, 31):
        prod = IntPolynomial((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        expected = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
        assert prod == expected
        assert cyclotomic(n).degree == _totient(n)


def test_cyclotomic_known_small():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    # first index with a coefficient outside {-1, 0, 1}
    assert min(cyclotomic(105).coeffs) == -2


# -- poly_roots_mod -----------------------------------------------------------


def test_roots_mod_small_examples():
    f = IntPolynomial((1, 0, 1))
    assert poly_roots_mod(f, 5) == [2, 3]
    assert poly_roots_mod(f, 7) == []
    assert poly_roots_mod(f, 2) == [1]
    assert poly_roots_mod(IntPolynomial((-2, 0, 1)), 7) == [3, 4]


def test_roots_mod_brute_force_random():
    rng = random.Random(12)
    table = sieve(100)
    for _ in range(150):
        p = int(rng.choice(table.primes))
        f = IntPolynomial([rng.randint(-10, 10) for _ in range(rng.randint(1, 6))])
        if not any(c % p for c in f.coeffs):
            continue
        expected = [x for x in range(p) if f(x) % p == 0]
        assert poly_roots_mod(f, p) == expected


def _gcd_roots(f, p):
    return arith._roots_by_gcd([c % p for c in f.coeffs], p)


def test_roots_gcd_path_matches_scan():
    polys = [
        IntPolynomial((1, 0, 1)),
        IntPolynomial((-2, 0, 1)),
        IntPolynomial((-2, 0, 0, 1)),
    ]
    for p in sieve(1000).primes[1:]:
        p = int(p)
        for f in polys:
            assert _gcd_roots(f, p) == [x for x in range(p) if f(x) % p == 0]


def test_roots_gcd_path_large_prime():
    # 100049 = 1 mod 8, so both quadratics split
    p = 100_049
    f = IntPolynomial((1, 0, 1))
    g = IntPolynomial((-2, 0, 1))
    for poly in (f, g):
        roots = _gcd_roots(poly, p)
        assert roots == [x for x in range(p) if poly(x) % p == 0]
        assert len(roots) == 2


def test_roots_degenerate_reduction():
    with pytest.raises(DegenerateInputError):
        poly_roots_mod(IntPolynomial((5, 10, 25)), 5)


def _exact_horner(coeffs, xs, m):
    """Horner on Python ints: object arrays never overflow."""
    acc = np.zeros(len(xs), dtype=object)
    for c in reversed(coeffs):
        acc = acc * xs.astype(object) + c
    return (acc % np.array(np.ravel(m).tolist(), dtype=object)).astype(np.int64)


def test_horner_is_exact_however_rarely_it_reduces():
    rng = random.Random(20)
    top = max(p for p in range(MAX_MODULUS - 100, MAX_MODULUS + 1) if _is_prime_trial(p))
    big = [4999963, top, 4999961]
    rows = np.array([2, top, 2, 2] + [rng.choice(big) for _ in range(200)], dtype=np.int64)
    cases = [
        # a scalar prime near the modulus cap, at its largest residues too
        (top, [0, 1, 2, top - 2, top - 1] + [rng.randrange(top) for _ in range(50)]),
        # one modulus per row, 2 among primes near 5 * 10^6
        (rows, [m - 1 if i % 3 else rng.randrange(m) for i, m in enumerate(rows)]),
    ]

    def coefficient():
        return rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-(2**70), 2**70),
                           rng.choice([2**62, -(2**62), 2**62 - 1, 1 - 2**62])])

    for _ in range(60):
        coeffs = [coefficient() for _ in range(rng.randint(0, 16))]
        coeffs.append(rng.choice([1, -1, 2**70]))
        for m, xs in cases:
            xs = np.array(xs, dtype=np.int64)
            assert eval_mod_array(coeffs, xs, m).tolist() == _exact_horner(coeffs, xs, m).tolist()


def test_horner_of_a_polynomial_with_zero_coefficients():
    # a zero coefficient still grows the bound on the unreduced sum
    f = cyclotomic(20).coeffs
    assert 0 in f
    primes = sieve(2000).primes
    for p in primes:
        xs = np.arange(p, dtype=np.int64)
        assert eval_mod_array(f, xs, int(p)).tolist() == _exact_horner(f, xs, p).tolist()
    moduli = np.repeat(primes, primes)
    xs = np.arange(moduli.size) - np.repeat(np.cumsum(primes) - primes, primes)
    assert np.array_equal(eval_mod_array(f, xs, moduli), _exact_horner(f, xs, moduli))
