"""Prime tables, integer polynomials and roots vs brute-force oracles."""

from __future__ import annotations

import math
import random

import pytest

from ringspectra.arith import (
    IntPolynomial,
    cyclotomic,
    frac_mod,
    poly_roots_mod,
    sieve,
)
from ringspectra.errors import (
    DegenerateInputError,
    NoInverseError,
    ResourceLimitError,
)


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
    assert table.is_prime(97)
    assert not table.is_prime(1)
    assert not table.is_prime(91)
    assert list(table.primes_between(3, 12)) == [5, 7, 11]
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
    assert (f + g).coeffs == (-1, 0, 2)
    assert (f - g).coeffs == (3,)
    assert (f * g).coeffs == (-2, 0, -1, 0, 1)
    assert f(3) == 10
    assert f.degree == 2
    assert IntPolynomial().degree == -1
    assert (f ** 2).coeffs == (1, 0, 2, 0, 1)


def test_exact_division_and_failure():
    f = IntPolynomial((1, 0, 1))
    g = IntPolynomial((-2, 0, 1))
    prod = f * g
    assert prod.exact_div(f) == g
    assert prod.exact_div(g) == f
    with pytest.raises(ValueError):
        (f + IntPolynomial((1,))).exact_div(g)


def test_text_round_trip():
    rng = random.Random(7)
    polys = [
        IntPolynomial(),
        IntPolynomial((5,)),
        IntPolynomial((-3, 0, 0, 2)),
        IntPolynomial((0, 1)),
        cyclotomic(12),
    ]
    for _ in range(50):
        polys.append(IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]))
    for f in polys:
        assert IntPolynomial.from_text(f.to_text()) == f


def test_text_parse_liberal_forms():
    assert IntPolynomial.from_text("1 + 0*x + 1*x^2") == IntPolynomial((1, 0, 1))
    assert IntPolynomial.from_text("  1+1*x^2 ") == IntPolynomial((1, 0, 1))
    assert IntPolynomial.from_text("x^2 - 2") == IntPolynomial((-2, 0, 1))
    assert IntPolynomial.from_text("-x + 3") == IntPolynomial((3, -1))
    assert IntPolynomial.from_text("0") == IntPolynomial()
    with pytest.raises(ValueError):
        IntPolynomial.from_text("2 +")
    with pytest.raises(ValueError):
        IntPolynomial.from_text("x^^2")


# -- cyclotomic ---------------------------------------------------------------


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


def test_roots_gcd_path_matches_scan():
    polys = [
        IntPolynomial((1, 0, 1)),
        IntPolynomial((-2, 0, 1)),
        IntPolynomial((-2, 0, 0, 1)),
    ]
    for p in sieve(1000).primes[1:]:
        p = int(p)
        for f in polys:
            assert poly_roots_mod(f, p, scan_limit=0) == poly_roots_mod(f, p)


def test_roots_gcd_path_large_prime():
    # 100049 = 1 mod 8, so both quadratics split
    p = 100_049
    f = IntPolynomial((1, 0, 1))
    g = IntPolynomial((-2, 0, 1))
    for poly in (f, g):
        roots = poly_roots_mod(poly, p, scan_limit=0)
        assert roots == poly_roots_mod(poly, p, scan_limit=10**6)
        assert len(roots) == 2
        assert all(poly(r) % p == 0 for r in roots)


def test_roots_degenerate_reduction():
    with pytest.raises(DegenerateInputError):
        poly_roots_mod(IntPolynomial((5, 10, 25)), 5)
