"""Builders for the sentence families whose spectra this package studies.

Each builder assembles syntax trees directly, never parse trees from text,
so operator precedence and variable capture cannot silently change a
formula.  Bound variables get numbered names from a per-sentence counter;
the subject variable of the open families is always plain z.

Two vocabularies are in play.  The congruence and power-residue families
speak pure ring arithmetic (products wrap mod m), while the power-set
families lean on TIMES, the non-wrapping product relation, to talk about
integer divisibility inside the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .arith import IntPolynomial, cyclotomic
from .logic import (
    Add,
    And,
    Equal,
    Exists,
    Forall,
    Formula,
    Implies,
    IntTimes,
    Less,
    Lit,
    ModExists,
    Mul,
    Not,
    Term,
    Var,
    count_exact,
)


def _require_prime(q: int) -> int:
    if q < 2 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        raise ValueError(f"base must be prime, got {q}")
    return q


class _Names:
    """Fresh numbered variable names, one counter per built sentence."""

    def __init__(self):
        self.n = 0

    def __call__(self, base: str) -> str:
        self.n += 1
        return f"{base}{self.n}"


def _conjoin(parts: list[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def frac_lt(a: int, b: int, d: int) -> Formula:
    """a/d < b/d as ring elements: E x. E y. (x*d = a & y*d = b & x < y)."""
    if min(a, b, d) < 1:
        raise ValueError(f"parameters must be positive, got a={a}, b={b}, d={d}")
    x, y = Var("x"), Var("y")
    return Exists(
        "x",
        Exists(
            "y",
            And(
                And(
                    Equal(Mul(x, Lit(d)), Lit(a)),
                    Equal(Mul(y, Lit(d)), Lit(b)),
                ),
                Less(x, y),
            ),
        ),
    )


def congruence_sentence(a: int, d: int) -> Formula:
    """True in Z_p for primes p > d exactly when p = a (mod d).

    Asserts that (d-a)/d is the least of the fractions r/d, via one
    comparison per other numerator, guarded by the literal test a < d.
    """
    if not 0 < a < d:
        raise ValueError(f"need 0 < a < d, got a={a}, d={d}")
    parts: list[Formula] = [Less(Lit(a), Lit(d))]
    for r in range(1, d):
        if r != d - a:
            parts.append(frac_lt(d - a, r, d))
    return _conjoin(parts)


def _poly_equation(f: IntPolynomial, var: str) -> Formula:
    """f(x) = 0 with negative coefficients moved across the equality."""
    x = Var(var)

    def monomial(c: int, k: int) -> Term:
        t: Optional[Term] = None
        for _ in range(k):
            t = x if t is None else Mul(t, x)
        if t is None:
            return Lit(c)
        return t if c == 1 else Mul(Lit(c), t)

    pos: Optional[Term] = None
    neg: Optional[Term] = None
    for k, c in enumerate(f.coeffs):
        if c == 0:
            continue
        if c > 0:
            m = monomial(c, k)
            pos = m if pos is None else Add(pos, m)
        else:
            m = monomial(-c, k)
            neg = m if neg is None else Add(neg, m)
    return Equal(pos if pos is not None else Lit(0), neg if neg is not None else Lit(0))


def cyclotomic_sentence(n: int) -> Formula:
    """E x. F_n(x) = 0 for the n-th cyclotomic polynomial."""
    if n < 2:
        raise ValueError(f"index must be >= 2, got {n}")
    return Exists("x", _poly_equation(cyclotomic(n), "x"))


def mod_count_sentence(r: int, q: int) -> Formula:
    """E[r,q] x. (x = x): the ring size is r mod q."""
    if q < 2 or not 0 <= r < q:
        raise ValueError(f"need 0 <= r < q and q >= 2, got r={r}, q={q}")
    return ModExists(r, q, "x", Equal(Var("x"), Var("x")))


def power_residue_sentence(n: int, d: int, r: int) -> Formula:
    """F_n has a root, and the nonzero n-th powers number r mod d.

    For primes p = 1 (mod n) the nonzero n-th powers count (p-1)/n, so the
    spectrum is, up to primes <= n*d, the class {p = rn+1 (mod n*d)}.  The
    explicit y != 0 keeps zero (an n-th power of zero) out of the count.
    """
    if n < 2 or d < 2:
        raise ValueError(f"need n, d >= 2, got n={n}, d={d}")
    if not 0 <= r < d:
        raise ValueError(f"need 0 <= r < d, got r={r}, d={d}")
    y, z = Var("y"), Var("z")
    zpow: Term = z
    for _ in range(n - 1):
        zpow = Mul(zpow, z)
    counted = And(Not(Equal(y, Lit(0))), Exists("z", Equal(zpow, y)))
    return And(cyclotomic_sentence(n), ModExists(r, d, "y", counted))


def prime_sentence() -> Formula:
    """A x. (x != 0 -> E y. x*y = 1): the ring is a field, i.e. m is prime."""
    x, y = Var("x"), Var("y")
    return Forall(
        "x",
        Implies(Not(Equal(x, Lit(0))), Exists("y", Equal(Mul(x, y), Lit(1)))),
    )


def _exp_of(q: int, subject: Term, names: _Names) -> Formula:
    """Every divisor of the subject other than 1 is a multiple of q."""
    xn, yn, wn = names("x"), names("y"), names("w")
    x, y, w = Var(xn), Var(yn), Var(wn)
    divides = Exists(yn, IntTimes(x, y, subject))
    return Forall(
        xn,
        Implies(
            And(divides, Not(Equal(x, Lit(1)))),
            Exists(wn, IntTimes(Lit(q), w, x)),
        ),
    )


def _exp_sq_of(q: int, subject: Term, names: _Names) -> Formula:
    """The subject is the square of a power of q."""
    xn = names("x")
    x = Var(xn)
    return Exists(xn, And(IntTimes(x, x, subject), _exp_of(q, x, names)))


def _maximal(subject: Var, property_at: Callable[[Term], Formula], names: _Names) -> Formula:
    """property(subject) and nothing above subject has it."""
    wn = names("w")
    w = Var(wn)
    return And(
        property_at(subject),
        Forall(wn, Implies(Less(subject, w), Not(property_at(w)))),
    )


@dataclass(frozen=True)
class ExpFamily:
    """The power-of-q predicates, all with free variable z."""

    q: int
    var: str
    exp: Formula
    exp_sq: Formula
    maxexp: Formula
    maxexp_sq: Formula


def exp_family(q: int) -> ExpFamily:
    _require_prime(q)
    z = Var("z")
    names = _Names()
    return ExpFamily(
        q=q,
        var="z",
        exp=_exp_of(q, z, _Names()),
        exp_sq=_exp_sq_of(q, z, _Names()),
        maxexp=_maximal(z, lambda t: _exp_of(q, t, names), names),
        maxexp_sq=_maximal(z, lambda t: _exp_sq_of(q, t, names), names),
    )


def psi_sentence(q: int) -> Formula:
    """Prime ring whose largest power of q is also a largest square power.

    For primes p > q this holds exactly when q^2n < p < q^2n+1 for some
    n >= 0, an interval pattern no congruence class matches.  Primes
    p <= q satisfy it vacuously through z = 1; callers should treat those
    as artifacts.
    """
    _require_prime(q)
    names = _Names()
    z = Var("z")
    body = And(
        _maximal(z, lambda t: _exp_of(q, t, names), names),
        _maximal(z, lambda t: _exp_sq_of(q, t, names), names),
    )
    return And(prime_sentence(), Exists("z", body))


def _supexp_of(q: int, subject: Term, names: _Names, square: bool) -> Formula:
    """The count of powers of q below the subject is itself a power of q
    (a square power when ``square``).  Counts include q^0 = 1."""
    cn, inn = names("y"), names("i")
    c, i = Var(cn), Var(inn)
    below = And(Less(c, subject), _exp_of(q, c, names))
    count_is_i = count_exact(i, cn, below)
    conds: list[Formula] = [count_is_i, _exp_of(q, i, names)]
    if square:
        kn = names("k")
        conds.append(Exists(kn, IntTimes(Var(kn), Var(kn), i)))
    return And(_exp_of(q, subject, names), Exists(inn, _conjoin(conds)))


@dataclass(frozen=True)
class SupExpFamily:
    """Tower-of-q predicates, all with free variable z."""

    q: int
    var: str
    supexp: Formula
    supexp_sq: Formula
    supmaxexp: Formula
    supmaxexp_sq: Formula


def supexp_family(q: int) -> SupExpFamily:
    _require_prime(q)
    z = Var("z")
    n1, n2 = _Names(), _Names()
    return SupExpFamily(
        q=q,
        var="z",
        supexp=_supexp_of(q, z, _Names(), False),
        supexp_sq=_supexp_of(q, z, _Names(), True),
        supmaxexp=_maximal(z, lambda t: _supexp_of(q, t, n1, False), n1),
        supmaxexp_sq=_maximal(z, lambda t: _supexp_of(q, t, n2, True), n2),
    )


def theta_sentence(q: int) -> Formula:
    """Prime ring whose largest tower power of q is also a largest square
    tower power.  The tower grows so fast that the spectrum has no
    exponential density, let alone a natural one."""
    _require_prime(q)
    names = _Names()
    z = Var("z")
    body = And(
        _maximal(z, lambda t: _supexp_of(q, t, names, False), names),
        _maximal(z, lambda t: _supexp_of(q, t, names, True), names),
    )
    return And(prime_sentence(), Exists("z", body))


@dataclass(frozen=True)
class SentenceFamily:
    """A named sentence builder and the parameters it takes."""

    name: str
    parameters: tuple[str, ...]
    _builder: Callable[..., Formula] = field(repr=False)

    def build(self, **params) -> Formula:
        unknown = set(params) - set(self.parameters)
        if unknown:
            raise ValueError(
                f"unknown parameters for {self.name}: {sorted(unknown)}"
            )
        missing = set(self.parameters) - set(params)
        if missing:
            raise ValueError(
                f"missing parameters for {self.name}: {sorted(missing)}"
            )
        return self._builder(**params)


FAMILIES: dict[str, SentenceFamily] = {
    f.name: f
    for f in (
        SentenceFamily("congruence", ("a", "d"), congruence_sentence),
        SentenceFamily("cyclotomic", ("n",), cyclotomic_sentence),
        SentenceFamily("modcount", ("r", "q"), mod_count_sentence),
        SentenceFamily("powres", ("n", "d", "r"), power_residue_sentence),
        SentenceFamily("psi", ("q",), psi_sentence),
        SentenceFamily("theta", ("q",), theta_sentence),
        SentenceFamily("prime", (), prime_sentence),
    )
}
