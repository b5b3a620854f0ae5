"""Prime tables and exact integer polynomial arithmetic.

Everything here is exact: prime enumeration by sieve, polynomials with
arbitrary-precision integer coefficients (stored lowest degree first),
cyclotomic polynomials by iterated exact division, and root finding modulo
a prime.
"""

from __future__ import annotations

import functools
import math
import random
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, NoInverseError, ResourceLimitError

# Hard cap on sieve size; a table this large is ~5 MB of flags and covers
# every bound the verification suite uses with room to spare.
MAX_SIEVE_BOUND = 5_000_000

# Default crossover for poly_roots_mod: full scan below, gcd path above.
ROOT_SCAN_LIMIT = 100_000


@dataclass(frozen=True)
class PrimeTable:
    """Primes up to ``bound`` with O(log) membership and counting queries."""

    bound: int
    flags: np.ndarray = field(repr=False, compare=False)
    primes: np.ndarray = field(repr=False, compare=False)

    def pi(self, x: int) -> int:
        """Number of primes <= x (x may exceed bound only by raising)."""
        if x > self.bound:
            raise ResourceLimitError(f"pi({x}) exceeds table bound {self.bound}")
        return int(np.searchsorted(self.primes, x, side="right"))

    def is_prime(self, n: int) -> bool:
        if n > self.bound:
            raise ResourceLimitError(f"is_prime({n}) exceeds table bound {self.bound}")
        return n >= 2 and bool(self.flags[n])

    def primes_between(self, lo: int, hi: int) -> np.ndarray:
        """Primes p with lo < p < hi (both ends exclusive), hi capped at bound."""
        hi = min(hi, self.bound + 1)
        i = int(np.searchsorted(self.primes, lo, side="right"))
        j = int(np.searchsorted(self.primes, hi, side="left"))
        return self.primes[i:j]

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self):
        return iter(int(p) for p in self.primes)


def sieve(bound: int) -> PrimeTable:
    """Sieve of Eratosthenes up to and including ``bound``."""
    if bound > MAX_SIEVE_BOUND:
        raise ResourceLimitError(f"sieve bound {bound} exceeds cap {MAX_SIEVE_BOUND}")
    bound = max(int(bound), 1)
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64)
    return PrimeTable(bound=bound, flags=flags, primes=primes)


def frac_mod(a: int, d: int, p: int) -> int:
    """The residue r with r*d = a (mod p), i.e. the fraction a/d in Z_p.

    Requires d invertible mod p; for prime p that is p not dividing d.
    """
    if a <= 0 or d <= 0:
        raise ValueError("frac_mod expects positive a and d")
    try:
        inv = pow(d % p, -1, p)
    except ValueError:
        raise NoInverseError(f"{d} has no inverse modulo {p}") from None
    return (a % p) * inv % p


# ---------------------------------------------------------------------------
# Integer polynomials


class IntPolynomial:
    """Polynomial over Z, coefficients lowest degree first.

    Instances are immutable; arithmetic returns new polynomials.  The zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    def __pow__(self, e: int) -> "IntPolynomial":
        if e < 0:
            raise ValueError("negative exponent")
        out = IntPolynomial((1,))
        for _ in range(e):
            out = out * self
        return out

    def scale(self, c: int) -> "IntPolynomial":
        return IntPolynomial(tuple(c * a for a in self.coeffs))

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by x**k."""
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Quotient self/other, raising ValueError unless division is exact."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        dq = len(rem) - len(other.coeffs)
        if dq < 0 and rem:
            raise ValueError("division not exact")
        quot = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            top = rem[i + other.degree] if i + other.degree < len(rem) else 0
            if top % lead != 0:
                raise ValueError("division not exact")
            q = top // lead
            quot[i] = q
            if q:
                for j, c in enumerate(other.coeffs):
                    rem[i + j] -= q * c
        if any(rem):
            raise ValueError("division not exact")
        return IntPolynomial(quot)

    # -- text form ----------------------------------------------------------

    def to_text(self) -> str:
        """Render as "c0 + c1*x + c2*x^2 + ..." omitting zero terms."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            elif k == 1:
                body = f"{abs(c)}*x"
            else:
                body = f"{abs(c)}*x^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    _TERM_RE = re.compile(
        r"\s*(?P<sign>[+-])?\s*(?:"
        r"(?P<coeff>\d+)\s*(?:\*\s*x(?:\^(?P<exp1>\d+))?)?"
        r"|x(?:\^(?P<exp2>\d+))?"
        r")"
    )

    @classmethod
    def from_text(cls, text: str) -> "IntPolynomial":
        """Parse the to_text form; whitespace-insensitive, zero terms optional."""
        coeffs: dict[int, int] = {}
        pos = 0
        first = True
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty polynomial text")
        while pos < len(text):
            if text[pos:].strip() == "":
                break
            m = cls._TERM_RE.match(text, pos)
            if m is None or m.end() == pos:
                raise ValueError(f"bad polynomial text at offset {pos}: {text!r}")
            sign = m.group("sign")
            if sign is None and not first:
                raise ValueError(f"missing +/- between terms in {text!r}")
            s = -1 if sign == "-" else 1
            if m.group("coeff") is not None:
                c = int(m.group("coeff"))
                exp = int(m.group("exp1")) if m.group("exp1") is not None else (
                    1 if "x" in m.group(0) else 0
                )
            else:
                c = 1
                exp = int(m.group("exp2")) if m.group("exp2") is not None else 1
            coeffs[exp] = coeffs.get(exp, 0) + s * c
            pos = m.end()
            first = False
        if not coeffs:
            raise ValueError(f"no terms in polynomial text {text!r}")
        size = max(coeffs) + 1
        out = [0] * size
        for k, c in coeffs.items():
            out[k] = c
        return cls(out)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.to_text()!r})"


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if n == 1:
        return IntPolynomial((-1, 1))
    num = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))  # x^n - 1
    den = IntPolynomial((1,))
    for d in range(1, n):
        if n % d == 0:
            den = den * cyclotomic(d)
    return num.exact_div(den)


# ---------------------------------------------------------------------------
# Roots modulo a prime


def eval_mod_array(coeffs, xs: np.ndarray, m: int) -> np.ndarray:
    """Horner evaluation of a coefficient sequence at an int64 array, mod m."""
    acc = np.zeros_like(xs)
    for c in reversed([c % m for c in coeffs]):
        acc = (acc * xs + c) % m
    return acc


def poly_roots_mod(f: IntPolynomial, p: int, scan_limit: int = ROOT_SCAN_LIMIT) -> list[int]:
    """Sorted roots of f in Z_p for prime p.

    Scans all residues when p <= scan_limit; otherwise reduces to
    gcd(x^p - x, f) over GF(p) and splits off linear factors.  Raises
    DegenerateInputError when f reduces to the zero polynomial mod p.
    """
    red = [c % p for c in f.coeffs]
    if not any(red):
        raise DegenerateInputError(f"polynomial is identically zero mod {p}")
    if p <= scan_limit:
        xs = np.arange(p, dtype=np.int64)
        vals = eval_mod_array(f.coeffs, xs, p)
        return [int(x) for x in xs[vals == 0]]
    return _roots_by_gcd(red, p)


def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _gf_trim(out)


def _gf_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q = a[-1] * inv % p
        if q:
            off = len(a) - len(b)
            for j, cb in enumerate(b):
                a[off + j] = (a[off + j] - q * cb) % p
        a.pop()
        _gf_trim(a)
        if not a:
            break
    return a


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _gf_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _gf_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _gf_rem(base, mod, p) if len(base) >= len(mod) else base[:]
    while e:
        if e & 1:
            result = _gf_rem(_gf_mul(result, base, p), mod, p)
        base = _gf_rem(_gf_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _roots_by_gcd(red: list[int], p: int) -> list[int]:
    f = _gf_trim(red[:])
    roots: list[int] = []
    # factor out x while the constant term vanishes
    while f and f[0] == 0:
        if 0 not in roots:
            roots.append(0)
        f = f[1:]
    if len(f) <= 1:
        return sorted(roots)
    # g = gcd(x^p - x, f) is the product of the distinct linear factors
    xp = _gf_pow_mod([0, 1], p, f, p)
    xp_minus_x = _gf_trim([(c - (1 if i == 1 else 0)) % p for i, c in enumerate(xp + [0, 0][: max(0, 2 - len(xp))])])
    g = _gf_gcd(f, xp_minus_x, p)
    rng = random.Random(p)
    _split_linear(g, p, rng, roots)
    return sorted(roots)


def _split_linear(g: list[int], p: int, rng: random.Random, out: list[int]) -> None:
    if len(g) <= 1:
        return
    if len(g) == 2:
        # monic x + c0 -> root -c0
        out.append((-g[0] * pow(g[1], -1, p)) % p)
        return
    half = (p - 1) // 2
    while True:
        a = rng.randrange(p)
        # gcd with (x+a)^((p-1)/2) - 1 separates roots by quadratic character
        t = _gf_pow_mod([a, 1], half, g, p)
        if t:
            t = t[:]
            t[0] = (t[0] - 1) % p
            t = _gf_trim(t)
        else:
            t = [p - 1]
        d = _gf_gcd(g, t, p)
        if 0 < len(d) - 1 < len(g) - 1:
            _split_linear(d, p, rng, out)
            _split_linear(_gf_exact_div(g, d, p), p, rng, out)
            return


def _gf_exact_div(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) - len(b) + 1)
    a = a[:]
    inv = pow(b[-1], -1, p)
    for i in range(len(out) - 1, -1, -1):
        q = a[i + len(b) - 1] * inv % p
        out[i] = q
        if q:
            for j, cb in enumerate(b):
                a[i + j] = (a[i + j] - q * cb) % p
    return _gf_trim(out)
