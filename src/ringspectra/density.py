"""Density analysis of prime sets.

Measures how thickly a spectrum sits inside the primes through a scaling
function h: the ratio h(pi_S(n)) / h(pi(n)) sampled at chosen points.
Identity h gives natural density, log gives exponential density.  The
module also checks the classical prime-counting bracket, semi-additivity
of h, thinness of sequences, alternating prime sets built from interval
unions, and the a^2 + b^4 prime family.

Everything reported here is finite-horizon measurement.  Counting beyond
the sieve bound is refused rather than extrapolated; the one exception is
the clearly labeled bracket surrogate for doubly exponential sequences,
which manipulates bounds instead of counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .arith import PrimeTable
from .errors import DegenerateInputError
from .spectra import Spectrum, prime_table


@dataclass(frozen=True)
class DensityFunction:
    """A positive increasing unbounded scaling function.

    semiadd_bound, when known, is an M past which h(x+y) <= h(x) + h(y)
    holds for all x >= y > M.
    """

    name: str
    fn: Callable[[float], float] = field(repr=False)
    semiadd_bound: Optional[float] = None

    def __call__(self, x: float) -> float:
        try:
            return float(self.fn(x))
        except ValueError:
            raise DegenerateInputError(
                f"density function {self.name} undefined at {x}"
            ) from None


IDENTITY = DensityFunction("identity", float, 0.0)
LOG = DensityFunction("log", math.log, 2.0)
LOGLOG = DensityFunction("loglog", lambda x: math.log(math.log(x)))

_BUILTIN = {h.name: h for h in (IDENTITY, LOG, LOGLOG)}


def density_function(name: str) -> DensityFunction:
    try:
        return _BUILTIN[name]
    except KeyError:
        raise ValueError(
            f"unknown density function {name!r}; choose from {sorted(_BUILTIN)}"
        ) from None


@dataclass(frozen=True)
class IntSequence:
    """A strictly increasing integer sequence, fully materialized.

    Terms use 1-based indexing in all checks, so terms[0] is s_1.
    """

    name: str
    terms: tuple[int, ...]

    def __post_init__(self):
        terms = tuple(int(t) for t in self.terms)
        if not terms:
            raise ValueError("sequence must have at least one term")
        if any(b <= a for a, b in zip(terms, terms[1:])):
            raise ValueError("sequence terms must be strictly increasing")
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)


def geometric_sequence(q: int, count: int) -> IntSequence:
    """q, q^2, ..., q^count."""
    if q < 2 or count < 1:
        raise ValueError("need base >= 2 and at least one term")
    return IntSequence(f"geometric:{q}:{count}", tuple(q**k for k in range(1, count + 1)))


def double_exp_sequence(q: int, count: int) -> IntSequence:
    """q^q, q^(q^2), ..., q^(q^count).  Terms become astronomically large."""
    if q < 2 or count < 1:
        raise ValueError("need base >= 2 and at least one term")
    return IntSequence(
        f"doubleexp:{q}:{count}", tuple(q ** (q**k) for k in range(1, count + 1))
    )


def sequence_from_spec(text: str) -> IntSequence:
    """Parse "geometric:q:kmax" or "doubleexp:q:kmax"."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad sequence spec {text!r}; want kind:q:kmax")
    kind, q, kmax = parts[0], int(parts[1]), int(parts[2])
    if kind == "geometric":
        return geometric_sequence(q, kmax)
    if kind == "doubleexp":
        return double_exp_sequence(q, kmax)
    raise ValueError(f"unknown sequence kind {kind!r}")


@dataclass(frozen=True)
class DensityProfile:
    """Ratios h(pi_S(n)) / h(pi(n)) at increasing sample points.

    The tail window summarizes the largest quarter of the samples; it is
    the finite-horizon stand-in for liminf and limsup.
    """

    h_name: str
    samples: tuple[int, ...]
    pi_s: tuple[int, ...]
    pi: tuple[int, ...]
    ratios: tuple[float, ...]

    @property
    def tail_window(self) -> tuple[float, float]:
        k = max(1, math.ceil(len(self.samples) / 4))
        tail = self.ratios[-k:]
        return (min(tail), max(tail))

    @property
    def tail_inf(self) -> float:
        return self.tail_window[0]

    @property
    def tail_sup(self) -> float:
        return self.tail_window[1]


def _ratio(h: DensityFunction, count_s: int, count_all: int) -> float:
    if count_s == 0:
        return 0.0
    denom = h(count_all)
    if denom <= 0:
        raise DegenerateInputError(
            f"density function {h.name} is not positive at pi = {count_all}"
        )
    return h(count_s) / denom


def density_profile(
    s: Spectrum, h: DensityFunction, samples: Iterable[int]
) -> DensityProfile:
    pts = [int(n) for n in samples]
    if not pts:
        raise ValueError("need at least one sample point")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("sample points must be strictly increasing")
    if pts[0] < 2:
        raise ValueError(f"sample points must be >= 2, got {pts[0]}")
    if pts[-1] > s.bound:
        raise ValueError(
            f"sample {pts[-1]} beyond spectrum bound {s.bound}"
        )
    table = s.table
    pi_s = s.counts_up_to(pts)
    pi = [table.pi(n) for n in pts]
    ratios = tuple(_ratio(h, a, b) for a, b in zip(pi_s, pi))
    return DensityProfile(h.name, tuple(pts), tuple(pi_s), tuple(pi), ratios)


def pnt_bounds_check(table: PrimeTable, start: int = 17) -> bool:
    """Whether x/(2 log x) < pi(x) < 3x/(2 log x) for every x in [start, bound].

    The bracket is classical for start >= 17; smaller starts are checked as
    given, not guaranteed.
    """
    if start < 2:
        raise ValueError(f"start must be >= 2, got {start}")
    if table.bound < start:
        raise ValueError(f"table bound {table.bound} below start {start}")
    xs = np.arange(start, table.bound + 1, dtype=np.float64)
    pi = np.cumsum(table.flags)[start:]
    guide = xs / np.log(xs)
    return bool(np.all(0.5 * guide < pi) and np.all(pi < 1.5 * guide))


def semi_additive_check(
    h: DensityFunction, m: float, grid: Iterable[float]
) -> list[tuple[str, float, float]]:
    """Violations of h(x+y) <= h(x) + h(y) for x >= y > M on the grid,
    and of the companion h(x-y) >= h(x) - h(y) for x > 2y > 2M."""
    pts = sorted(float(g) for g in grid)
    if pts and pts[0] <= 0:
        raise ValueError("grid values must be positive")
    bad = []
    for i, x in enumerate(pts):
        for y in pts[: i + 1]:
            if y <= m:
                continue
            slack = 1e-9 * (abs(h(x)) + abs(h(y)) + 1)
            if h(x + y) > h(x) + h(y) + slack:
                bad.append(("sum", x, y))
            if x > 2 * y and h(x - y) < h(x) - h(y) - slack:
                bad.append(("diff", x, y))
    return bad


def is_h_thin(
    seq: IntSequence,
    h: DensityFunction,
    r: float,
    table: PrimeTable,
    skip: int = 0,
) -> bool:
    """Whether r * h(pi(s_n)) < h(pi(s_n+1)) for every pair with n > skip."""
    if r <= 3:
        raise ValueError(f"thinness ratio must exceed 3, got {r}")
    terms = seq.terms
    for n in range(max(skip, 0), len(terms) - 1):
        a = h(table.pi(terms[n]))
        b = h(table.pi(terms[n + 1]))
        if not r * a < b:
            return False
    return True


def laux_check(seq: IntSequence, big_r: float, table: PrimeTable) -> bool:
    """Growth premise R*s_n < s_n+1, and its prime-count conclusion
    (R/6)*pi(s_n) < pi(s_n+1), on all consecutive pairs."""
    if big_r <= 18:
        raise ValueError(f"growth ratio must exceed 18, got {big_r}")
    terms = seq.terms
    if any(big_r * a >= b for a, b in zip(terms, terms[1:])):
        return False
    small_r = big_r / 6
    return all(
        small_r * table.pi(a) < table.pi(b) for a, b in zip(terms, terms[1:])
    )


def alternating_set(seq: IntSequence, bound: int) -> Spectrum:
    """Primes in (s_2, s_3) union (s_4, s_5) union ..., open intervals,
    clipped to the bound.  Incomplete trailing pairs contribute nothing."""
    if len(seq) < 3:
        raise DegenerateInputError(
            f"alternating set needs at least 3 terms, got {len(seq)}"
        )
    table = prime_table(bound)
    primes = table.primes
    mask = np.zeros(len(primes), dtype=bool)
    terms = seq.terms
    for i in range(1, len(terms) - 1, 2):  # 0-based: (s_2, s_3), (s_4, s_5), ...
        lo, hi = terms[i], terms[i + 1]
        if lo >= bound:
            break
        mask |= (primes > lo) & (primes < hi)
    return Spectrum(bound, mask)


@dataclass(frozen=True)
class OscillationReport:
    """Density ratios of a spectrum sampled exactly at sequence terms.

    even_max bounds the ratio from above at even indices (the lulls);
    odd_min bounds it from below at odd indices (the surges).
    """

    h_name: str
    points: tuple[tuple[int, int, float], ...]  # (index, term, ratio)
    even_max: float
    odd_min: float

    @property
    def gap(self) -> float:
        return self.odd_min - self.even_max


def oscillation_report(
    s: Spectrum, h: DensityFunction, seq: IntSequence, skip: int = 2
) -> OscillationReport:
    """Ratios at s_n for n > skip with s_n <= bound, split by index parity."""
    table = s.table
    points = []
    evens, odds = [], []
    for idx in range(skip + 1, len(seq) + 1):
        term = seq.terms[idx - 1]
        if term > s.bound:
            break
        ratio = _ratio(h, s.counts_up_to([term])[0], table.pi(term))
        points.append((idx, term, ratio))
        (evens if idx % 2 == 0 else odds).append(ratio)
    if not evens or not odds:
        raise DegenerateInputError(
            "need sequence terms of both parities within the bound"
        )
    return OscillationReport(h.name, tuple(points), max(evens), min(odds))


def fi_spectrum(bound: int) -> Spectrum:
    """Primes <= bound of the form a^2 + b^4 with integers a, b >= 0."""
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    table = prime_table(bound)
    seen = np.zeros(bound + 1, dtype=bool)
    b = 0
    while b**4 <= bound:
        rest = bound - b**4
        a = np.arange(math.isqrt(rest) + 1, dtype=np.int64)
        seen[a * a + b**4] = True
        b += 1
    return Spectrum(bound, seen[table.primes])


def pnt_log_thin_surrogate(seq: IntSequence, r: float, skip: int = 0) -> bool:
    """Log-thinness via the prime-counting bracket, not via sieving.

    SURROGATE: for terms far beyond any feasible sieve, compares
    r * log(3s/(2 log s)) against log(s'/(2 log s')) for consecutive terms.
    When true, r * log(pi(s_n)) < log(pi(s_n+1)) follows wherever the
    bracket holds (classically s >= 17).  No primes are counted.
    """
    if r <= 3:
        raise ValueError(f"thinness ratio must exceed 3, got {r}")
    terms = seq.terms
    first = max(skip, 0)
    if first < len(terms) and terms[first] < 17:
        raise ValueError("bracket surrogate needs terms >= 17")
    for n in range(first, len(terms) - 1):
        ln_a, ln_b = math.log(terms[n]), math.log(terms[n + 1])
        hi_a = math.log(1.5) + ln_a - math.log(ln_a)
        lo_b = math.log(0.5) + ln_b - math.log(ln_b)
        if not r * hi_a < lo_b:
            return False
    return True
