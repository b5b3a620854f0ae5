"""Prime spectra of sentences and polynomials.

A spectrum is the set of primes p up to a bound at which Z_p satisfies a
sentence.  Spectra form a Boolean algebra under bound-relative union,
intersection and complement.  Beyond the set operations this module offers
almost-equality reports, congruence-class fitting, and the order-1-or-2
criterion for which residue classes arise as spectra at all.

Every judgment here is finite-horizon: reports list exception primes
explicitly and never extrapolate past the computed bound.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import get_context
from typing import Iterable, Optional

import numpy as np

from . import fastengine
from .arith import IntPolynomial, PrimeTable, poly_roots_mod, sieve
from .errors import DegenerateInputError, ResourceLimitError, RingSpectraError
from .evaluate import DEFAULT_TUPLE_BUDGET, RingContext
from .logic import Formula, require_sentence

DEFAULT_SPECTRUM_BOUND = 10_000

# memoized sieve; spectra at a common bound share one table
prime_table = lru_cache(maxsize=8)(sieve)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument, else RINGSPECTRA_WORKERS, else 1."""
    if workers is None:
        raw = os.environ.get("RINGSPECTRA_WORKERS", "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"RINGSPECTRA_WORKERS must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    return workers


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Membership bits over the primes up to ``bound``.

    bits[i] tells whether the i-th prime belongs to the set.  Instances are
    immutable; the array is marked read-only so they can be shared freely
    across worker processes.
    """

    bound: int
    bits: np.ndarray

    def __post_init__(self):
        if self.bound < 2:
            raise ValueError(f"spectrum bound must be >= 2, got {self.bound}")
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != (len(self.table),):
            raise ValueError(
                f"expected {len(self.table)} membership bits for bound"
                f" {self.bound}, got {bits.shape}"
            )
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @property
    def table(self) -> PrimeTable:
        return prime_table(self.bound)

    def primes(self) -> np.ndarray:
        return self.table.primes[self.bits]

    def members(self) -> list[int]:
        return [int(p) for p in self.primes()]

    def count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def counts_up_to(self, xs: Iterable[int]) -> list[int]:
        """Members <= x for each x, a prime-counting profile of the set."""
        pos = np.searchsorted(self.table.primes, list(xs), side="right")
        cum = np.concatenate(([0], np.cumsum(self.bits)))
        return [int(cum[i]) for i in pos]

    def __contains__(self, p: int) -> bool:
        i = int(np.searchsorted(self.table.primes, p))
        return (
            i < len(self.bits)
            and int(self.table.primes[i]) == p
            and bool(self.bits[i])
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.bound == other.bound and bool(
            np.array_equal(self.bits, other.bits)
        )

    def __or__(self, other: "Spectrum") -> "Spectrum":
        _check_bounds(self, other)
        return Spectrum(self.bound, self.bits | other.bits)

    def __and__(self, other: "Spectrum") -> "Spectrum":
        _check_bounds(self, other)
        return Spectrum(self.bound, self.bits & other.bits)

    def __invert__(self) -> "Spectrum":
        return Spectrum(self.bound, ~self.bits)

    def __repr__(self) -> str:
        return f"Spectrum(bound={self.bound}, members={self.count()})"


def _check_bounds(s: Spectrum, t: Spectrum) -> None:
    if s.bound != t.bound:
        raise ValueError(f"spectrum bounds differ: {s.bound} != {t.bound}")


def union(s: Spectrum, t: Spectrum) -> Spectrum:
    return s | t


def intersection(s: Spectrum, t: Spectrum) -> Spectrum:
    return s & t


def complement(s: Spectrum) -> Spectrum:
    """Complement relative to the primes <= bound."""
    return ~s


def from_members(members: Iterable[int], bound: int) -> Spectrum:
    table = prime_table(bound)
    bits = np.isin(table.primes, np.asarray(sorted(set(members)), dtype=np.int64))
    return Spectrum(bound, bits)


def class_spectrum(d: int, residues: Iterable[int], bound: int) -> Spectrum:
    """The primes p <= bound with p mod d among ``residues``."""
    if d < 1:
        raise ValueError(f"modulus must be positive, got {d}")
    table = prime_table(bound)
    rs = np.asarray(sorted({r % d for r in residues}), dtype=np.int64)
    return Spectrum(bound, np.isin(table.primes % d, rs))


# a chunk's first block sums to less than _BLOCK_ROWS, each later one to the
# previous sum times _BLOCK_ROWS over the largest relation its pass charged,
# capped at _BLOCK_MAX: a row per residue keeps sums under 2^15, a row per
# prime takes 2^21 at once, and a pass that built few rows sends no more
_BLOCK_ROWS = 1 << 15
_BLOCK_MAX = 1 << 21


def _eval_chunk(args) -> list[bool]:
    """The sentence at each prime of a chunk: a block of primes at a time
    when blockengine.covers its plan, that is, when its table has a block
    kernel for the tag of every node the pass evaluates, else one prime at
    a time.  A block that runs out of budget is cut again to _BLOCK_ROWS if
    it was larger, else evaluated prime by prime, so that the error names
    the prime where it occurs."""
    # imported on first use, so that processes that never sweep do not
    # compile it
    from . import blockengine

    sentence, primes, tuple_budget = args
    plan = fastengine._plan(sentence)
    covered = blockengine.covers(plan)
    ends = np.cumsum(primes)
    out: list[bool] = []
    start, size = 0, _BLOCK_ROWS
    while start < len(primes):
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + size)))
        block = primes[start:stop]
        if covered and len(block) > 1:
            ctx = RingContext(int(block[-1]), tuple_budget=tuple_budget)
            try:
                out.extend(blockengine.eval_block(plan, block, ctx).tolist())
                start, size = stop, min(_BLOCK_MAX, (
                    int(ends[stop - 1]) - base) * _BLOCK_ROWS // max(ctx.peak_rows, 1))
                continue
            except ResourceLimitError:
                if size > _BLOCK_ROWS:
                    size = _BLOCK_ROWS
                    continue
        for p in block:
            try:
                ctx = RingContext(int(p), tuple_budget=tuple_budget)
                out.append(fastengine.eval_rel(ctx, plan).nrows > 0)
            except RingSpectraError as exc:
                raise type(exc)(f"{exc} (at prime {p})") from None
        start, size = stop, _BLOCK_ROWS
    return out


def spectrum(
    s: Formula,
    bound: int = DEFAULT_SPECTRUM_BOUND,
    workers: Optional[int] = None,
    *,
    tuple_budget: Optional[int] = None,
) -> Spectrum:
    """Evaluate a sentence at every prime p <= bound with the relational engine.

    Work is split into contiguous prime ranges handled by forked workers;
    the merge preserves prime order, so the result is identical for any
    worker count.
    """
    require_sentence(s)
    if bound < 2:
        raise ValueError(f"spectrum bound must be >= 2, got {bound}")
    if tuple_budget is None:
        tuple_budget = DEFAULT_TUPLE_BUDGET
    table = prime_table(bound)
    primes = table.primes
    workers = resolve_workers(workers)
    try:
        if workers == 1 or len(primes) < 4 * workers:
            bits = _eval_chunk((s, primes, tuple_budget))
        else:
            # finer chunks than workers so late (large, slower) primes balance out
            chunks = np.array_split(primes, 4 * workers)
            jobs = [(s, chunk, tuple_budget) for chunk in chunks if len(chunk)]
            with get_context("fork").Pool(workers) as pool:
                # in chunk order, so an error names the first failing prime
                # at any worker count
                bits = [b for part in pool.imap(_eval_chunk, jobs) for b in part]
    except RecursionError:
        raise fastengine._too_deep() from None
    return Spectrum(bound, np.asarray(bits, dtype=bool))


def poly_spectrum(f: IntPolynomial, bound: int = DEFAULT_SPECTRUM_BOUND) -> Spectrum:
    """Primes p <= bound at which f has a root in Z_p."""
    if f.degree < 1:
        raise DegenerateInputError(
            f"need a nonconstant polynomial, got {f.to_text()}"
        )
    table = prime_table(bound)
    bits = np.zeros(len(table), dtype=bool)
    for i, p in enumerate(table.primes):
        try:
            bits[i] = bool(poly_roots_mod(f, int(p)))
        except DegenerateInputError:
            bits[i] = True  # f vanishes identically mod p
    return Spectrum(bound, bits)


@dataclass(frozen=True)
class ExceptionReport:
    """Where two prime sets disagree, with a finite-horizon verdict.

    ``plausible`` is true when every disagreement lies at or below the
    threshold, i.e. the sets look almost equal from this bound.
    """

    left_only: tuple[int, ...]
    right_only: tuple[int, ...]
    threshold: int

    @property
    def exceptions(self) -> tuple[int, ...]:
        return tuple(sorted(self.left_only + self.right_only))

    @property
    def largest(self) -> Optional[int]:
        exc = self.exceptions
        return exc[-1] if exc else None

    @property
    def plausible(self) -> bool:
        return self.largest is None or self.largest <= self.threshold


def almost_equal(s: Spectrum, t: Spectrum, threshold: int = 0) -> ExceptionReport:
    """Symmetric difference of two spectra at a common bound."""
    _check_bounds(s, t)
    primes = s.table.primes
    left = primes[s.bits & ~t.bits]
    right = primes[t.bits & ~s.bits]
    return ExceptionReport(
        left_only=tuple(int(p) for p in left),
        right_only=tuple(int(p) for p in right),
        threshold=threshold,
    )


@dataclass(frozen=True)
class CongruenceClass:
    """Residues mod d naming the prime set {p : p mod d in residues}."""

    modulus: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        rs = tuple(sorted(set(self.residues)))
        if not rs:
            raise ValueError("residue set must be nonempty")
        for a in rs:
            if not 0 < a < self.modulus:
                raise ValueError(f"residue {a} out of range for modulus {self.modulus}")
        object.__setattr__(self, "residues", rs)


def lagarias_in_B(a: int, d: int) -> bool:
    """Whether {p : p = a mod d} is a Boolean combination of polynomial spectra.

    Holds exactly when a has order 1 or 2 in the units mod d, or shares a
    factor with d (making the class finite).
    """
    if not 0 < a < d:
        raise ValueError(f"need 0 < a < d, got a={a}, d={d}")
    return (a * a) % d == 1 or math.gcd(a, d) > 1


def exceptional_moduli(limit: int) -> list[int]:
    """Moduli d <= limit where every unit squares to 1, so every residue
    class mod d passes the spectra criterion."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    out = []
    for d in range(1, limit + 1):
        units = (a for a in range(1, d) if math.gcd(a, d) == 1)
        if all((a * a) % d == 1 for a in units):
            out.append(d)
    return out


def fit_congruences(
    s: Spectrum, max_modulus: int, threshold: int = 50
) -> list[tuple[CongruenceClass, ExceptionReport]]:
    """Congruence classes lying inside a spectrum, ignoring small primes.

    For each modulus d <= max_modulus, collects the unit residues a whose
    entire class above max(d, threshold) sits inside s, then reports how the
    union of those classes compares with s on the same range.  The report is
    plausible exactly when the detected classes explain all of s there.
    """
    if max_modulus < 2:
        raise ValueError(f"max_modulus must be >= 2, got {max_modulus}")
    primes = s.table.primes
    results = []
    for d in range(2, max_modulus + 1):
        cutoff = max(d, threshold)
        high = primes > cutoff
        fitted = []
        for a in range(1, d):
            if math.gcd(a, d) != 1:
                continue
            in_class = high & (primes % d == a)
            if in_class.any() and bool(np.all(s.bits[in_class])):
                fitted.append(a)
        if not fitted:
            continue
        covered = high & np.isin(primes % d, fitted)
        missed = primes[high & s.bits & ~covered]
        report = ExceptionReport(
            left_only=(),
            right_only=tuple(int(p) for p in missed),
            threshold=cutoff,
        )
        results.append((CongruenceClass(d, tuple(fitted)), report))
    return results
