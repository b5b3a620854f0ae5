"""Reference answers the benchmark checks the program against.

Nothing here calls into ringspectra's evaluators, spectra or density code:
primes come from a pure-Python sieve, memberships from the closed forms
the paper's constructions are proved to have, and the oracle sample from
a closure compiler over the syntax tree that shares no code with either
engine.  Only the syntax-tree classes are imported, to read the tree.
"""

from __future__ import annotations

import math

from ringspectra.logic import (
    Add,
    And,
    CountGE,
    Equal,
    Exists,
    Forall,
    Implies,
    IntTimes,
    Less,
    Lit,
    Majority,
    ModExists,
    Mul,
    Not,
    Or,
    Var,
)


def primes_upto(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if flags[p]]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# Closed-form memberships: sentence family -> does prime p satisfy it.


def _cyclotomic_has_root(n: int, p: int) -> bool:
    # n = p^k * n' with p not dividing n'; F_n has a root mod p iff p = 1 mod n'
    while n % p == 0:
        n //= p
    return p % n == 1 % n


def member(family: str, params: dict, p: int) -> bool | None:
    """Whether the family's sentence holds in Z_p; None where the closed
    form does not speak (congruence at p <= d, psi at p <= 3)."""
    if family == "x2+1":
        return p == 2 or p % 4 == 1
    if family == "x2-2":
        return p == 2 or p % 8 in (1, 7)
    if family == "cyclotomic":
        return _cyclotomic_has_root(params["n"], p)
    if family == "congruence":
        return p % params["d"] == params["a"] if p > params["d"] else None
    if family == "modcount":
        return p % params["q"] == params["r"]
    if family == "powres":
        n, d, r = params["n"], params["d"], params["r"]
        return _cyclotomic_has_root(n, p) and (p - 1) // math.gcd(n, p - 1) % d == r
    if family == "prime":
        return True
    if family == "psi":
        if p <= 3:
            return None
        low = 9
        while low < p:
            if p < 3 * low:
                return True
            low *= 9
        return False
    raise ValueError(f"no closed form for family {family!r}")


# ---------------------------------------------------------------------------
# Classification and density, restated from their definitions.


def fit_reference(primes, members, max_d: int, threshold: int):
    """(d, fitted residues, members missed) for each modulus d whose unit
    classes above max(d, threshold) lie wholly inside the set."""
    out = []
    for d in range(2, max_d + 1):
        high = [p for p in primes if p > max(d, threshold)]
        fitted = tuple(
            a
            for a in range(1, d)
            if math.gcd(a, d) == 1
            and any(p % d == a for p in high)
            and all(p in members for p in high if p % d == a)
        )
        if fitted:
            missed = tuple(p for p in high if p in members and p % d not in fitted)
            out.append((d, fitted, missed))
    return out


def log_profile_reference(primes, members, samples):
    """log(pi_S(n)) / log(pi(n)) at each sample point n (0 when pi_S is 0)."""
    out = []
    for n in samples:
        pi = sum(1 for p in primes if p <= n)
        pi_s = sum(1 for p in members if p <= n)
        out.append(math.log(pi_s) / math.log(pi) if pi_s else 0.0)
    return out


# ---------------------------------------------------------------------------
# An evaluator of its own for the oracle cross-check: the sentence is
# compiled once to nested closures over one mutable environment.


def _term(t, m):
    if isinstance(t, Var):
        name = t.name
        return lambda env: env[name]
    if isinstance(t, Lit):
        value = t.value % m
        return lambda env: value
    left, right = _term(t.left, m), _term(t.right, m)
    if isinstance(t, Add):
        return lambda env: (left(env) + right(env)) % m
    if isinstance(t, Mul):
        return lambda env: (left(env) * right(env)) % m
    raise TypeError(f"not a term: {t!r}")


def _witnesses(var, body, m):
    """Number of values of var in 0..m-1 at which body holds."""

    def count(env):
        saved = env.get(var)
        n = 0
        for w in range(m):
            env[var] = w
            n += bool(body(env))
        env[var] = saved
        return n

    return count


def _formula(f, m):
    if isinstance(f, (Equal, Less)):
        left, right = _term(f.left, m), _term(f.right, m)
        if isinstance(f, Equal):
            return lambda env: left(env) == right(env)
        return lambda env: left(env) < right(env)
    if isinstance(f, IntTimes):
        x, y, z = _term(f.x, m), _term(f.y, m), _term(f.z, m)
        return lambda env: x(env) * y(env) == z(env)
    if isinstance(f, Not):
        body = _formula(f.body, m)
        return lambda env: not body(env)
    if isinstance(f, (And, Or, Implies)):
        left, right = _formula(f.left, m), _formula(f.right, m)
        if isinstance(f, And):
            return lambda env: left(env) and right(env)
        if isinstance(f, Or):
            return lambda env: left(env) or right(env)
        return lambda env: (not left(env)) or right(env)
    if not isinstance(f, (Exists, Forall, ModExists, Majority, CountGE)):
        raise TypeError(f"not a formula: {f!r}")
    count = _witnesses(f.var, _formula(f.body, m), m)
    if isinstance(f, Exists):
        return lambda env: count(env) > 0
    if isinstance(f, Forall):
        return lambda env: count(env) == m
    if isinstance(f, ModExists):
        q, r = f.modulus, f.residue
        return lambda env: count(env) % q == r
    if isinstance(f, Majority):
        return lambda env: 2 * count(env) > m
    threshold = _term(f.count, m)
    return lambda env: count(env) >= threshold(env)


def holds(sentence, m: int) -> bool:
    """Truth of a closed formula in Z_m."""
    return bool(_formula(sentence, m)({}))
