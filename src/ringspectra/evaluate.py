"""Reference evaluation of formulas over Z_m, and eval_sentence.

eval_naive is the semantic definition: one walk over the syntax tree
compiles the formula to nested closures over a single mutable environment,
and each quantifier is a loop over the universe that binds its variable in
place.  It is deliberately simple so the fast relational engine can be
checked against it; see fastengine.py for that engine, which is
the one eval_sentence uses unless asked for the reference or for both.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import EngineDisagreementError, ResourceLimitError
from .logic import (
    Add,
    And,
    CountGE,
    Equal,
    Exists,
    Forall,
    Formula,
    Implies,
    IntTimes,
    Less,
    Lit,
    Majority,
    ModExists,
    Not,
    Or,
    Term,
    Var,
    formula_to_text,
    require_sentence,
)

# Default cap on materialized relation rows in the fast engine.
DEFAULT_TUPLE_BUDGET = 50_000_000

# Moduli up to this cap are accepted; matches the sieve cap so spectrum
# sweeps and single evaluations share one limit.
MAX_MODULUS = 5_000_000


@dataclass
class RingContext:
    """Evaluation context for Z_m."""

    m: int
    strict_literals: bool = False
    tuple_budget: int = DEFAULT_TUPLE_BUDGET

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("modulus must be >= 1")
        if self.m > MAX_MODULUS:
            raise ResourceLimitError(f"modulus {self.m} exceeds cap {MAX_MODULUS}")

    def reduce_literal(self, k: int) -> int:
        if self.strict_literals and k >= self.m:
            warnings.warn(
                f"literal {k} reduced modulo {self.m}",
                RuntimeWarning,
                stacklevel=3,
            )
        return k % self.m


def _term(ctx: RingContext, t: Term):
    m = ctx.m
    if isinstance(t, Var):
        name = t.name
        return lambda env: env[name]
    if isinstance(t, Lit):
        k = t.value
        if ctx.strict_literals and k >= m:
            return lambda env: ctx.reduce_literal(k)  # warns at each use
        value = k % m
        return lambda env: value
    left, right = _term(ctx, t.left), _term(ctx, t.right)
    if isinstance(t, Add):
        return lambda env: (left(env) + right(env)) % m
    return lambda env: (left(env) * right(env)) % m


def _formula(ctx: RingContext, f: Formula):
    """f compiled to a closure env -> bool.  A quantifier binds its variable
    in env in place, then restores it; Exists and Forall stop when decided."""
    if isinstance(f, (Equal, Less)):
        left, right = _term(ctx, f.left), _term(ctx, f.right)
        if isinstance(f, Equal):
            return lambda env: left(env) == right(env)
        return lambda env: left(env) < right(env)
    if isinstance(f, IntTimes):
        x, y, z = _term(ctx, f.x), _term(ctx, f.y), _term(ctx, f.z)
        return lambda env: x(env) * y(env) == z(env)
    if isinstance(f, Not):
        body = _formula(ctx, f.body)
        return lambda env: not body(env)
    if isinstance(f, (And, Or, Implies)):
        left, right = _formula(ctx, f.left), _formula(ctx, f.right)
        if isinstance(f, And):
            return lambda env: left(env) and right(env)
        if isinstance(f, Or):
            return lambda env: left(env) or right(env)
        return lambda env: (not left(env)) or right(env)
    if not isinstance(f, (Exists, Forall, ModExists, Majority, CountGE)):
        raise TypeError(f"not a formula: {f!r}")
    var, m, body = f.var, ctx.m, _formula(ctx, f.body)

    def scan(env, stop):  # witnesses of body as var runs over Z_m
        saved = env.get(var)  # None: var was unbound
        n = 0
        for w in range(m):
            env[var] = w
            if body(env):
                n += 1
                if stop:
                    break
            elif stop is False:
                break
        del env[var]
        if saved is not None:
            env[var] = saved
        return n

    if isinstance(f, Exists):
        return lambda env: scan(env, True) > 0
    if isinstance(f, Forall):
        return lambda env: scan(env, False) == m
    if isinstance(f, ModExists):
        q, r = f.modulus, f.residue
        return lambda env: scan(env, None) % q == r
    if isinstance(f, Majority):
        return lambda env: 2 * scan(env, None) > m
    threshold = _term(ctx, f.count)
    return lambda env: scan(env, None) >= threshold(env)


def eval_naive(ctx: RingContext, f: Formula, env: dict[str, int] | None = None) -> bool:
    """Truth of f in Z_m under env (copied, never mutated): f is compiled
    to closures in one walk, then run once."""
    return _formula(ctx, f)(dict(env) if env else {})


def naive_rows(ctx: RingContext, f: Formula, cols: Sequence[str], cap: int) -> list:
    """Assignments to cols satisfying f, in lexicographic order, from one
    compiled closure; ResourceLimitError past cap assignments."""
    total = ctx.m ** len(cols)
    if total > cap:
        raise ResourceLimitError(
            f"{total} assignments are too many for per-assignment evaluation"
            f" of: {formula_to_text(f)[:100]}"
        )
    holds, env, rows = _formula(ctx, f), {}, []
    for vals in itertools.product(range(ctx.m), repeat=len(cols)):
        env.update(zip(cols, vals))
        if holds(env):
            rows.append(vals)
    return rows


def eval_sentence(
    sentence: Formula,
    m: int,
    engine: str = "fast",
    *,
    strict_literals: bool = False,
    tuple_budget: Optional[int] = None,
) -> bool:
    """Evaluate a closed formula in Z_m.

    engine is "fast" (the relational engine), "naive" (the reference
    evaluator), or "both", which runs the two and raises
    EngineDisagreementError if they disagree.  A tuple_budget of None
    means the default cap.
    """
    from .fastengine import eval_fast_bool

    require_sentence(sentence)
    if tuple_budget is None:
        tuple_budget = DEFAULT_TUPLE_BUDGET
    ctx = RingContext(m, strict_literals=strict_literals, tuple_budget=tuple_budget)
    if engine == "naive":
        return eval_naive(ctx, sentence)
    if engine == "fast":
        return eval_fast_bool(ctx, sentence)
    if engine == "both":
        got_naive = eval_naive(ctx, sentence)
        got_fast = eval_fast_bool(ctx, sentence)
        if got_naive != got_fast:
            raise EngineDisagreementError(
                formula_to_text(sentence), m, got_naive, got_fast
            )
        return got_naive
    raise ValueError(f"unknown engine {engine!r}")
