"""Reference evaluation of formulas over Z_m, and eval_sentence.

eval_naive is the semantic definition: direct recursion, one nested loop
per quantifier.  It is deliberately simple so the fast relational engine
can be checked against it; see fastengine.py for that engine, which is
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


def eval_term(ctx: RingContext, t: Term, env: dict[str, int]) -> int:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Lit):
        return ctx.reduce_literal(t.value)
    a = eval_term(ctx, t.left, env)
    b = eval_term(ctx, t.right, env)
    if isinstance(t, Add):
        return (a + b) % ctx.m
    return (a * b) % ctx.m


def eval_naive(ctx: RingContext, f: Formula, env: dict[str, int] | None = None) -> bool:
    """Direct recursive evaluation; quantifiers loop over the universe."""
    if env is None:
        env = {}
    if isinstance(f, Equal):
        return eval_term(ctx, f.left, env) == eval_term(ctx, f.right, env)
    if isinstance(f, Less):
        return eval_term(ctx, f.left, env) < eval_term(ctx, f.right, env)
    if isinstance(f, IntTimes):
        x = eval_term(ctx, f.x, env)
        y = eval_term(ctx, f.y, env)
        z = eval_term(ctx, f.z, env)
        return x * y == z
    if isinstance(f, Not):
        return not eval_naive(ctx, f.body, env)
    if isinstance(f, And):
        return eval_naive(ctx, f.left, env) and eval_naive(ctx, f.right, env)
    if isinstance(f, Or):
        return eval_naive(ctx, f.left, env) or eval_naive(ctx, f.right, env)
    if isinstance(f, Implies):
        return (not eval_naive(ctx, f.left, env)) or eval_naive(ctx, f.right, env)
    if isinstance(f, Exists):
        return any(
            eval_naive(ctx, f.body, {**env, f.var: w}) for w in range(ctx.m)
        )
    if isinstance(f, Forall):
        return all(
            eval_naive(ctx, f.body, {**env, f.var: w}) for w in range(ctx.m)
        )
    if isinstance(f, (ModExists, Majority, CountGE)):
        count = sum(
            eval_naive(ctx, f.body, {**env, f.var: w}) for w in range(ctx.m)
        )
        if isinstance(f, ModExists):
            return count % f.modulus == f.residue
        if isinstance(f, Majority):
            return 2 * count > ctx.m
        return count >= eval_term(ctx, f.count, env)
    raise TypeError(f"not a formula: {f!r}")


def naive_rows(ctx: RingContext, f: Formula, cols: Sequence[str], cap: int) -> list:
    """Assignments to cols satisfying f, in lexicographic order, one
    eval_naive call each; ResourceLimitError past cap assignments."""
    total = ctx.m ** len(cols)
    if total > cap:
        raise ResourceLimitError(
            f"{total} assignments are too many for per-assignment evaluation"
            f" of: {formula_to_text(f)[:100]}"
        )
    return [
        vals
        for vals in itertools.product(range(ctx.m), repeat=len(cols))
        if eval_naive(ctx, f, dict(zip(cols, vals)))
    ]


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
