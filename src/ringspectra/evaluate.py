"""Reference evaluation of formulas over Z_m, and eval_sentence.

eval_naive is the semantic definition.  Each formula is written out once,
from its syntax tree as written, as Python source: one flat def per
quantifier, whose for loop over the universe stops at the first deciding
value for exists and forall, and Python's own connectives.  The source holds
only generated names, integers, operators and keywords, runs without
builtins, and is compiled once per sentence and kept while the sentence
lives.  It is deliberately simple so the fast relational engine can be
checked against it; see fastengine.py for that engine, which is
the one eval_sentence uses unless asked for the reference or for both.
"""

from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import EngineDisagreementError, ResourceLimitError
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
    Majority,
    Mul,
    ModExists,
    Not,
    Or,
    QUANTIFIERS,
    Var,
    formula_to_text,
    require_closed,
    run,
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
    tuple_budget: int = DEFAULT_TUPLE_BUDGET
    # the largest relation charged against tuple_budget so far
    peak_rows: int = field(default=0, init=False, compare=False, repr=False)
    # the relation the fast engine computed at this modulus for each class
    # of shared plan nodes (fastengine._share), under the class's first
    # node, so that it computes it once
    shared: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("modulus must be >= 1")
        if self.m > MAX_MODULUS:
            raise ResourceLimitError(f"modulus {self.m} exceeds cap {MAX_MODULUS}")
        if self.tuple_budget < 1:
            raise ValueError(f"tuple budget must be >= 1, got {self.tuple_budget}")


# CPython's parser refuses more than 200 nested parentheses, and runs out of
# stack on fewer nested operators: a generated expression nests at most
# this deep, and a deeper one becomes a def of its own.
_NEST = 40

# the operands of each node, in field order, fill its template
_TEMPLATES = {
    Add: "(({} + {}) % M)",
    Mul: "(({} * {}) % M)",
    Equal: "({} == {})",
    Less: "({} < {})",
    IntTimes: "({} * {} == {})",  # over the integers, not reduced
    Not: "(not {})",
    Implies: "(not {} or {})",
}

_SCOPE_NAME = re.compile(r"\b[fv]\d+\b")

# id(sentence) -> (free names, make), dropped with the sentence.  Keyed on
# identity: hashing a frozen AST recurses through it, and gives up near
# depth 500, where the generated source still compiles.
_COMPILED: dict[int, tuple] = {}


def _source(f: Formula) -> tuple[list[str], str]:
    """f's free names, and the source of make(M, R), which returns f over
    Z_M as a function of their values.  A binding occurrence becomes a fresh
    v<i>, a free name f<i> and a literal c<i> = k % M; each quantifier is a
    def of the names it reads, looping over R = range(M).  No name of f
    enters the source."""
    defs, consts, free, fresh = [], {}, {}, itertools.count()

    def define(lines, bound=None):
        name = f"q{len(defs)}"
        read = set(_SCOPE_NAME.findall(" ".join(lines))) - {bound}
        args = ", ".join(sorted(read))
        defs.append(f"    def {name}({args}):" + "".join(f"\n        {s}" for s in lines))
        return f"{name}({args})", 0

    def emit(g, scope):
        """g's (text, depth): a visit for run, whose context is scope."""
        if isinstance(g, Var):
            return scope.get(g.name) or free.setdefault(g.name, f"f{len(free)}"), 0
        if isinstance(g, Lit):
            return consts.setdefault(g.value, f"c{len(consts)}"), 0
        if isinstance(g, QUANTIFIERS):
            v = f"v{next(fresh)}"
            body = (yield g.body, {**scope, g.var: v})[0]
            if isinstance(g, (Exists, Forall)):  # stop at the first deciding value
                hit = isinstance(g, Exists)
                test = body if hit else f"not {body}"
                return define([f"for {v} in R:", f"    if {test}:",
                               f"        return {hit}", f"return {not hit}"], v)
            if isinstance(g, ModExists):
                result = f"n % {g.modulus} == {g.residue}"
            elif isinstance(g, Majority):
                result = "2 * n > M"
            else:  # the threshold is read after the scan
                result = f"n >= {(yield g.count, scope)[0]}"
            return define(["n = 0", f"for {v} in R:", f"    if {body}:",
                           "        n += 1", f"return {result}"], v)
        if isinstance(g, (And, Or)):  # a chain of one kind is emitted flat
            stack, operands = [g], []
            while stack:
                h = stack.pop()
                if type(h) is type(g):
                    stack += (h.right, h.left)
                else:
                    operands.append(h)
            joint = " and " if isinstance(g, And) else " or "
            template = "(" + joint.join(["{}"] * len(operands)) + ")"
        elif type(g) in _TEMPLATES:
            operands, template = vars(g).values(), _TEMPLATES[type(g)]
        else:
            raise TypeError(f"not a formula: {g!r}")
        texts, depth = [], 1
        for h in operands:
            text, d = yield h, scope
            texts.append(text)
            depth = max(depth, d + 1)
        text = template.format(*texts)
        return (text, depth) if depth < _NEST else define([f"return {text}"])

    top = run(emit, f, {})[0]
    lines = ["def make(M, R):"] + [f"    {c} = {k} % M" for k, c in consts.items()]
    lines += defs + [f"    def top({', '.join(free.values())}):",
                     f"        return {top}", "    return top"]
    return list(free), "\n".join(lines) + "\n"


def _compiled(f: Formula):
    """(free names of f, make), where make(m, range(m)) is f in Z_m as a
    function of their values, from source generated and compiled once per
    sentence, and run without builtins."""
    known = _COMPILED.get(id(f))
    if known is None:
        names, source = _source(f)
        space = {"__builtins__": {}}
        exec(compile(source, "<reference>", "exec"), space)
        weakref.finalize(f, _COMPILED.pop, id(f), None).atexit = False
        known = _COMPILED[id(f)] = names, space["make"]
    return known


def _too_deep() -> ResourceLimitError:
    # each quantifier is a def that calls the next, so a deep nest of them
    # runs out of Python stack
    return ResourceLimitError("formula nested too deeply for the reference evaluator")


def eval_naive(ctx: RingContext, f: Formula, env: dict[str, int] | None = None) -> bool:
    """Truth of f in Z_m under env (read, never mutated), from f's compiled
    source; KeyError if env lacks a free variable of f."""
    names, make = _compiled(f)
    env = env or {}
    args = [env[n] for n in names]
    try:
        return make(ctx.m, range(ctx.m))(*args)
    except RecursionError:
        raise _too_deep() from None


def naive_rows(ctx: RingContext, f: Formula, cols: Sequence[str], cap: int) -> list:
    """Assignments to cols satisfying f, in lexicographic order, from one
    compiled function; ResourceLimitError past cap assignments."""
    total = ctx.m ** len(cols)
    if total > cap:
        raise ResourceLimitError(
            f"{total} assignments are too many for per-assignment evaluation"
            f" of: {formula_to_text(f)[:100]}"
        )
    names, make = _compiled(f)
    holds = make(ctx.m, range(ctx.m))
    where = {col: i for i, col in enumerate(cols)}
    pick = [where[n] for n in names]  # KeyError for a free name not in cols
    try:
        return [
            vals
            for vals in itertools.product(range(ctx.m), repeat=len(cols))
            if holds(*[vals[i] for i in pick])
        ]
    except RecursionError:
        raise _too_deep() from None


def eval_sentence(
    sentence: Formula,
    m: int,
    engine: str = "fast",
    *,
    tuple_budget: Optional[int] = None,
) -> bool:
    """Evaluate a closed formula in Z_m.

    engine is "fast" (the relational engine), "naive" (the reference
    evaluator), or "both", which runs the two and raises
    EngineDisagreementError if they disagree.  A tuple_budget of None
    means the default cap.
    """
    from .fastengine import eval_fast_bool

    if tuple_budget is None:
        tuple_budget = DEFAULT_TUPLE_BUDGET
    ctx = RingContext(m, tuple_budget=tuple_budget)
    if engine == "fast":
        return eval_fast_bool(ctx, sentence)
    if engine not in ("naive", "both"):
        raise ValueError(f"unknown engine {engine!r}")
    require_closed(_compiled(sentence)[0])
    got_naive = eval_naive(ctx, sentence)
    if engine == "naive":
        return got_naive
    got_fast = eval_fast_bool(ctx, sentence)
    if got_naive != got_fast:
        raise EngineDisagreementError(formula_to_text(sentence), m, got_naive, got_fast)
    return got_naive
