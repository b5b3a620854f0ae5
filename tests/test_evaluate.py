"""Evaluator semantics: reference engine examples, and agreement between
the naive and relational engines on random sentences."""

import collections
import dataclasses
import gc
import io
import itertools
import keyword
import math
import random
import re
import sys
import tokenize
import weakref

import numpy as np
import pytest

from ringspectra import blockengine, evaluate, fastengine, verify
from ringspectra.arith import ROOT_SCAN_LIMIT, IntPolynomial, cyclotomic, eval_mod_array, sieve
from ringspectra.constructions import (
    FAMILIES,
    _poly_equation,
    cyclotomic_sentence,
    power_residue_sentence,
    prime_sentence,
    psi_sentence,
)
from ringspectra.errors import (
    EngineDisagreementError,
    InvariantError,
    ResourceLimitError,
    RingSpectraError,
)
from ringspectra.evaluate import MAX_MODULUS, RingContext, eval_naive, eval_sentence, naive_rows
from ringspectra.fastengine import eval_fast, eval_fast_bool
from ringspectra.logic import (
    Add,
    And,
    CountGE,
    Equal,
    Exists,
    Forall,
    Implies,
    Less,
    Lit,
    Majority,
    ModExists,
    Mul,
    Not,
    Or,
    QUANTIFIERS,
    Var,
    count_exact,
    formula_to_text,
    free_vars,
    parse_formula,
    parse_sentence,
    random_sentence,
)
from ringspectra.spectra import spectrum


def both(text, m):
    s = parse_sentence(text)
    ctx = RingContext(m)
    got_naive = eval_naive(ctx, s)
    got_fast = eval_fast_bool(ctx, s)
    assert got_naive == got_fast, f"engines disagree at m={m}: {text}"
    return got_naive


def test_majority_strict_half():
    # m=4: witnesses {0,1} is exactly half, not a majority
    assert both("M y. (y < 2)", 4) is False
    assert both("M y. (y < 3)", 5) is True
    assert both("M y. (y < 4)", 7) is True
    assert both("M y. (y = y)", 1) is True


def test_mod_exists_counts_whole_universe():
    # number of witnesses of x=x is m, so E[r,q] x. (x=x) iff m % q == r
    for m in range(1, 30):
        for q in (2, 3, 4, 5):
            for r in range(q):
                assert both(f"E[{r},{q}] x. (x = x)", m) is (m % q == r)


def test_exact_count_of_full_universe_never_m():
    # count terms are ring elements, so "exactly i" never reaches m witnesses
    s = Exists("i", count_exact(Var("i"), "y", Equal(Var("y"), Var("y"))))
    for m in (1, 2, 5, 9):
        ctx = RingContext(m)
        assert eval_naive(ctx, s) is False
        assert eval_fast_bool(ctx, s) is False


def test_count_ge_threshold():
    assert both("C>=(3) x. (x < 4)", 10) is True
    assert both("C>=(5) x. (x < 4)", 10) is False
    # threshold is a ring value: 12 reduces to 2 mod 10
    assert both("C>=(12) x. (x < 4)", 10) is True


def test_units_sentence_detects_prime_modulus():
    units = "A x. (!(x = 0) -> E y. (x * y = 1))"
    for m in range(2, 40):
        is_field = all(m % d for d in range(2, m))
        assert both(units, m) is is_field


def test_literals_reduce_modulo_m():
    assert both("E x. (x = 7)", 5) is True
    assert both("7 = 2", 5) is True
    assert both("2 < 7", 5) is False  # 7 reduces to 2


def test_divisor_chain_formula_small_rings():
    # z has a nontrivial divisor below it
    text = "E z. E x. (TIMES(x, x, z) & !(x = 1) & !(x = 0))"
    assert both(text, 5) is True  # 2*2=4 stays in range
    assert both(text, 4) is False  # 2*2=4 wraps out of range; 3*3 too big


def test_power_set_relation_ordering():
    # divisors-only-multiples-of-3 characterizes powers of 3
    exp3 = parse_formula(
        "A x. ((E y. TIMES(x, y, z)) & !(x = 1) -> E w. TIMES(3, w, x))"
    )
    ctx = RingContext(101)
    rel = eval_fast(ctx, exp3)
    assert rel.cols == ("z",)
    assert [int(v) for v in rel.rows[:, 0]] == [1, 3, 9, 27, 81]
    naive = [z for z in range(101) if eval_naive(ctx, exp3, {"z": z})]
    assert naive == [1, 3, 9, 27, 81]


def test_max_power_selects_largest():
    maxexp3 = parse_formula(
        "(A x. ((E y. TIMES(x, y, z)) & !(x = 1) -> E w. TIMES(3, w, x)))"
        " & (A v. (z < v -> !(A x. ((E y. TIMES(x, y, v)) & !(x = 1)"
        " -> E w. TIMES(3, w, x)))))"
    )
    ctx = RingContext(101)
    rel = eval_fast(ctx, maxexp3)
    assert [int(v) for v in rel.rows[:, 0]] == [81]


def test_squared_power_set():
    # z = x^2 for x a power of 3: in Z_50 exactly {1, 9}
    f = parse_formula(
        "E x. (TIMES(x, x, z) & (A u. ((E y. TIMES(u, y, x)) & !(u = 1)"
        " -> E w. TIMES(3, w, u))))"
    )
    ctx = RingContext(50)
    rel = eval_fast(ctx, f)
    got = [int(v) for v in rel.rows[:, 0]]
    assert got == [1, 9]
    assert got == [z for z in range(50) if eval_naive(ctx, f, {"z": z})]


def test_open_formula_relation_matches_naive_enumeration():
    rng = random.Random(4021)
    for _ in range(40):
        s = random_sentence(rng, max_depth=4, max_quantifiers=2)
        # strip the outermost quantifier when present to get an open formula
        f = s.body if hasattr(s, "body") and hasattr(s, "var") else s
        for m in (3, 7, 11):
            ctx = RingContext(m)
            rel = eval_fast(ctx, f)
            fvs = rel.cols
            want = [
                vals
                for vals in _assignments(m, len(fvs))
                if eval_naive(ctx, f, dict(zip(fvs, vals)))
            ]
            got = [tuple(int(v) for v in row) for row in rel.rows]
            assert got == want, formula_to_text(f)


def _assignments(m, k):
    if k == 0:
        return [()]
    return [
        prefix + (v,) for prefix in _assignments(m, k - 1) for v in range(m)
    ]


def test_engines_agree_on_random_sentences():
    rng = random.Random(20260817)
    moduli = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 23, 30, 40)
    for _ in range(150):
        s = random_sentence(rng, max_depth=5, max_quantifiers=3)
        for m in moduli:
            ctx = RingContext(m)
            assert eval_naive(ctx, s) == eval_fast_bool(ctx, s), (
                f"m={m}: " + formula_to_text(s)
            )


def test_engines_agree_on_deep_sentences():
    rng = random.Random(99)
    for _ in range(60):
        s = random_sentence(rng, max_depth=7, max_quantifiers=4)
        for m in (1, 2, 5, 11, 19):
            ctx = RingContext(m)
            assert eval_naive(ctx, s) == eval_fast_bool(ctx, s), (
                f"m={m}: " + formula_to_text(s)
            )


def test_tuple_budget_error_names_subformula():
    s = parse_sentence("E x. E y. E z. (x + y = z & x < y & y < z)")
    ctx = RingContext(100, tuple_budget=1000)
    with pytest.raises(ResourceLimitError) as exc:
        eval_fast_bool(ctx, s)
    assert "tuple budget" in str(exc.value)
    assert "+" in str(exc.value)  # names the offending subformula
    # same sentence fits comfortably at a small modulus
    assert eval_fast_bool(RingContext(5, tuple_budget=1000), s) is both(
        "E x. E y. E z. (x + y = z & x < y & y < z)", 5
    )


@pytest.mark.parametrize(
    "text, m, value",
    [
        # a literal >= m is reduced modulo m
        ("E x. (x = 7)", 5, True),
        ("A x. (x = 7)", 5, False),
        ("E[0,2] x. (x = 7)", 5, False),
        ("E x. (x = 7)", 9, True),
        ("A x. (x = 7)", 9, False),
        ("E[0,2] x. (x = 7)", 9, False),
        # shadowing: the inner x hides the outer one, then hands it back
        ("E x. E x. (x = 1)", 5, True),
        ("E x. ((E x. (x = 1)) & (x = 0))", 5, True),
    ],
)
def test_reference_reduces_literals_modulo_m(text, m, value):
    assert eval_sentence(parse_sentence(text), m, engine="both") is value


def test_reference_leaves_the_callers_env_alone():
    env = {"x": 3}
    f = parse_formula("(E x. (x = 0)) & (x = 3)")
    assert eval_naive(RingContext(7), f, env) is True
    assert env == {"x": 3}
    with pytest.raises(KeyError):  # the quantifier unbinds x again
        eval_naive(RingContext(7), f)
    with pytest.raises(KeyError):  # z is free, and y was bound when it failed
        eval_naive(RingContext(7), parse_formula("E y. (y = z)"), env)
    assert env == {"x": 3}


def test_reference_compiles_each_sentence_once(monkeypatch):
    generated, compiled = [], []
    source = evaluate._source

    def counting_source(f):
        generated.append(f)
        return source(f)

    def counting_compile(*args):
        compiled.append(args[0])
        return compile(*args)

    monkeypatch.setattr(evaluate, "_COMPILED", {})
    monkeypatch.setattr(evaluate, "_source", counting_source)
    monkeypatch.setattr(evaluate, "compile", counting_compile, raising=False)
    s = parse_sentence("A x. (!(x = 0) -> E y. ((x * y) = 1))")
    for m in (7, 31):
        assert eval_naive(RingContext(m), s) is True
    assert generated == [s] and len(compiled) == 1
    f = parse_formula("(x * y) = 1")
    rows = naive_rows(RingContext(12), f, ["x", "y"], 1000)
    assert rows == [(1, 1), (5, 5), (7, 7), (11, 11)]
    assert generated[1:] == [f] and len(compiled) == 2
    # the entry, and the code compiled for it, go with the sentence
    make = weakref.ref(evaluate._COMPILED[id(f)][1])
    generated.clear()
    del f
    gc.collect()
    assert make() is None and len(evaluate._COMPILED) == 1


def _injection_sentence(a, b):
    # E a. (C>=(a) b. ((a * b) = 2**70) & A b. ((b < a) -> !((b + 0) = 2**70)))
    big = Lit(2**70)
    return Exists(a, And(
        CountGE(Var(a), b, Equal(Mul(Var(a), Var(b)), big)),
        Forall(b, Implies(Less(Var(b), Var(a)), Not(Equal(Add(Var(b), Lit(0)), big)))),
    ))


def test_reference_source_holds_only_generated_names():
    names = ("__import__('os')", "x); print(1")
    evil, plain = _injection_sentence(*names), _injection_sentence("x", "y")
    generated = re.compile(r"[qvfc]\d+|M|R|make|top|n")
    _, source = evaluate._source(evil)
    assert not any(name in source for name in names)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert keyword.iskeyword(tok.string) or generated.fullmatch(tok.string)
        else:
            assert tok.type in (
                tokenize.NUMBER, tokenize.OP, tokenize.NEWLINE, tokenize.NL,
                tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
            ), tok
    space = {"__builtins__": {}}
    exec(source, space)
    for m in range(1, 13):
        want = eval_sentence(plain, m, engine="both")
        assert eval_sentence(evil, m, engine="both") is want
        assert space["make"](m, range(m))() is want


def _nest(depth):
    """An alternating And/Or nest over x, nested on the left."""
    f = Equal(Var("x"), Lit(0))
    for k in range(depth):
        if k % 2:
            f = And(f, Less(Var("x"), Lit(k % 11 + 2)))
        else:
            f = Or(f, Equal(Var("x"), Lit(k % 13)))
    return f


def test_reference_evaluates_long_and_deep_formulas():
    # depth 1200 is deeper than Python's stack: the reference writes its
    # source by logic.run, which keeps a stack of its own
    chain = " & ".join(f"!(x = {k})" for k in range(300))
    s = parse_sentence(f"E x. ({chain})")
    assert eval_sentence(s, 300, engine="both") is False
    assert eval_sentence(s, 301, engine="both") is True
    for depth in (250, 600, 1200):
        f = _nest(depth)
        for m in (7, 12):
            n = 0
            for x in range(m):
                holds = x == 0
                for k in range(depth):
                    if k % 2:
                        holds = holds and x < (k % 11 + 2) % m
                    else:
                        holds = holds or x == k % 13 % m
                n += holds
            assert eval_sentence(ModExists(n % 3, 3, "x", f), m, engine="naive")
            assert not eval_sentence(ModExists((n + 1) % 3, 3, "x", f), m, engine="naive")


def test_walks_take_formulas_deeper_than_pythons_stack():
    for n in (1200, 5000):
        # true in Z_m exactly when m divides n
        s = parse_sentence("E x. ((x" + " + 1" * n + ") = x)")
        assert formula_to_text(s) == "(E x. " + "(" * n + "x" + " + 1)" * n + " = x)"
        for m in range(1, 13):
            assert eval_sentence(s, m, engine="both") is (n % m == 0)
    power = parse_sentence("E x. ((x" + " * x" * 999 + ") = 2)")
    for m in range(1, 13):
        want = any(pow(x, 1000, m) == 2 % m for x in range(m))
        assert eval_sentence(power, m, engine="both") is want
    text = "x = 0"
    for k in range(1200):
        text = f"({text} & x < {k % 11 + 2})" if k % 2 else f"({text} | x = {k % 13})"
    assert formula_to_text(_nest(1200)) == text
    assert free_vars(_nest(1200)) == {"x"}


def test_fast_engine_refuses_formulas_nested_too_deep():
    # depth 350 fits the relational engine's recursion, depth 600 does not
    for r in range(3):
        s = ModExists(r, 3, "x", _nest(350))
        for m in (7, 12):
            eval_sentence(s, m, engine="both")
    for deep in (ModExists(0, 3, "x", _nest(600)), ModExists(1, 2, "x", _nest(1200))):
        for run in (
            lambda: eval_sentence(deep, 7),
            lambda: eval_sentence(deep, 7, engine="both"),
            lambda: eval_fast(RingContext(7), deep.body),
            lambda: spectrum(deep, 30, workers=1),
        ):
            try:
                run()
            except ResourceLimitError as exc:
                assert "nested too deeply" in str(exc)
            except RecursionError:  # too deep a traceback for pytest to print
                pytest.fail("RecursionError, not ResourceLimitError", pytrace=False)
            else:
                pytest.fail("no ResourceLimitError")


def test_reference_refuses_quantifiers_nested_too_deep():
    # each quantifier is a def of the generated source that calls the next
    deep = Equal(Var("x0"), Var("x0"))
    for i in range(1100):
        deep = Exists(f"x{i}", deep)
    for run in (
        lambda: eval_sentence(deep, 1, engine="naive"),
        lambda: eval_sentence(deep, 1, engine="both"),
        lambda: naive_rows(RingContext(1), deep, (), 1),
    ):
        try:
            run()
        except ResourceLimitError as exc:
            assert "nested too deeply" in str(exc)
        except RecursionError:  # too deep a traceback for pytest to print
            pytest.fail("RecursionError, not ResourceLimitError", pytrace=False)
        else:
            pytest.fail("no ResourceLimitError")


def test_compile_multiplies_monomials_by_exponents():
    # a chain of 1000 factors is one monomial of exponent 1000
    power = Var("x")
    for _ in range(999):
        power = Mul(power, Var("x"))
    assert fastengine._compile(Equal(power, Lit(2))).poly == {(1000,): 1, (0,): -2}
    mixed = Equal(Mul(Mul(Var("y"), Var("x")), Var("y")), Add(Var("x"), Lit(3)))
    assert fastengine._compile(mixed).poly == {(1, 2): 1, (1, 0): -1, (0, 0): -3}


def test_fast_engine_rejects_free_variables_before_evaluating(monkeypatch):
    calls = _counting(monkeypatch, fastengine, "eval_rel")
    with pytest.raises(ValueError):
        eval_fast_bool(RingContext(7), parse_formula("E y. (x = y)"))
    assert calls == []


def test_tuple_budget_below_one_is_rejected():
    s = parse_sentence("E x. (x = 1)")
    for budget in (0, -5):
        with pytest.raises(ValueError):
            eval_sentence(s, 5, tuple_budget=budget)
        with pytest.raises(ValueError):
            spectrum(s, 30, workers=1, tuple_budget=budget)


def test_eval_sentence_dispatch_and_both_mode():
    s = parse_sentence("A x. (!(x = 0) -> E y. (x * y = 1))")
    assert eval_sentence(s, 7) is True
    assert eval_sentence(s, 7, engine="naive") is True
    assert eval_sentence(s, 7, engine="fast") is True
    assert eval_sentence(s, 7, engine="both") is True
    assert eval_sentence(s, 9, engine="both") is False
    for unknown in ("warp", "auto"):
        with pytest.raises(ValueError):
            eval_sentence(s, 7, engine=unknown)
    with pytest.raises(ValueError):
        eval_sentence(parse_formula("x = 1"), 7)


def test_modulus_validation():
    with pytest.raises(ValueError):
        RingContext(0)
    with pytest.raises(ResourceLimitError):
        RingContext(6_000_000)


def _counting(monkeypatch, module, name):
    """Replace module.name, or the kernel of the tag name in the engine's
    table, by a wrapper that records the arguments of each call.  A function
    that is also a table entry is replaced there too, since eval_rel calls
    it through the table."""
    calls = []
    table = fastengine._KERNELS
    original = table[name] if name in table else getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if name not in table:
        monkeypatch.setattr(module, name, wrapper)
    for tag, kernel in table.items():
        if tag == name or (name not in table and kernel is original):
            monkeypatch.setitem(table, tag, wrapper)
    return calls


@pytest.mark.parametrize(
    "text",
    [
        "A x. E[1,2] y. TIMES(x, y, x)",
        "A x. E[1,2] y. TIMES(y, x, x)",
        "E x. E[1,2] y. TIMES(x, y, y)",
    ],
)
def test_times_with_a_repeated_name_agrees_at_every_modulus(monkeypatch, text):
    # a*b = a and a*b = b hold at b = 1, or a = 1, which is 0 at m = 1
    s = parse_sentence(text)
    calls = _counting(monkeypatch, fastengine, "times")
    got = [eval_sentence(s, m, engine="both") for m in range(1, 13)]
    assert got[0] is True and calls


def test_prime_near_a_million_takes_the_bitmap_complement(monkeypatch):
    s = prime_sentence()
    calls = _counting(monkeypatch, fastengine, "_complement")
    assert eval_sentence(s, 1_000_003) is True
    assert eval_sentence(s, 10**6) is False
    assert {ctx.m for ctx, *_ in calls} == {1_000_003, 10**6}


def test_wide_negated_quantifier_takes_the_complement(monkeypatch):
    # the negated E e. has four free variables, so its relation is the
    # complement of a four-column relation
    s = parse_sentence(
        "A a. A b. A c. A d. ((E e. (((a + b) + (c * d)) = (e * e)))"
        " | ((a + c) = (b * d)))"
    )
    widths = []
    real = fastengine._complement

    def complement(ctx, rel, node):
        out = real(ctx, rel, node)
        widths.append(len(out.cols))
        return out

    monkeypatch.setattr(fastengine, "_complement", complement)
    got = [eval_sentence(s, m, engine="both") for m in range(1, 8)]
    assert got == [True, True, False, False, False, False, False]
    assert 4 in widths


def _count_ge_branch(p) -> str:
    """Which branch the C>= kernel takes for the groups where t >= 1: by
    whether the count term t has variables, and whether they are group
    columns, fresh ones, or both."""
    tf = set(p.kids[1].fv)
    group_cols = set(p.kids[0].fv) - {p.node.var}
    if not tf:
        return "constant"
    if tf <= group_cols:
        return "group columns"
    return "shared and added" if tf & group_cols else "fresh"


def test_count_ge_overlap_agrees_with_the_reference(monkeypatch):
    # the count term a + b shares a with the group columns and adds b
    s = parse_sentence("E a. E b. ((C>=(a + b) x. (x < a)) & (b < a))")
    calls = _counting(monkeypatch, fastengine, "count ge")
    got = [eval_sentence(s, m, engine="both") for m in range(1, 13)]
    assert got == [False] + [True] * 11
    assert "shared and added" in {_count_ge_branch(p) for ctx, p in calls}


def test_linear_var_rel_agrees_with_the_reference(monkeypatch):
    # x * y = 1 is linear in y with a coefficient that depends on x
    s = parse_sentence("E x. E y. (((x * y) = 1) & (x < y))")
    calls = _counting(monkeypatch, fastengine, "_linear_rel")
    got = [eval_sentence(s, m, engine="both") for m in range(1, 13)]
    F, T = False, True
    assert got == [F, F, F, F, T, F, T, F, T, T, T, F]
    assert any(a_poly.keys() != {(0,)} for ctx, a_poly, *_ in calls)


@pytest.mark.parametrize(
    "text, branch, zero_tag",
    [
        ("E[1,2] x. C>=(6) y. ((x * y) = x)", "constant", "ground"),
        ("E[1,2] x. C>=(x * x) y. ((y * y) = x)", "group columns", "univariate"),
        ("E[1,2] a. E[1,2] b. C>=(a * b) y. ((y * y) = 1)", "fresh", "pair"),
        (
            "E[1,2] a. E[1,2] b. E[1,2] c."
            " C>=(((a * a) + (b * b)) + (c * c)) x. ((x * x) = a)",
            "shared and added",
            "grid scan",
        ),
    ],
)
def test_count_ge_branches_agree_with_the_reference(monkeypatch, text, branch, zero_tag):
    # C>= is the rows of its atom t = 0 and the passing groups with t >= 1.
    # Under E[1,2], a row that both halves give, or that neither does,
    # flips the parity of a count, and so the answer
    s = parse_sentence(text)
    calls = _counting(monkeypatch, fastengine, "count ge")
    got = [eval_sentence(s, m, engine="both") for m in range(1, 31)]
    assert True in got and False in got
    assert {(_count_ge_branch(p), p.kids[1].tag) for ctx, p in calls} == {(branch, zero_tag)}
    assert len(calls) == 30


@pytest.mark.parametrize(
    "strategy, text, pattern",
    [
        ("rank", "E u. ((E[1,3] v. ((v < u) & (E y. ((y * y) = v)))) & (u < 4))",
         "FFFFTTTTTTTT"),
        ("_count_filter", "E x. ((E z. ((z * z) = x)) & !(E[0,2] y. ((y * y) = x)))",
         "TTTFTTTFTTTF"),
        ("linear exists", "A x. (!(x = 0) -> E y. ((x * y) = 1))", "TTTFTFTFFFTF"),
        ("_linear_rel", "E x. E y. ((((2 * y) + x) = 3) & (x < y))", "FFFTTTTTTTTT"),
        # one sentence for each slot shape of a two-name TIMES atom
        ("times", "E x. E y. (TIMES(x, y, 6) & (x < y))", "FTTTFTTTTTTT"),
        ("times", "E x. E y. (TIMES(x, y, 0) & (1 < x))", "FFTTTTTTTTTT"),
        ("times", "E y. E z. (TIMES(3, y, z) & (5 < z))", "FFFTTFTTTTTT"),
        ("times", "E x. E z. (TIMES(x, x, z) & (2 < x))", "FTFFFFFFFTTT"),
        ("times", "E x. E y. (TIMES(x, y, x) & (1 < y))", "FFTTTTTTTTTT"),
        ("times", "E x. E y. (TIMES(x, y, y) & (1 < x))", "FFTTTTTTTTTT"),
    ],
)
def test_fast_path_agrees_with_the_reference(monkeypatch, strategy, text, pattern):
    s = parse_sentence(text)
    calls = _counting(monkeypatch, fastengine, strategy)
    got = [eval_sentence(s, m, engine="both") for m in range(1, 13)]
    assert "".join("T" if g else "F" for g in got) == pattern
    assert calls


@pytest.mark.parametrize(
    "strategy, text, cls, below",
    [
        ("rank", "E u. ((E v. ((v < u) & ((v * v) = 2))) & (u < 8))", Exists, True),
        ("rank", "E u. ((E v. ((u < v) & ((v * v) = 4))) & (1 < u))", Exists, False),
        ("rank", "E u. ((M v. ((v < u) & ((v * v) = v))) & (1 < u))", Majority, True),
        ("rank", "E u. ((C>=(u + 1) v. ((u < v) & (E y. ((y * y) = v)))) & (1 < u))",
         CountGE, False),
        # the count filter's majority test
        ("_count_filter", "E x. (((x * x) = 2) & !(M y. (y < x)))", Majority, None),
    ],
)
def test_kernel_branches_agree_with_the_reference(monkeypatch, strategy, text, cls, below):
    s = parse_sentence(text)
    calls = _counting(monkeypatch, fastengine, strategy)
    got = [eval_sentence(s, m, engine="both") for m in range(1, 31)]
    assert True in got and False in got
    # the quantifier of each call, and for a rank count whether v is below u
    quants = [p.kids[0] if strategy == "_count_filter" else p for ctx, p in calls]
    assert any(
        isinstance(q.node, cls) and (below is None or (q.rank[0].left.name == q.node.var) == below)
        for q in quants
    )


def test_count_filter_finds_the_groups_of_a_body_without_its_variable(monkeypatch):
    # E w. binds no variable of its body, whose rows are then its groups; x
    # enters the body by extension after y, so the rows come out of key
    # order.  The row test looks them up in a table of the m**2 group keys
    # up to m = 32, and from m = 33 on, where that is more than _DENSE slots
    # a row plus _DENSE_SLACK, in sorted order
    s = parse_sentence(
        "E x. E y. ((x = x) & ((y * y) = 1) & (x < 3)"
        " & !(E w. (((y * y) = 1) & (x < 3))))"
    )
    lookups = []  # the domain of each of the row test's lookups, or None
    real_lookup = fastengine._lookup

    def lookup(table_keys, values, keys, domain):
        if sys._getframe(1).f_code.co_name == "fn":
            lookups.append(domain)
        return real_lookup(table_keys, values, keys, domain)

    monkeypatch.setattr(fastengine, "_lookup", lookup)
    moduli = [*range(3, 13), 37, 41]
    assert [eval_sentence(s, m, engine="both") for m in moduli] == [False] * 12
    assert None in lookups and set(lookups) != {None}


@pytest.mark.parametrize(
    "q", ["E[1,2] w. ((w * w) = (x + y))", "M w. (w < (x + y))", "C>=(y) w. ((w * x) = y)"]
)
def test_count_filter_counts_alike_by_table_and_by_search(monkeypatch, q):
    # a negated counting quantifier in a conjunction is a count filter, whose
    # witness counts decide, not only whether there is one; it looks them up
    # in a table over the dense group keys, and then, with no key dense, by
    # binary search
    f = parse_formula(f"(x = x) & (y = y) & !({q})")
    assert [kind for kind, _ in fastengine._plan(f).steps].count("count") == 1
    branches = set()  # whether each lookup of the row test was by search
    real_lookup = fastengine._lookup

    def lookup(table_keys, values, keys, domain):
        if sys._getframe(1).f_code.co_name == "fn":
            branches.add(domain is None)
        return real_lookup(table_keys, values, keys, domain)

    monkeypatch.setattr(fastengine, "_lookup", lookup)
    for dense, slack in ((fastengine._DENSE, fastengine._DENSE_SLACK), (0, 0)):
        monkeypatch.setattr(fastengine, "_DENSE", dense)
        monkeypatch.setattr(fastengine, "_DENSE_SLACK", slack)
        for m in range(1, 13):
            rel = eval_fast(RingContext(m), f)
            want = naive_rows(RingContext(m), f, rel.cols, m**2)
            assert rel.rows.tolist() == [list(row) for row in want], m
    assert branches == {True, False}


@pytest.mark.parametrize(
    "text, pattern, negations",
    [
        ("E x. (((x * x) + 1) = 0)", "TTFFTFFFFTFF", {False}),
        ("A x. ((((x * x) + x) = 2) -> (x < 2))", "FFTFFFFFFFFF", {False}),
        # the negated quadratic is a disjunct, so it is solved as an atom
        # rather than applied as a filter
        ("E[0,2] x. ((!(((x * x) + 1) = 0)) | (x = 0))", "FFFTFTFTFTFT", {False, True}),
    ],
)
def test_univariate_equation_is_solved_by_horner(monkeypatch, text, pattern, negations):
    s = parse_sentence(text)
    horner = _counting(monkeypatch, fastengine, "eval_mod_array")
    grid = _counting(monkeypatch, fastengine, "_grid_rel")
    univariate = _counting(monkeypatch, fastengine, "univariate")
    got = [eval_sentence(s, m, engine="both") for m in range(1, 13)]
    assert "".join("T" if g else "F" for g in got) == pattern
    assert any(len(args[0]) >= 3 for args in horner)
    assert not grid
    assert {fastengine._atom_of(p)[1] for ctx, p in univariate} == negations


def _linear_branch(ctx, a_poly, b_poly, u, v, node) -> str:
    """Which branch _linear_rel takes for these arguments."""
    m = ctx.m
    if a_poly.keys() != {(0,)}:
        return "per-row a"
    a = a_poly[(0,)] % m
    if math.gcd(a, m) > 1:
        return "g > 1"
    return "c = 1" if -pow(a, -1, m) % m == 1 else "c != 1"


def _linear_exists_branch(ctx, p) -> str:
    """Which branch the linear exists kernel takes for a node over two
    variables: one test for constants a and b, the flag table at u or at
    a(u) of higher degree, or the per-row gcd."""
    split = fastengine._linear_body(p, ctx.m)
    if split is None:
        return "projection"
    a_poly, b_poly = split
    if b_poly.keys() - {(0,)}:
        return "per-row gcd"
    if a_poly.keys() <= {(0,)}:
        return "constants"
    return "table at u" if a_poly == {(1,): 1} else "table at a(u)"


_LINEAR_PAIR_SENTENCES = [
    "E[0,2] x. E y. ((((x * x) * x) = y) & (x < y))",  # a = -1, so c = 1
    "E[1,3] x. E y. (((y + (x * x)) = 5) & (x < y))",  # c = -1
    "E[1,3] x. E y. ((((2 * y) + x) = 3) & (x < y))",  # c = -1/2, or g = 2
    "E[0,2] x. E y. ((((6 * y) + (x * x)) = 1) & (y < x))",  # g = gcd(6, m)
    "E[1,2] x. E y. ((((x * x) * y) = (x + 2)) & (x < y))",  # a = x^2
]
_LINEAR_EXISTS_SENTENCES = [
    "A x. (!(x = 0) -> E y. ((x * y) = 1))",
    "E[0,2] x. E y. ((x * y) = 6)",
    "E[1,3] x. E y. ((x * y) = 6)",
    "E[0,3] x. E y. (((x * x) * y) = 10)",
    # a = 6x + 4 and b = -3 - 6x are constants at m = 3 and 6
    "E[1,2] x. E y. ((((6 * x) + 4) * y) = (3 + (6 * x)))",
    "E[0,3] x. E y. (((x * x) * y) = (x + 3))",
]


def test_linear_kernels_agree_with_the_reference_on_every_branch(monkeypatch):
    # m = 1..40 takes in m = 1, primes, prime powers and composites
    branches = collections.Counter()
    real_pair = fastengine._linear_rel
    real_exists = fastengine._KERNELS["linear exists"]

    def linear_pair(*args):
        branches[_linear_branch(*args)] += 1
        return real_pair(*args)

    def linear_exists(ctx, p):
        if len(p.kids[0].fv) == 2:
            branches[_linear_exists_branch(ctx, p)] += 1
        return real_exists(ctx, p)

    monkeypatch.setattr(fastengine, "_linear_rel", linear_pair)
    monkeypatch.setitem(fastengine._KERNELS, "linear exists", linear_exists)
    for text in _LINEAR_PAIR_SENTENCES + _LINEAR_EXISTS_SENTENCES:
        s = parse_sentence(text)
        got = [eval_sentence(s, m, engine="both") for m in range(1, 41)]
        assert True in got and False in got, text
    assert branches.keys() >= {
        "c = 1",
        "c != 1",
        "g > 1",
        "per-row a",
        "constants",
        "table at u",
        "table at a(u)",
        "per-row gcd",
    }


def _root_finders(monkeypatch):
    """Records of the fast engine's calls to the gcd root finder and to
    Horner."""
    return (
        _counting(monkeypatch, fastengine, "poly_roots_mod"),
        _counting(monkeypatch, fastengine, "eval_mod_array"),
    )


def test_roots_above_the_scan_limit_come_from_the_gcd(monkeypatch):
    # each F_n at the least prime above ROOT_SCAN_LIMIT that is 1 mod n,
    # where it has roots, and those of degree 4 or less also at one where it
    # has none; a root-free F_19 costs the reference 0.8 s a sentence there
    gcd, horner = _root_finders(monkeypatch)
    primes = [int(p) for p in sieve(110_000).primes if p > ROOT_SCAN_LIMIT]
    for n in range(2, 21):
        has_root = cyclotomic_sentence(n)
        no_root = Forall("x", Not(has_root.body))
        cases = [next(p for p in primes if p % n == 1)]
        if 2 < n and len(cyclotomic(n).coeffs) <= 5:
            cases.append(next(p for p in primes if p % n != 1))
        for p in cases:
            want = p % n == 1
            assert eval_sentence(has_root, p, engine="both") is want
            assert eval_sentence(no_root, p, engine="both") is not want
    degrees = {len(f.coeffs) - 1 for f, p in gcd}
    assert degrees == {len(cyclotomic(n).coeffs) - 1 for n in range(3, 21)}
    assert not any(len(coeffs) >= 3 for coeffs, *_ in horner)


@pytest.mark.parametrize("m", [10**6, 999_999])
def test_composite_moduli_above_the_scan_limit_take_horner(monkeypatch, m):
    gcd, horner = _root_finders(monkeypatch)
    f = parse_formula("((((x * x) * x) + (5 * x)) + 6) = (x * x)")
    rel = eval_fast(RingContext(m), f)
    # x^3 - x^2 + 5x + 6, each step reduced
    x = np.arange(m, dtype=np.int64)
    acc = np.zeros(m, dtype=np.int64)
    for c in (1, -1, 5, 6):
        acc = (acc * x + c) % m
    assert rel.rows[:, 0].tolist() == np.flatnonzero(acc == 0).tolist()
    assert not gcd
    assert any(len(coeffs) == 4 for coeffs, *_ in horner)


def test_univariate_roots_near_the_modulus_cap():
    # roots from the gcd at three primes near MAX_MODULUS.  A full Horner
    # scan there costs about 25 ms a degree, so the cyclotomic polynomials
    # are checked against their closed form instead: F_n, of degree phi(n),
    # has phi(n) roots where n divides p - 1 and none elsewhere, and
    # phi(n) distinct verified roots are all a degree-phi(n) polynomial has.
    # A seeded random polynomial of low degree is scanned in full at each.
    table = sieve(MAX_MODULUS)
    primes = [int(p) for p in table.primes[-300:] if p % 12 == 1][-3:]
    assert len(primes) == 3
    rng = random.Random(20261019)

    def roots(coeffs, p):
        plan = fastengine._plan(_poly_equation(IntPolynomial(coeffs), "x"))
        return fastengine._univar_rel(RingContext(p), plan).rows[:, 0].tolist()

    for p in primes:
        assert p > ROOT_SCAN_LIMIT
        for n in range(2, 21):
            f = cyclotomic(n)
            got = roots(f.coeffs, p)
            want = len(f.coeffs) - 1 if (p - 1) % n == 0 else 0
            assert len(got) == len(set(got)) == want, (n, p)
            assert got == sorted(got) and all(f(r) % p == 0 for r in got), (n, p)
        coeffs = [rng.randrange(-(10**9), 10**9) for _ in range(rng.randrange(3, 6))]
        values = eval_mod_array(coeffs, np.arange(p, dtype=np.int64), p)
        assert roots(coeffs, p) == np.flatnonzero(values == 0).tolist(), (coeffs, p)


@pytest.mark.parametrize("factors", [(4_999_999,), (13, 384_589)], ids=["prime", "composite"])
def test_prime_and_power_residue_sentences_at_the_modulus_cap(factors):
    # 4999999 is prime and 4 mod 9, a member; 4999657 = 13 * 384589, whose
    # factors are primes 1 mod 3.  At this size x^3 needs a reduction
    # inside Horner.
    m = math.prod(factors)
    assert m <= MAX_MODULUS and all(sieve(q).flags[q] for q in factors)
    assert eval_sentence(prime_sentence(), m) is (len(factors) == 1)
    # F_3 has a root mod each prime 1 mod 3, and Z_q has 1 + (q - 1)/3
    # cubes, so the nonzero cubes of Z_m number their product less one,
    # which must be 1 mod 3
    assert all(q % 3 == 1 for q in factors)
    cubes = math.prod(1 + (q - 1) // 3 for q in factors)
    assert eval_sentence(power_residue_sentence(3, 3, 1), m) is ((cubes - 1) % 3 == 1)


@pytest.mark.parametrize(
    "keys",
    [
        np.zeros(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(50, -3, dtype=np.int64),
        np.random.default_rng(6).integers(-(2**62), 2**62, 1000),
        np.random.default_rng(7).integers(0, 40, 1000),
        np.zeros(3, dtype=np.int64),
        np.array([0, 9, 9, 0, 4], dtype=np.int64),
    ],
)
def test_sorted_unique_matches_numpy_unique(keys):
    # by a sort, and where the keys are not negative by a slot for each key
    # of a domain: the smallest one that holds them, so that keys sit at 0
    # and at its last slot, with D = 1 for zeros and for no keys, and one
    # two slots wider
    domains = [None]
    if not (keys < 0).any():
        top = int(keys.max()) + 1 if keys.size else 1
        domains += [top, top + 2]
    want = np.unique(keys)
    want_keys, want_counts = np.unique(keys, return_counts=True)
    for domain in domains:
        got = fastengine._sorted_unique(keys, domain=domain)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        got_keys, got_counts = fastengine._sorted_unique(keys, counts=True, domain=domain)
        assert np.array_equal(got_keys, want_keys)
        assert got_counts.dtype == want_counts.dtype
        assert np.array_equal(got_counts, want_counts)


def test_group_drop_matches_numpy_unique():
    m = 9
    rows = np.unique(np.random.default_rng(8).integers(0, m, (600, 3)), axis=0)
    rel = fastengine.Relation(("a", "b", "c"), np.ascontiguousarray(rows.T))
    cols, groups, counts = fastengine._group_drop(RingContext(m), rel, "b")
    want_groups, want_counts = np.unique(rows[:, [0, 2]], axis=0, return_counts=True)
    assert cols == ("a", "c")
    assert np.array_equal(groups.T, want_groups)
    assert np.array_equal(counts, want_counts)


def _dedup_cases():
    """(m, (k, n) data) for each key order: sorted, reversed and
    duplicate-heavy, over k = 1..3 columns, in dense domains (m**k at most
    4n + 1024), sparse ones and ranked ones (m**k beyond int64), with n = 0
    and n = 1 as well."""
    rng = np.random.default_rng(9)
    cases = []
    for k, m in itertools.product((1, 2, 3), (5, 10**6, 4_999_999)):
        for n in (0, 1, 2, 300):
            rows = rng.integers(0, m, (n, k))
            dups = np.repeat(rows[: max(n // 30, 1)], 30, axis=0)[:n]
            for data in (rows, dups):
                ordered = np.unique(data, axis=0) if n else data
                ordered = np.repeat(ordered, 2, axis=0)  # sorted, with repeats
                for case in (data, ordered, ordered[::-1]):
                    cases.append((m, np.ascontiguousarray(case.T, dtype=np.int64)))
    return cases


def _watch_in_order(monkeypatch):
    """Wrap fastengine._in_order; returns a count of (caller, keys in
    order) over its calls."""
    fired = collections.Counter()
    real = fastengine._in_order

    def in_order(keys):
        out = real(keys)
        fired[sys._getframe(1).f_code.co_name, out] += 1
        return out

    monkeypatch.setattr(fastengine, "_in_order", in_order)
    return fired


def test_dedup_and_group_drop_match_numpy_unique(monkeypatch):
    # keys that never decrease take the runs, others the dense or sort path
    fired = _watch_in_order(monkeypatch)
    for m, data in _dedup_cases():
        k, n = data.shape
        want, want_counts = np.unique(data, axis=1, return_counts=True)
        for got in (fastengine._dedup(data, m), fastengine._dedup(list(data), m)):
            assert got.dtype == np.int64 and np.array_equal(got, want), (m, data)
        # the same rows as groups, with the variable dropped last by name
        v = np.arange(n, dtype=np.int64) % m
        names = tuple("abc"[:k]) + ("v",)
        rel = fastengine.Relation(names, np.concatenate([data, v[None]]))
        cols, groups, counts = fastengine._group_drop(RingContext(m), rel, "v")
        assert cols == names[:-1]
        assert np.array_equal(groups, want) and np.array_equal(counts, want_counts), (m, data)
    for caller in ("_dedup", "_group_drop"):
        assert fired[caller, True] > 0 and fired[caller, False] > 0, caller


def test_times_in_every_slot_order_agrees_with_the_reference(monkeypatch):
    # in (x, y) order the TIMES table's keys over (x, z) never decrease, so
    # dropping y takes the runs; where the names sort otherwise, or another
    # slot is dropped, keys go the dense or sort path.  At each modulus the
    # table is built for the first order and permuted for the others
    fired = _watch_in_order(monkeypatch)
    sentences = [
        parse_sentence(f"E[1,3] x. E[0,2] z. ({q} y. TIMES(%s, %s, %s))" % names)
        for names in itertools.permutations("xyz")
        for q in ("E", "E[1,2]", "C>=(x)")
    ]
    for m in range(1, 31):
        for s in sentences:
            eval_sentence(s, m, engine="both")
    for caller in ("_dedup", "_group_drop"):
        assert fired[caller, True] > 0 and fired[caller, False] > 0, caller


def _path_cases():
    """Claim 12's first 100 sentences at m = 1..12, and a sentence of every
    family at a few primes."""
    rng = random.Random(verify.ENGINE_FUZZ_SEED)
    corpus = [random_sentence(rng, max_depth=5) for _ in range(100)]
    params = {
        "congruence": {"a": 2, "d": 5},
        "cyclotomic": {"n": 12},
        "modcount": {"r": 1, "q": 3},
        "powres": {"n": 3, "d": 3, "r": 1},
        "psi": {"q": 3},
        "theta": {"q": 3},
        "prime": {},
    }
    assert sorted(params) == sorted(FAMILIES)
    families = [FAMILIES[name].build(**kw) for name, kw in params.items()]
    return [(s, m) for s in corpus for m in range(1, 13)] + [
        (s, p) for s in families for p in (5, 7, 11, 13)
    ]


def _fast_outcome(s, m):
    try:
        rel = eval_fast(RingContext(m), s)
    except ResourceLimitError:
        return "limit"
    return rel.cols, rel.rows.tolist()


SHARED_CORPUS_SEED = 20261019


def _shared_corpus(n):
    """Claim 12's kind of sentence, with its body below its first one or two
    quantifiers conjoined with a copy of itself under fresh quantifiers, so
    that every subformula with free variables there has an alpha-equivalent
    twin.  The copy swaps the two outer variables and renames the others in
    reverse order, so a relation renamed from one twin to the other
    reverses its columns.  The outer quantifiers become E, and each outer
    variable v gets a conjunct v = v, a relation that holds everywhere; so
    the twins are conjuncts, and a negated quantifier among them is a count
    filter.  A body that is a quantifier other than A is negated, so that
    it is one."""
    rng = random.Random(SHARED_CORPUS_SEED)
    corpus = []
    for _ in range(n):
        outer, body = [], random_sentence(rng, max_depth=5)
        while len(outer) < 2 and isinstance(body, QUANTIFIERS):
            outer.append(body.var)
            body = body.body
        if isinstance(body, QUANTIFIERS) and not isinstance(body, Forall):
            body = Not(body)
        text = formula_to_text(body)
        bound = sorted(set(re.findall(r"\bv\d+\b", text)) - set(outer))
        twin = dict(zip(outer, outer[::-1]))
        twin.update({v: f"a{len(bound) - i:03d}" for i, v in enumerate(bound)})
        copy = parse_formula(re.sub(r"\bv\d+\b", lambda hit: twin[hit.group()], text))
        s = And(body, copy)
        for v in outer:
            s = And(Equal(Var(v), Var(v)), s)
        for v in outer[::-1]:
            s = Exists(v, s)
        corpus.append(s)
    return corpus


def test_small_chunks_and_pack_limit_keep_every_relation(monkeypatch):
    # metamorphic test: with 7-cell chunks and packed keys capped at 2^3,
    # the multi-chunk loops, and from m = 8 on the wide-key fallback of
    # every key consumer, run on small moduli, and must give the relations
    # the default sizes give, where most keys are dense; every relation
    # must be well formed and free of duplicates
    misshapen = []
    real_eval_rel = fastengine.eval_rel

    def eval_rel(ctx, p):
        rel = real_eval_rel(ctx, p)
        data = rel.data
        if not (
            data.dtype == np.int64
            and data.flags.c_contiguous
            and data.ndim == 2
            and data.shape[0] == len(rel.cols)
            and rel.cols == p.fv  # which is sorted
            and (data.size == 0 or 0 <= data.min() <= data.max() < ctx.m)
            # no assignment twice, as Relation promises
            and np.unique(data, axis=1).shape[1] == data.shape[1]
        ):
            misshapen.append((formula_to_text(p.node), ctx.m))
        return rel

    monkeypatch.setattr(fastengine, "eval_rel", eval_rel)
    # (caller, branch) of every key consumer's call of _keys: "dense" where
    # it addresses an array over the key domain, else "sort"; and the
    # callers that asked for wide keys
    branches = collections.Counter()
    wide = set()
    real_keys = fastengine._keys

    def keys(m, *blocks):
        out = real_keys(m, *blocks)
        caller = sys._getframe(1).f_code.co_name
        branches[caller, "sort" if out[2] is None else "dense"] += 1
        if m ** len(blocks[0]) >= fastengine._PACK_LIMIT:
            wide.add(caller)
        return out

    monkeypatch.setattr(fastengine, "_keys", keys)
    cases = _path_cases()
    want = [_fast_outcome(s, m) for s, m in cases]

    monkeypatch.setattr(fastengine, "_CHUNK", 7)
    monkeypatch.setattr(fastengine, "_PACK_LIMIT", 2**3)
    chunked = set()  # the grid scans that took more than one chunk

    def count_chunked(name, width):
        real = getattr(fastengine, name)

        def wrapper(ctx, arg, *rest):
            if ctx.m ** width(arg) > fastengine._CHUNK:
                chunked.add(name)
            return real(ctx, arg, *rest)

        monkeypatch.setattr(fastengine, name, wrapper)
        # eval_rel calls the kernels of its table
        for tag, kernel in fastengine._KERNELS.items():
            if kernel is real:
                monkeypatch.setitem(fastengine._KERNELS, tag, wrapper)

    count_chunked("_grid_rel", lambda p: len(fastengine._atom_of(p)[0].fv))
    got = [_fast_outcome(s, m) for s, m in cases]
    assert [case for case, g, w in zip(cases, got, want) if g != w] == []
    assert misshapen == []
    assert chunked == {"_grid_rel"}
    # fn is the count filter's row test
    consumers = {"_dedup", "_group_drop", "_join", "fn"}
    assert wide == consumers
    for caller in consumers - {"_join"}:  # a join only sorts
        assert branches[caller, "dense"] > 0 and branches[caller, "sort"] > 0, caller


def test_gcd_with_matches_numpy_gcd():
    cases = [(m, np.arange(m, dtype=np.int64)) for m in range(1, 201)]
    for m in (10**6, 1_002_341):
        sample = np.random.default_rng(m).integers(0, m, 100_000)
        cases.append((m, np.concatenate([[0, 1, m - 1], sample])))
    for m, values in cases:
        got = fastengine._gcd_with(values, m)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.gcd(values, m)), m


def test_inverse_matches_pow():
    units = [(a, n) for n in range(1, 61) for a in range(n) if math.gcd(a, n) == 1]
    cases = [tuple(np.array(units).T)]
    for n in (1_000_003, 999_999):
        sample = np.random.default_rng(n).integers(0, n, 100_000)
        cases.append((sample[np.gcd(sample, n) == 1], np.full(100_000, n)))
    for a, n in cases:
        n = n[: a.size]
        want = [pow(int(x), -1, int(y)) for x, y in zip(a, n)]
        assert fastengine._inverse(a, n).tolist() == want


def test_linear_pairs_with_a_per_row_coefficient_at_large_moduli():
    # a*v = b with a = x or x^2 has a solution, and one, exactly at units x
    for m in (300_007, 10**6, 1_000_003):
        phi = int(np.count_nonzero(np.gcd(np.arange(m), m) == 1))
        for text in ("(x * y) = 1", "((x * x) * y) = 1"):
            assert eval_fast(RingContext(m), parse_formula(text)).nrows == phi, (m, text)
    # 2x*y = 2 has gcd(2x, m) solutions y where that gcd divides 2
    m = 10**6
    g = np.gcd(2 * np.arange(m), m)
    want = int(g[2 % g == 0].sum())
    assert eval_fast(RingContext(m), parse_formula("((2 * x) * y) = 2")).nrows == want
    s = parse_sentence("E x. E y. (((x * y) = 1) & (x < y))")
    assert eval_sentence(s, 300_007) is True
    assert eval_sentence(s, 1_000_003) is True


@pytest.mark.parametrize("m", [1_664_510, 1_664_511, 2_000_000])
def test_count_filter_keys_groups_of_any_width(monkeypatch, m):
    # 1_664_511 is the first m with m^3 >= 2^62: three group columns no
    # longer pack into one int64 key
    s = parse_sentence(
        "E x. E y. E z. ((x = 1) & (y = 2) & (z = 4)"
        " & (!(E w. ((w = x) & (x = 1) & (y = 2) & (z = 3)))))"
    )
    calls = _counting(monkeypatch, fastengine, "_count_filter")
    assert eval_sentence(s, m) is True
    assert calls


def test_rank_keeps_counting_below_u_under_budget(monkeypatch):
    # counting the squares below each square u: without the rank the
    # relation of pairs (u, v) needs about 5 * 10^7 rows at m = 10007
    s = parse_sentence(
        "E u. ((E[0,2] v. ((v < u) & (E y. ((y * y) = v)))) & (E y. ((y * y) = u)))"
    )
    assert eval_sentence(s, 10007) is True
    # without the rank count, E[0,2] v. over one free variable is a mod count
    assert fastengine._plan(s).kids[0].kids[0].tag == "rank"
    monkeypatch.setitem(fastengine._KERNELS, "rank", fastengine._KERNELS["mod count"])
    with pytest.raises(ResourceLimitError):
        eval_sentence(s, 10007)


def test_engine_disagreement_is_typed(monkeypatch):
    s = parse_sentence("E x. ((x * x) = 2)")
    real = fastengine.eval_fast_bool
    monkeypatch.setattr(fastengine, "eval_fast_bool", lambda ctx, f: not real(ctx, f))
    with pytest.raises(EngineDisagreementError) as exc:
        eval_sentence(s, 7, engine="both")
    err = exc.value
    assert isinstance(err, RingSpectraError) and not isinstance(err, AssertionError)
    assert (err.m, err.naive, err.fast) == (7, True, False)
    assert err.text == formula_to_text(s)


def test_claim_12_counts_only_disagreements(monkeypatch):
    def fake(s, m, engine):
        if m == 40:
            raise EngineDisagreementError("s", m, True, False)
        return True

    monkeypatch.setattr(verify, "eval_sentence", fake)
    assert verify._claim_12(100, 1) == (False, {"cases": 20_000, "disagreements": 500})

    def broken(s, m, engine):
        raise InvariantError("broken")

    monkeypatch.setattr(verify, "eval_sentence", broken)
    with pytest.raises(InvariantError):
        verify._claim_12(100, 1)


def test_unapplied_filters_raise_invariant_error(monkeypatch):
    # an _apply_filters that never applies anything leaves every filter over
    monkeypatch.setattr(fastengine, "_apply_filters", lambda ctx, cur, filters: cur)
    s = parse_sentence("E x. E y. ((x = y) & (x < 3))")
    with pytest.raises(InvariantError, match="unapplied filters"):
        eval_fast_bool(RingContext(5), s)


TIMES_SENTENCE = "E x. E y. E z. (TIMES(x, y, z) & (z = 6) & (x = 2))"


def _times_outcomes(moduli, budget):
    """Outcome of TIMES_SENTENCE at each modulus in turn, from an empty table."""
    fastengine._TIMES_TABLE.update(bound=0, rows=None)
    s = parse_sentence(TIMES_SENTENCE)
    out = []
    for m in moduli:
        try:
            out.append(eval_sentence(s, m, tuple_budget=budget))
        except ResourceLimitError:
            out.append("limit")
    return out


def test_times_table_is_charged_at_the_size_the_modulus_needs(monkeypatch):
    monkeypatch.setattr(fastengine, "_TIMES_TABLE", {"bound": 0, "rows": None})
    assert _times_outcomes([101], 20_000) == [True]


def test_times_table_outcome_does_not_depend_on_order(monkeypatch):
    monkeypatch.setattr(fastengine, "_TIMES_TABLE", {"bound": 0, "rows": None})
    moduli = [5, 101, 1200, 2000, 2100, 2400, 3000]
    alone = [_times_outcomes([m], 20_000)[0] for m in moduli]
    assert alone == [False, True, True, True, "limit", "limit", "limit"]
    assert _times_outcomes(moduli, 20_000) == alone
    assert _times_outcomes(moduli[::-1], 20_000) == alone[::-1]
    # with room to spare, the table holds exactly the last modulus's products
    _times_outcomes([101, 4099, 4111, 4127], 10**7)
    assert fastengine._TIMES_TABLE["bound"] == 4127
    # the products, sum of 4126 // a, and the rows with x = 0 or y = 0
    assert fastengine._TIMES_TABLE["rows"].shape == (3, 34_986 + 2 * 4127 - 1)


def test_times_table_is_rebuilt_for_exactly_the_next_modulus(monkeypatch):
    # a larger modulus gets its own exact table, never a doubled bound
    monkeypatch.setattr(fastengine, "_TIMES_TABLE", {"bound": 0, "rows": None})
    assert _times_outcomes([4099, 4111], 10**7) == [True, True]
    assert fastengine._TIMES_TABLE["bound"] == 4111
    assert fastengine._TIMES_TABLE["rows"].shape == (3, 34_846 + 2 * 4111 - 1)  # sum of 4110 // a


# a TIMES atom of every slot shape over two or three names: the six orders
# of three names; a literal factor in either factor slot and a literal z,
# with literals of m or more and literals = 0 mod m among them up to
# m = 40; and a name repeated in each pair of slots, sorting before the
# other name and after it
TIMES_SHAPES = (
    [f"TIMES({a}, {b}, {c})" for a, b, c in itertools.permutations("xyz")]
    + [f for q in (0, 1, 3, 40, 41, 43) for f in (f"TIMES({q}, y, z)", f"TIMES(z, {q}, y)")]
    + [f"TIMES(x, y, {c})" for c in (0, 1, 6, 12, 36, 40, 41, 72)]
    + [f"TIMES({s})" for a, b in ("xz", "zx") for s in (f"{a}, {a}, {b}", f"{a}, {b}, {a}", f"{b}, {a}, {a}")]
)


def _times_by_brute_force(atom, m):
    """The sorted names of a TIMES atom, and the set of their values over
    {(x, y, x*y) : x*y < m} where each slot takes its literal mod m or its
    name's one value."""
    slots = (atom.x, atom.y, atom.z)
    names = sorted({s.name for s in slots if isinstance(s, Var)})
    rows = set()
    for x in range(m):
        for y in range((m - 1) // max(x, 1) + 1):
            env = {}
            if all(
                s.value % m == v if isinstance(s, Lit) else env.setdefault(s.name, v) == v
                for s, v in zip(slots, (x, y, x * y))
            ):
                rows.add(tuple(env[n] for n in names))
    return names, rows


def test_times_relation_agrees_with_brute_force_in_every_slot_shape(monkeypatch):
    monkeypatch.setattr(fastengine, "_TIMES_TABLE", {"bound": 0, "rows": None})
    calls = _counting(monkeypatch, fastengine, "times")
    atoms = [parse_formula(text) for text in TIMES_SHAPES]
    # at each modulus the first order of three names builds the table, and
    # the others take it with their rows permuted
    for m in range(1, 41):
        for atom in atoms:
            rel = fastengine.eval_rel(RingContext(m), fastengine._plan(atom))
            names, want = _times_by_brute_force(atom, m)
            got = [tuple(r) for r in rel.rows.tolist()]
            assert list(rel.cols) == names, (atom, m)
            assert len(got) == len(set(got)) and set(got) == want, (atom, m)
    assert {p.node for ctx, p in calls} == set(atoms)


def test_two_name_times_never_builds_the_table(monkeypatch):
    # each two-name shape (the shapes after the six orders of three names)
    # at a prime near a million writes its rows, at most 2m - 1, and
    # charges exactly those, with no m*ln(m) table
    monkeypatch.setattr(fastengine, "_TIMES_TABLE", {"bound": 0, "rows": None})
    m = 1_000_003
    for text in TIMES_SHAPES[6:]:
        ctx = RingContext(m)
        rel = fastengine.eval_rel(ctx, fastengine._plan(parse_formula(text)))
        assert fastengine._TIMES_TABLE == {"bound": 0, "rows": None}, text
        assert 0 < rel.nrows == ctx.peak_rows <= 2 * m - 1, text


def _plan_nodes(plan):
    nodes, stack = [], [plan]
    while stack:
        p = stack.pop()
        nodes.append(p)
        stack.extend(p.kids)
    return nodes


def _recording_memo(monkeypatch):
    """Wrap fastengine._memo; returns the (kind, names) of every hit, the
    names a cached relation's columns or count filter's groups take."""
    hits = []
    real = fastengine._memo

    def memo(ctx, p, kind, compute):
        value, to = real(ctx, p, kind, compute)
        if to is not None:
            cols = value.cols if kind == "relation" else value[0]
            hits.append((kind, [to[c] for c in cols]))
        return value, to

    monkeypatch.setattr(fastengine, "_memo", memo)
    return hits


def test_psi_evaluates_each_shared_class_once_per_modulus(monkeypatch):
    # "V is a power of 3" four times, "the square of a power of 3" twice.
    # Of the 28 nodes whose class occurs twice, 9 are shared: the two
    # squares, the three powers that are count filters (one inside each
    # square), and the four bodies of the powers.  The power that is a
    # relation is alone of its kind, and the rest lie inside the square
    # that is a hit, or are the quantifiers of count filters
    s = psi_sentence(3)
    nodes = _plan_nodes(fastengine._plan(s))
    assert sum(p.share is not None for p in nodes) == 9
    fields = {f.name for f in dataclasses.fields(fastengine._Plan)}
    # (context, kind, node, entries cached) of each kernel call and count
    # grouping
    calls = []

    def kernel_of(kernel):
        def wrapper(ctx, p):
            calls.append((ctx, "relation", p, len(ctx.shared)))
            return kernel(ctx, p)

        return wrapper

    for tag, kernel in fastengine._KERNELS.items():
        monkeypatch.setitem(fastengine._KERNELS, tag, kernel_of(kernel))
    real_group_drop = fastengine._group_drop

    def group_drop(ctx, rel, v):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "group":  # the count filter's groups
            calls.append((ctx, "count", caller.f_locals["notq"], len(ctx.shared)))
        return real_group_drop(ctx, rel, v)

    monkeypatch.setattr(fastengine, "_group_drop", group_drop)
    read = set()  # the (kind, class) of every cache hit
    real_memo = fastengine._memo

    def memo(ctx, p, kind, compute):
        if (kind, p.share[0]) in ctx.shared:
            read.add((kind, p.share[0]))
        return real_memo(ctx, p, kind, compute)

    monkeypatch.setattr(fastengine, "_memo", memo)
    runs = []
    # 9^2 < 101 < 3 * 9^2, 3^5 < 257 < 9^3, and 6229 is in the benchmark
    for m in (101, 101, 257, 6229):
        calls.clear()
        read.clear()
        assert eval_sentence(s, m) is (m == 101)
        contexts = {id(ctx) for ctx, _, _, _ in calls}
        assert len(contexts) == 1 and calls[0][3] == 0  # it starts empty
        # every entry cached is read
        assert set(calls[0][0].shared) == read and len(read) == 3
        per_class = {}
        for ctx, kind, p, _ in calls:
            if p.share is not None:
                key = (kind, id(p.share[0]))
                per_class[key] = per_class.get(key, 0) + 1
        assert per_class and set(per_class.values()) == {1}
        assert {kind for kind, _ in per_class} == {"relation", "count"}
        runs.append((contexts, [(kind, p) for _, kind, p, _ in calls]))
        # the cache lives on the context only
        assert all(set(vars(p)) <= fields for p in nodes)
    # a second evaluation at the same modulus computes it all again
    assert runs[0][0] != runs[1][0] and runs[0][1] == runs[1][1]


def test_renamed_relations_and_count_groups_reverse_their_columns(monkeypatch):
    # P(a, b) and C(a, b) are shared with P(d, c) and C(d, c): renamed from
    # the first to the second, (a, b) becomes (d, c), out of name order
    P = "(E w. (({u} = (w * w)) & (w < {v})))"
    C = "!(E w. ((w * w) = ({u} + (2 * {v}))))"

    def twins(conjunct):
        return (
            f"(E a. E b. ({conjunct.format(u='a', v='b')} & (b < a)))"
            f" & (E c. E d. ({conjunct.format(u='d', v='c')} & (d < c)))"
        )

    # each twin's count filter has about m^2 / 2 groups, dense keys, so it
    # looks them up in a table over the key domain; a second pass with no
    # key dense looks them up in sorted order.  Without the count filters
    # the block engine, which shares nothing, takes the sweep
    s = parse_sentence(twins(f"{P} & {C}"))
    block = parse_sentence(twins(P))
    assert blockengine.covers(fastengine._plan(block))
    hits = _recording_memo(monkeypatch)
    lookups = set()  # (names, branch) of the count filters' lookups
    real_lookup = fastengine._lookup

    def lookup(table_keys, values, keys, domain):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "fn":
            names = tuple(c.split("'")[0] for c in caller.f_locals["V0"])
            lookups.add((names, "sort" if domain is None else "dense"))
        return real_lookup(table_keys, values, keys, domain)

    monkeypatch.setattr(fastengine, "_lookup", lookup)
    primes = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    f = parse_formula(" & ".join(c.format(u=u, v=v) for c in (P, C) for u, v in ("ab", "dc")))
    for dense, slack in ((fastengine._DENSE, fastengine._DENSE_SLACK), (0, 0)):
        monkeypatch.setattr(fastengine, "_DENSE", dense)
        monkeypatch.setattr(fastengine, "_DENSE_SLACK", slack)
        for sentence in (s, block):
            got = [eval_sentence(sentence, m, engine="both") for m in range(1, 13)]
            assert True in got and False in got
            bits = spectrum(sentence, 59, workers=1).bits.tolist()
            assert bits == [eval_sentence(sentence, p) for p in primes]
        # the open conjunction's whole relation, against the reference's rows
        for m in range(1, 9):
            rel = eval_fast(RingContext(m), f)
            assert rel.cols == ("a", "b", "c", "d")
            want = naive_rows(RingContext(m), f, rel.cols, m**4)
            assert rel.rows.tolist() == [list(row) for row in want]
    for kind in ("relation", "count"):
        assert any(k == kind and names != sorted(names) for k, names in hits)
    assert {(("d", "c"), "dense"), (("d", "c"), "sort")} <= lookups


def test_engines_agree_where_twins_share_their_relations(monkeypatch):
    # claim 12's corpus has no twin subformulas, and so never reaches the
    # shared path; this corpus reaches it on both kinds, reversed too
    rng = random.Random(verify.ENGINE_FUZZ_SEED)
    claim_12 = [random_sentence(rng, max_depth=5) for _ in range(500)]
    assert not any(p.share for s in claim_12 for p in _plan_nodes(fastengine._plan(s)))
    hits = _recording_memo(monkeypatch)
    for s in _shared_corpus(120):
        for m in range(1, 31):
            eval_sentence(s, m, engine="both")
    for kind in ("relation", "count"):
        assert any(k == kind and names != sorted(names) for k, names in hits)
