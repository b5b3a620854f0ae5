"""Evaluator semantics: reference engine examples, and agreement between
the naive and relational engines on random sentences."""

import dataclasses
import gc
import io
import keyword
import random
import re
import sys
import tokenize
import weakref

import numpy as np
import pytest

from ringspectra import blockengine, evaluate, fastengine, verify
from ringspectra.constructions import FAMILIES, psi_sentence
from ringspectra.errors import (
    EngineDisagreementError,
    InvariantError,
    ResourceLimitError,
    RingSpectraError,
)
from ringspectra.evaluate import RingContext, eval_naive, eval_sentence, naive_rows
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
    # depth 1200 also passes eval_sentence's free_vars, which walks with a
    # stack of its own, as does the reference's source writer
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


def test_count_ge_overlap_agrees_with_the_reference(monkeypatch):
    # the count term a + b shares a with the group columns and adds b
    s = parse_sentence("E a. E b. ((C>=(a + b) x. (x < a)) & (b < a))")
    calls = _counting(monkeypatch, fastengine, "_count_ge_overlap")
    got = [eval_sentence(s, m, engine="both") for m in range(1, 13)]
    assert got == [False] + [True] * 11
    assert calls


def test_linear_var_rel_agrees_with_the_reference(monkeypatch):
    # x * y = 1 is linear in y with a coefficient that depends on x
    s = parse_sentence("E x. E y. (((x * y) = 1) & (x < y))")
    calls = _counting(monkeypatch, fastengine, "_linear_var_rel")
    got = [eval_sentence(s, m, engine="both") for m in range(1, 13)]
    F, T = False, True
    assert got == [F, F, F, F, T, F, T, F, T, T, T, F]
    assert calls


@pytest.mark.parametrize(
    "strategy, text, pattern",
    [
        ("rank", "E u. ((E[1,3] v. ((v < u) & (E y. ((y * y) = v)))) & (u < 4))",
         "FFFFTTTTTTTT"),
        ("_count_filter", "E x. ((E z. ((z * z) = x)) & !(E[0,2] y. ((y * y) = x)))",
         "TTTFTTTFTTTF"),
        ("linear exists", "A x. (!(x = 0) -> E y. ((x * y) = 1))", "TTTFTFTFFFTF"),
        ("_linear_const_rel", "E x. E y. ((((2 * y) + x) = 3) & (x < y))", "FFFTTTTTTTTT"),
        # one sentence for each slot shape of a two-name TIMES atom
        ("_times_two_var", "E x. E y. (TIMES(x, y, 6) & (x < y))", "FTTTFTTTTTTT"),
        ("_times_two_var", "E x. E y. (TIMES(x, y, 0) & (1 < x))", "FFTTTTTTTTTT"),
        ("_times_two_var", "E y. E z. (TIMES(3, y, z) & (5 < z))", "FFFTTFTTTTTT"),
        ("_times_two_var", "E x. E z. (TIMES(x, x, z) & (2 < x))", "FTFFFFFFFTTT"),
        ("_times_two_var", "E x. E y. (TIMES(x, y, x) & (1 < y))", "FFTTTTTTTTTT"),
        ("_times_two_var", "E x. E y. (TIMES(x, y, y) & (1 < x))", "FFTTTTTTTTTT"),
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
    # order, and with fewer rows to test than m**2 group keys the row test
    # looks them up in sorted order
    s = parse_sentence(
        "E x. E y. ((x = x) & ((y * y) = 1) & (x < 3)"
        " & !(E w. (((y * y) = 1) & (x < 3))))"
    )
    lookups = []
    real_searchsorted = np.searchsorted

    def searchsorted(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "fn":
            lookups.append(args)
        return real_searchsorted(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", searchsorted)
    assert [eval_sentence(s, m, engine="both") for m in range(3, 13)] == [False] * 10
    assert lookups


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


@pytest.mark.parametrize(
    "keys",
    [
        np.zeros(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(50, -3, dtype=np.int64),
        np.random.default_rng(6).integers(-(2**62), 2**62, 1000),
        np.random.default_rng(7).integers(0, 40, 1000),
    ],
)
def test_sorted_unique_matches_numpy_unique(keys):
    got = fastengine._sorted_unique(keys)
    want = np.unique(keys)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    got_keys, got_counts = fastengine._sorted_unique(keys, counts=True)
    want_keys, want_counts = np.unique(keys, return_counts=True)
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
    # the default sizes give
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
        ):
            misshapen.append((formula_to_text(p.node), ctx.m))
        return rel

    monkeypatch.setattr(fastengine, "eval_rel", eval_rel)
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
    count_chunked("_complement", lambda rel: len(rel.cols))
    wide = set()  # the functions that asked _keys for wide keys
    real_unique = np.unique
    count_filter = {"table": 0, "sorted": 0}  # the branches of its row test
    real_pack, real_searchsorted = fastengine._pack, np.searchsorted

    def pack(*args):
        if sys._getframe(1).f_code.co_name == "fn":
            count_filter["table"] += 1
        return real_pack(*args)

    def searchsorted(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "fn":
            count_filter["sorted"] += 1
        return real_searchsorted(*args, **kwargs)

    monkeypatch.setattr(fastengine, "_pack", pack)
    monkeypatch.setattr(np, "searchsorted", searchsorted)

    def unique(*args, **kwargs):
        if kwargs.get("axis") is not None:
            wide.add(sys._getframe(2).f_code.co_name)
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", unique)
    got = [_fast_outcome(s, m) for s, m in cases]
    assert [case for case, g, w in zip(cases, got, want) if g != w] == []
    assert misshapen == []
    assert chunked == {"_grid_rel", "_complement"}
    # fn is the count filter's row test
    assert wide == {"_dedup", "_group_drop", "_join", "_anti_join", "fn"}
    assert count_filter["table"] > 0 and count_filter["sorted"] > 0


def test_gcd_with_matches_numpy_gcd():
    cases = [(m, np.arange(m, dtype=np.int64)) for m in range(1, 201)]
    for m in (10**6, 1_002_341):
        sample = np.random.default_rng(m).integers(0, m, 100_000)
        cases.append((m, np.concatenate([[0, 1, m - 1], sample])))
    for m, values in cases:
        got = fastengine._gcd_with(values, m)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.gcd(values, m)), m


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
    assert fastengine._TIMES_TABLE["rows"].shape == (34_986, 3)  # sum of 4126 // a


def test_times_table_is_rebuilt_for_exactly_the_next_modulus(monkeypatch):
    # a larger modulus gets its own exact table, never a doubled bound
    monkeypatch.setattr(fastengine, "_TIMES_TABLE", {"bound": 0, "rows": None})
    assert _times_outcomes([4099, 4111], 10**7) == [True, True]
    assert fastengine._TIMES_TABLE["bound"] == 4111
    assert fastengine._TIMES_TABLE["rows"].shape == (34_846, 3)  # sum of 4110 // a


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
    # "V is a power of 3" four times, "the square of a power of 3" twice
    s = psi_sentence(3)
    nodes = _plan_nodes(fastengine._plan(s))
    assert sum(p.share is not None for p in nodes) == 28
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
    runs = []
    for m in (101, 101, 257):  # 9^2 < 101 < 3 * 9^2, and 3^5 < 257 < 9^3
        calls.clear()
        assert eval_sentence(s, m) is (m == 101)
        contexts = {id(ctx) for ctx, _, _, _ in calls}
        assert len(contexts) == 1 and calls[0][3] == 0  # it starts empty
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

    # each twin's count filter tests fewer rows than m^2 group keys, so it
    # looks its groups up in sorted order; without the count filters the
    # block engine, which shares nothing, takes the sweep
    s = parse_sentence(twins(f"{P} & {C}"))
    block = parse_sentence(twins(P))
    assert blockengine.covers(fastengine._plan(block))
    hits = _recording_memo(monkeypatch)
    lookups = []
    real_searchsorted = np.searchsorted

    def searchsorted(*args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "fn":
            lookups.append([c.split("'")[0] for c in caller.f_locals["V0"]])
        return real_searchsorted(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", searchsorted)
    primes = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    for sentence in (s, block):
        got = [eval_sentence(sentence, m, engine="both") for m in range(1, 13)]
        assert True in got and False in got
        bits = spectrum(sentence, 59, workers=1).bits.tolist()
        assert bits == [eval_sentence(sentence, p) for p in primes]
    # the open conjunction's whole relation, against the reference's rows
    f = parse_formula(" & ".join(c.format(u=u, v=v) for c in (P, C) for u, v in ("ab", "dc")))
    for m in range(1, 9):
        rel = eval_fast(RingContext(m), f)
        assert rel.cols == ("a", "b", "c", "d")
        want = naive_rows(RingContext(m), f, rel.cols, m**4)
        assert rel.rows.tolist() == [list(row) for row in want]
    for kind in ("relation", "count"):
        assert any(k == kind and names != sorted(names) for k, names in hits)
    assert ["d", "c"] in lookups


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
