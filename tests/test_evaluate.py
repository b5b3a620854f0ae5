"""Evaluator semantics: reference engine examples, and agreement between
the naive and relational engines on random sentences."""

import random
import sys
import warnings

import numpy as np
import pytest

from ringspectra import evaluate, fastengine, verify
from ringspectra.constructions import FAMILIES
from ringspectra.errors import (
    EngineDisagreementError,
    InvariantError,
    ResourceLimitError,
    RingSpectraError,
)
from ringspectra.evaluate import RingContext, eval_naive, eval_sentence, naive_rows
from ringspectra.fastengine import eval_fast, eval_fast_bool
from ringspectra.logic import (
    CountGE,
    Equal,
    Exists,
    Majority,
    Var,
    count_exact,
    formula_to_text,
    parse_formula,
    parse_sentence,
    random_sentence,
)


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


def test_strict_literals_warns():
    s = parse_sentence("E x. (x = 7)")
    with pytest.warns(RuntimeWarning):
        eval_sentence(s, 5, engine="naive", strict_literals=True)
    with pytest.warns(RuntimeWarning):
        eval_sentence(s, 5, engine="fast", strict_literals=True)
    # the fast engine warns once when any literal of the sentence is >= m,
    # whichever literals its evaluation reaches
    s = parse_sentence("E x. ((x = 0) | ((x = 7) & (8 = 3)))")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eval_sentence(s, 5, strict_literals=True)
        assert len(caught) == 1
        eval_sentence(s, 9, strict_literals=True)
        assert len(caught) == 1


@pytest.mark.parametrize(
    "text, m, warned, value",
    [
        # one warning per evaluation of the literal: Exists stops at the
        # witness x = 2, Forall at the first non-witness, E[r,q] scans all
        ("E x. (x = 7)", 5, 3, True),
        ("A x. (x = 7)", 5, 1, False),
        ("E[0,2] x. (x = 7)", 5, 5, False),
        ("E x. (x = 7)", 9, 0, True),
        ("A x. (x = 7)", 9, 0, False),
        ("E[0,2] x. (x = 7)", 9, 0, False),
        # shadowing: the inner x hides the outer one, then hands it back
        ("E x. E x. (x = 1)", 5, 0, True),
        ("E x. ((E x. (x = 1)) & (x = 0))", 5, 0, True),
    ],
)
def test_reference_warns_at_each_literal_reduction(text, m, warned, value):
    s = parse_sentence(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert eval_sentence(s, m, engine="naive", strict_literals=True) is value
    assert len(caught) == warned
    assert eval_sentence(s, m, engine="both") is value


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


def test_reference_compiles_each_node_once(monkeypatch):
    compiled = []

    def counting(compile_node):
        def wrapper(ctx, node):
            compiled.append(node)
            return compile_node(ctx, node)

        return wrapper

    # the compiler's recursion goes through the module globals
    monkeypatch.setattr(evaluate, "_formula", counting(evaluate._formula))
    monkeypatch.setattr(evaluate, "_term", counting(evaluate._term))
    s = parse_sentence("A x. (!(x = 0) -> E y. ((x * y) = 1))")
    sizes = []
    for m in (7, 31):
        compiled.clear()
        assert eval_naive(RingContext(m), s) is True
        sizes.append(len(compiled))
    assert sizes == [12, 12]
    f = parse_formula("(x * y) = 1")
    compiled.clear()
    rows = naive_rows(RingContext(12), f, ["x", "y"], 1000)
    assert rows == [(1, 1), (5, 5), (7, 7), (11, 11)]
    assert compiled.count(f) == 1 and len(compiled) == 5


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
    assert fastengine._plan(s)[0].kids[0].kids[0].tag == "rank"
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
