"""Evaluator semantics: reference engine examples, and agreement between
the naive and relational engines on random sentences."""

import random
import warnings

import pytest

from ringspectra import fastengine, verify
from ringspectra.errors import (
    EngineDisagreementError,
    InvariantError,
    ResourceLimitError,
    RingSpectraError,
)
from ringspectra.evaluate import RingContext, eval_naive, eval_sentence
from ringspectra.fastengine import eval_fast, eval_fast_bool
from ringspectra.logic import (
    Equal,
    Exists,
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
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
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
    # with room to spare, the table grows geometrically across a sweep
    _times_outcomes([101, 4099, 4111, 4127], 10**7)
    assert fastengine._TIMES_TABLE["bound"] == 8192
