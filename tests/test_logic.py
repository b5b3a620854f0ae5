"""Parser, printer, desugaring, and free-variable bookkeeping."""

from __future__ import annotations

import random

import pytest

from ringspectra.errors import ParseError
from ringspectra.evaluate import eval_sentence
from ringspectra.logic import (
    Add,
    And,
    CountGE,
    Equal,
    Exists,
    Implies,
    IntTimes,
    Less,
    Lit,
    ModExists,
    Mul,
    Not,
    Or,
    Var,
    count_exact,
    formula_to_text,
    free_vars,
    parse_formula,
    parse_sentence,
    random_sentence,
    require_sentence,
    term_to_text,
)


def test_parse_quadratic_sentence():
    f = parse_formula("E x. x*x + 1 = 0")
    assert f == Exists(
        "x", Equal(Add(Mul(Var("x"), Var("x")), Lit(1)), Lit(0))
    )


def test_term_precedence_product_tighter_than_sum():
    f = parse_formula("x + 2 * y = 0")
    assert f == Equal(Add(Var("x"), Mul(Lit(2), Var("y"))), Lit(0))


def test_connective_precedence():
    f = parse_formula("a = 0 & b = 0 | c = 0 -> d = 0")
    zero = Lit(0)
    assert f == Implies(
        Or(And(Equal(Var("a"), zero), Equal(Var("b"), zero)), Equal(Var("c"), zero)),
        Equal(Var("d"), zero),
    )


def test_implies_right_associative():
    f = parse_formula("a = 0 -> b = 0 -> c = 0")
    assert isinstance(f, Implies)
    assert isinstance(f.right, Implies)


def test_negation_of_atom():
    assert parse_formula("!x = 1") == Not(Equal(Var("x"), Lit(1)))


def test_quantifier_body_extends_maximally():
    f = parse_formula("E x. x = 0 & x = 1")
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)


def test_times_atom():
    f = parse_formula("TIMES(x, 2, z)")
    assert f == IntTimes(Var("x"), Lit(2), Var("z"))


def test_mod_exists_and_counting():
    f = parse_formula("E[1,4] z. z = 1")
    assert f == ModExists(1, 4, "z", Equal(Var("z"), Lit(1)))
    g = parse_formula("C>=(3) y. y < 5")
    assert g == CountGE(Lit(3), "y", Less(Var("y"), Lit(5)))


def test_count_exact_desugars():
    f = parse_formula("C=(2) y. y < 5")
    body = Less(Var("y"), Lit(5))
    assert f == And(
        CountGE(Lit(2), "y", body),
        Not(CountGE(Add(Lit(2), Lit(1)), "y", body)),
    )
    assert f == count_exact(Lit(2), "y", body)


def test_comments_and_whitespace():
    text = """
    # spectrum probe
    E x.    # witness
        x * x + 1 = 0
    """
    assert parse_formula(text) == parse_formula("E x. x*x+1=0")


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_formula("E x.\n  x = ")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_formula("x = 1 &")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_formula("x = 1 y = 2")


def test_parse_error_for_too_deep_nesting():
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_formula("!(" * 1000 + "x = 0" + ")" * 1000)
    s = parse_sentence("E x. " + "!(" * 150 + "x = 0" + ")" * 150)
    assert eval_sentence(s, 5, engine="both") is True


def test_mod_exists_residue_validation():
    with pytest.raises(ParseError):
        parse_formula("E[4,4] z. z = 1")
    with pytest.raises(ParseError):
        parse_formula("E[5,3] z. z = 1")
    with pytest.raises(ParseError):
        parse_formula("E[0,1] z. z = 1")
    with pytest.raises(ValueError):
        ModExists(3, 3, "z", Equal(Var("z"), Lit(1)))


def test_count_term_may_not_use_bound_variable():
    with pytest.raises(ParseError):
        parse_formula("C>=(y) y. y < 5")
    with pytest.raises(ValueError):
        CountGE(Var("y"), "y", Less(Var("y"), Lit(5)))


def test_free_vars():
    f = parse_formula("E x. x * y = z")
    assert free_vars(f) == {"y", "z"}
    g = parse_formula("C>=(k) y. y < z")
    assert free_vars(g) == {"k", "z"}
    assert not free_vars(parse_formula("A x. x = x"))
    assert free_vars(parse_formula("E x. E x. (x = y)")) == {"y"}
    assert free_vars(parse_formula("((x = 1) & E x. (x = 2))")) == {"x"}
    assert free_vars(parse_formula("E z. C>=(k + z) y. (y < z)")) == {"k"}
    with pytest.raises(ValueError):
        require_sentence(f)
    for not_a_formula in (Var("x"), "x = 1", Not("x = 1")):
        with pytest.raises(TypeError):
            free_vars(not_a_formula)


def test_a_count_term_deeper_than_pythons_stack_parses():
    f = parse_formula("E z. C>=(k" + " + 1" * 1200 + ") y. (y < z)")
    assert free_vars(f) == {"k"}


def test_parse_sentence_rejects_free_variables():
    with pytest.raises(ParseError):
        parse_sentence("x = 1")
    parse_sentence("E x. x = 1")


def test_shadowing_parses():
    f = parse_formula("E x. (x = 0 & E x. x = 1)")
    assert free_vars(f) == frozenset()


def test_print_parse_round_trip_examples():
    texts = [
        "E x. x*x + 1 = 0",
        "A x. !(x = 0) -> E y. x*y = 1",
        "E[1,4] z. M w. w < z",
        "C>=(i + 1) y. TIMES(y, y, z) | y < 2",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(formula_to_text(f)) == f


def test_print_parse_round_trip_random():
    rng = random.Random(2024)
    for _ in range(300):
        f = random_sentence(rng, max_depth=6)
        text = formula_to_text(f)
        assert parse_formula(text) == f, text


def test_printed_terms_fully_parenthesized():
    t = Add(Mul(Var("x"), Var("y")), Lit(3))
    assert term_to_text(t) == "((x * y) + 3)"
