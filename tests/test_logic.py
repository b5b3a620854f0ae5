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


def test_parse_any_depth():
    # the parser keeps its own stacks, so printed text of any depth parses back
    n = 5000
    nots = "!(" * n + "x = 0" + ")" * n
    nest = Equal(Var("x"), Lit(0))
    for k in range(n):
        if k % 2:
            nest = And(nest, Less(Var("x"), Lit(k % 11 + 2)))
        else:
            nest = Or(nest, Equal(Var("x"), Lit(k % 13)))
    quantifiers = Equal(Var("x0"), Lit(0))
    for k in range(n):
        quantifiers = Exists(f"x{k % 7}", quantifiers)
    for text in (nots, formula_to_text(nest), formula_to_text(quantifiers)):
        assert formula_to_text(parse_formula(text)) == text
    assert eval_sentence(parse_sentence("E x. " + nots), 7, engine="both") is True
    chain = parse_formula(" -> ".join(["x = 0"] * n))
    for _ in range(n - 1):
        chain = chain.right
    assert chain == Equal(Var("x"), Lit(0))
    negations = parse_formula("!" * n + "x = 0")
    for _ in range(n):
        negations = negations.body
    assert negations == Equal(Var("x"), Lit(0))
    assert parse_formula("(" * n + "x" + ")" * n + " = 1") == Equal(Var("x"), Lit(1))


def test_numerals_are_decimal_digits():
    # superscript two is a digit to str.isdigit but not a decimal one
    with pytest.raises(ParseError) as exc:
        parse_formula("x = \u00b2")
    assert (exc.value.line, exc.value.col) == (1, 5)
    assert parse_formula("E x. x = \u0663") == Exists("x", Equal(Var("x"), Lit(3)))
    assert parse_formula("E \u00e9. \u00e9 = 1") == Exists("\u00e9", Equal(Var("\u00e9"), Lit(1)))


@pytest.mark.parametrize("text", [
    "(x = 1) + 2 = 3",
    "x = 1 = 2",
    "x & (y = 1)",
    "TIMES(x, y)",
    "TIMES(x = 1, y, z)",
    "!x",
    "E x. x",
    "C>=(x = 1) y. y < 2",
])
def test_terms_and_formulas_do_not_mix(text):
    with pytest.raises(ParseError):
        parse_formula(text)


def test_every_prefix_parses_or_raises_parse_error():
    text = "E[1,4] z. C>=(k + 1) y. TIMES(y, (y), z) | !(y < 2) -> A w. C=(2) u. w*u = 1"
    parse_formula(text)
    for n in range(len(text)):
        try:
            parse_formula(text[:n])
        except ParseError:
            pass


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


# binding strength of each operator, loosest first, as the grammar gives it
_PRECEDENCE = {Implies: 1, Or: 2, And: 3, Not: 4, Equal: 5, Less: 5, Add: 6, Mul: 7}
_SYMBOL = {Implies: "->", Or: "|", And: "&", Equal: "=", Less: "<", Add: "+", Mul: "*"}


def _minimal_text(g, need=0, last=True):
    """g's text with only the parentheses the grammar needs, where need is
    the least precedence g may have unbracketed and last tells whether
    nothing follows g before its enclosing bracket ends."""
    t = type(g)
    if t is Var:
        return g.name
    if t is Lit:
        return str(g.value)
    if t is IntTimes:
        return "TIMES(%s, %s, %s)" % (_minimal_text(g.x), _minimal_text(g.y), _minimal_text(g.z))
    if t not in _PRECEDENCE:
        # a quantifier's body extends as far right as it can
        if t is ModExists:
            head = f"E[{g.residue},{g.modulus}]"
        elif t is CountGE:
            head = f"C>=({_minimal_text(g.count)})"
        else:
            head = {Exists: "E", Forall: "A", Majority: "M"}[t]
        text = f"{head} {g.var}. {_minimal_text(g.body)}"
        return text if last else f"({text})"
    prec = _PRECEDENCE[t]
    bracket = prec < need
    last = last or bracket
    if t is Not:
        text = "!" + _minimal_text(g.body, prec, last)
    else:
        # `->` associates to the right, `+`, `*`, `&` and `|` to the left,
        # and `=` and `<` take terms only
        left, right = {Implies: (prec + 1, prec), Equal: (6, 6), Less: (6, 6)}.get(
            t, (prec, prec + 1))
        text = (f"{_minimal_text(g.left, left, False)} {_SYMBOL[t]} "
                f"{_minimal_text(g.right, right, last)}")
    return f"({text})" if bracket else text


def test_print_parse_round_trip_random():
    rng = random.Random(2024)
    for _ in range(300):
        f = random_sentence(rng, max_depth=6)
        text = formula_to_text(f)
        assert parse_formula(text) == f, text
        text = _minimal_text(f)
        assert parse_formula(text) == f, text
    assert _minimal_text(parse_formula("(a = 0 -> b = 0) -> (!(E x. x = 1) & c = 0)")) == (
        "(a = 0 -> b = 0) -> !(E x. x = 1) & c = 0")


def test_printed_terms_fully_parenthesized():
    t = Add(Mul(Var("x"), Var("y")), Lit(3))
    assert term_to_text(t) == "((x * y) + 3)"
