"""Term/formula ASTs, the concrete syntax, and a seeded formula generator.

Terms are ring expressions (variables, nonnegative literals, sums,
products).  Formulas add comparison atoms, the integer-product atom
TIMES(x, y, z) (true non-wrapping multiplication), boolean connectives and
five quantifier forms: exists, forall, counted-exists modulo q, majority,
and threshold counting.  Exact counting is sugar and desugars immediately.
The printer, the parser and the free-variable walk keep stacks of their
own, so a formula of any depth prints and parses back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Union

from .errors import ParseError

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("literals are nonnegative")


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Mul:
    left: "Term"
    right: "Term"


Term = Union[Var, Lit, Add, Mul]


@dataclass(frozen=True)
class Equal:
    left: Term
    right: Term


@dataclass(frozen=True)
class Less:
    left: Term
    right: Term


@dataclass(frozen=True)
class IntTimes:
    """Atom asserting x * y = z as integers (no wraparound)."""

    x: Term
    y: Term
    z: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class ModExists:
    """Witness count is congruent to residue mod modulus."""

    residue: int
    modulus: int
    var: str
    body: "Formula"

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("mod-exists modulus must be >= 2")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("mod-exists residue must lie in [0, modulus)")


@dataclass(frozen=True)
class Majority:
    """Strictly more than half of the universe satisfies the body."""

    var: str
    body: "Formula"


@dataclass(frozen=True)
class CountGE:
    """Witness count is at least the value of the count term.

    The count term is evaluated in the ring (residues 0..m-1); the witness
    count itself may reach m.  The bound variable may not occur in the
    count term.
    """

    count: Term
    var: str
    body: "Formula"

    def __post_init__(self):
        if self.var in term_vars(self.count):
            raise ValueError("count term may not contain the bound variable")


Formula = Union[
    Equal, Less, IntTimes, Not, And, Or, Implies,
    Exists, Forall, ModExists, Majority, CountGE,
]

QUANTIFIERS = (Exists, Forall, ModExists, Majority, CountGE)


def count_exact(count: Term, var: str, body: "Formula") -> Formula:
    """Exactly-count sugar: count_ge(i) and not count_ge(i + 1).

    The successor index is a ring term, so it wraps at the modulus; with a
    true witness count of m no index in 0..m-1 tests exactly-equal.
    """
    return And(
        CountGE(count, var, body),
        Not(CountGE(Add(count, Lit(1)), var, body)),
    )


def run(visit, node, *context):
    """visit(node, *context) on a stack of its own, so that no depth of
    nesting exhausts Python's.  visit is a generator function: it yields
    (operand, *context) for each operand it needs, is sent back what
    visit(operand, *context) returns, and returns its node's result."""
    stack, value = [visit(node, *context)], None
    while stack:
        try:
            operand = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(visit(*operand))
            value = None
    return value


# the fields of each node, in order, fill its template
_TEXT = {
    Var: "{}",
    Lit: "{}",
    Add: "({} + {})",
    Mul: "({} * {})",
    Equal: "{} = {}",
    Less: "{} < {}",
    IntTimes: "TIMES({}, {}, {})",
    Not: "!({})",
    And: "({} & {})",
    Or: "({} | {})",
    Implies: "({} -> {})",
    Exists: "(E {}. {})",
    Forall: "(A {}. {})",
    ModExists: "(E[{},{}] {}. {})",
    Majority: "(M {}. {})",
    CountGE: "(C>=({}) {}. {})",
}


def _free(g):
    """The free variables of a term or formula, as a set: a visit for run.
    A quantifier's bound name is its field var, and its integers are not
    operands."""
    if type(g) is Var:
        return {g.name}
    if type(g) not in _TEXT:
        raise TypeError(f"not a formula: {g!r}")
    free = set()
    for field, value in vars(g).items():
        if field != "var" and type(value) is not int:
            free |= yield value,
    free.discard(getattr(g, "var", None))
    return free


def term_vars(t: Term) -> frozenset[str]:
    return frozenset(run(_free, t))


def free_vars(f: Formula) -> frozenset[str]:
    """The variables of f that no quantifier of f binds."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return frozenset(run(_free, f))


def require_sentence(f: Formula) -> Formula:
    require_closed(free_vars(f))
    return f


def require_closed(fv) -> None:
    """ValueError naming fv, the free variables of a formula, if any."""
    if fv:
        raise ValueError(f"formula has free variables: {', '.join(sorted(fv))}")


# ---------------------------------------------------------------------------
# Printer (fully parenthesized; parse(print(f)) == f)


def _text(g):
    """The text of a term or formula: a visit for run."""
    template = _TEXT.get(type(g))
    if template is None:
        raise TypeError(f"not a formula: {g!r}")
    parts = []
    for value in vars(g).values():
        parts.append(value if type(value) in (str, int) else (yield value,))
    return template.format(*parts)


def formula_to_text(f: Formula) -> str:
    return run(_text, f)


term_to_text = formula_to_text


# ---------------------------------------------------------------------------
# Tokenizer: one regular expression.  In a str pattern \d is str.isdecimal,
# the digits that int() reads, and \w is str.isalnum or "_"; a word must
# start with a letter or "_".  A token is (kind, text, offset), where kind is
# the symbol or keyword itself, NAT, IDENT or EOF.  An offset becomes a line
# and column only in an error.

_TOKEN = re.compile(r"[ \t\r\n]+|#[^\n]*|(\d+)|(\w+)|(->|>=|[][(),.+*=<&|!])|(.)", re.S)
_KEYWORDS = {"E", "A", "M", "C", "TIMES"}


def _error(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at the line and column of text[offset]."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        nat, word, symbol, other = m.groups()
        if nat:
            tokens.append(("NAT", nat, m.start()))
        elif word and (word[0].isalpha() or word[0] == "_"):
            tokens.append((word if word in _KEYWORDS else "IDENT", word, m.start()))
        elif symbol:
            tokens.append((symbol, symbol, m.start()))
        elif word or other:
            raise _error(text, m.start(), f"unexpected character {text[m.start()]!r}")
    tokens.append(("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser: operator precedence (Floyd, "Syntactic Analysis and Operator
# Precedence", JACM 1963) on explicit stacks, so no depth of nesting
# exhausts Python's.  Terms and formulas share one expression grammar, and
# each operand's sort is checked when its operator takes it.

_TERM_TYPES = (Var, Lit, Add, Mul)

# symbol: (precedence, pending operators it reduces, node, operands are
# terms).  `->` reduces only tighter ones, so it associates to the right;
# the others are left-associative, and `=` and `<` cannot chain because
# their result is a formula.
_BINARY = {
    "->": (1, 2, Implies, False),
    "|": (2, 2, Or, False),
    "&": (3, 3, And, False),
    "=": (5, 5, Equal, True),
    "<": (5, 5, Less, True),
    "+": (6, 6, Add, True),
    "*": (7, 7, Mul, True),
}
_NOT = 4  # `!` binds tighter than `&` and looser than `=`
_QUANTIFIER = 0  # a body extends as far right as it can
_BRACKET = -1  # `(`, `TIMES(`, `C>=(`, `C=(` and the bottom of the stack
_QUANTIFIERS = {"E": Exists, "A": Forall, "M": Majority}


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError with position.

    Pending operators are (precedence, node, operands are terms, arity);
    a bracket is (_BRACKET, opener, arguments read).  Each error names the
    token where the input stops being a formula.
    """
    tokens = _tokenize(text)
    operands = []
    ops = [(_BRACKET, "EOF", 0)]

    def check(terms, offset):
        if (type(operands[-1]) in _TERM_TYPES) is not terms:
            raise _error(text, offset, "expected a term" if terms else "expected a formula")

    def reduce(offset):
        _, node, terms, arity = ops.pop()
        check(terms, offset)
        operands[-arity:] = [node(*operands[-arity:])]

    def expect(i, kind):
        found, word, offset = tokens[i]
        if found != kind:
            raise _error(text, offset, f"expected {kind!r}, found {word or 'end of input'!r}")
        return word

    def bound(i):
        """The variable that tokens[i] names, before a dot."""
        if tokens[i][0] != "IDENT":
            raise _error(text, tokens[i][2], "expected a variable name")
        expect(i + 1, ".")
        return tokens[i][1]

    i = 0
    while True:
        # an operand, after any prefix operators and brackets
        kind, word, offset = tokens[i]
        i += 1
        if kind == "NAT":
            operands.append(Lit(int(word)))
        elif kind == "IDENT":
            operands.append(Var(word))
        elif kind == "(":
            ops.append((_BRACKET, "(", 0))
            continue
        elif kind == "!":
            ops.append((_NOT, Not, False, 1))
            continue
        elif kind == "TIMES":
            expect(i, "(")
            ops.append((_BRACKET, "TIMES", 0))
            i += 1
            continue
        elif kind == "C":
            if tokens[i][0] not in (">=", "="):
                raise _error(text, tokens[i][2], "expected '>=' or '=' after C")
            expect(i + 1, "(")
            ops.append((_BRACKET, tokens[i][0], 0))
            i += 2
            continue
        elif kind in _QUANTIFIERS:
            node, args = _QUANTIFIERS[kind], ()
            if kind == "E" and tokens[i][0] == "[":
                r = int(expect(i + 1, "NAT"))
                expect(i + 2, ",")
                q = int(expect(i + 3, "NAT"))
                expect(i + 4, "]")
                if q < 2:
                    raise _error(text, tokens[i + 3][2], "mod-exists modulus must be >= 2")
                if r >= q:
                    raise _error(
                        text, tokens[i + 1][2],
                        f"mod-exists residue {r} must be smaller than modulus {q}",
                    )
                node, args = ModExists, (r, q)
                i += 5
            ops.append((_QUANTIFIER, partial(node, *args, bound(i)), False, 1))
            i += 2
            continue
        else:
            raise _error(text, offset, "expected a term or formula")

        # operators, until one needs a right operand
        while True:
            kind, word, offset = tokens[i]
            i += 1
            if kind in _BINARY:
                prec, reduces, node, terms = _BINARY[kind]
                while ops[-1][0] >= reduces:
                    reduce(offset)
                check(terms, offset)
                ops.append((prec, node, terms, 2))
                break
            if kind not in (")", ",", "EOF"):
                raise _error(text, offset, f"unexpected {word!r}")
            while ops[-1][0] > _BRACKET:
                reduce(offset)
            _, opener, read = ops[-1]
            if kind == "EOF":
                if opener != "EOF":
                    raise _error(text, offset, "expected ')'")
                check(False, offset)
                return operands[0]
            if opener == "EOF" or (kind == "," and (opener != "TIMES" or read == 2)):
                raise _error(text, offset, f"unexpected {word!r}")
            if kind == ",":
                check(True, offset)
                ops[-1] = (_BRACKET, opener, read + 1)
                break
            ops.pop()
            if opener == "(":
                continue
            check(True, offset)
            if opener == "TIMES":
                if read != 2:
                    raise _error(text, offset, "expected ','")
                operands[-3:] = [IntTimes(*operands[-3:])]
                continue
            # C>=(t) v.  or  C=(t) v.
            count, var = operands.pop(), bound(i)
            if var in term_vars(count):
                raise _error(
                    text, tokens[i + 1][2],
                    f"count term may not contain the bound variable {var!r}",
                )
            node = CountGE if opener == ">=" else count_exact
            ops.append((_QUANTIFIER, partial(node, count, var), False, 1))
            i += 2
            break


def parse_sentence(text: str) -> Formula:
    """Parse and reject formulas with free variables."""
    f = parse_formula(text)
    fv = free_vars(f)
    if fv:
        raise ParseError(f"sentence has free variables: {', '.join(sorted(fv))}")
    return f


# ---------------------------------------------------------------------------
# Seeded random formulas (round-trip and evaluator-equivalence fuzzing)


def random_term(rng, variables: tuple[str, ...], depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.45:
        if variables and rng.random() < 0.7:
            return Var(rng.choice(variables))
        return Lit(rng.randrange(0, 45))
    ctor = Add if rng.random() < 0.5 else Mul
    return ctor(
        random_term(rng, variables, depth - 1),
        random_term(rng, variables, depth - 1),
    )


def random_sentence(rng, max_depth: int = 5, max_quantifiers: int = 3) -> Formula:
    """A closed random formula of AST depth <= max_depth.

    Quantifier nesting is capped separately so the naive evaluator stays
    affordable on every generated sentence.
    """

    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"v{counter[0]}"

    def build(depth: int, scope: tuple[str, ...], quants: int) -> Formula:
        make_atom = depth <= 1 or rng.random() < 0.3
        if not scope and quants == 0:
            make_atom = True
        if make_atom:
            kind = rng.random()
            t = lambda: random_term(rng, scope, min(2, depth))
            if kind < 0.45:
                return Equal(t(), t())
            if kind < 0.8:
                return Less(t(), t())
            return IntTimes(t(), t(), t())
        choices = ["not", "and", "or", "implies"]
        if quants > 0:
            choices += ["exists", "forall", "mod", "majority", "countge"] * 2
        kind = rng.choice(choices)
        if kind == "not":
            return Not(build(depth - 1, scope, quants))
        if kind in ("and", "or", "implies"):
            ctor = {"and": And, "or": Or, "implies": Implies}[kind]
            return ctor(
                build(depth - 1, scope, quants),
                build(depth - 1, scope, quants),
            )
        v = fresh()
        inner = build(depth - 1, scope + (v,), quants - 1)
        if kind == "exists":
            return Exists(v, inner)
        if kind == "forall":
            return Forall(v, inner)
        if kind == "mod":
            q = rng.randrange(2, 7)
            return ModExists(rng.randrange(q), q, v, inner)
        if kind == "majority":
            return Majority(v, inner)
        count = random_term(rng, scope, 1)
        return CountGE(count, v, inner)

    # close over any leftovers by construction: scope starts empty and only
    # quantifiers extend it, so the result is already a sentence
    return build(max_depth, (), max_quantifiers)
