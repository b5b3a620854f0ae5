"""Term/formula ASTs, the concrete syntax, and a seeded formula generator.

Terms are ring expressions (variables, nonnegative literals, sums,
products).  Formulas add comparison atoms, the integer-product atom
TIMES(x, y, z) (true non-wrapping multiplication), boolean connectives and
five quantifier forms: exists, forall, counted-exists modulo q, majority,
and threshold counting.  Exact counting is sugar and desugars immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# Tokenizer


_KEYWORDS = {"E", "A", "M", "C", "TIMES"}


@dataclass(frozen=True)
class _Token:
    kind: str  # NAT, IDENT, KEYWORD, or the symbol itself
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i : i + 2]
        if two in ("->", ">="):
            tokens.append(_Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in "()[],.+*=<&|!":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("NAT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word in _KEYWORDS else "IDENT"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent with backtracking between atoms and groups)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # formula levels, loosest first

    def formula(self) -> Formula:
        left = self.or_level()
        if self.peek().kind == "->":
            self.next()
            return Implies(left, self.formula())
        return left

    def or_level(self) -> Formula:
        left = self.and_level()
        while self.peek().kind == "|":
            self.next()
            left = Or(left, self.and_level())
        return left

    def and_level(self) -> Formula:
        left = self.unary()
        while self.peek().kind == "&":
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            return Not(self.unary())
        if tok.kind == "KEYWORD" and tok.text in ("E", "A", "M", "C"):
            return self.quantifier()
        return self.atom_or_group()

    def quantifier(self) -> Formula:
        head = self.next()
        if head.text == "E":
            if self.peek().kind == "[":
                self.next()
                r_tok = self.expect("NAT")
                self.expect(",")
                q_tok = self.expect("NAT")
                close = self.expect("]")
                r, q = int(r_tok.text), int(q_tok.text)
                if q < 2:
                    raise ParseError("mod-exists modulus must be >= 2", q_tok.line, q_tok.col)
                if r >= q:
                    raise ParseError(
                        f"mod-exists residue {r} must be smaller than modulus {q}",
                        r_tok.line,
                        r_tok.col,
                    )
                var = self.bound_var()
                self.expect(".")
                return ModExists(r, q, var, self.formula())
            var = self.bound_var()
            self.expect(".")
            return Exists(var, self.formula())
        if head.text == "A":
            var = self.bound_var()
            self.expect(".")
            return Forall(var, self.formula())
        if head.text == "M":
            var = self.bound_var()
            self.expect(".")
            return Majority(var, self.formula())
        # C>=(t) v. f   or   C=(t) v. f
        op = self.peek()
        if op.kind not in (">=", "="):
            raise self.error("expected '>=' or '=' after C")
        self.next()
        self.expect("(")
        count = self.term()
        self.expect(")")
        var = self.bound_var()
        dot = self.expect(".")
        body = self.formula()
        if var in term_vars(count):
            raise ParseError(
                f"count term may not contain the bound variable {var!r}",
                dot.line,
                dot.col,
            )
        if op.kind == ">=":
            return CountGE(count, var, body)
        return count_exact(count, var, body)

    def bound_var(self) -> str:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.error("expected a variable name")
        return self.next().text

    def atom_or_group(self) -> Formula:
        saved = self.pos
        try:
            return self.atom()
        except ParseError:
            self.pos = saved
        if self.peek().kind == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        raise self.error("expected a formula")

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "KEYWORD" and tok.text == "TIMES":
            self.next()
            self.expect("(")
            x = self.term()
            self.expect(",")
            y = self.term()
            self.expect(",")
            z = self.term()
            self.expect(")")
            return IntTimes(x, y, z)
        left = self.term()
        op = self.peek()
        if op.kind == "=":
            self.next()
            return Equal(left, self.term())
        if op.kind == "<":
            self.next()
            return Less(left, self.term())
        raise self.error("expected '=' or '<'")

    # terms

    def term(self) -> Term:
        left = self.factor()
        while self.peek().kind == "+":
            self.next()
            left = Add(left, self.factor())
        return left

    def factor(self) -> Term:
        left = self.primary()
        while self.peek().kind == "*":
            self.next()
            left = Mul(left, self.primary())
        return left

    def primary(self) -> Term:
        tok = self.peek()
        if tok.kind == "NAT":
            self.next()
            return Lit(int(tok.text))
        if tok.kind == "IDENT":
            self.next()
            return Var(tok.text)
        if tok.kind == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        raise self.error("expected a term")


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError with position."""
    parser = _Parser(_tokenize(text))
    try:
        f = parser.formula()
    except RecursionError:
        raise ParseError("formula nests too deeply") from None
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return f


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
