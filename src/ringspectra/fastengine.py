"""Relational evaluation of formulas over Z_m on numpy columns.

Each formula is first compiled, once, into a plan: one walk renames bound
variables apart, pushes negation down to atoms and quantifiers, flattens
conjunctions and disjunctions, and records on every node its free
variables and, for equations, the integer polynomial left - right.  The
plan is then evaluated bottom-up at each modulus, representing each
subformula by the relation of satisfying assignments over its free
variables.  A relation is its columns: one int64 array of shape
(variables, assignments), which filters read row by row and which joins,
extensions and selections gather along its second axis.  Conjunction joins
relations and folds comparison atoms in as vectorized filters; quantifiers
aggregate per-group witness counts, and C>=(t) adds the rows where t = 0.
One function gives every witness count (_witnesses), to a quantifier that
is evaluated and to a negated one that a count filter tests row by row:
over a body (v < u) or (u < v) AND conjuncts over v alone, as in "z is
maximal with property phi", it counts at every u by u's rank among the
witnesses, from prefix sums of their histogram, m rows; a plain E has one
at each row of its own relation, a TIMES atom with v in one slot one at
each row without v, and any other body groups its relation.
Atoms are solved analytically where possible: a linear congruence, with a
constant or a per-row coefficient, for all its rows at once (under E u.
over v = c*b(u), v alone), and a TIMES atom over two or three names as the
run of y that each x takes, which its literals and repeated names fix,
under E v. with v in one slot writing its other names' rows alone
(_times_rel), and in a conjunction only at the x that its filters over x
pass, a semi-join (Bernstein and Chiu, JACM 1981; _steps).  A one-variable
equation of higher degree takes its roots from gcd(f, x^m - x) at a prime
m above arith.ROOT_SCAN_LIMIT and from Horner evaluation over all residues
elsewhere, and other atoms are solved by vectorized scans of their
assignment grid, which _decode_keys enumerates.  Dedup, grouping, joins and
the count filter compare assignments by one order-preserving int64 key
(_keys): base-m digits while they fit, ranks from np.unique beyond.  Where
m**k, the number of keys, is at most _DENSE a row plus _DENSE_SLACK, dedup,
grouping and the count filter index an array with a slot per key, as the
complement always does, and elsewhere sort or search the keys.  Dedup and
grouping first test whether the keys never decrease, as those of the TIMES
table over (x, z) do, and then take each run of equal keys as a group with
no sort at all: an interesting order in the sense of Selinger et al.,
"Access Path Selection in a Relational Database Management System"
(SIGMOD 1979), observed from the input rather than declared.

_compile also tags every plan node with its strategy (_tag), once per
sentence, and eval_rel runs the kernel of that tag in _KERNELS.  A sweep
over primes looks the same tags up in blockengine's table of block kernels.

Alpha-equivalent nodes are evaluated once per modulus (hash-consing, as in
Filliatre and Conchon, "Type-Safe Modular Hash-Consing", 2006).  _share
keys every node with free variables that is not an atom or a negated atom
by its normalised subformula, with free variables numbered by first
occurrence and bound ones by their quantifier, and keeps the key, with the
node's own names in that order, only where two nodes or more have it:
psi(3) says "V is a power of 3" four times.  eval_rel caches the relation
of such a node in the context's dict shared, and a later node of the class
takes it renamed to its own variables; a count filter shares its plain E
so, and the body of any other quantifier.  A context serves one modulus (a
sweep makes one per prime), so nothing cached outlives it, and unshared
nodes pay one attribute test.
_TIMES_TABLE, the last TIMES table over three names built, with or without
y, whole or at the x a conjunction selects, stays a module global and not
an entry of that cache: the benchmark's large-m workload and the tests
empty it by name.

Every materialization is charged against the context's tuple budget and
raises ResourceLimitError naming the subformula when it would exceed it.
The reference evaluator in evaluate.py defines the semantics; this engine
shares no code with it, and the two must agree on every formula and
modulus.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .arith import ROOT_SCAN_LIMIT, IntPolynomial, eval_mod_array, poly_roots_mod, reduce_mod
from .errors import InvariantError, ResourceLimitError
from .evaluate import RingContext
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
    Mul,
    Not,
    Or,
    Term,
    Var,
    formula_to_text,
    require_closed,
    run,
)

_ATOMS = (Equal, Less, IntTimes)

# keys packed base m must fit in int64
_PACK_LIMIT = 2**62
# vectorized scans are cheaper per cell than materialized tuples
_SCAN_DISCOUNT = 64
_CHUNK = 1 << 20
# an array of m**k slots beats sorting n keys up to about 4n slots, or 1024
_DENSE, _DENSE_SLACK = 4, 1024


@dataclass(eq=False)
class Relation:
    """Satisfying assignments over cols, the sorted variable names.

    data is one C-contiguous int64 array of shape (len(cols), n) whose row i
    is the column of cols[i]; its n columns are unique assignments.  The
    zero-column relations are TRUE, shape (0, 1), and FALSE, shape (0, 0).
    Assignment order is unspecified except for relations returned by
    eval_fast, which are sorted lexicographically, and for TIMES, whose
    pairs come in (x, y) order (_times_runs).  Dedup and grouping observe
    the order they are given: where the keys of the columns they keep
    never decrease, they read groups as runs, unsorted."""

    cols: tuple[str, ...]
    data: np.ndarray

    @property
    def nrows(self) -> int:
        return self.data.shape[1]

    @property
    def rows(self) -> np.ndarray:
        """The assignments as an (n, len(cols)) view of data."""
        return self.data.T


def _bool_rel(value: bool) -> Relation:
    return Relation((), np.zeros((0, int(value)), dtype=np.int64))


def _empty(cols: tuple[str, ...]) -> Relation:
    return Relation(cols, np.zeros((len(cols), 0), dtype=np.int64))


def _make_rel(names: tuple[str, ...], arrays) -> Relation:
    """Build a relation from per-name columns, a list of arrays or the rows
    of a 2-D array, sorting columns by name."""
    order = sorted(range(len(names)), key=lambda i: names[i])
    cols = tuple(names[i] for i in order)
    return Relation(cols, np.array([arrays[i] for i in order], dtype=np.int64))


def _snip(node: Formula) -> str:
    text = formula_to_text(node)
    return text if len(text) <= 100 else text[:97] + "..."


def _charge(ctx: RingContext, n: int, node: Formula) -> None:
    ctx.peak_rows = max(ctx.peak_rows, n)
    if n > ctx.tuple_budget:
        raise ResourceLimitError(
            f"relation size {n} exceeds tuple budget {ctx.tuple_budget} "
            f"while evaluating: {_snip(node)}"
        )


# ---------------------------------------------------------------------------
# assignment keys, dedup, grouping


def _pack(columns, m: int) -> np.ndarray:
    """Keys base m of assignments with values in [0, m), given as their
    columns, one column being its own keys; _decode_keys inverts it."""
    key = np.asarray(columns[0], dtype=np.int64)
    for col in columns[1:]:
        key = key * m
        key += col
    return key


def _decode_keys(keys: np.ndarray, k: int, m: int) -> np.ndarray:
    """The (k, n) base-m digits of keys, most significant first: the
    assignments that _pack gave these keys, and for keys arange(lo, hi)
    that stretch of the grid Z_m^k."""
    if k == 1:
        return keys.reshape(1, -1)
    data = np.empty((k, keys.size), dtype=np.int64)
    rest = keys.copy()
    for row in data[::-1]:
        np.divmod(rest, m, out=(rest, row))
    return data


def _keys(m: int, *blocks):
    """Order-preserving int64 keys for blocks of assignments to the same
    k >= 1 variables, each block a (k, n) array or a list of its k columns:
    equal assignments get equal keys in every block, and keys sort as the
    assignments do.  Returns the keys of each block, the function from keys
    back to (k, n) assignments, and m**k if the keys are dense, else None.

    Assignments pack base m while m**k is below _PACK_LIMIT, and are dense
    if m**k is at most _DENSE a row of all the blocks plus _DENSE_SLACK;
    wider ones are ranked by np.unique over all the blocks."""
    k = len(blocks[0])
    if m**k < _PACK_LIMIT:
        domain = m**k if m**k <= _DENSE * sum(len(b[0]) for b in blocks) + _DENSE_SLACK else None
        return [_pack(b, m) for b in blocks], lambda keys: _decode_keys(keys, k, m), domain
    joint = np.concatenate(blocks, axis=1)
    uniq, inv = np.unique(joint, axis=1, return_inverse=True)
    splits = np.cumsum([len(b[0]) for b in blocks[:-1]])
    keys = np.split(inv.reshape(-1).astype(np.int64), splits)
    return keys, lambda keys: np.take(uniq, keys, axis=1), None


def _sorted_unique(keys: np.ndarray, counts: bool = False, domain: int | None = None):
    """np.unique(keys) for 1-D keys, and with counts=True also the count of
    each key: by a slot for each key of [0, domain) if given, else by a
    sort and a flag where adjacent keys differ."""
    if domain is not None and counts:
        tally = np.bincount(keys, minlength=domain)
        uniq = np.flatnonzero(tally != 0)  # faster than on int64
        return uniq, tally[uniq]
    if domain is not None:
        seen = np.zeros(domain, dtype=bool)
        seen[keys] = True
        return np.flatnonzero(seen)
    keys = np.sort(keys)
    first = _run_starts(keys)
    uniq = keys[first]
    return (uniq, _run_lengths(first)) if counts else uniq


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Flags where each run of equal adjacent keys starts."""
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _run_lengths(first: np.ndarray) -> np.ndarray:
    """The length of each run, given the flags where runs start."""
    return np.diff(np.append(np.flatnonzero(first), first.size))


def _in_order(keys: np.ndarray) -> bool:
    """Whether keys never decrease: then their runs are their groups, read
    without a sort."""
    return bool((keys[1:] >= keys[:-1]).all())


def _compress_columns(flags: np.ndarray, columns) -> np.ndarray:
    """The (k, g) array of the flagged rows of k columns, given as a (k, n)
    array or a list of its columns."""
    idx = np.flatnonzero(flags)
    out = np.empty((len(columns), idx.size), dtype=np.int64)
    for row, col in zip(out, columns):
        # with the default mode="raise", np.take buffers out
        np.take(col, idx, out=row, mode="clip")
    return out


def _dedup(data, m: int) -> np.ndarray:
    """The unique assignments of (k, n) data, given as an array or as the
    list of its k columns, in lexicographic order.  Keys in order keep the
    first row of each run, with no sort, decode or, for one column, packing."""
    if len(data) == 0 or len(data[0]) <= 1:
        return np.asarray(data)[:, :1]
    if len(data) == 1 and _in_order(data[0]):
        return data[0][_run_starts(data[0])].reshape(1, -1)
    (key,), decode, domain = _keys(m, data)
    if len(data) > 1 and _in_order(key):  # one column was tested above
        return _compress_columns(_run_starts(key), data)
    return decode(_sorted_unique(key, domain=domain))


def _columns(rel: Relation, names) -> list[np.ndarray]:
    return [rel.data[rel.cols.index(c)] for c in names]


def _lookup(table_keys: np.ndarray, values: np.ndarray, keys: np.ndarray, domain):
    """The values of keys in a table of unique table_keys, or 0: by a slot
    for each key of [0, domain) if given, else by binary search, sorting
    the table first unless its keys come in order."""
    if domain is not None:
        table = np.zeros(domain, dtype=values.dtype)
        table[table_keys] = values
        return table[keys]
    if not _in_order(table_keys):
        order = np.argsort(table_keys)
        table_keys, values = table_keys[order], values[order]
    idx = np.minimum(np.searchsorted(table_keys, keys), table_keys.size - 1)
    return np.where(table_keys[idx] == keys, values[idx], 0)


# ---------------------------------------------------------------------------
# core relational operations


def _join(ctx: RingContext, a: Relation, b: Relation, node: Formula) -> Relation:
    shared = [c for c in a.cols if c in b.cols]
    out_cols = tuple(sorted(set(a.cols) | set(b.cols)))
    if a.nrows == 0 or b.nrows == 0:
        return _empty(out_cols)
    if not shared:
        total = a.nrows * b.nrows
        _charge(ctx, total, node)
        ai = np.repeat(np.arange(a.nrows), b.nrows)
        bi = np.tile(np.arange(b.nrows), a.nrows)
    else:
        ka, kb = _keys(ctx.m, _columns(a, shared), _columns(b, shared))[0]
        order = np.argsort(kb, kind="stable")
        kbs = kb[order]
        left = np.searchsorted(kbs, ka, side="left")
        right = np.searchsorted(kbs, ka, side="right")
        cnt = right - left
        total = int(cnt.sum())
        _charge(ctx, total, node)
        ai = np.repeat(np.arange(a.nrows), cnt)
        starts = np.repeat(left, cnt)
        offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        bi = order[starts + offs]
    data = np.empty((len(out_cols), total), dtype=np.int64)
    for row, c in zip(data, out_cols):
        rel, idx = (a, ai) if c in a.cols else (b, bi)
        # with the default mode="raise", np.take buffers out
        np.take(rel.data[rel.cols.index(c)], idx, out=row, mode="clip")
    return Relation(out_cols, data)


def _project(ctx: RingContext, rel: Relation, keep: tuple[str, ...]) -> Relation:
    if keep == rel.cols:
        return rel
    if not keep:
        return _bool_rel(rel.nrows > 0)
    # the kept columns go to _dedup as views, which packs them into keys
    return Relation(keep, _dedup(_columns(rel, keep), ctx.m))


def _extend(ctx: RingContext, rel: Relation, var: str, node: Formula) -> Relation:
    m = ctx.m
    n = rel.nrows
    pos = sum(1 for c in rel.cols if c < var)
    cols = rel.cols[:pos] + (var,) + rel.cols[pos:]
    if n == 0:
        return _empty(cols)
    _charge(ctx, n * m, node)
    data = np.empty((len(cols), n * m), dtype=np.int64)
    cube = data.reshape(len(cols), n, m)
    cube[:pos] = rel.data[:pos, :, None]
    cube[pos] = np.arange(m, dtype=np.int64)
    cube[pos + 1 :] = rel.data[pos:, :, None]
    return Relation(cols, data)


def _extend_to(
    ctx: RingContext, rel: Relation, target: tuple[str, ...], node: Formula
) -> Relation:
    for var in target:
        if var not in rel.cols:
            rel = _extend(ctx, rel, var, node)
    return rel


def _complement(ctx: RingContext, rel: Relation, node: Formula) -> Relation:
    """All assignments over rel.cols not in rel, in order: a flag a byte for
    each of the m**k keys the budget admits as int64 rows, cleared at rel's."""
    m = ctx.m
    k = len(rel.cols)
    if k == 0:
        return _bool_rel(rel.nrows == 0)
    total = m**k
    # charged before packing: keys below the budget always fit in int64
    _charge(ctx, total, node)
    keep = np.ones(total, dtype=bool)
    keep[_pack(rel.data, m)] = False
    return Relation(rel.cols, _decode_keys(np.flatnonzero(keep), k, m))


def _group_drop(ctx: RingContext, rel: Relation, v: str):
    """Group assignments by all variables except v; returns (cols, groups,
    counts), groups a (len(cols), g) array in lexicographic order.  Keys in
    order give the groups as their runs, with no sort and no decode.

    Without a v column, every row stands for all m values of v."""
    if v not in rel.cols:
        groups = _dedup(rel.data, ctx.m) if rel.cols else _bool_rel(True).data
        return rel.cols, groups, np.full(groups.shape[1], ctx.m if rel.nrows else 0)
    V0 = tuple(c for c in rel.cols if c != v)
    if not V0:
        return V0, _bool_rel(True).data, np.array([rel.nrows])
    columns = _columns(rel, V0)
    (key,), decode, domain = _keys(ctx.m, columns)
    if _in_order(key):
        first = _run_starts(key)
        return V0, _compress_columns(first, columns), _run_lengths(first)
    uk, counts = _sorted_unique(key, counts=True, domain=domain)
    return V0, decode(uk), counts


# ---------------------------------------------------------------------------
# terms: polynomials and column evaluation


def _poly_mod(poly: dict, m: int) -> dict:
    """A compiled polynomial's nonzero coefficients reduced mod m."""
    return {e: c % m for e, c in poly.items() if c % m}


def _eval_term_cols(m, t: Term, cols: dict):
    """A term's values on columns, mod m: a modulus, or one per row."""
    if isinstance(t, Var):
        return cols[t.name]
    if isinstance(t, Lit):
        return reduce_mod(t.value, m)
    a = _eval_term_cols(m, t.left, cols)
    b = _eval_term_cols(m, t.right, cols)
    if isinstance(t, Add):
        return (a + b) % m
    return (a * b) % m


def _atom_mask(m, atom: Formula, cols: dict, n: int) -> np.ndarray:
    if isinstance(atom, Equal):
        mask = _eval_term_cols(m, atom.left, cols) == _eval_term_cols(
            m, atom.right, cols
        )
    elif isinstance(atom, Less):
        mask = _eval_term_cols(m, atom.left, cols) < _eval_term_cols(
            m, atom.right, cols
        )
    else:
        x = _eval_term_cols(m, atom.x, cols)
        y = _eval_term_cols(m, atom.y, cols)
        z = _eval_term_cols(m, atom.z, cols)
        mask = x * y == z
    if np.isscalar(mask) or mask.shape == ():
        mask = np.full(n, bool(mask))
    return mask


# ---------------------------------------------------------------------------
# atom relations


def _atom_of(p: _Plan) -> tuple[_Plan, bool]:
    """The atom an atom kernel solves for p, and whether negated: p, the body
    of a Not, or a counting quantifier's count = 0.  Errors name p.node."""
    return (p.kids[-1] if p.kids else p), isinstance(p.node, Not)


def _ground_rel(ctx: RingContext, p: _Plan) -> Relation:
    atom, negate = _atom_of(p)
    return _bool_rel(bool(_atom_mask(ctx.m, atom.node, {}, 1)[0]) != negate)


def _grid_rel(ctx: RingContext, p: _Plan) -> Relation:
    """Scan the full assignment grid of the atom's free variables."""
    atom, negate = _atom_of(p)
    node = p.node
    fvs = atom.fv
    k = len(fvs)
    m = ctx.m
    total = m**k
    _charge(ctx, total // _SCAN_DISCOUNT + 1, node)
    parts = []
    out = 0
    for lo in range(0, total, _CHUNK):
        cells = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        grid = _decode_keys(cells, k, m)
        mask = _atom_mask(m, atom.node, dict(zip(fvs, grid)), grid.shape[1])
        if negate:
            mask = ~mask
        hit = np.compress(mask, grid, axis=1)
        out += hit.shape[1]
        _charge(ctx, out, node)
        parts.append(hit)
    return Relation(fvs, np.concatenate(parts, axis=1))


def _univar_coeffs(poly: dict) -> list[int]:
    """Ascending coefficients of a one-variable polynomial dict, up to its
    largest exponent."""
    deg = max((e[0] for e in poly), default=-1)
    return [poly.get((e,), 0) for e in range(deg + 1)]


def _values(poly: dict, x: np.ndarray, m):
    """A one-variable polynomial's values at x in [0, m), mod m: a modulus,
    or an array of one per x.  A constant is its reduced value, a scalar for
    a scalar m, and the polynomial x is x itself; only the others pay for a
    Horner pass."""
    if poly.keys() <= {(0,)}:
        return reduce_mod(poly.get((0,), 0), m)
    if poly == {(1,): 1}:
        return x
    return eval_mod_array(_univar_coeffs(poly), x, m)


def _divisors(m: int) -> np.ndarray:
    """The divisors of m >= 1, ascending; m is prime when there are two."""
    d = np.arange(1, math.isqrt(m) + 1)
    small = d[m % d == 0]
    # the cofactors descend; a square's root is its own
    large = m // small[::-1]
    return np.concatenate([small, large[1:] if small[-1] == large[0] else large])


def _inverse(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a^-1 mod n for units a of each n >= 1 (0 where n = 1): the extended
    Euclidean algorithm on all rows at once, each dropped as it ends.  Rows
    keep s*a = r (mod n) with |s| <= n, so int32 holds s and q*s < 2n."""
    r0, r1 = (x.astype(np.int32) for x in np.broadcast_arrays(n, a % n))
    s0, s1 = np.zeros_like(r0), np.ones_like(r0)
    out = np.empty_like(r0)
    rows = np.arange(r0.size)
    while rows.size:
        end = r1 == 0
        out[rows[end]] = s0[end]
        live = np.flatnonzero(r1)  # faster to take than a mostly true mask
        rows, r0, r1, s0, s1 = (x[live] for x in (rows, r0, r1, s0, s1))
        q, r2 = np.divmod(r0, r1)
        r0, r1, s0, s1 = r1, r2, s1, s0 - q * s1
    return out % n


def _linear_solutions(a, rhs: np.ndarray, m: int):
    """Per-row solutions v of a*v = rhs (mod m), for a scalar a or one a per
    row: returns (mask of solvable rows, base solution, step m/g, count g),
    g = gcd(a, m) a scalar or an array like a.  A scalar a takes its inverse
    from pow, and an array from _gcd_with and _inverse; base*inverse stays
    below m**2 < 2**45."""
    if np.ndim(a) == 0:
        g = math.gcd(a % m, m)
        inv = pow((a % m) // g, -1, m // g)
    else:
        g = _gcd_with(a, m)
        inv = _inverse(a // g, m // g)
    mg = m // g
    return rhs % g == 0, (rhs // g) % mg * inv % mg, mg, g


def _univar_rel(ctx: RingContext, p: _Plan) -> Relation:
    """A one-variable equation, by the degree of its polynomial mod m: the
    zero polynomial holds everywhere, a nonzero constant nowhere, a linear
    one at its g solutions, and one of higher degree at the roots that
    arith.poly_roots_mod finds by gcd(f, x^m - x) at a prime m above
    ROOT_SCAN_LIMIT, and that Horner over all residues finds elsewhere.
    Both charge the scan, so the budget fails at the same moduli."""
    atom, negate = _atom_of(p)
    m = ctx.m
    node = p.node
    coeffs = _univar_coeffs(_poly_mod(atom.poly, m))
    if not coeffs:
        hits = np.arange(m, dtype=np.int64)
    elif len(coeffs) == 1:
        hits = np.zeros(0, dtype=np.int64)
    elif len(coeffs) == 2:
        b, a = coeffs
        mask, base, step, g = _linear_solutions(a, np.array([(-b) % m]), m)
        if mask[0]:
            hits = base[0] + np.arange(g, dtype=np.int64) * step
            hits.sort()
        else:
            hits = np.zeros(0, dtype=np.int64)
    else:
        _charge(ctx, m // _SCAN_DISCOUNT + 1, node)
        if m > ROOT_SCAN_LIMIT and _divisors(m).size == 2:
            hits = np.array(poly_roots_mod(IntPolynomial(coeffs), m), dtype=np.int64)
        else:
            values = eval_mod_array(coeffs, np.arange(m, dtype=np.int64), m)
            hits = np.flatnonzero(values == 0)
    rel = Relation(atom.fv, hits.reshape(1, -1))
    if negate:
        return _complement(ctx, rel, node)
    _charge(ctx, len(hits), node)
    return rel


def _pair_rel(ctx: RingContext, p: _Plan) -> Relation:
    """A two-variable equation, by _linear_pair of its polynomial mod m."""
    atom, _ = _atom_of(p)
    split = _linear_pair(_poly_mod(atom.poly, ctx.m))
    if split is None:
        return _grid_rel(ctx, p)
    vi, a_poly, b_poly = split
    return _linear_rel(ctx, a_poly, b_poly, atom.fv[1 - vi], atom.fv[vi], p.node)


def _split_linear(poly: dict, vi: int):
    """A polynomial of degree 1 in its variable vi as (a, b) with
    poly = a*v + b, both over the other variable (exponent tuples of length
    1), or None for any other degree in v."""
    if max((e[vi] for e in poly), default=0) != 1:
        return None
    a: dict = {}
    b: dict = {}
    for e, c in poly.items():
        (a if e[vi] else b)[(e[1 - vi] if len(e) == 2 else 0,)] = c
    return a, b


def _linear_pair(poly: dict):
    """How a two-variable equation is solved: (vi, a, b) for the first
    variable vi of degree 1, whose pairs _linear_rel lists, or None, which
    sends it to the grid scan.  _tag calls it "linear const" when a is a
    constant (a single term of degree 0), which the block sweep solves."""
    for vi in (0, 1):
        split = _split_linear(poly, vi)
        if split is not None:
            return (vi, *split)
    return None


def _linear_rel(ctx, a_poly, b_poly, u, v, node, image=False) -> Relation:
    """Pairs (u, v) with a(u)*v + b(u) = 0 (mod m), written straight to
    their rows.  A constant unit a gives each u the one v = c*b(u),
    c = -1/a mod m, by one Horner pass of c*b (given image, E u.'s relation:
    those v, flagged).  Else each solvable u has the g = gcd(a(u), m)
    solutions of _linear_solutions, base + k*m/g for k < g, for a constant
    a or one a(u) per u alike."""
    m = ctx.m
    grid = np.arange(m, dtype=np.int64)
    a = _values(a_poly, grid, m)
    if np.ndim(a) == 0 and math.gcd(a, m) == 1:
        _charge(ctx, m, node)
        vals = _values({e: -pow(a, -1, m) * k % m for e, k in b_poly.items()}, grid, m)
        if image:  # a flag a value
            return Relation((v,), _sorted_unique(vals, domain=m).reshape(1, -1))
        data = np.empty((2, m), dtype=np.int64)
        uu, vv = data if u < v else data[::-1]
        uu[:] = grid
        vv[:] = vals
        return Relation(tuple(sorted((u, v))), data)
    rhs = np.broadcast_to(-_values(b_poly, grid, m) % m, grid.shape)
    mask, base, _, g = _linear_solutions(a, rhs, m)
    g = np.broadcast_to(g, grid.shape)[mask]
    total = int(g.sum())
    _charge(ctx, total, node)
    data = np.empty((2, total), dtype=np.int64)
    uu, vv = data if u < v else data[::-1]
    uu[:] = np.repeat(grid[mask], g)
    k = np.arange(total) - np.repeat(np.cumsum(g) - g, g)  # k-th solution of its u
    vv[:] = np.repeat(base[mask], g) + k * np.repeat(m // g, g)
    return Relation(tuple(sorted((u, v))), data)


def _gcd_with(values, m: int):
    """gcd(v, m) for each v in [0, m): the largest divisor of m dividing v,
    read from a table that writes each divisor d of m, in ascending order,
    to every multiple of d."""
    table = np.empty(m, dtype=np.int64)
    for div in _divisors(m):
        table[::div] = div
    return table[values]


def _divides_table(G: int, m: int) -> np.ndarray:
    """Flags over [0, m): whether gcd(x, m) divides G, a divisor of m.  Each
    divisor of m that does not divide G clears its multiples, unless a
    smaller one has cleared them already."""
    ok = np.ones(m, dtype=bool)
    for div in _divisors(m).tolist():
        if G % div and ok[div % m]:
            ok[::div] = False
    return ok


_TIMES_TABLE: dict = {"bound": 0, "rows": None}


def _times_runs(ctx: RingContext, node: Formula, rows: list[int], xs, lo, hi) -> np.ndarray:
    """The pairs of TIMES(x, y, z) with x in xs, ascending, and y in [lo, hi)
    for each x, as a (len(rows), n) array in (x, y) order whose row i holds
    slot rows[i] (0 x, 1 y, 2 z = x*y); a slot not in rows is never written.
    The three-name table gives lo = 0 and hi an array over xs, each x
    repeated hi times; any other atom gives lo an array over xs and hi the
    end of the first x's run, each later x taking the one y lo."""
    table = isinstance(hi, np.ndarray)
    n = 0 if table else int(hi - lo[0])
    total = int(hi.sum()) if table else n + len(xs) - 1
    _charge(ctx, total, node)
    out = np.empty((len(rows), total), dtype=np.int64)
    row = dict(zip(rows, out))
    if table:
        row[0][:] = np.repeat(xs, hi)
        y = row[1] if 1 in row else row[2]  # else z, multiplied in place
        np.subtract(np.arange(total), np.repeat(np.cumsum(hi) - hi, hi), out=y)
        if 2 in row:
            np.multiply(row[0], y, out=row[2])
        return out
    parts = [(slice(0, n), xs[0], np.arange(lo[0], hi, dtype=np.int64))]
    if n < total:
        parts.append((slice(n, total), xs[1:], lo[1:]))
    for part, xv, yv in parts:
        for slot, r in row.items():
            if slot == 2:
                np.multiply(xv, yv, out=r[part])
            else:
                r[part] = (xv, yv)[slot]
    return out


def _times_rel(ctx: RingContext, p: _Plan, drop: str = "", sel=None) -> Relation:
    """TIMES over two or three names, from the runs of y that _times_runs
    lists for each x; given drop, a name in one slot, the relation of E drop.
    over the atom, with only the other names' rows; given sel, ascending x,
    the three-name table's runs at those x alone.  As x*y = y*x, a literal
    factor, or the factor that z repeats, goes in the x slot, a dropped
    factor in the y slot, and then a literal or a repeated name is fixed by
    the choice of x and of its run alone:

        three names          x < m          y <= (m - 1)/max(x, 1)
        a literal factor q   x = q          y <= (m - 1)/max(q, 1)
        z a literal c != 0   x divides c    y = c/x
        z = 0, or z = x      x < m          all y at x = 0, else y = 0 (y = 1)
        x = y                x*x < m        y = x

    So each kept row comes once, but that x = 0 gives z = 0 at every y:
    dropping y, its run keeps one row.  The three-name table, or its rows
    without y, is kept for the last modulus only, in the row order of the
    atom that built it, and dropped before the next is built, so whether m
    fits never depends on what ran before; selected runs under the bound
    (m, their slots in row order, sel's bytes), for a call that asks for
    exactly those rows."""
    m = ctx.m
    node = p.node
    swap = isinstance(node.y, Lit) or node.y == node.z or node.x == Var(drop)
    x, y, z = (node.y, node.x, node.z) if swap else (node.x, node.y, node.z)
    names = [s.name if isinstance(s, Var) else "" for s in (x, y, z)]
    cols = tuple(sorted(set(names) - {"", drop}))
    rows = [names.index(c) for c in cols]
    table = len(set(names) - {""}) == 3
    cached = table and names[2] != drop  # the table, with or without y
    bound = m if sel is None else (m, tuple(rows), sel.tobytes())
    if cached and _TIMES_TABLE["bound"] == bound and _TIMES_TABLE["rows"].shape[0] == len(rows):
        out = _TIMES_TABLE["rows"]
        _charge(ctx, out.shape[1], node)
        if sel is None and m > 1:
            # in (x, y) order, column 1 is (0, 1, 0) in the table, whose column
            # m is (1, 0, 0), and (1, 0) without y; so the slot of each row is
            marks = out[:, 1] + 2 * out[:, m] if len(rows) == 3 else 2 * out[:, 1]
            at = [(2 - marks).tolist().index(i) for i in rows]
            if at != sorted(at):
                out = out[at]
        return Relation(cols, out)
    if cached:
        _TIMES_TABLE.update(bound=0, rows=None)
    if table:
        xs = np.arange(m, dtype=np.int64) if sel is None else sel
        lo, hi = 0, (m - 1) // xs.clip(1) + 1
    elif isinstance(x, Lit):
        q = x.value % m
        xs, lo, hi = np.array([q]), np.zeros(1, dtype=np.int64), (m - 1) // max(q, 1) + 1
    elif isinstance(z, Lit) and (c := z.value % m):
        xs = _divisors(c)
        lo, hi = c // xs, c + 1
    elif x == y:
        xs = lo = np.arange(math.isqrt(m - 1) + 1, dtype=np.int64)
        hi = 1
    else:
        xs = np.arange(m, dtype=np.int64)
        lo = np.full(m, int(isinstance(z, Var)), dtype=np.int64)
        lo[0], hi = 0, m
    if names[1] == drop and xs.size and xs[0] == 0:  # and so lo = 0 at x = 0
        hi = np.r_[1, hi[1:]] if table else 1
    out = _times_runs(ctx, node, rows, xs, lo, hi)
    if cached:
        out.flags.writeable = False
        _TIMES_TABLE.update(bound=bound, rows=out)
    return Relation(cols, out)


# ---------------------------------------------------------------------------
# filters


@dataclass
class _Filter:
    vars: frozenset
    fn: Callable[[dict], np.ndarray]


def _atom_filter(conj: _Plan, moduli: Callable[[dict], int | np.ndarray]) -> _Filter:
    """Filter form of an atom or a negated atom; moduli(cols) is the
    modulus, or the modulus of each row."""
    atom, negate = _atom_of(conj)

    def fn(cols: dict) -> np.ndarray:
        n = len(next(iter(cols.values())))
        mask = _atom_mask(moduli(cols), atom.node, cols, n)
        return ~mask if negate else mask

    return _Filter(frozenset(atom.fv), fn)


def _count_filter(ctx: RingContext, notq: _Plan) -> _Filter:
    """Filter form of a negated quantifier: per-row test of the witness
    counts that _witnesses gives at each group, by rank at every u for a
    rank shape and else from its body's relation."""
    q = notq.kids[0].node
    m = ctx.m
    V0, groups, counts = _witnesses(ctx, notq.kids[0])

    def fn(cols: dict) -> np.ndarray:
        n = len(next(iter(cols.values())))
        if not V0:
            cnt = np.full(n, counts[0], dtype=np.int64)
        elif not counts.size:
            cnt = np.zeros(n, dtype=np.int64)
        else:
            (gkeys, keys), _, domain = _keys(m, groups, [cols[c] for c in V0])
            cnt = _lookup(gkeys, counts, keys, domain)
        return ~_holds(q, cnt, m, cols)

    return _Filter(frozenset(notq.fv), fn)


def _holds(q: Formula, cnt: np.ndarray, m: int, cols: dict) -> np.ndarray:
    """Whether a quantifier holds at each row of cols, given its witness
    counts there."""
    if isinstance(q, Exists):
        return cnt > 0
    if isinstance(q, ModExists):
        return cnt % q.modulus == q.residue
    if isinstance(q, Majority):
        return 2 * cnt > m
    return cnt >= _eval_term_cols(m, q.count, cols)


def _apply_filters(ctx: RingContext, cur: Relation, filters: list[_Filter]) -> Relation:
    """Keep the rows of cur that pass every filter over its columns, in one
    compress, and drop those filters from filters."""
    mask = None
    rest = []
    for flt in filters:
        if not flt.vars <= set(cur.cols):
            rest.append(flt)
        elif cur.nrows:
            hit = flt.fn(dict(zip(cur.cols, cur.data)))
            mask = hit if mask is None else mask & hit
    filters[:] = rest
    if mask is None:
        return cur
    return Relation(cur.cols, np.compress(mask, cur.data, axis=1))


# ---------------------------------------------------------------------------
# compilation: one walk to the plan that every modulus evaluates


@dataclass(eq=False)
class _Plan:
    """A node of the normal form with what evaluation needs of it.

    node is the normalised subformula: bound variables renamed apart,
    negation only on atoms and quantifiers, Forall as Not(Exists(Not ...)),
    no Implies.  fv are its free variables, sorted.  kids are the operands
    of an And or Or, flattened; the body of a quantifier or of a Not; and
    for a counting quantifier also the atom count = 0.  poly, on equations
    only, is left - right as {exponent tuple over fv: integer coefficient},
    coefficients unreduced."""

    node: Formula
    fv: tuple[str, ...]
    kids: tuple[_Plan, ...] = ()
    poly: dict | None = None
    # decided here, once per sentence: how _eval_and takes the conjuncts of
    # an And (_steps); the rank shape _witnesses counts a quantifier by, or
    # None, whether the quantifier is evaluated or tested by a count filter;
    # and the strategy (_tag), the key of its kernel in each engine's table
    steps: tuple = ()
    rank: tuple | None = None
    tag: str = field(init=False)
    # set by _share, once per sentence, on nodes whose class occurs twice
    share: tuple | None = field(init=False)

    def __post_init__(self):
        self.share = None
        if isinstance(self.node, And):
            self.steps = _steps(self.kids)
        elif isinstance(self.node, _QUANTIFIERS):
            self.rank = _rank_shape(self)
        self.tag = _tag(self)


_QUANTIFIERS = (Exists, ModExists, Majority, CountGE)


def _steps(conjuncts: Sequence[_Plan]) -> tuple:
    """How _eval_and takes a conjunction: (kind, conjunct) in the order it
    takes them.  A "ground" conjunct is a sentence, tested as it comes; a
    "filter" is an atom or a negated atom tested on the rows of the
    relations; a "count" is a negated quantifier tested by _count_filter; a
    "relation" is evaluated and joined, and the order of the relations
    breaks ties in the join order (_next_join).  Grid scans over three or
    more variables and negated quantifiers wait for the relations before
    them, and become filters when those cover their variables.  Filters and
    counts over the x slot's name of a three-name TIMES atom, or of E v.
    over one, move to just before the first such conjunct, as "select
    filter" and "select count", to select the x whose runs it writes, a
    "times" step; no block kernel takes TIMES."""
    steps: list = []
    deferred = []
    covered: set = set()
    for c in conjuncts:
        f = c.node
        if not c.fv:
            steps.append(("ground", c))
        elif isinstance(f, Less) or (isinstance(f, Not) and isinstance(f.body, _ATOMS)):
            steps.append(("filter", c))
        elif isinstance(f, Not) or (c.tag == "grid scan" and len(c.fv) >= 3):
            deferred.append(c)
        else:
            steps.append(("relation", c))
            covered |= set(c.fv)
    for c in deferred:
        if set(c.fv) <= covered:
            steps.append(("count" if isinstance(c.node, Not) else "filter", c))
        else:
            steps.append(("relation", c))
            covered |= set(c.fv)
    for step in list(steps):
        drop = step[1].node.var if step[1].tag == "projection" else ""
        atom = step[1].kids[0] if drop else step[1]
        if atom.tag != "times" or len(atom.fv) != 3:
            continue
        x = atom.node.y if atom.node.x == Var(drop) else atom.node.x  # as _times_rel
        sel = [(k, c) for k, c in steps if k in ("filter", "count") and c.fv == (x.name,)]
        if sel:
            steps = [s for s in steps if s not in sel]
            i = steps.index(step)
            steps[i : i + 1] = [("select " + k, c) for k, c in sel] + [("times", step[1])]
    return tuple(steps)


def _rank_shape(p: _Plan) -> tuple | None:
    """For a quantifier over v whose body is (v <cmp> u) AND conjuncts over
    v alone, and whose count term, for C>=, is over u alone: (the
    comparison, u, the _steps of the other conjuncts), by which _witnesses
    counts at every u, for a count filter too; else None."""
    v = p.node.var
    body = p.kids[0]
    flat = body.kids if isinstance(body.node, And) else (body,)
    wide = [c for c in flat if not set(c.fv) <= {v}]
    if len(wide) != 1 or v not in wide[0].fv or not isinstance(wide[0].node, Less):
        return None
    cmp_atom = wide[0].node
    if not (isinstance(cmp_atom.left, Var) and isinstance(cmp_atom.right, Var)):
        return None
    (u,) = set(wide[0].fv) - {v}
    if isinstance(p.node, CountGE) and not set(p.kids[1].fv) <= {u}:
        return None
    return cmp_atom, u, _steps([c for c in flat if c is not wide[0]])


def _tag(p: _Plan) -> str:
    """The strategy of a plan node, from its shape alone.  Where m still
    decides it, for two-variable equations and for E, one kernel decides at
    each modulus (_pair_rel, _exists_rel), and the tags tell apart what has
    a block kernel.  So does arity: "complement" is over at most one
    variable, and "mod count" is E[r,q] with r != 0 or over one."""
    f = p.node
    k = len(p.fv)
    negate = isinstance(f, Not)
    atom = f.body if negate else f
    if isinstance(atom, _ATOMS):
        if k == 0:
            return "ground"
        if isinstance(atom, Equal) and k == 1:
            return "univariate"
        if isinstance(atom, Equal) and k == 2 and not negate:
            split = _linear_pair(p.poly)
            return "linear const" if split and split[1].keys() == {(0,)} else "pair"
        if isinstance(atom, IntTimes) and k >= 2 and not negate:
            if all(isinstance(s, (Var, Lit)) for s in (atom.x, atom.y, atom.z)):
                return "times"
        return "grid scan"
    if negate:
        return "complement" if k <= 1 else "wide complement"
    if isinstance(f, (And, Or)):
        return "and" if isinstance(f, And) else "or"
    if p.rank is not None:
        return "rank"
    if isinstance(f, Exists):
        linear = len(p.kids[0].fv) == 2 and _linear_body(p) is not None
        return "linear exists" if linear else "projection"
    if isinstance(f, ModExists):
        return "mod count" if f.residue != 0 or k <= 1 else "wide zero count"
    return "majority" if isinstance(f, Majority) else "count ge"


def _union(*names: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set().union(*names)))


def _compile(formula: Formula) -> _Plan:
    """The plan of a formula, by one walk whose context is whether a node
    is read positively and the new names of the variables bound above it.
    A term's result is the renamed term, its variables and its polynomial,
    whose monomials are tuples of (variable, exponent) sorted by name."""
    fresh = itertools.count(1)

    def negated(p: _Plan) -> _Plan:
        return _Plan(Not(p.node), p.fv, (p,))

    def visit(f, positive: bool, names: dict):
        if isinstance(f, Var):
            name = names.get(f.name, f.name)
            return Var(name), {name}, {((name, 1),): 1}
        if isinstance(f, Lit):
            return f, set(), {(): f.value}
        if isinstance(f, (Add, Mul)):
            a, av, ap = yield f.left, positive, names
            b, bv, bp = yield f.right, positive, names
            out: dict = {}
            if isinstance(f, Add):
                for d in (ap, bp):
                    for e, c in d.items():
                        out[e] = out.get(e, 0) + c
            else:
                for ea, ca in ap.items():
                    for eb, cb in bp.items():
                        powers = dict(ea)
                        for v, k in eb:
                            powers[v] = powers.get(v, 0) + k
                        e = tuple(sorted(powers.items()))
                        out[e] = out.get(e, 0) + ca * cb
            return type(f)(a, b), av | bv, out
        if isinstance(f, _ATOMS):
            terms = []
            for t in vars(f).values():
                terms.append((yield t, positive, names))
            fv = _union(*(t[1] for t in terms))
            poly = None
            if isinstance(f, Equal):
                (_, _, lp), (_, _, rp) = terms
                diff = dict(lp)
                for e, c in rp.items():
                    diff[e] = diff.get(e, 0) - c
                poly = {tuple(dict(e).get(v, 0) for v in fv): c for e, c in diff.items() if c}
            p = _Plan(type(f)(*(t[0] for t in terms)), fv, (), poly)
            return p if positive else negated(p)
        if isinstance(f, Not):
            return (yield f.body, not positive, names)
        if isinstance(f, (And, Or, Implies)):
            if isinstance(f, Implies):
                cls = Or if positive else And
            elif positive:
                cls = type(f)
            else:
                cls = Or if isinstance(f, And) else And
            a = yield f.left, positive != isinstance(f, Implies), names
            b = yield f.right, positive, names
            kids = tuple(
                k for p in (a, b) for k in (p.kids if isinstance(p.node, cls) else (p,))
            )
            return _Plan(cls(a.node, b.node), _union(a.fv, b.fv), kids)
        # bound names contain a quote, which no parsed identifier does
        var = f"{f.var}'{next(fresh)}"
        body = yield f.body, not isinstance(f, Forall), {**names, f.var: var}
        fv = tuple(c for c in body.fv if c != var)
        if isinstance(f, (Exists, Forall)):
            q = _Plan(Exists(var, body.node), fv, (body,))
        elif isinstance(f, ModExists):
            q = _Plan(ModExists(f.residue, f.modulus, var, body.node), fv, (body,))
        elif isinstance(f, Majority):
            q = _Plan(Majority(var, body.node), fv, (body,))
        else:
            zero = yield Equal(f.count, Lit(0)), True, names
            node = CountGE(zero.node.left, var, body.node)
            q = _Plan(node, _union(fv, zero.fv), (body, zero))
        return negated(q) if positive == isinstance(f, Forall) else q

    return run(visit, formula, True, {})


def _share(plan: _Plan) -> None:
    """Give share = (the first node of its class, its free variables in the
    class's order) to each node with free variables, other than an atom or a
    negated atom, whose class of alpha-equivalent subformulas has two nodes
    or more that eval_rel evaluates: not below a hit, which all nodes of a
    shared class but one are.  A count filter evaluates its quantifier's
    body, so the walk goes from the filter to that body; _witnesses
    evaluates only the conjuncts of a rank shape's body.  Classes are
    interned from those of their operands and where their free variables
    go, so the walk is linear in the formula, and outer classes get higher
    numbers."""
    classes: dict[tuple, int] = {}
    known: dict[int, tuple[int, tuple[str, ...]]] = {}

    def canon(g):
        """The class of a subformula or term, and its free variables in
        order of first occurrence: a visit for run."""
        if id(g) not in known:
            if isinstance(g, Var):
                shape, names = ["Var"], [g.name]
            else:
                bound = getattr(g, "var", None)
                shape, names = [type(g).__name__], []
                for value in vars(g).values():
                    if isinstance(value, int):
                        shape.append(value)
                    elif not isinstance(value, str):  # a str is the bound name
                        cls, inner = yield value,
                        names += [n for n in inner if n != bound and n not in names]
                        where = tuple(-1 if n == bound else names.index(n) for n in inner)
                        shape.append((cls, where))
            known[id(g)] = classes.setdefault(tuple(shape), len(classes)), tuple(names)
        return known[id(g)]

    # class -> (node, names, the flag of the nearest interned node above,
    # its own flag) of each, a flag set where nothing below is evaluated
    members: dict[int, list] = {}
    stack: list = [(plan, [False], True)]
    while stack:
        p, up, own = stack.pop()
        atom = p.node.body if isinstance(p.node, Not) else p.node
        if own and p.fv and not isinstance(atom, _ATOMS):
            cls, names = run(canon, p.node)
            up, above = [False], up  # below p, p's flag is the one above
            members.setdefault(cls, []).append((p, names, above, up))
        counts = [c for step, c in p.steps if step.endswith("count")]
        for k in p.kids:
            q = k.kids[0] if k in counts else p
            if k in counts:  # a plain E's own relation, else its body's
                k = q if isinstance(q.node, Exists) and q.rank is None else q.kids[0]
            stack.append((k, up, q.rank is None))
    for _, nodes in sorted(members.items(), reverse=True):  # outer classes first
        evaluated = [flag for *_, up, flag in nodes if not up[0]]
        for p, names, up, flag in nodes:
            flag[0] = up[0] or flag is not evaluated[0]  # unevaluated, or a hit
            if len(evaluated) > 1:
                p.share = nodes[0][0], names


# id(formula) -> its plan, dropped with the formula.  Keyed on identity:
# hashing a frozen AST recurses through it, once per level.
_PLANS: dict[int, _Plan] = {}


def _too_deep() -> ResourceLimitError:
    return ResourceLimitError("formula nested too deeply for the relational engine")


def _plan(formula: Formula) -> _Plan:
    """_compile, once per formula object: a sweep compiles its sentence
    once."""
    plan = _PLANS.get(id(formula))
    if plan is None:
        plan = _compile(formula)
        _share(plan)
        weakref.finalize(formula, _PLANS.pop, id(formula), None).atexit = False
        _PLANS[id(formula)] = plan
    return plan


# ---------------------------------------------------------------------------
# connectives


def _next_join(
    cur_cols: tuple[str, ...], rels: list[Relation], rows: Callable
) -> int | np.ndarray:
    """The join order of a conjunction, for _eval_and and blocks alike: the
    index of the relation of rels, in conjunct order, that it joins next
    into its relation over cur_cols.  That is the one sharing the most
    columns with it, then the one of fewest rows(r), then the first.  When
    rows(r) is an array, the rows of r in each lane of a block, the pick is
    an array too: the relation each lane's prime would take alone."""
    shared = [len(set(r.cols) & set(cur_cols)) for r in rels]
    cands = [i for i, n in enumerate(shared) if n == max(shared)]
    if len(cands) == 1:
        return cands[0]
    # argmin takes the first of equal counts
    return np.array(cands)[np.argmin([rows(rels[i]) for i in cands], axis=0)]


def _eval_and(
    ctx: RingContext,
    steps: tuple,
    node: Formula,
    target: tuple[str, ...],
) -> Relation:
    rels: list[Relation] = []
    filters: list[_Filter] = []
    sel: list[_Filter] = []  # of the next "times" conjunct
    for kind, c in steps:
        if kind == "ground":
            if eval_rel(ctx, c).nrows == 0:
                return _empty(target)
        elif kind == "times" and c.share is None:  # a shared one is cached whole
            grid = {next(iter(sel[0].vars)): np.arange(ctx.m, dtype=np.int64)}  # every x
            xs = np.flatnonzero(np.logical_and.reduce([f.fn(grid) for f in sel]))
            atom, drop = (c.kids[0], c.node.var) if isinstance(c.node, Exists) else (c, "")
            rels.append(_KERNELS["times"](ctx, atom, drop, xs))
            sel = []
        elif kind in ("relation", "times"):
            rels.append(eval_rel(ctx, c))
            filters, sel = filters + sel, []
        else:
            count = kind.endswith("count")
            flt = _count_filter(ctx, c) if count else _atom_filter(c, lambda cols: ctx.m)
            (sel if kind.startswith("select") else filters).append(flt)
    cur = _bool_rel(True)
    while rels:
        if cur.nrows == 0:
            return _empty(target)
        nxt = rels.pop(_next_join(cur.cols, rels, lambda r: r.nrows))
        cur = _join(ctx, cur, nxt, node) if cur.cols else nxt
        cur = _apply_filters(ctx, cur, filters)
    if cur.nrows == 0:
        return _empty(target)
    for var in target:
        if var not in cur.cols:
            cur = _extend(ctx, cur, var, node)
            cur = _apply_filters(ctx, cur, filters)
    if filters:
        raise InvariantError(f"unapplied filters in conjunction: {_snip(node)}")
    return cur


def _eval_or(ctx: RingContext, p: _Plan) -> Relation:
    parts: list[np.ndarray] = []
    for d in p.kids:
        r = eval_rel(ctx, d)
        if not r.cols and r.nrows == 0:
            continue
        r = _extend_to(ctx, r, p.fv, p.node)
        if r.nrows:
            parts.append(r.data)
    if not parts:
        return _empty(p.fv)
    total = sum(part.shape[1] for part in parts)
    _charge(ctx, total, p.node)
    return Relation(p.fv, _dedup(np.concatenate(parts, axis=1), ctx.m))


# ---------------------------------------------------------------------------
# quantifiers


def _witnesses(ctx: RingContext, q: _Plan):
    """The witness count of quantifier q at each group of its other free
    variables, as (V0, groups, counts) like _group_drop but in no set
    order.  A rank shape (_rank_shape) counts at every u, by u's rank among
    the witnesses of its other conjuncts, charging m.  A plain E (a count
    filter's) has one at each row of its own relation, a TIMES body with v
    in one slot one at each row of _times_rel's and m where the other
    factor is 0, and any other body groups its relation, which eval_rel may
    share (_share)."""
    v, body = q.node.var, q.kids[0]
    plain = isinstance(q.node, Exists)  # a count filter's
    slots = (body.node.x, body.node.y, body.node.z) if body.tag == "times" and not plain else ()
    slot = slots.index(Var(v)) if slots.count(Var(v)) == 1 else None
    if q.rank is None and slot is None and not plain:
        return _group_drop(ctx, eval_rel(ctx, body), v)
    if q.rank is None:
        rel = eval_rel(ctx, q) if slot is None else _KERNELS["times"](ctx, body, v)
        # one witness a row, but m where the other factor is 0 (Lit(1): none)
        other = Lit(1) if slot in (None, 2) else (body.node.y, body.node.x)[slot]
        zero = _eval_term_cols(ctx.m, other, dict(zip(rel.cols, rel.data))) == 0
        return rel.cols, rel.data, np.broadcast_to(np.where(zero, ctx.m, 1), rel.data.shape[1:])
    cmp_atom, u, steps = q.rank
    hist = np.bincount(_eval_and(ctx, steps, q.node, target=(v,)).data[0], minlength=ctx.m)
    _charge(ctx, ctx.m, q.node)
    below = np.cumsum(hist) - hist  # u's rank: the witnesses below u
    cnt = below if cmp_atom.left.name == v else hist.sum() - hist - below
    return (u,), np.arange(ctx.m, dtype=np.int64).reshape(1, -1), cnt


def _linear_body(p: _Plan, m: int | None = None):
    """For E v. over an equation in v and at most one other variable, its
    polynomial (reduced mod m, if given) as (a, b) with a*v + b, when it is
    of degree 1 in v; else None."""
    body = p.kids[0]
    if not isinstance(body.node, Equal) or p.node.var not in body.fv or len(body.fv) > 2:
        return None
    poly = body.poly if m is None else _poly_mod(body.poly, m)
    return _split_linear(poly, body.fv.index(p.node.var))


def _exists_rel(ctx: RingContext, p: _Plan) -> Relation:
    """E v.: a gcd divisibility test over an equation in v and at most one
    other variable u that is linear in v mod m, _times_rel over a TIMES atom
    with v in one slot, else the body's projection.  a(u)*v + b(u) = 0 is
    solvable where g = gcd(a(u), m) divides b(u): for constants a and b, one
    test extended to every u; for a constant b, the flag at a(u) in
    _divides_table over gcd(b, m); and else b(u) % g == 0."""
    m = ctx.m
    v = p.node.var
    split = _linear_body(p, m)
    if split is None:
        body = p.kids[0]
        if body.tag == "times" and (body.node.x, body.node.y, body.node.z).count(Var(v)) == 1:
            return _KERNELS["times"](ctx, body, v)
        pair = _linear_pair(_poly_mod(body.poly, m)) if body.tag == "linear const" else None
        a = pair[1].get((0,), 0) if pair and pair[1].keys() == {(0,)} else 0
        if a and math.gcd(a, m) == 1 and body.fv[1 - pair[0]] == v:  # w = c*b(u): w's image
            return _linear_rel(ctx, *pair[1:], v, body.fv[pair[0]], body.node, image=True)
        body = eval_rel(ctx, body)
        return _project(ctx, body, tuple(c for c in body.cols if c != v))
    a_poly, b_poly = split
    b_const = b_poly.keys() <= {(0,)}
    if b_const and a_poly.keys() <= {(0,)}:
        holds = b_poly.get((0,), 0) % math.gcd(a_poly[(0,)], m) == 0
        return _extend_to(ctx, _bool_rel(holds), p.fv, p.node)
    _charge(ctx, m, p.node)
    if b_const:
        ok = _divides_table(math.gcd(b_poly.get((0,), 0), m), m)
        mask = ok if a_poly == {(1,): 1} else ok[_values(a_poly, np.arange(m, dtype=np.int64), m)]
    else:
        # g divides m, so it divides b(u) mod m as it does b(u)
        grid = np.arange(m, dtype=np.int64)
        mask = _values(b_poly, grid, m) % _gcd_with(_values(a_poly, grid, m), m) == 0
    return Relation(p.fv, np.flatnonzero(mask).reshape(1, -1))


def _count_rel(ctx: RingContext, p: _Plan) -> Relation:
    """E[r,q] v., M v., C>=(t) v. for a constant t, and every rank shape:
    the groups (_witnesses) whose witness counts hold (_holds), or, where
    the groups miss some assignment and a count of 0 holds, the complement
    of the groups whose counts fail.  A rank shape's groups are every u."""
    node = p.node
    V0, groups, counts = _witnesses(ctx, p)
    hit = _holds(node, counts, ctx.m, dict(zip(V0, groups)))
    if groups.shape[1] < ctx.m ** len(V0) and _holds(node, 0, ctx.m, {}):
        return _complement(ctx, Relation(V0, np.compress(~hit, groups, axis=1)), node)
    return Relation(V0, np.compress(hit, groups, axis=1))


def _count_ge_rel(ctx: RingContext, p: _Plan) -> Relation:
    """C>=(t) v.: a witness count is never negative, so it holds wherever
    t = 0, and where t >= 1 only at a group of the body with t <= count.  The
    rows of the atom t = 0, extended to p.fv, and the passing groups with
    t >= 1 are disjoint by t, so they need no dedup.  A constant t decides
    once (_count_rel); the passing groups take a sorted prefix of the
    nonzero values of fresh t, or test t at each group and assignment of
    the variables it adds, none where t is over group columns only."""
    tf = p.kids[1].fv
    if not tf:
        return _count_rel(ctx, p)
    node = p.node
    m = ctx.m
    V0, groups, counts = _witnesses(ctx, p)
    t = node.count
    # the kernel of t = 0, given p so that its errors name p (_atom_of)
    zero = _extend_to(ctx, _KERNELS[p.kids[1].tag](ctx, p), p.fv, node)
    ex = tuple(c for c in tf if c not in V0)
    if len(ex) == len(tf):
        # per group, the prefix of the nonzero values of t sorted
        total_t = m ** len(tf)
        _charge(ctx, total_t, node)
        tgrid = _decode_keys(np.arange(total_t, dtype=np.int64), len(tf), m)
        tvals = _eval_term_cols(m, t, dict(zip(tf, tgrid)))
        order = np.flatnonzero(tvals)
        order = order[np.argsort(tvals[order], kind="stable")]
        k_per = np.searchsorted(tvals[order], counts, side="right")
        total = int(k_per.sum())
        _charge(ctx, total, node)
        gi = np.repeat(np.arange(groups.shape[1]), k_per)
        ti = order[np.arange(total) - np.repeat(np.cumsum(k_per) - k_per, k_per)]
        passing = np.concatenate([np.take(groups, gi, axis=1), np.take(tgrid, ti, axis=1)])
    else:
        n_ex = m ** len(ex)
        _charge(ctx, groups.shape[1] * n_ex, node)
        ex_grid = _decode_keys(np.arange(n_ex, dtype=np.int64), len(ex), m)
        passing = np.concatenate(
            [np.repeat(groups, n_ex, axis=1), np.tile(ex_grid, groups.shape[1])]
        )
        tv = _eval_term_cols(m, t, dict(zip(V0 + ex, passing)))
        passing = np.compress((tv != 0) & (np.repeat(counts, n_ex) >= tv), passing, axis=1)
    passing = _make_rel(V0 + ex, passing)
    _charge(ctx, zero.nrows + passing.nrows, node)
    return Relation(p.fv, np.concatenate([zero.data, passing.data], axis=1))


# ---------------------------------------------------------------------------
# dispatch and public API


def _not_rel(ctx: RingContext, p: _Plan) -> Relation:
    return _complement(ctx, eval_rel(ctx, p.kids[0]), p.node)


# the kernel of each tag (_tag); "times" also takes E's name and selected x
_KERNELS: dict[str, Callable[..., Relation]] = {
    "ground": _ground_rel,
    "univariate": _univar_rel,
    "linear const": _pair_rel,
    "pair": _pair_rel,
    "grid scan": _grid_rel,
    "times": _times_rel,
    "and": lambda ctx, p: _eval_and(ctx, p.steps, p.node, p.fv),
    "or": _eval_or,
    "complement": _not_rel,
    "wide complement": _not_rel,
    "rank": _count_rel,
    "linear exists": _exists_rel,
    "projection": _exists_rel,
    "mod count": _count_rel,
    "wide zero count": _count_rel,
    "majority": _count_rel,
    "count ge": _count_ge_rel,
}


def eval_rel(ctx: RingContext, p: _Plan) -> Relation:
    """Evaluate a plan to its satisfying-assignment relation, once per
    context for each class of shared nodes (_share): a later node of the
    class takes the relation of the first with its columns renamed.  A hit
    charges nothing: the first computation charged the budget."""
    if p.share is None:
        return _KERNELS[p.tag](ctx, p)
    first, names = p.share
    if first not in ctx.shared:
        rel = _KERNELS[p.tag](ctx, p)
        ctx.shared[first] = names, rel
        return rel
    was, rel = ctx.shared[first]
    if was == names:
        return rel
    to = dict(zip(was, names))
    cols = [to[c] for c in rel.cols]
    if cols == sorted(cols):
        return Relation(tuple(cols), rel.data)
    # renamed, the columns left name order: their rows follow them
    order = sorted(range(len(cols)), key=cols.__getitem__)
    return Relation(tuple(sorted(cols)), rel.data[order])


def _run(ctx: RingContext, plan: _Plan) -> Relation:
    try:
        return eval_rel(ctx, plan)
    except RecursionError:
        raise _too_deep() from None


def eval_fast(ctx: RingContext, formula: Formula) -> Relation:
    """Satisfying assignments of a formula over its free variables, with
    columns sorted by name and rows in lexicographic order."""
    rel = _run(ctx, _plan(formula))
    return Relation(rel.cols, _dedup(rel.data, ctx.m))


def eval_fast_bool(ctx: RingContext, sentence: Formula) -> bool:
    plan = _plan(sentence)
    require_closed(plan.fv)
    return _run(ctx, plan).nrows > 0
