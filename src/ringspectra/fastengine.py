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
aggregate per-group witness counts.  Atoms are solved analytically where
possible (linear congruences, divisor tables for the integer-product
predicate); a one-variable equation of higher degree is solved by Horner
evaluation over all residues, and other atoms by vectorized scans of their
assignment grid, which _decode_keys enumerates.  Dedup, grouping, joins and
the count filter compare assignments by one order-preserving int64 key
(_keys): base-m digits while they fit, ranks from np.unique beyond; dedup
and grouping sort the keys and flag adjacent differences.

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
of such a node, and _count_filter its groups and counts, in the context's
dict shared, and a later node of the class takes them renamed to its own
variables.  A context serves one modulus (a sweep makes one per prime), so
nothing cached outlives it, and unshared nodes pay one attribute test.
_TIMES_TABLE, the last modulus's TIMES table, stays a module global and
not an entry of that cache: the benchmark's large-m workload and the tests
empty it by name before an evaluation.

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

from .arith import eval_mod_array, reduce_mod
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
    Not,
    Or,
    Term,
    Var,
    formula_to_text,
)

_ATOMS = (Equal, Less, IntTimes)

# keys packed base m must fit in int64
_PACK_LIMIT = 2**62
# vectorized scans are cheaper per cell than materialized tuples
_SCAN_DISCOUNT = 64
_CHUNK = 1 << 20
_LINEAR_LOOP_CAP = 300_000


@dataclass(eq=False)
class Relation:
    """Satisfying assignments over cols, the sorted variable names.

    data is one C-contiguous int64 array of shape (len(cols), n) whose row i
    is the column of cols[i]; its n columns are unique assignments.  The
    zero-column relations are TRUE, shape (0, 1), and FALSE, shape (0, 0).
    Assignment order is unspecified except for relations returned by
    eval_fast, which are sorted lexicographically."""

    cols: tuple[str, ...]
    data: np.ndarray

    @property
    def nrows(self) -> int:
        return self.data.shape[1]

    @property
    def rows(self) -> np.ndarray:
        """The assignments as an (n, len(cols)) view of data."""
        return self.data.T


def _true_rel() -> Relation:
    return Relation((), np.zeros((0, 1), dtype=np.int64))


def _false_rel() -> Relation:
    return Relation((), np.zeros((0, 0), dtype=np.int64))


def _bool_rel(value: bool) -> Relation:
    return _true_rel() if value else _false_rel()


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
    columns; _decode_keys inverts it."""
    key = np.array(columns[0], dtype=np.int64)
    for col in columns[1:]:
        key *= m
        key += col
    return key


def _decode_keys(keys: np.ndarray, k: int, m: int) -> np.ndarray:
    """The (k, n) base-m digits of keys, most significant first: the
    assignments that _pack gave these keys, and for keys arange(lo, hi)
    that stretch of the grid Z_m^k."""
    data = np.empty((k, keys.size), dtype=np.int64)
    rest = keys.copy()
    for row in data[::-1]:
        np.divmod(rest, m, out=(rest, row))
    return data


def _keys(m: int, *blocks):
    """Order-preserving int64 keys for blocks of assignments to the same
    k >= 1 variables, each block a (k, n) array or a list of its k columns:
    equal assignments get equal keys in every block, and keys sort as the
    assignments do.  Returns the keys of each block and the function from
    keys back to (k, n) assignments.

    Assignments pack base m while m**k is below _PACK_LIMIT; wider ones are
    ranked by np.unique over all the blocks."""
    k = len(blocks[0])
    if m**k < _PACK_LIMIT:
        return [_pack(b, m) for b in blocks], lambda keys: _decode_keys(keys, k, m)
    joint = np.concatenate(blocks, axis=1)
    uniq, inv = np.unique(joint, axis=1, return_inverse=True)
    splits = np.cumsum([len(b[0]) for b in blocks[:-1]])
    keys = np.split(inv.reshape(-1).astype(np.int64), splits)
    return keys, lambda keys: np.take(uniq, keys, axis=1)


def _sorted_unique(keys: np.ndarray, counts: bool = False):
    """np.unique(keys) for 1-D keys, and with counts=True also the count of
    each key, by a sort and a flag where adjacent keys differ."""
    keys = np.sort(keys)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    uniq = keys[first]
    if not counts:
        return uniq
    return uniq, np.diff(np.append(np.flatnonzero(first), keys.size))


def _dedup(data, m: int) -> np.ndarray:
    """The unique assignments of (k, n) data, given as an array or as the
    list of its k columns, in lexicographic order."""
    if len(data) == 0 or len(data[0]) <= 1:
        return np.asarray(data)[:, :1]
    (key,), decode = _keys(m, data)
    return decode(_sorted_unique(key))


def _columns(rel: Relation, names) -> list[np.ndarray]:
    return [rel.data[rel.cols.index(c)] for c in names]


def _member_mask(keys: np.ndarray, sorted_present: np.ndarray) -> np.ndarray:
    if sorted_present.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    idx = np.searchsorted(sorted_present, keys)
    idx = np.minimum(idx, sorted_present.size - 1)
    return sorted_present[idx] == keys


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
    if not out_cols:
        return _bool_rel(total > 0)
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
    """All assignments over rel.cols not in rel."""
    m = ctx.m
    k = len(rel.cols)
    if k == 0:
        return _bool_rel(rel.nrows == 0)
    total = m**k
    # charged before packing: keys below the budget always fit in int64
    _charge(ctx, total, node)
    present = np.sort(_pack(rel.data, m))
    parts = []
    for lo in range(0, total, _CHUNK):
        cand = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        parts.append(cand[~_member_mask(cand, present)])
    return Relation(rel.cols, _decode_keys(np.concatenate(parts), k, m))


def _anti_join(ctx: RingContext, a: Relation, b: Relation) -> Relation:
    """Rows of a absent from b; both over identical columns."""
    if a.nrows == 0 or b.nrows == 0:
        return a
    ka, kb = _keys(ctx.m, a.data, b.data)[0]
    mask = ~_member_mask(ka, np.sort(kb))
    return Relation(a.cols, np.compress(mask, a.data, axis=1))


def _group_drop(ctx: RingContext, rel: Relation, v: str):
    """Group assignments by all variables except v; returns (cols, groups,
    counts), groups a (len(cols), g) array in lexicographic order.

    Without a v column, every row stands for all m values of v."""
    if v not in rel.cols:
        groups = _dedup(rel.data, ctx.m) if rel.cols else _true_rel().data
        return rel.cols, groups, np.full(groups.shape[1], ctx.m if rel.nrows else 0)
    V0 = tuple(c for c in rel.cols if c != v)
    if not V0:
        return V0, _true_rel().data, np.array([rel.nrows])
    (key,), decode = _keys(ctx.m, _columns(rel, V0))
    uk, counts = _sorted_unique(key, counts=True)
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


def _linear_solutions(a: int, rhs: np.ndarray, m: int):
    """Per-row solutions v of a*v = rhs (mod m) for scalar a: returns
    (mask of solvable rows, base solution, step, count g)."""
    g = math.gcd(a % m, m)
    mg = m // g
    mask = rhs % g == 0
    inv = pow((a % m) // g, -1, mg) if mg > 1 else 0
    base = ((rhs // g) % mg) * inv % mg if mg > 1 else rhs * 0
    return mask, base, mg, g


def _univar_rel(ctx: RingContext, p: _Plan) -> Relation:
    """A one-variable equation, by the degree of its polynomial mod m."""
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
        values = eval_mod_array(coeffs, np.arange(m, dtype=np.int64), m)
        hits = np.flatnonzero(values == 0)
    if negate:
        keep = np.ones(m, dtype=bool)
        keep[hits] = False
        _charge(ctx, m, node)
        rows = np.arange(m, dtype=np.int64)[keep]
    else:
        _charge(ctx, len(hits), node)
        rows = hits
    return Relation(atom.fv, rows.reshape(1, -1))


def _pair_rel(ctx: RingContext, p: _Plan) -> Relation:
    """A two-variable equation, by _linear_pair of its polynomial mod m."""
    atom, _ = _atom_of(p)
    split = _linear_pair(_poly_mod(atom.poly, ctx.m))
    if split is None:
        return _grid_rel(ctx, p)
    vi, a_poly, b_poly = split
    rel = _linear_const_rel if a_poly.keys() == {(0,)} else _linear_var_rel
    return rel(ctx, a_poly, b_poly, atom.fv[1 - vi], atom.fv[vi], p.node)


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
    variable vi of degree 1, whose pairs _linear_const_rel lists when a is
    a constant (a single term of degree 0) and _linear_var_rel otherwise;
    None sends it to the grid scan."""
    for vi in (0, 1):
        split = _split_linear(poly, vi)
        if split is not None:
            return (vi, *split)
    return None


def _linear_const_rel(ctx, a_poly, b_poly, u, v, node) -> Relation:
    """Pairs (u, v) with a*v + b(u) = 0 (mod m), constant a: the g
    solutions v of each solvable u, written straight to their rows."""
    m = ctx.m
    a = next(iter(a_poly.values())) % m
    grid = np.arange(m, dtype=np.int64)
    rhs = (-eval_mod_array(_univar_coeffs(b_poly), grid, m)) % m
    mask, base, step, g = _linear_solutions(a, rhs, m)
    um = grid[mask]
    _charge(ctx, um.size * g, node)
    data = np.empty((2, um.size * g), dtype=np.int64)
    uu, vv = data if u < v else data[::-1]
    uu.reshape(-1, g)[:] = um[:, None]
    np.add(base[mask][:, None], np.arange(g, dtype=np.int64) * step, out=vv.reshape(-1, g))
    return Relation(tuple(sorted((u, v))), data)


def _linear_var_rel(ctx, a_poly, b_poly, u, v, node) -> Relation:
    """Pairs with a(u)*v + b(u) = 0 (mod m); per-u modular solve."""
    m = ctx.m
    if m > _LINEAR_LOOP_CAP:
        raise ResourceLimitError(
            f"per-element congruence solve too large (m={m}) for: {_snip(node)}"
        )
    grid = np.arange(m, dtype=np.int64)
    av = eval_mod_array(_univar_coeffs(a_poly), grid, m)
    bv = eval_mod_array(_univar_coeffs(b_poly), grid, m)
    rhs = (-bv) % m
    g = _gcd_with(av, m)
    mask = rhs % g == 0
    _charge(ctx, int(g[mask].sum()), node)
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for ui in np.nonzero(mask)[0]:
        gi = int(g[ui])
        mg = m // gi
        inv = pow(int(av[ui]) // gi, -1, mg) if mg > 1 else 0
        v0 = (int(rhs[ui]) // gi) % mg * inv % mg if mg > 1 else 0
        sols = v0 + np.arange(gi, dtype=np.int64) * mg
        us.append(np.full(gi, ui, dtype=np.int64))
        vs.append(sols)
    if not us:
        return _make_rel((u, v), [np.zeros(0, np.int64), np.zeros(0, np.int64)])
    return _make_rel((u, v), [np.concatenate(us), np.concatenate(vs)])


def _gcd_with(values: np.ndarray, m: int) -> np.ndarray:
    """gcd(v, m) for each v in [0, m): the largest divisor of m dividing v,
    read from a table that writes each divisor d of m, in ascending order,
    to every multiple of d."""
    d = np.arange(1, math.isqrt(m) + 1)
    small = d[m % d == 0]
    table = np.empty(m, dtype=np.int64)
    for div in np.union1d(small, m // small):
        table[::div] = div
    return table[values]


_TIMES_TABLE: dict = {"bound": 0, "rows": None}


def _times_table(ctx: RingContext, m: int, node: Formula) -> np.ndarray:
    """Triples (x, y, x*y) with x, y >= 1 and x*y < m, in (x, y) order, as
    the (n, 3) view of a (3, n) array.

    Cached for the last modulus only, so the TIMES atoms of one evaluation
    share one build; the old table is dropped before the next is built, so
    a process never holds two, and whether m fits never depends on what ran
    before."""
    if _TIMES_TABLE["bound"] != m:
        _TIMES_TABLE.update(bound=0, rows=None)
        x_range = np.arange(1, m, dtype=np.int64)
        counts = (m - 1) // x_range
        total = int(counts.sum())
        _charge(ctx, total, node)
        x = np.repeat(x_range, counts)
        offsets = np.cumsum(counts) - counts
        y = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts) + 1
        _TIMES_TABLE.update(bound=m, rows=np.array([x, y, x * y]).T)
    return _TIMES_TABLE["rows"]


def _times_rel(ctx: RingContext, p: _Plan) -> Relation:
    m = ctx.m
    node = p.node
    slots = (node.x, node.y, node.z)
    table = _times_table(ctx, m, node).T
    n = table.shape[1]
    _charge(ctx, n + 2 * m, node)
    # the products below m, then 0 * y = 0 and x * 0 = 0, with each slot's
    # column written straight to its row in name order
    names = [s.name for s in slots]
    order = sorted(range(3), key=names.__getitem__)
    data = np.zeros((3, n + 2 * m - 1), dtype=np.int64)
    for row, i in zip(data, order):
        row[:n] = table[i]
    data[order.index(1), n : n + m] = np.arange(m)
    data[order.index(0), n + m :] = np.arange(1, m)
    return Relation(tuple(sorted(names)), data)


def _times_two_var(ctx: RingContext, p: _Plan) -> Relation:
    m = ctx.m
    node = p.node
    sx, sy, sz = slots = (node.x, node.y, node.z)
    vals = [s.value % m if isinstance(s, Lit) else None for s in slots]
    if vals[2] is not None:
        c = vals[2]
        if c == 0:
            grid = np.arange(m, dtype=np.int64)
            zeros = np.zeros(m, dtype=np.int64)
            _charge(ctx, 2 * m, node)
            xs = np.concatenate([zeros, grid[1:]])
            ys = np.concatenate([grid, zeros[1:]])
        else:
            pairs = []
            d = 1
            while d * d <= c:
                if c % d == 0:
                    pairs.append((d, c // d))
                    if d != c // d:
                        pairs.append((c // d, d))
                d += 1
            pairs.sort()
            _charge(ctx, len(pairs), node)
            xs = np.array([p[0] for p in pairs], dtype=np.int64)
            ys = np.array([p[1] for p in pairs], dtype=np.int64)
        return _make_rel((sx.name, sy.name), [xs, ys])
    if vals[0] is not None or vals[1] is not None:
        q = vals[0] if vals[0] is not None else vals[1]
        other = sy.name if vals[0] is not None else sx.name
        if q == 0:
            grid = np.arange(m, dtype=np.int64)
            _charge(ctx, m, node)
            return _make_rel((other, sz.name), [grid, np.zeros(m, np.int64)])
        n = (m - 1) // q + 1
        _charge(ctx, n, node)
        b = np.arange(n, dtype=np.int64)
        return _make_rel((other, sz.name), [b, q * b])
    # three variable slots, one name repeated
    grid = np.arange(m, dtype=np.int64)
    if sx.name == sy.name:
        k = math.isqrt(m - 1) if m > 1 else 0
        _charge(ctx, k + 1, node)
        a = np.arange(k + 1, dtype=np.int64)
        return _make_rel((sx.name, sz.name), [a, a * a])
    if sx.name == sz.name:
        # a*b = a: a = 0 with b free, or b = 1 with a free
        _charge(ctx, 2 * m, node)
        aa = np.concatenate([np.zeros(m, np.int64), grid])
        bb = np.concatenate([grid, np.ones(m, np.int64)])
    else:
        # sy.name == sz.name: a*b = b
        _charge(ctx, 2 * m, node)
        aa = np.concatenate([grid, np.ones(m, np.int64)])
        bb = np.concatenate([np.zeros(m, np.int64), grid])
    rel = _make_rel((sx.name, sy.name), [aa, bb])
    return Relation(rel.cols, _dedup(rel.data, m))


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
    """Filter form of a negated quantifier: per-row witness-count test."""
    q = notq.kids[0].node
    m = ctx.m

    def group():
        return _group_drop(ctx, eval_rel(ctx, notq.kids[0].kids[0]), q.var)

    if notq.share is None:
        V0, groups, counts = group()
    else:
        (V0, groups, counts), to = _memo(ctx, notq, "count", group)
        if to is not None:
            # the groups keep the column order they were sorted in, under
            # this node's names, so their keys stay sorted
            V0 = tuple(to[c] for c in V0)

    def fn(cols: dict) -> np.ndarray:
        n = len(next(iter(cols.values())))
        if not V0:
            cnt = np.full(n, counts[0], dtype=np.int64)
        elif not counts.size:
            cnt = np.zeros(n, dtype=np.int64)
        elif m ** len(V0) <= n:
            # a table with a slot for every group key is no longer than the rows
            table = np.zeros(m ** len(V0), dtype=np.int64)
            table[_pack(groups, m)] = counts
            cnt = table[_pack([cols[c] for c in V0], m)]
        else:
            # _group_drop sorts the groups, so their keys come sorted too
            gkeys, keys = _keys(m, groups, [cols[c] for c in V0])[0]
            idx = np.minimum(np.searchsorted(gkeys, keys), gkeys.size - 1)
            cnt = np.where(gkeys[idx] == keys, counts[idx], 0)
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
    rest = []
    for flt in filters:
        if flt.vars <= set(cur.cols):
            if cur.nrows:
                mask = flt.fn(dict(zip(cur.cols, cur.data)))
                cur = Relation(cur.cols, np.compress(mask, cur.data, axis=1))
        else:
            rest.append(flt)
    filters[:] = rest
    return cur


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
    # an And (_steps); the shape _rank_rel counts a quantifier by, or None;
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
    them, and become filters when those cover their variables."""
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
    return tuple(steps)


def _rank_shape(p: _Plan) -> tuple | None:
    """For a quantifier over v whose body is (v <cmp> u) AND conjuncts over
    v alone: (the comparison, u, the _steps of the other conjuncts), which
    _rank_rel counts by; else None."""
    node = p.node
    v = node.var
    body = p.kids[0]
    flat = body.kids if isinstance(body.node, And) else (body,)
    cmp_atom = None
    others: list[_Plan] = []
    for c in flat:
        f = c.node
        if (
            cmp_atom is None
            and isinstance(f, Less)
            and isinstance(f.left, Var)
            and isinstance(f.right, Var)
            and f.left.name != f.right.name
            and v in (f.left.name, f.right.name)
        ):
            cmp_atom = f
            continue
        others.append(c)
    if cmp_atom is None:
        return None
    u = cmp_atom.right.name if cmp_atom.left.name == v else cmp_atom.left.name
    if any(not set(c.fv) <= {v} for c in others):
        return None
    if isinstance(node, CountGE) and not set(p.kids[1].fv) <= {u}:
        return None
    return cmp_atom, u, _steps(others)


def _tag(p: _Plan) -> str:
    """The strategy of a plan node, from its shape alone.  Where m still
    decides it, for two-variable equations and for E, one kernel decides at
    each modulus (_pair_rel, _exists_rel), and the tags tell apart what has
    a block kernel.  So does arity: "scan" and "complement" are over at
    most one variable, and "mod count" is E[r,q] with r != 0 or over one."""
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
                return "times pair" if k == 2 else "times table"
        return "scan" if k == 1 else "grid scan"
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
    """The plan of a formula."""
    fresh = itertools.count(1)

    def term(t: Term, names: dict):
        """Renamed term, its variables and its polynomial over sorted
        multisets of variable names."""
        if isinstance(t, Var):
            name = names.get(t.name, t.name)
            return Var(name), {name}, {(name,): 1}
        if isinstance(t, Lit):
            return t, set(), {(): t.value}
        a, av, ap = term(t.left, names)
        b, bv, bp = term(t.right, names)
        out: dict = {}
        if isinstance(t, Add):
            for d in (ap, bp):
                for e, c in d.items():
                    out[e] = out.get(e, 0) + c
        else:
            for ea, ca in ap.items():
                for eb, cb in bp.items():
                    e = tuple(sorted(ea + eb))
                    out[e] = out.get(e, 0) + ca * cb
        return type(t)(a, b), av | bv, out

    def atom(f: Formula, names: dict) -> _Plan:
        if isinstance(f, IntTimes):
            parts = [term(t, names) for t in (f.x, f.y, f.z)]
            node = IntTimes(*(p[0] for p in parts))
            return _Plan(node, _union(*(p[1] for p in parts)))
        l, lv, lp = term(f.left, names)
        r, rv, rp = term(f.right, names)
        fv = _union(lv, rv)
        if isinstance(f, Less):
            return _Plan(Less(l, r), fv)
        diff = dict(lp)
        for e, c in rp.items():
            diff[e] = diff.get(e, 0) - c
        poly = {tuple(e.count(v) for v in fv): c for e, c in diff.items() if c}
        return _Plan(Equal(l, r), fv, (), poly)

    def negated(p: _Plan) -> _Plan:
        return _Plan(Not(p.node), p.fv, (p,))

    def walk(f: Formula, positive: bool, names: dict) -> _Plan:
        if isinstance(f, _ATOMS):
            p = atom(f, names)
            return p if positive else negated(p)
        if isinstance(f, Not):
            return walk(f.body, not positive, names)
        if isinstance(f, (And, Or, Implies)):
            if isinstance(f, Implies):
                cls = Or if positive else And
            elif positive:
                cls = type(f)
            else:
                cls = Or if isinstance(f, And) else And
            a = walk(f.left, positive != isinstance(f, Implies), names)
            b = walk(f.right, positive, names)
            kids = tuple(
                k for p in (a, b) for k in (p.kids if isinstance(p.node, cls) else (p,))
            )
            return _Plan(cls(a.node, b.node), _union(a.fv, b.fv), kids)
        # bound names contain a quote, which no parsed identifier does
        var = f"{f.var}'{next(fresh)}"
        body = walk(f.body, not isinstance(f, Forall), {**names, f.var: var})
        fv = tuple(c for c in body.fv if c != var)
        if isinstance(f, (Exists, Forall)):
            q = _Plan(Exists(var, body.node), fv, (body,))
        elif isinstance(f, ModExists):
            q = _Plan(ModExists(f.residue, f.modulus, var, body.node), fv, (body,))
        elif isinstance(f, Majority):
            q = _Plan(Majority(var, body.node), fv, (body,))
        else:
            zero = atom(Equal(f.count, Lit(0)), names)
            node = CountGE(zero.node.left, var, body.node)
            q = _Plan(node, _union(fv, zero.fv), (body, zero))
        return negated(q) if positive == isinstance(f, Forall) else q

    return walk(formula, True, {})


def _share(plan: _Plan) -> None:
    """Give share = (the first node of its class, its free variables in the
    class's order) to each node with free variables, other than an atom or
    a negated atom, whose class of alpha-equivalent subformulas has two
    nodes or more.  A class is interned from the classes of its operands
    and where their free variables go, so the walk is linear in the
    formula."""
    classes: dict[tuple, int] = {}
    known: dict[int, tuple[int, tuple[str, ...]]] = {}

    def canon(g) -> tuple[int, tuple[str, ...]]:
        """The class of a subformula or term, and its free variables in
        order of first occurrence."""
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
                        cls, inner = canon(value)
                        names += [n for n in inner if n != bound and n not in names]
                        where = tuple(-1 if n == bound else names.index(n) for n in inner)
                        shape.append((cls, where))
            known[id(g)] = classes.setdefault(tuple(shape), len(classes)), tuple(names)
        return known[id(g)]

    members: dict[int, list] = {}
    stack = [plan]
    while stack:
        p = stack.pop()
        stack.extend(p.kids)
        atom = p.node.body if isinstance(p.node, Not) else p.node
        if p.fv and not isinstance(atom, _ATOMS):
            cls, names = canon(p.node)
            members.setdefault(cls, []).append((p, names))
    for nodes in members.values():
        if len(nodes) > 1:
            for p, names in nodes:
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
        try:
            plan = _compile(formula)
            _share(plan)
        except RecursionError:
            raise _too_deep() from None
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
    for kind, c in steps:
        if kind == "ground":
            if eval_rel(ctx, c).nrows == 0:
                return _empty(target)
        elif kind == "filter":
            filters.append(_atom_filter(c, lambda cols: ctx.m))
        elif kind == "count":
            filters.append(_count_filter(ctx, c))
        else:
            rels.append(eval_rel(ctx, c))
    cur = _true_rel()
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


def _rank_rel(ctx: RingContext, p: _Plan) -> Relation:
    """Bodies of shape (v <cmp> u) AND unary-in-v constraints: per-u witness
    counts come from the rank of u in the sorted unary witness set."""
    cmp_atom, u, steps = p.rank
    node = p.node
    v = node.var
    m = ctx.m
    sub = _eval_and(ctx, steps, node, target=(v,))
    witnesses = np.sort(sub.data[0])
    v_below = cmp_atom.left.name == v
    _charge(ctx, m, node)
    grid = np.arange(m, dtype=np.int64)
    if v_below:
        cnt = np.searchsorted(witnesses, grid, side="left")
    else:
        cnt = witnesses.size - np.searchsorted(witnesses, grid, side="right")
    return Relation((u,), grid[_holds(node, cnt, m, {u: grid})].reshape(1, -1))


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
    other variable that is linear in v mod m, else the body's projection."""
    m = ctx.m
    v = p.node.var
    split = _linear_body(p, m)
    if split is None:
        body = eval_rel(ctx, p.kids[0])
        return _project(ctx, body, tuple(c for c in body.cols if c != v))
    a_poly, b_poly = split
    fvs = p.kids[0].fv
    if len(fvs) == 1:
        a = sum(c for c in a_poly.values()) % m
        b = sum(c for c in b_poly.values()) % m
        return _bool_rel((-b) % m % math.gcd(a, m) == 0)
    u = fvs[1 - fvs.index(v)]
    grid = np.arange(m, dtype=np.int64)
    _charge(ctx, m, p.node)
    av = eval_mod_array(_univar_coeffs(a_poly), grid, m)
    bv = eval_mod_array(_univar_coeffs(b_poly), grid, m)
    g = _gcd_with(av, m)
    mask = ((-bv) % m) % g == 0
    return Relation((u,), grid[mask].reshape(1, -1))


def _mod_count_rel(ctx: RingContext, p: _Plan) -> Relation:
    node = p.node
    V0, groups, counts = _group_drop(ctx, eval_rel(ctx, p.kids[0]), node.var)
    hit = counts % node.modulus == node.residue
    if node.residue != 0:
        return Relation(V0, np.compress(hit, groups, axis=1))
    return _complement(ctx, Relation(V0, np.compress(~hit, groups, axis=1)), node)


def _majority_rel(ctx: RingContext, p: _Plan) -> Relation:
    V0, groups, counts = _group_drop(ctx, eval_rel(ctx, p.kids[0]), p.node.var)
    return Relation(V0, np.compress(2 * counts > ctx.m, groups, axis=1))


def _count_ge_rel(ctx: RingContext, p: _Plan) -> Relation:
    node = p.node
    m = ctx.m
    V0, groups, counts = _group_drop(ctx, eval_rel(ctx, p.kids[0]), node.var)
    t = node.count
    zero = p.kids[1]
    tf = zero.fv
    if not tf:
        val = _eval_term_cols(m, t, {})
        if val == 0:
            return _complement(ctx, _empty(V0), node)
        return Relation(V0, np.compress(counts >= val, groups, axis=1))
    if set(tf) <= set(V0):
        tv = _eval_term_cols(m, t, dict(zip(V0, groups)))
        present_pass = np.compress(counts >= tv, groups, axis=1)
        # the kernel of count = 0, given p so that its errors name p (_atom_of)
        zero_rel = _KERNELS[zero.tag](ctx, p)
        zero_full = _extend_to(ctx, zero_rel, V0, node)
        zero_full = _project(ctx, zero_full, V0)
        absent = _anti_join(ctx, zero_full, Relation(V0, groups))
        _charge(ctx, present_pass.shape[1] + absent.nrows, node)
        return Relation(V0, np.concatenate([present_pass, absent.data], axis=1))
    if set(tf) & set(V0):
        return _count_ge_overlap(ctx, p, V0, groups, counts)
    # count term over fresh variables: per-group prefix of sorted term values
    total_t = m ** len(tf)
    _charge(ctx, total_t, node)
    tgrid = _decode_keys(np.arange(total_t, dtype=np.int64), len(tf), m)
    tvals = _eval_term_cols(m, t, dict(zip(tf, tgrid)))
    order = np.argsort(tvals, kind="stable")
    k_per = np.searchsorted(tvals[order], counts, side="right")
    total = int(k_per.sum())
    _charge(ctx, total, node)
    gi = np.repeat(np.arange(groups.shape[1]), k_per)
    offs = np.arange(total) - np.repeat(np.cumsum(k_per) - k_per, k_per)
    ti = order[offs]
    passing = np.concatenate([np.take(groups, gi, axis=1), np.take(tgrid, ti, axis=1)])
    comp = _complement(ctx, Relation(V0, groups), node)
    zgrid = np.compress(tvals == 0, tgrid, axis=1)
    _charge(ctx, comp.nrows * zgrid.shape[1], node)
    absent = np.concatenate(
        [np.repeat(comp.data, zgrid.shape[1], axis=1), np.tile(zgrid, comp.nrows)]
    )
    return _make_rel(V0 + tf, np.concatenate([passing, absent], axis=1))


def _count_ge_overlap(ctx, p: _Plan, V0, groups, counts) -> Relation:
    """Count term shares variables with the group columns; enumerate the
    fresh ones densely."""
    node = p.node
    m = ctx.m
    ex = tuple(c for c in p.kids[1].fv if c not in V0)
    n_ex = m ** len(ex)
    present = Relation(V0, groups)
    comp = _complement(ctx, present, node)
    ex_grid = _decode_keys(np.arange(n_ex, dtype=np.int64), len(ex), m)
    parts = []
    for block, cnts in ((present, counts), (comp, np.zeros(comp.nrows, np.int64))):
        _charge(ctx, block.nrows * n_ex, node)
        data = np.concatenate(
            [np.repeat(block.data, n_ex, axis=1), np.tile(ex_grid, block.nrows)]
        )
        tv = _eval_term_cols(m, node.count, dict(zip(V0 + ex, data)))
        parts.append(np.compress(np.repeat(cnts, n_ex) >= tv, data, axis=1))
    return _make_rel(V0 + ex, np.concatenate(parts, axis=1))


# ---------------------------------------------------------------------------
# dispatch and public API


def _not_rel(ctx: RingContext, p: _Plan) -> Relation:
    return _complement(ctx, eval_rel(ctx, p.kids[0]), p.node)


# the kernel of each tag (_tag)
_KERNELS: dict[str, Callable[[RingContext, _Plan], Relation]] = {
    "ground": _ground_rel,
    "univariate": _univar_rel,
    "linear const": _pair_rel,
    "pair": _pair_rel,
    "scan": _grid_rel,
    "grid scan": _grid_rel,
    "times pair": _times_two_var,
    "times table": _times_rel,
    "and": lambda ctx, p: _eval_and(ctx, p.steps, p.node, p.fv),
    "or": _eval_or,
    "complement": _not_rel,
    "wide complement": _not_rel,
    "rank": _rank_rel,
    "linear exists": _exists_rel,
    "projection": _exists_rel,
    "mod count": _mod_count_rel,
    "wide zero count": _mod_count_rel,
    "majority": _majority_rel,
    "count ge": _count_ge_rel,
}


def _memo(ctx: RingContext, p: _Plan, kind: str, compute: Callable):
    """compute(), once per context for each kind and class of shared nodes
    (_share), with the map from the names of the node it was computed for
    to p's own, or None for p's own.  A hit charges nothing: the first
    computation charged the budget."""
    first, names = p.share
    hit = ctx.shared.get((kind, first))
    if hit is None:
        value = compute()
        ctx.shared[kind, first] = names, value
        return value, None
    was, value = hit
    return value, None if was == names else dict(zip(was, names))


def eval_rel(ctx: RingContext, p: _Plan) -> Relation:
    """Evaluate a plan to its satisfying-assignment relation, once per
    context for each class of shared nodes."""
    if p.share is None:
        return _KERNELS[p.tag](ctx, p)
    rel, to = _memo(ctx, p, "relation", lambda: _KERNELS[p.tag](ctx, p))
    if to is None:
        return rel
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
    if plan.fv:
        raise ValueError("sentence has free variables")
    return _run(ctx, plan).nrows > 0
