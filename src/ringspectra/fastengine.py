"""Relational evaluation of formulas over Z_m on numpy columns.

Each formula is first compiled, once, into a plan: one walk renames bound
variables apart, pushes negation down to atoms and quantifiers, flattens
conjunctions and disjunctions, and records on every node its free
variables and, for equations, the integer polynomial left - right.  The
plan is then evaluated bottom-up at each modulus, representing each
subformula by the relation of satisfying assignments over its free
variables.  Conjunction joins relations and folds comparison atoms in as
vectorized row filters; quantifiers aggregate per-group witness counts.
Atoms are solved analytically where possible (linear congruences, divisor
tables for the integer-product predicate) and by vectorized scans
otherwise.

Every materialization is charged against the context's tuple budget and
raises ResourceLimitError naming the subformula when it would exceed it.
The reference evaluator in evaluate.py defines the semantics; this engine
shares no code with it, and the two must agree on every formula and
modulus.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvariantError, ResourceLimitError
from .evaluate import MAX_MODULUS, RingContext
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

# packed row keys must fit in int64
_PACK_LIMIT = 2**62
# vectorized scans are cheaper per cell than materialized tuples
_SCAN_DISCOUNT = 64
_CHUNK = 1 << 20
_LINEAR_LOOP_CAP = 300_000


@dataclass(eq=False)
class Relation:
    """Satisfying assignments: cols are sorted variable names, rows are
    unique (n, k) int64 assignments.  Row order is unspecified except for
    relations returned by eval_fast, which are sorted lexicographically."""

    cols: tuple[str, ...]
    rows: np.ndarray

    @property
    def nrows(self) -> int:
        return self.rows.shape[0]


def _true_rel() -> Relation:
    return Relation((), np.zeros((1, 0), dtype=np.int64))


def _false_rel() -> Relation:
    return Relation((), np.zeros((0, 0), dtype=np.int64))


def _bool_rel(value: bool) -> Relation:
    return _true_rel() if value else _false_rel()


def _empty(cols: tuple[str, ...]) -> Relation:
    return Relation(cols, np.zeros((0, len(cols)), dtype=np.int64))


def _make_rel(names: tuple[str, ...], arrays: list[np.ndarray]) -> Relation:
    """Build a relation from per-name columns, sorting columns by name."""
    order = sorted(range(len(names)), key=lambda i: names[i])
    cols = tuple(names[i] for i in order)
    arrs = [np.asarray(arrays[i], dtype=np.int64) for i in order]
    if not arrs or arrs[0].size == 0:
        return _empty(cols)
    return Relation(cols, np.column_stack(arrs))


def _snip(node: Formula) -> str:
    text = formula_to_text(node)
    return text if len(text) <= 100 else text[:97] + "..."


def _charge(ctx: RingContext, n: int, node: Formula) -> None:
    if n > ctx.tuple_budget:
        raise ResourceLimitError(
            f"relation size {n} exceeds tuple budget {ctx.tuple_budget} "
            f"while evaluating: {_snip(node)}"
        )


# ---------------------------------------------------------------------------
# packed keys, dedup, grouping


def _pack_arrays(arrs: list[np.ndarray], m: int) -> np.ndarray | None:
    if m**len(arrs) >= _PACK_LIMIT:
        return None
    key = arrs[0].astype(np.int64, copy=True)
    for a in arrs[1:]:
        key *= m
        key += a
    return key


def _decode_keys(keys: np.ndarray, k: int, m: int) -> np.ndarray:
    cols: list[np.ndarray] = []
    rest = keys.copy()
    for _ in range(k):
        cols.append(rest % m)
        rest //= m
    cols.reverse()
    return np.column_stack(cols)


def _dedup_rows(rows: np.ndarray, m: int) -> np.ndarray:
    """Unique rows in lexicographic order."""
    n, k = rows.shape
    if k == 0:
        return rows[:1]
    if n <= 1:
        return rows
    key = _pack_arrays([rows[:, j] for j in range(k)], m)
    if key is None:
        return np.unique(rows, axis=0)
    return _decode_keys(np.unique(key), k, m)


def _shared_keys(a: np.ndarray, b: np.ndarray, m: int):
    """Comparable integer keys for two row blocks over the same columns."""
    k = a.shape[1]
    ka = _pack_arrays([a[:, j] for j in range(k)], m)
    if ka is not None:
        return ka, _pack_arrays([b[:, j] for j in range(k)], m)
    both = np.vstack([a, b])
    _, inv = np.unique(both, axis=0, return_inverse=True)
    return inv[: a.shape[0]].astype(np.int64), inv[a.shape[0] :].astype(np.int64)


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
        sa = a.rows[:, [a.cols.index(c) for c in shared]]
        sb = b.rows[:, [b.cols.index(c) for c in shared]]
        ka, kb = _shared_keys(sa, sb, ctx.m)
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
    names: list[str] = []
    arrays: list[np.ndarray] = []
    for i, c in enumerate(a.cols):
        names.append(c)
        arrays.append(a.rows[ai, i])
    for i, c in enumerate(b.cols):
        if c not in a.cols:
            names.append(c)
            arrays.append(b.rows[bi, i])
    if not names:
        return _bool_rel(total > 0)
    return _make_rel(tuple(names), arrays)


def _project(ctx: RingContext, rel: Relation, keep: tuple[str, ...]) -> Relation:
    if keep == rel.cols:
        return rel
    if not keep:
        return _bool_rel(rel.nrows > 0)
    idx = [rel.cols.index(c) for c in keep]
    return Relation(keep, _dedup_rows(rel.rows[:, idx], ctx.m))


def _extend(ctx: RingContext, rel: Relation, var: str, node: Formula) -> Relation:
    m = ctx.m
    pos = sum(1 for c in rel.cols if c < var)
    cols = rel.cols[:pos] + (var,) + rel.cols[pos:]
    if rel.nrows == 0:
        return _empty(cols)
    _charge(ctx, rel.nrows * m, node)
    base = np.repeat(rel.rows, m, axis=0)
    col = np.tile(np.arange(m, dtype=np.int64), rel.nrows)
    return Relation(cols, np.insert(base, pos, col, axis=1))


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
    _charge(ctx, total, node)
    present = _pack_arrays([rel.rows[:, j] for j in range(k)], m)
    present = np.sort(present)
    parts = []
    for lo in range(0, total, _CHUNK):
        cand = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        keep = cand[~_member_mask(cand, present)]
        if keep.size:
            parts.append(keep)
    if not parts:
        return _empty(rel.cols)
    return Relation(rel.cols, _decode_keys(np.concatenate(parts), k, m))


def _anti_join(ctx: RingContext, a: Relation, b: Relation) -> Relation:
    """Rows of a absent from b; both over identical columns."""
    if a.nrows == 0 or b.nrows == 0:
        return a
    ka, kb = _shared_keys(a.rows, b.rows, ctx.m)
    mask = ~_member_mask(ka, np.sort(kb))
    return Relation(a.cols, a.rows[mask])


def _group_drop(ctx: RingContext, rel: Relation, v: str):
    """Group rows by all columns except v; returns (cols, groups, counts).

    Without a v column, every row stands for all m values of v."""
    if v not in rel.cols:
        groups = rel.rows if rel.cols else np.zeros((1, 0), dtype=np.int64)
        return rel.cols, groups, np.full(len(groups), ctx.m if rel.nrows else 0)
    V0 = tuple(c for c in rel.cols if c != v)
    if not V0:
        return V0, np.zeros((1, 0), dtype=np.int64), np.array([rel.nrows])
    sub = rel.rows[:, [rel.cols.index(c) for c in V0]]
    key = _pack_arrays([sub[:, j] for j in range(len(V0))], ctx.m)
    if key is None:
        groups, counts = np.unique(sub, axis=0, return_counts=True)
    else:
        uk, counts = np.unique(key, return_counts=True)
        groups = _decode_keys(uk, len(V0), ctx.m)
    return V0, groups, counts


# ---------------------------------------------------------------------------
# terms: polynomials and column evaluation


def _poly_mod(poly: dict, m: int) -> dict:
    """A compiled polynomial's nonzero coefficients reduced mod m."""
    return {e: c % m for e, c in poly.items() if c % m}


def _poly_eval_cols(poly: dict, cols: dict, order: tuple[str, ...], m: int, n: int):
    res = np.zeros(n, dtype=np.int64)
    for exps, coef in sorted(poly.items()):
        term = np.full(n, coef % m, dtype=np.int64)
        for name, e in zip(order, exps):
            for _ in range(e):
                term = (term * cols[name]) % m
        res = (res + term) % m
    return res


def _eval_term_cols(ctx: RingContext, t: Term, cols: dict):
    if isinstance(t, Var):
        return cols[t.name]
    if isinstance(t, Lit):
        return t.value % ctx.m
    a = _eval_term_cols(ctx, t.left, cols)
    b = _eval_term_cols(ctx, t.right, cols)
    if isinstance(t, Add):
        return (a + b) % ctx.m
    return (a * b) % ctx.m


def _atom_mask(ctx: RingContext, atom: Formula, cols: dict, n: int) -> np.ndarray:
    if isinstance(atom, Equal):
        mask = _eval_term_cols(ctx, atom.left, cols) == _eval_term_cols(
            ctx, atom.right, cols
        )
    elif isinstance(atom, Less):
        mask = _eval_term_cols(ctx, atom.left, cols) < _eval_term_cols(
            ctx, atom.right, cols
        )
    else:
        x = _eval_term_cols(ctx, atom.x, cols)
        y = _eval_term_cols(ctx, atom.y, cols)
        z = _eval_term_cols(ctx, atom.z, cols)
        mask = x * y == z
    if np.isscalar(mask) or mask.shape == ():
        mask = np.full(n, bool(mask))
    return mask


# ---------------------------------------------------------------------------
# atom relations


def _grid_rel(ctx: RingContext, atom: _Plan, negate: bool, node: Formula) -> Relation:
    """Scan the full assignment grid of the atom's free variables."""
    fvs = atom.fv
    k = len(fvs)
    m = ctx.m
    total = m**k
    _charge(ctx, total // _SCAN_DISCOUNT + 1, node)
    parts = []
    out = 0
    for lo in range(0, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        cols = {}
        rest = idx
        for name in reversed(fvs):
            cols[name] = rest % m
            rest = rest // m
        mask = _atom_mask(ctx, atom.node, cols, idx.size)
        if negate:
            mask = ~mask
        hit = idx[mask]
        out += hit.size
        _charge(ctx, out, node)
        if hit.size:
            parts.append(hit)
    if not parts:
        return _empty(fvs)
    return Relation(fvs, _decode_keys(np.concatenate(parts), k, m))


def _univar_coeffs(poly: dict, m: int) -> list[int]:
    """Coefficients (ascending) of a one-variable polynomial dict, mod m."""
    deg = max((e[0] for e in poly), default=-1)
    coeffs = [0] * (deg + 1)
    for e, c in poly.items():
        coeffs[e[0]] = c % m
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _linear_solutions(a: int, rhs: np.ndarray, m: int):
    """Per-row solutions v of a*v = rhs (mod m) for scalar a: returns
    (mask of solvable rows, base solution, step, count g)."""
    g = math.gcd(a % m, m)
    mg = m // g
    mask = rhs % g == 0
    inv = pow((a % m) // g, -1, mg) if mg > 1 else 0
    base = ((rhs // g) % mg) * inv % mg if mg > 1 else rhs * 0
    return mask, base, mg, g


def _equal_rel(ctx: RingContext, atom: _Plan, negate: bool, node: Formula) -> Relation:
    m = ctx.m
    fvs = atom.fv
    k = len(fvs)
    poly = _poly_mod(atom.poly, m)
    if k == 1:
        coeffs = _univar_coeffs(poly, m)
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
            return _grid_rel(ctx, atom, negate, node)
        if negate:
            keep = np.ones(m, dtype=bool)
            keep[hits] = False
            _charge(ctx, m, node)
            rows = np.arange(m, dtype=np.int64)[keep]
        else:
            _charge(ctx, len(hits), node)
            rows = hits
        return Relation(fvs, rows.reshape(-1, 1))
    if k == 2 and not negate:
        for vi in (0, 1):
            v, u = fvs[vi], fvs[1 - vi]
            degv = max((e[vi] for e in poly), default=0)
            if degv != 1:
                continue
            a_poly = {(e[1 - vi],): c for e, c in poly.items() if e[vi] == 1}
            b_poly = {(e[1 - vi],): c for e, c in poly.items() if e[vi] == 0}
            if any(e[vi] > 1 for e in poly):
                continue
            if max((e[0] for e in a_poly), default=0) == 0:
                return _linear_const_rel(ctx, a_poly, b_poly, u, v, node)
            return _linear_var_rel(ctx, a_poly, b_poly, u, v, node)
    return _grid_rel(ctx, atom, negate, node)


def _linear_const_rel(ctx, a_poly, b_poly, u, v, node) -> Relation:
    """Pairs (u, v) with a*v + b(u) = 0 (mod m), constant a."""
    m = ctx.m
    a = next(iter(a_poly.values())) % m
    grid = np.arange(m, dtype=np.int64)
    bv = _poly_eval_cols(b_poly, {u: grid}, (u,), m, m)
    rhs = (-bv) % m
    mask, base, step, g = _linear_solutions(a, rhs, m)
    um = grid[mask]
    _charge(ctx, um.size * g, node)
    uu = np.repeat(um, g)
    vv = np.repeat(base[mask], g) + np.tile(
        np.arange(g, dtype=np.int64) * step, um.size
    )
    return _make_rel((u, v), [uu, vv])


def _linear_var_rel(ctx, a_poly, b_poly, u, v, node) -> Relation:
    """Pairs with a(u)*v + b(u) = 0 (mod m); per-u modular solve."""
    m = ctx.m
    if m > _LINEAR_LOOP_CAP:
        raise ResourceLimitError(
            f"per-element congruence solve too large (m={m}) for: {_snip(node)}"
        )
    grid = np.arange(m, dtype=np.int64)
    av = _poly_eval_cols(a_poly, {u: grid}, (u,), m, m)
    bv = _poly_eval_cols(b_poly, {u: grid}, (u,), m, m)
    rhs = (-bv) % m
    g = np.gcd(av, m)
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


def _less_rel(ctx: RingContext, atom: _Plan, negate: bool, node: Formula) -> Relation:
    fvs = atom.fv
    if len(fvs) == 1:
        m = ctx.m
        _charge(ctx, m, node)
        grid = np.arange(m, dtype=np.int64)
        mask = _atom_mask(ctx, atom.node, {fvs[0]: grid}, m)
        if negate:
            mask = ~mask
        return Relation(fvs, grid[mask].reshape(-1, 1))
    return _grid_rel(ctx, atom, negate, node)


_TIMES_TABLE: dict = {"bound": 0, "rows": None}


def _times_size(bound: int) -> int:
    """Rows of the table to bound: pairs x, y >= 1 with x*y < bound."""
    n = bound - 1
    r = math.isqrt(n)
    return 2 * int((n // np.arange(1, r + 1, dtype=np.int64)).sum()) - r * r


def _times_table(ctx: RingContext, m: int, node: Formula) -> np.ndarray:
    """Triples (x, y, x*y) with x, y >= 1 and x*y < m, sorted by product.

    Cached at the largest bound built so far and sliced per modulus.  The
    bound grows geometrically, so a sweep rebuilds rarely, but only as far
    as the tuple budget admits: whether m fits never depends on what ran
    before."""
    if m > _TIMES_TABLE["bound"]:
        lo = m
        hi = min(max(m, 2 * _TIMES_TABLE["bound"], 4096), MAX_MODULUS)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _times_size(mid) <= ctx.tuple_budget:
                lo = mid
            else:
                hi = mid - 1
        bound = lo
        a_range = np.arange(1, bound, dtype=np.int64)
        counts = (bound - 1) // a_range
        total = int(counts.sum())
        _charge(ctx, total, node)
        acol = np.repeat(a_range, counts)
        offsets = np.cumsum(counts) - counts
        bcol = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts) + 1
        ccol = acol * bcol
        order = np.lexsort((acol, ccol))
        _TIMES_TABLE["bound"] = bound
        _TIMES_TABLE["rows"] = np.column_stack([acol, bcol, ccol])[order]
    rows = _TIMES_TABLE["rows"]
    cut = int(np.searchsorted(rows[:, 2], m))
    _charge(ctx, cut, node)
    return rows[:cut]


def _times_rel(ctx: RingContext, atom: _Plan, negate: bool, node: Formula) -> Relation:
    m = ctx.m
    slots = (atom.node.x, atom.node.y, atom.node.z)
    if negate or not all(isinstance(s, (Var, Lit)) for s in slots):
        return _grid_rel(ctx, atom, negate, node)
    vals = [s.value % m if isinstance(s, Lit) else None for s in slots]
    names: list[str] = []
    for s in slots:
        if isinstance(s, Var) and s.name not in names:
            names.append(s.name)
    if len(names) == 1:
        grid = np.arange(m, dtype=np.int64)
        _charge(ctx, m, node)
        cols = [grid if v is None else v for v in vals]
        mask = cols[0] * cols[1] == cols[2]
        return Relation((names[0],), grid[mask].reshape(-1, 1))
    if len(names) == 2:
        return _times_two_var(ctx, slots, vals, node)
    table = _times_table(ctx, m, node)
    _charge(ctx, table.shape[0] + 2 * m, node)
    grid = np.arange(m, dtype=np.int64)
    zeros = np.zeros(m, dtype=np.int64)
    x_col = np.concatenate([table[:, 0], zeros, grid[1:]])
    y_col = np.concatenate([table[:, 1], grid, zeros[1:]])
    z_col = np.concatenate([table[:, 2], zeros, zeros[1:]])
    name_of = {0: slots[0].name, 1: slots[1].name, 2: slots[2].name}
    return _make_rel(
        (name_of[0], name_of[1], name_of[2]), [x_col, y_col, z_col]
    )


def _times_two_var(ctx, slots, vals, node) -> Relation:
    m = ctx.m
    sx, sy, sz = slots
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
    return Relation(rel.cols, _dedup_rows(rel.rows, m))


def _atom_rel(ctx: RingContext, atom: _Plan, negate: bool, node: Formula) -> Relation:
    if not atom.fv:
        return _bool_rel(bool(_atom_mask(ctx, atom.node, {}, 1)[0]) != negate)
    if isinstance(atom.node, Equal):
        return _equal_rel(ctx, atom, negate, node)
    if isinstance(atom.node, Less):
        return _less_rel(ctx, atom, negate, node)
    return _times_rel(ctx, atom, negate, node)


# ---------------------------------------------------------------------------
# filters


@dataclass
class _Filter:
    vars: frozenset
    fn: Callable[[dict], np.ndarray]


def _atom_filter(ctx: RingContext, conj: _Plan) -> _Filter:
    negate = isinstance(conj.node, Not)
    atom = conj.kids[0] if negate else conj

    def fn(cols: dict) -> np.ndarray:
        n = len(next(iter(cols.values())))
        mask = _atom_mask(ctx, atom.node, cols, n)
        return ~mask if negate else mask

    return _Filter(frozenset(atom.fv), fn)


def _count_filter(ctx: RingContext, notq: _Plan) -> _Filter:
    """Filter form of a negated quantifier: per-row witness-count test."""
    q = notq.kids[0].node
    m = ctx.m
    body = eval_rel(ctx, notq.kids[0].kids[0])
    V0, groups, counts = _group_drop(ctx, body, q.var)
    if V0:
        gkeys = _pack_arrays([groups[:, j] for j in range(len(V0))], m)
        if gkeys is None:
            raise ResourceLimitError(
                f"group key width too large for: {_snip(notq.node)}"
            )
        order = np.argsort(gkeys)
        gkeys = gkeys[order]
        gcounts = counts[order]
    else:
        base_count = int(counts[0]) if groups.shape[0] else 0

    def fn(cols: dict) -> np.ndarray:
        n = len(next(iter(cols.values())))
        if V0:
            key = _pack_arrays([cols[c] for c in V0], m)
            idx = np.minimum(np.searchsorted(gkeys, key), max(gkeys.size - 1, 0))
            if gkeys.size:
                found = gkeys[idx] == key
                cnt = np.where(found, gcounts[idx], 0)
            else:
                cnt = np.zeros(n, dtype=np.int64)
        else:
            cnt = np.full(n, base_count, dtype=np.int64)
        if isinstance(q, Exists):
            return cnt == 0
        if isinstance(q, ModExists):
            return cnt % q.modulus != q.residue
        if isinstance(q, Majority):
            return 2 * cnt <= m
        tv = _eval_term_cols(ctx, q.count, cols)
        return cnt < tv

    return _Filter(frozenset(notq.fv), fn)


def _apply_filters(ctx: RingContext, cur: Relation, filters: list[_Filter]) -> Relation:
    rest = []
    for flt in filters:
        if flt.vars <= set(cur.cols):
            if cur.nrows:
                cols = {c: cur.rows[:, i] for i, c in enumerate(cur.cols)}
                cur = Relation(cur.cols, cur.rows[flt.fn(cols)])
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


def _union(*names: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set().union(*names)))


def _compile(formula: Formula) -> tuple[_Plan, int]:
    """The plan of a formula, and the largest literal in it."""
    fresh = itertools.count(1)
    top = 0

    def term(t: Term, names: dict):
        """Renamed term, its variables and its polynomial over sorted
        multisets of variable names."""
        nonlocal top
        if isinstance(t, Var):
            name = names.get(t.name, t.name)
            return Var(name), {name}, {(name,): 1}
        if isinstance(t, Lit):
            top = max(top, t.value)
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

    plan = walk(formula, True, {})
    return plan, top


@functools.lru_cache(maxsize=256)
def _plan(formula: Formula) -> tuple[_Plan, int]:
    """_compile, cached: a sweep compiles its sentence once per process."""
    return _compile(formula)


# ---------------------------------------------------------------------------
# connectives


def _eval_and(
    ctx: RingContext,
    conjuncts: Sequence[_Plan],
    node: Formula,
    target: tuple[str, ...],
) -> Relation:
    rels: list[tuple[Relation, int]] = []
    filters: list[_Filter] = []
    deferred: list[_Plan] = []
    for seq, c in enumerate(conjuncts):
        f = c.node
        if not c.fv:
            if eval_rel(ctx, c).nrows == 0:
                return _empty(target)
            continue
        if isinstance(f, Less) or (
            isinstance(f, Not) and isinstance(f.body, _ATOMS)
        ):
            filters.append(_atom_filter(ctx, c))
            continue
        if (
            isinstance(f, Not)
            or (isinstance(f, Equal) and len(c.fv) >= 3)
            or (
                isinstance(f, IntTimes)
                and len(c.fv) >= 3
                and not all(isinstance(s, (Var, Lit)) for s in (f.x, f.y, f.z))
            )
        ):
            deferred.append(c)
            continue
        rels.append((eval_rel(ctx, c), seq))
    covered = set().union(*(set(r.cols) for r, _ in rels)) if rels else set()
    for c in deferred:
        if set(c.fv) <= covered:
            if isinstance(c.node, Not):
                filters.append(_count_filter(ctx, c))
            else:
                filters.append(_atom_filter(ctx, c))
        else:
            r = eval_rel(ctx, c)
            rels.append((r, len(conjuncts) + len(rels)))
            covered |= set(r.cols)
    if rels:
        rels.sort(key=lambda it: (it[0].nrows, it[1]))
        cur = rels[0][0]
        remaining = rels[1:]
    else:
        cur = _true_rel()
        remaining = []
    cur = _apply_filters(ctx, cur, filters)
    while remaining:
        if cur.nrows == 0:
            return _empty(target)
        best_i = 0
        best_key = None
        for i, (r, seq) in enumerate(remaining):
            shared = len(set(r.cols) & set(cur.cols))
            key = (-shared, r.nrows, seq)
            if best_key is None or key < best_key:
                best_key = key
                best_i = i
        nxt, _ = remaining.pop(best_i)
        cur = _join(ctx, cur, nxt, node)
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
            parts.append(r.rows)
    if not parts:
        return _empty(p.fv)
    total = sum(part.shape[0] for part in parts)
    _charge(ctx, total, p.node)
    return Relation(p.fv, _dedup_rows(np.vstack(parts), ctx.m))


# ---------------------------------------------------------------------------
# quantifiers


def _try_rank(ctx: RingContext, p: _Plan) -> Relation | None:
    """Bodies of shape (v <cmp> u) AND unary-in-v constraints: per-u witness
    counts come from the rank of u in the sorted unary witness set."""
    node = p.node
    v = node.var
    m = ctx.m
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
    for c in others:
        if not set(c.fv) <= {v}:
            return None
    if isinstance(node, CountGE) and not set(p.kids[1].fv) <= {u}:
        return None
    sub = _eval_and(ctx, others, node, target=(v,))
    witnesses = np.sort(sub.rows[:, 0])
    v_below = cmp_atom.left.name == v
    _charge(ctx, m, node)
    if isinstance(node, Exists):
        if witnesses.size == 0:
            return _empty((u,))
        if v_below:
            lo = int(witnesses[0]) + 1
            rows = np.arange(lo, m, dtype=np.int64)
        else:
            rows = np.arange(0, int(witnesses[-1]), dtype=np.int64)
        return Relation((u,), rows.reshape(-1, 1))
    grid = np.arange(m, dtype=np.int64)
    if v_below:
        cnt = np.searchsorted(witnesses, grid, side="left")
    else:
        cnt = witnesses.size - np.searchsorted(witnesses, grid, side="right")
    if isinstance(node, ModExists):
        mask = cnt % node.modulus == node.residue
    elif isinstance(node, Majority):
        mask = 2 * cnt > m
    else:
        tv = _eval_term_cols(ctx, node.count, {u: grid})
        mask = cnt >= tv
    return Relation((u,), grid[mask].reshape(-1, 1))


def _try_linear_exists(ctx: RingContext, p: _Plan) -> Relation | None:
    """Exists v over a single linear-in-v equation: solvability is a gcd
    divisibility test, vectorized over the remaining variable."""
    body = p.kids[0]
    if not isinstance(body.node, Equal):
        return None
    fvs = body.fv
    v = p.node.var
    if v not in fvs or len(fvs) > 2:
        return None
    m = ctx.m
    poly = _poly_mod(body.poly, m)
    vi = fvs.index(v)
    if max((e[vi] for e in poly), default=0) != 1:
        return None
    a_poly = {(e[1 - vi] if len(fvs) == 2 else 0,): c for e, c in poly.items() if e[vi] == 1}
    b_poly = {(e[1 - vi] if len(fvs) == 2 else 0,): c for e, c in poly.items() if e[vi] == 0}
    if len(fvs) == 1:
        a = sum(c for c in a_poly.values()) % m
        b = sum(c for c in b_poly.values()) % m
        return _bool_rel((-b) % m % math.gcd(a, m) == 0)
    u = fvs[1 - vi]
    grid = np.arange(m, dtype=np.int64)
    _charge(ctx, m, p.node)
    av = _poly_eval_cols(a_poly, {u: grid}, (u,), m, m)
    bv = _poly_eval_cols(b_poly, {u: grid}, (u,), m, m)
    g = np.gcd(av, m)
    mask = ((-bv) % m) % g == 0
    return Relation((u,), grid[mask].reshape(-1, 1))


def _eval_quant(ctx: RingContext, p: _Plan) -> Relation:
    node = p.node
    m = ctx.m
    v = node.var
    rank = _try_rank(ctx, p)
    if rank is not None:
        return rank
    if isinstance(node, Exists):
        short = _try_linear_exists(ctx, p)
        if short is not None:
            return short
    body = eval_rel(ctx, p.kids[0])
    if isinstance(node, Exists):
        if v not in body.cols:
            return body
        return _project(ctx, body, tuple(c for c in body.cols if c != v))
    V0, groups, counts = _group_drop(ctx, body, v)
    if isinstance(node, ModExists):
        if node.residue != 0:
            return Relation(V0, groups[counts % node.modulus == node.residue])
        fail = Relation(V0, groups[counts % node.modulus != 0])
        return _complement(ctx, fail, node)
    if isinstance(node, Majority):
        return Relation(V0, groups[2 * counts > m])
    return _eval_count_ge(ctx, p, V0, groups, counts)


def _eval_count_ge(ctx: RingContext, p: _Plan, V0, groups, counts) -> Relation:
    node = p.node
    m = ctx.m
    t = node.count
    zero = p.kids[1]
    tf = zero.fv
    if not tf:
        val = _eval_term_cols(ctx, t, {})
        if val == 0:
            return _complement(ctx, _empty(V0), node)
        return Relation(V0, groups[counts >= val])
    if set(tf) <= set(V0):
        cols = {c: groups[:, i] for i, c in enumerate(V0)}
        tv = _eval_term_cols(ctx, t, cols)
        present_pass = groups[counts >= tv]
        zero_rel = _atom_rel(ctx, zero, False, node)
        zero_full = _extend_to(ctx, zero_rel, V0, node)
        zero_full = _project(ctx, zero_full, V0)
        absent = _anti_join(ctx, zero_full, Relation(V0, groups))
        _charge(ctx, present_pass.shape[0] + absent.nrows, node)
        return Relation(V0, np.vstack([present_pass, absent.rows]))
    if set(tf) & set(V0):
        return _count_ge_overlap(ctx, p, V0, groups, counts)
    # count term over fresh variables: per-group prefix of sorted term values
    total_t = m ** len(tf)
    _charge(ctx, total_t, node)
    tidx = np.arange(total_t, dtype=np.int64)
    tcols = {}
    rest = tidx
    for name in reversed(tf):
        tcols[name] = rest % m
        rest = rest // m
    trows = np.column_stack([tcols[name] for name in tf])
    tvals = _eval_term_cols(ctx, t, tcols)
    if np.isscalar(tvals):
        tvals = np.full(total_t, tvals, dtype=np.int64)
    order = np.argsort(tvals, kind="stable")
    tv_sorted = tvals[order]
    k_per = np.searchsorted(tv_sorted, counts, side="right")
    total = int(k_per.sum())
    _charge(ctx, total, node)
    gi = np.repeat(np.arange(groups.shape[0]), k_per)
    offs = np.arange(total) - np.repeat(np.cumsum(k_per) - k_per, k_per)
    ti = order[offs]
    names = tuple(V0) + tuple(tf)
    arrays = [groups[gi, j] for j in range(len(V0))] + [
        trows[ti, j] for j in range(len(tf))
    ]
    part1 = _make_rel(names, arrays)
    comp = _complement(ctx, Relation(V0, groups), node)
    zrows = trows[tvals == 0]
    _charge(ctx, comp.nrows * zrows.shape[0], node)
    if comp.nrows and zrows.shape[0]:
        a2 = [np.repeat(comp.rows[:, j], zrows.shape[0]) for j in range(len(V0))]
        a2 += [np.tile(zrows[:, j], comp.nrows) for j in range(len(tf))]
        part2 = _make_rel(names, a2)
        rows = np.vstack([part1.rows, part2.rows])
    else:
        rows = part1.rows
    return Relation(p.fv, rows)


def _count_ge_overlap(ctx, p: _Plan, V0, groups, counts) -> Relation:
    """Count term shares variables with the group columns; enumerate the
    fresh ones densely."""
    node = p.node
    m = ctx.m
    ex = [c for c in p.kids[1].fv if c not in V0]
    n_ex = m ** len(ex)
    present = Relation(V0, groups)
    comp = _complement(ctx, present, node)
    parts = []
    for block, cnts in ((present, counts), (comp, np.zeros(comp.nrows, np.int64))):
        if block.nrows == 0:
            continue
        _charge(ctx, block.nrows * n_ex, node)
        cols = {
            c: np.repeat(block.rows[:, i], n_ex) for i, c in enumerate(V0)
        }
        rest = np.tile(np.arange(n_ex, dtype=np.int64), block.nrows)
        for name in reversed(ex):
            cols[name] = rest % m
            rest = rest // m
        tv = _eval_term_cols(ctx, node.count, cols)
        crep = np.repeat(cnts, n_ex)
        mask = crep >= tv
        if mask.any():
            parts.append(
                np.column_stack([cols[c] for c in p.fv])[mask]
            )
    if not parts:
        return _empty(p.fv)
    return Relation(p.fv, np.vstack(parts))


# ---------------------------------------------------------------------------
# dispatch and public API


def eval_rel(ctx: RingContext, p: _Plan) -> Relation:
    """Evaluate a plan to its satisfying-assignment relation."""
    f = p.node
    if isinstance(f, _ATOMS):
        return _atom_rel(ctx, p, False, f)
    if isinstance(f, Not):
        if isinstance(f.body, _ATOMS):
            return _atom_rel(ctx, p.kids[0], True, f)
        return _complement(ctx, eval_rel(ctx, p.kids[0]), f)
    if isinstance(f, And):
        return _eval_and(ctx, p.kids, f, p.fv)
    if isinstance(f, Or):
        return _eval_or(ctx, p)
    return _eval_quant(ctx, p)


def _run(ctx: RingContext, formula: Formula) -> Relation:
    plan, top = _plan(formula)
    if ctx.strict_literals and top >= ctx.m:
        warnings.warn(
            f"literal {top} reduced modulo {ctx.m}", RuntimeWarning, stacklevel=3
        )
    return eval_rel(ctx, plan)


def eval_fast(ctx: RingContext, formula: Formula) -> Relation:
    """Satisfying assignments of a formula over its free variables, with
    columns sorted by name and rows in lexicographic order."""
    rel = _run(ctx, formula)
    return Relation(rel.cols, _dedup_rows(rel.rows, ctx.m))


def eval_fast_bool(ctx: RingContext, sentence: Formula) -> bool:
    rel = _run(ctx, sentence)
    if rel.cols:
        raise ValueError("sentence has free variables")
    return rel.nrows > 0
