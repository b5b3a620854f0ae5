"""Evaluation of a sentence at a block of primes in one relational pass.

A sweep over primes (spectra.spectrum) evaluates a run of them together
when _KERNELS has a block kernel for the tag (fastengine._tag) of every
node the pass evaluates (covers).  Each prime is a lane: every block
relation carries a lane column, the index of its prime, as its first row,
and its values in lane i lie in [0, p_i).  Joins, dedup,
projection and grouping are fastengine's own, keyed on the lane as one more
column, so keys pack base max(p) with the lane as their most significant
digit; one-variable grids are ragged, arange(p_i) for each lane in turn;
coefficients and literals are reduced per lane.  A conjunction drops the
lanes where a ground conjunct fails before it goes on, and joins each lane
in the order its prime alone would (fastengine._next_join).  This is
vectorised execution in the sense of Boncz, Zukowski and Nes,
"MonetDB/X100: Hyper-Pipelining Query Execution" (CIDR 2005).

Every plan that covers refuses, and every block that runs out of tuple
budget, is evaluated one prime at a time by fastengine.eval_rel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arith import eval_mod_array, reduce_mod
from .errors import InvariantError
from .evaluate import RingContext
from .fastengine import (
    _SCAN_DISCOUNT,
    Relation,
    _apply_filters,
    _atom_filter,
    _atom_mask,
    _atom_of,
    _charge,
    _dedup,
    _empty,
    _Filter,
    _group_drop,
    _join,
    _linear_body,
    _linear_pair,
    _make_rel,
    _next_join,
    _Plan,
    _project,
    _snip,
    _univar_coeffs,
    _values,
)
from .logic import Formula

# the lane column: "" sorts before every variable name, so the lane is the
# first column of a block relation and the most significant digit of its keys
_LANE = ""


@dataclass(eq=False)
class _Block:
    """Primes evaluated together.  Lane i is the prime p[i]; ctx, of modulus
    max(p), is the base of the block's keys and carries its budget.

    A block relation has the lane as its first column, and its values in
    lane i lie in [0, p[i]); a relation over no variable is the set of
    lanes at which it holds."""

    p: np.ndarray
    ctx: RingContext
    inverses: dict = field(default_factory=dict)

    def moduli(self, cols: dict) -> np.ndarray:
        return self.p[cols[_LANE]]

    def inverse(self, c: int) -> np.ndarray:
        """c^-1 mod each lane's prime, 0 where it divides c; once per block."""
        if c not in self.inverses:
            self.inverses[c] = np.array(
                [pow(c, -1, q) if c % q else 0 for q in self.p.tolist()], dtype=np.int64
            )
        return self.inverses[c]


def _lane_set(lanes: np.ndarray) -> Relation:
    return Relation((_LANE,), lanes.reshape(1, -1))


def _lane_mask(blk: _Block, lanes: np.ndarray) -> np.ndarray:
    keep = np.zeros(blk.p.size, dtype=bool)
    keep[lanes] = True
    return keep


def _restrict(rel: Relation, keep: np.ndarray) -> Relation:
    """The rows of rel in the lanes that the mask keep sets."""
    return Relation(rel.cols, np.compress(keep[rel.data[0]], rel.data, axis=1))


def _lane_coeffs(poly: dict, p: np.ndarray) -> list[np.ndarray]:
    """Ascending coefficients of a one-variable polynomial, each reduced
    mod every lane's prime."""
    return [reduce_mod(c, p) for c in _univar_coeffs(poly)]


def _lane_values(blk: _Block, poly: dict, lane: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A one-variable polynomial's values at the rows (lane, x), by _values;
    a constant is reduced once per lane and gathered."""
    if poly.keys() <= {(0,)}:
        return reduce_mod(poly.get((0,), 0), blk.p)[lane]
    return _values(poly, x, blk.p[lane])


def _block_extend(blk: _Block, rel: Relation, var: str, node: Formula) -> Relation:
    """rel with var added, ranging over [0, p) in each row's lane: the
    ragged grid of the lanes when rel is a lane set."""
    sizes = blk.p[rel.data[0]]
    total = int(sizes.sum())
    _charge(blk.ctx, total, node)
    pos = sum(1 for c in rel.cols if c < var)
    cols = rel.cols[:pos] + (var,) + rel.cols[pos:]
    data = np.empty((len(cols), total), dtype=np.int64)
    for i, col in zip([i for i in range(len(cols)) if i != pos], rel.data):
        data[i] = np.repeat(col, sizes)
    data[pos] = np.arange(total)
    data[pos] -= np.repeat(np.cumsum(sizes) - sizes, sizes)
    return Relation(cols, data)


def _block_complement(
    blk: _Block, lanes: np.ndarray, rel: Relation, node: Formula
) -> Relation:
    """The assignments over rel.cols, the lane and at most one variable, that
    rel lacks in each lane of lanes: lanes, or cells of their ragged grid."""
    if len(rel.cols) == 1:
        return _lane_set(lanes[~_lane_mask(blk, rel.data[0])[lanes]])
    # a flag per cell of the ragged grid, cell start[lane] + x
    ends = np.cumsum(blk.p[lanes])
    start = np.zeros(blk.p.size, dtype=np.int64)
    start[lanes] = ends - blk.p[lanes]
    total = int(ends[-1]) if lanes.size else 0
    _charge(blk.ctx, total, node)
    keep = np.ones(total, dtype=bool)
    keep[start[rel.data[0]] + rel.data[1]] = False
    cells = np.flatnonzero(keep)
    lane = lanes[np.searchsorted(ends, cells, side="right")]
    return Relation(rel.cols, np.array([lane, cells - start[lane]]))


def _block_scan(blk: _Block, lanes: np.ndarray, p: _Plan) -> Relation:
    """An atom over at most one variable by a scan of its ragged grid: the
    lanes themselves for a ground atom."""
    atom, negate = _atom_of(p)
    grid = _lane_set(lanes)
    for var in atom.fv:
        grid = _block_extend(blk, grid, var, p.node)
    cols = dict(zip(grid.cols, grid.data))
    mask = _atom_mask(blk.moduli(cols), atom.node, cols, grid.nrows)
    return Relation(grid.cols, np.compress(mask != negate, grid.data, axis=1))


def _block_univar(blk: _Block, lanes: np.ndarray, plan: _Plan) -> Relation:
    """A one-variable equation in each lane, by the degree of its polynomial
    mod the lane's prime: the zero polynomial holds at every residue, a
    nonzero constant at none, a linear one at the root -b/a, and one of
    higher degree where Horner over all residues finds it zero."""
    atom, negate = _atom_of(plan)
    node = plan.node
    p = blk.p
    coeffs = _lane_coeffs(atom.poly, p)
    deg = np.full(p.size, -1)
    for e, c in enumerate(coeffs):
        deg[c != 0] = e
    deg = deg[lanes]
    parts = [np.zeros((2, 0), dtype=np.int64)]
    lin = lanes[deg == 1]
    if lin.size:
        roots = (p[lin] - coeffs[0][lin]) * blk.inverse(atom.poly[(1,)])[lin] % p[lin]
        parts.append(np.array([lin, roots]))
    full = lanes[deg == -1]
    if full.size:
        parts.append(_block_extend(blk, _lane_set(full), atom.fv[0], node).data)
    scan = lanes[deg >= 2]
    if scan.size:
        _charge(blk.ctx, int((p[scan] // _SCAN_DISCOUNT + 1).sum()), node)
        grid = _block_extend(blk, _lane_set(scan), atom.fv[0], node)
        lane, x = grid.data
        values = eval_mod_array(_univar_coeffs(atom.poly), x, p[lane])
        parts.append(np.compress(values == 0, grid.data, axis=1))
    # one part is taken as it is: the grid of a polynomial zero everywhere
    data = parts[-1] if len(parts) == 2 else np.concatenate(parts, axis=1)
    rel = Relation((_LANE, atom.fv[0]), data)
    if negate:
        return _block_complement(blk, lanes, rel, node)
    _charge(blk.ctx, rel.nrows, node)
    return rel


def _block_linear_const(blk: _Block, lanes: np.ndarray, atom: _Plan) -> Relation:
    """Pairs (u, v) with a*v + b(u) = 0 for a constant a: v = -b(u)/a for
    every u and, in lanes whose prime divides a, every v at each root of b."""
    node = atom.node
    vi, a_poly, b_poly = _linear_pair(atom.poly)
    u, v = atom.fv[1 - vi], atom.fv[vi]
    p = blk.p
    a = reduce_mod(a_poly[(0,)], p)
    grid = _block_extend(blk, _lane_set(lanes), u, node)
    lane, uu = grid.data
    m = p[lane]
    bv = _lane_values(blk, b_poly, lane, uu)
    # v = b(u) * (-1/a), the sign folded into each lane's inverse
    neg_inv = (p - blk.inverse(a_poly[(0,)])) % p
    rel = _make_rel((_LANE, u, v), [lane, uu, bv * neg_inv[lane] % m])
    free = lanes[a[lanes] == 0]
    if free.size:
        # alone, such a prime may scan the grid of (u, v)
        _charge(blk.ctx, int(p[free].max()) ** 2, node)
        solved = a[lane] != 0
        roots = np.compress(~solved & (bv == 0), grid.data, axis=1)
        free_v = _block_extend(blk, Relation(grid.cols, roots), v, node)
        data = np.concatenate([np.compress(solved, rel.data, axis=1), free_v.data], axis=1)
        rel = Relation(rel.cols, data)
    _charge(blk.ctx, rel.nrows, node)
    return rel


def _block_linear_exists(blk: _Block, lanes: np.ndarray, p: _Plan) -> Relation:
    """E v. a(u)*v + b(u) = 0: solvable at u unless a(u) = 0 and b(u) != 0
    mod the lane's prime."""
    body = p.kids[0]
    a_poly, b_poly = _linear_body(p)
    u = body.fv[1 - body.fv.index(p.node.var)]
    a = _lane_coeffs(a_poly, blk.p)
    vanish = lanes[~np.any([c[lanes] for c in a], axis=0)]
    if vanish.size:
        # alone, such a prime evaluates the equation itself
        _charge(blk.ctx, int(blk.p[vanish].max()) ** 2, p.node)
    grid = _block_extend(blk, _lane_set(lanes), u, p.node)
    lane, x = grid.data
    solvable = _lane_values(blk, a_poly, lane, x) != 0
    solvable |= _lane_values(blk, b_poly, lane, x) == 0
    return Relation(grid.cols, np.compress(solvable, grid.data, axis=1))


def _block_joins(
    blk: _Block, cur: Relation, rels: list[Relation], filters: list[_Filter], node: Formula
) -> list[tuple[Relation, list[_Filter]]]:
    """Join rels, in conjunct order, into cur as _eval_and does, each lane
    taking next the relation its prime alone would take (_next_join); lanes
    whose picks differ are joined apart.  Returns (joined, filters left) per
    set of lanes."""
    cur = _apply_filters(blk.ctx, cur, filters)
    if not rels or cur.nrows == 0:
        return [(cur, filters)]
    lanes = np.flatnonzero(_lane_mask(blk, cur.data[0]))

    def rows(r: Relation) -> np.ndarray:
        return np.bincount(r.data[0], minlength=blk.p.size)[lanes]

    pick = np.broadcast_to(_next_join(cur.cols, rels, rows), lanes.shape)
    picks = np.unique(pick)
    out = []
    for j in picks:
        keep = _lane_mask(blk, lanes[pick == j])
        part = (lambda r: r) if picks.size == 1 else (lambda r: _restrict(r, keep))
        nxt = part(rels[j])
        joined = nxt if cur.cols == (_LANE,) else _join(blk.ctx, part(cur), nxt, node)
        rest = [part(r) for i, r in enumerate(rels) if i != j]
        out += _block_joins(blk, joined, rest, list(filters), node)
    return out


def _block_and(blk: _Block, lanes: np.ndarray, p: _Plan) -> Relation:
    node, target = p.node, p.fv
    rels = []
    filters = []
    for kind, c in p.steps:
        if kind == "ground":
            # lanes where a ground conjunct fails go no further, as primes do
            lanes = lanes[_lane_mask(blk, _block_rel(blk, lanes, c).data[0])[lanes]]
            if not lanes.size:
                return _empty((_LANE,) + target)
        elif kind == "filter":
            filters.append(_atom_filter(c, blk.moduli))
        else:
            rels.append(_block_rel(blk, lanes, c))
    keep = _lane_mask(blk, lanes)
    rels = [_restrict(r, keep) for r in rels]
    parts = [np.zeros((1 + len(target), 0), dtype=np.int64)]
    for cur, left in _block_joins(blk, _lane_set(lanes), rels, filters, node):
        if cur.nrows == 0:
            continue
        for var in target:
            if var not in cur.cols:
                cur = _block_extend(blk, cur, var, node)
                cur = _apply_filters(blk.ctx, cur, left)
        if left:
            raise InvariantError(f"unapplied filters in conjunction: {_snip(node)}")
        parts.append(cur.data)
    return Relation((_LANE,) + target, np.concatenate(parts, axis=1))


def _block_or(blk: _Block, lanes: np.ndarray, p: _Plan) -> Relation:
    parts = []
    for d in p.kids:
        r = _block_rel(blk, lanes, d)
        for var in p.fv:
            if var not in r.cols:
                r = _block_extend(blk, r, var, p.node)
        parts.append(r.data)
    data = np.concatenate(parts, axis=1)
    _charge(blk.ctx, data.shape[1], p.node)
    return Relation((_LANE,) + p.fv, _dedup(data, blk.ctx.m))


def _block_project(blk: _Block, lanes: np.ndarray, p: _Plan) -> Relation:
    """E var.: the projection of its body's relation that drops var."""
    rel = _block_rel(blk, lanes, p.kids[0])
    var = p.node.var
    if var not in rel.cols:
        return rel
    if len(rel.cols) == 2:
        return _lane_set(np.flatnonzero(_lane_mask(blk, rel.data[0])))
    return _project(blk.ctx, rel, tuple(c for c in rel.cols if c != var))


def _block_mod_exists(blk: _Block, lanes: np.ndarray, p: _Plan) -> Relation:
    """E[r,q] var.: witness counts per lane and group of the other variables
    in its body's relation."""
    rel = _block_rel(blk, lanes, p.kids[0])
    f = p.node
    if rel.cols == (_LANE, f.var):
        counts = np.bincount(rel.data[0], minlength=blk.p.size)
        V0, groups, counts = (_LANE,), np.flatnonzero(counts)[None], counts[counts > 0]
    elif f.var in rel.cols:
        V0, groups, counts = _group_drop(blk.ctx, rel, f.var)
    else:
        # every row stands for all p values of var
        V0, groups, counts = rel.cols, rel.data, blk.p[rel.data[0]]
    hit = counts % f.modulus == f.residue
    if f.residue:
        return Relation(V0, np.compress(hit, groups, axis=1))
    return _block_complement(blk, lanes, Relation(V0, np.compress(~hit, groups, axis=1)), f)


# the block kernel of each tag that has one (fastengine._tag).  A "filter"
# step of a conjunction is a row mask in both engines and needs no kernel; a
# "count" step (fastengine._count_filter) has no block kernel.
_KERNELS = {
    "ground": _block_scan,
    "univariate": _block_univar,
    "linear const": _block_linear_const,
    "scan": _block_scan,
    "and": _block_and,
    "or": _block_or,
    "complement": lambda blk, lanes, p: _block_complement(
        blk, lanes, _block_rel(blk, lanes, p.kids[0]), p.node
    ),
    "linear exists": _block_linear_exists,
    "projection": _block_project,
    "mod count": _block_mod_exists,
}


def _block_rel(blk: _Block, lanes: np.ndarray, p: _Plan) -> Relation:
    """The relation of a plan at each lane of lanes, over the lane and
    p.fv; lanes is an increasing array of lane indices."""
    return _KERNELS[p.tag](blk, lanes, p)


def covers(p: _Plan) -> bool:
    """Whether eval_block can evaluate p: whether p and every node whose
    relation its kernel evaluates have block kernels.  The linear-exists
    kernel reads its body's polynomial, not its relation."""
    if p.tag == "and":
        return all(kind == "filter" or (kind != "count" and covers(c)) for kind, c in p.steps)
    return p.tag in _KERNELS and (p.tag == "linear exists" or all(map(covers, p.kids)))


def eval_block(plan: _Plan, primes, ctx: RingContext) -> np.ndarray:
    """The truth of a sentence's plan at each of a block of primes, in one
    relational pass: every relation carries a lane column, the index of its
    prime, and joins, dedup, projection and grouping key on the lane as well.
    The plan must be one that covers accepts; ctx, of modulus max(primes),
    carries the tuple budget and records the pass's largest relation in
    ctx.peak_rows.

    Lanes are always primes, so a kernel may invert any coefficient that is
    nonzero mod its lane's prime.  Wherever a prime alone would charge the
    tuple budget, the block charges at least as much, so the block raises
    ResourceLimitError whenever one of its primes alone would, and perhaps
    more often; the caller then evaluates the primes one at a time."""
    p = np.asarray(primes, dtype=np.int64)
    out = np.zeros(p.size, dtype=bool)
    out[_block_rel(_Block(p, ctx), np.arange(p.size), plan).data[0]] = True
    return out
