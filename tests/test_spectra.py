"""Spectrum computation, Boolean algebra on spectra, and classification."""

import math
import random
import sys

import numpy as np
import pytest

from ringspectra import blockengine, evaluate, fastengine, spectra, verify
from ringspectra.arith import IntPolynomial, cyclotomic, poly_roots_mod, sieve
from ringspectra.constructions import FAMILIES, congruence_sentence, cyclotomic_sentence
from ringspectra.errors import (
    DegenerateInputError,
    ResourceLimitError,
    RingSpectraError,
)
from ringspectra.evaluate import DEFAULT_TUPLE_BUDGET, RingContext
from ringspectra.logic import formula_to_text, parse_sentence, random_sentence
from ringspectra.spectra import (
    CongruenceClass,
    Spectrum,
    almost_equal,
    class_spectrum,
    complement,
    exceptional_moduli,
    fit_congruences,
    from_members,
    intersection,
    lagarias_in_B,
    poly_spectrum,
    resolve_workers,
    spectrum,
    union,
)

X2P1 = IntPolynomial((1, 0, 1))  # x^2 + 1
X2M2 = IntPolynomial((-2, 0, 1))  # x^2 - 2


def test_quadratic_spectrum_small_bound():
    s = spectrum(parse_sentence("E x. (x * x + 1 = 0)"), 100)
    assert s.members() == [2, 5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    assert poly_spectrum(X2P1, 100) == s


def test_trivial_sentences():
    assert spectrum(parse_sentence("0 = 0"), 50).count() == 15
    assert spectrum(parse_sentence("!(0 = 0)"), 50).count() == 0


def test_poly_and_sentence_paths_agree():
    texts = {
        X2P1: "E x. (x * x + 1 = 0)",
        X2M2: "E x. (x * x = 2)",
        IntPolynomial((-2, 0, 0, 1)): "E x. (x * x * x = 2)",
        cyclotomic(5): "E x. (x*x*x*x + x*x*x + x*x + x + 1 = 0)",
    }
    for f, text in texts.items():
        assert poly_spectrum(f, 500) == spectrum(parse_sentence(text), 500)


def test_linear_poly_always_has_root():
    s = poly_spectrum(IntPolynomial((-5, 1)), 30)
    assert s.members() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sqrt_minus_two_spectrum():
    assert poly_spectrum(X2M2, 50).members() == [2, 7, 17, 23, 31, 41, 47]


def test_quadratic_residue_congruence_structure():
    f = poly_spectrum(X2P1, 10_000)
    target = class_spectrum(4, [1], 10_000) | from_members([2], 10_000)
    assert almost_equal(f, target).exceptions == ()

    g = poly_spectrum(X2M2, 10_000)
    target = class_spectrum(8, [1, 7], 10_000) | from_members([2], 10_000)
    assert almost_equal(g, target).exceptions == ()


def test_boolean_combination_carves_residue_class():
    f = poly_spectrum(X2P1, 10_000)
    g = poly_spectrum(X2M2, 10_000)
    mix = intersection(complement(g), f)
    rep = almost_equal(mix, class_spectrum(8, [5], 10_000), threshold=2)
    assert rep.plausible
    assert set(rep.exceptions) <= {2}


def test_boolean_algebra_identities():
    s = poly_spectrum(X2P1, 300)
    assert union(s, complement(s)).count() == len(s.table)
    assert intersection(s, complement(s)).count() == 0
    with pytest.raises(ValueError):
        union(s, poly_spectrum(X2P1, 200))


def test_almost_equal_reflexive_and_reports():
    s = poly_spectrum(X2P1, 200)
    rep = almost_equal(s, s)
    assert rep.exceptions == () and rep.largest is None and rep.plausible

    f6 = poly_spectrum(cyclotomic(6), 10_000)
    rep = almost_equal(f6, class_spectrum(6, [1], 10_000), threshold=3)
    assert rep.exceptions == (3,)
    assert rep.largest == 3
    assert rep.plausible
    assert not almost_equal(f6, class_spectrum(6, [1], 10_000)).plausible


def test_cyclotomic_spectra_contain_unit_class():
    for n in (3, 4, 5, 8, 12):
        fn = poly_spectrum(cyclotomic(n), 2_000)
        rep = almost_equal(class_spectrum(n, [1], 2_000), fn, threshold=n)
        assert rep.left_only == ()  # class inside spectrum, no exceptions
        for p in rep.right_only:
            assert n % p == 0


def test_schur_style_infinitude_evidence():
    for f in (X2P1, X2M2, IntPolynomial((-2, 0, 0, 1)), cyclotomic(5)):
        assert poly_spectrum(f, 10_000).count() >= 100


def test_lagarias_criterion():
    assert lagarias_in_B(5, 8) is True
    assert lagarias_in_B(2, 5) is False
    assert lagarias_in_B(1, 7) is True
    assert lagarias_in_B(4, 6) is True  # shares a factor with 6
    with pytest.raises(ValueError):
        lagarias_in_B(5, 5)
    with pytest.raises(ValueError):
        lagarias_in_B(0, 5)


def test_exceptional_moduli_frozen_list():
    assert exceptional_moduli(30) == [1, 2, 3, 4, 6, 8, 12, 24]
    assert exceptional_moduli(5) == [1, 2, 3, 4]
    assert 9 not in exceptional_moduli(30)  # 2^2 = 4 != 1 mod 9


def test_lagarias_consistent_with_exceptional_moduli():
    special = set(exceptional_moduli(30))
    for d in range(2, 31):
        all_classes_ok = all(lagarias_in_B(a, d) for a in range(1, d))
        assert all_classes_ok == (d in special)


def test_fit_congruences_quadratic_example():
    f = poly_spectrum(X2P1, 10_000)
    fits = {cls.modulus: cls.residues for cls, _ in fit_congruences(f, 8)}
    assert fits == {4: (1,), 8: (1, 5)}
    for cls, rep in fit_congruences(f, 8):
        assert rep.plausible  # detected classes explain everything above cutoff


def test_fit_congruences_full_set_and_interval_set():
    everything = Spectrum(2_000, np.ones(303, dtype=bool))
    for cls, rep in fit_congruences(everything, 6):
        want = tuple(a for a in range(1, cls.modulus) if math.gcd(a, cls.modulus) == 1)
        assert cls.residues == want
        assert rep.plausible

    table = sieve(10_000)
    interval = from_members(
        [int(p) for p in table.primes if 100 < p < 200], 10_000
    )
    assert fit_congruences(interval, 12) == []


def test_spectrum_determinism_across_workers():
    s = parse_sentence("E x. (x * x + 1 = 0)")
    assert spectrum(s, 2_000, workers=1) == spectrum(s, 2_000, workers=3)


def test_worker_resolution(monkeypatch):
    monkeypatch.delenv("RINGSPECTRA_WORKERS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(4) == 4
    monkeypatch.setenv("RINGSPECTRA_WORKERS", "6")
    assert resolve_workers() == 6
    assert resolve_workers(2) == 2  # explicit argument wins
    monkeypatch.setenv("RINGSPECTRA_WORKERS", "zero")
    with pytest.raises(ValueError):
        resolve_workers()
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_spectrum_error_names_offending_prime():
    hard = parse_sentence("E x. E y. E z. (x + y = z & x < y & y < z)")
    with pytest.raises(ResourceLimitError) as exc:
        spectrum(hard, 500, tuple_budget=900)
    assert "at prime" in str(exc.value)


def test_spectrum_error_names_the_same_prime_at_any_worker_count():
    # every chunk from the one holding 449 on fails; the error raised is
    # that of the first chunk in prime order, not of the first to fail
    s = parse_sentence("E x. E y. !((x + (2 * y)) = 1)")
    messages = []
    for workers in (1, 2):
        with pytest.raises(ResourceLimitError) as exc:
            spectrum(s, 3000, workers=workers, tuple_budget=200_000)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and messages[0].endswith("(at prime 449)")


def test_validation_errors():
    with pytest.raises(DegenerateInputError):
        poly_spectrum(IntPolynomial((7,)), 100)
    with pytest.raises(ValueError):
        spectrum(parse_sentence("0 = 0"), 1)
    with pytest.raises(ValueError):
        Spectrum(100, np.ones(7, dtype=bool))
    with pytest.raises(ValueError):
        CongruenceClass(4, ())
    with pytest.raises(ValueError):
        CongruenceClass(4, (5,))
    with pytest.raises(ValueError):
        CongruenceClass(1, (0,))


def test_membership_and_counts():
    s = from_members([5, 13, 17], 100)
    assert 13 in s and 7 not in s and 99 not in s
    assert s.counts_up_to([4, 5, 13, 100]) == [0, 1, 2, 3]
    assert s.members() == [5, 13, 17]
    assert class_spectrum(6, (1, 4), 50).members() == [7, 13, 19, 31, 37, 43]


def test_poly_spectrum_counts_vanishing_reduction_as_member():
    # leading coefficients divisible by p collapse the polynomial mod p
    f = IntPolynomial((6, 0, 6))  # 6x^2 + 6 vanishes identically mod 2 and 3
    s = poly_spectrum(f, 30)
    assert 2 in s and 3 in s
    assert (5 in s) == bool(poly_roots_mod(IntPolynomial((1, 0, 1)), 5))


def test_default_spectrum_never_calls_the_reference_evaluator(monkeypatch):
    s = cyclotomic_sentence(20)
    calls = []
    original = evaluate.eval_naive

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # the package reaches the reference evaluator only through evaluate
    monkeypatch.setattr(evaluate, "eval_naive", counting)
    assert not hasattr(fastengine, "eval_naive")
    sp = spectrum(s, 500, workers=1)
    assert calls == []
    naive = [evaluate.eval_sentence(s, int(p), engine="naive") for p in sp.table.primes]
    assert len(calls) >= len(naive) > 0  # the wrapper does see reference calls
    assert sp.bits.tolist() == naive


def _recording(monkeypatch, calls, *targets):
    """Replace each (module, name) by one wrapper that records its calls."""
    original = getattr(*targets[0])

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    for module, name in targets:
        monkeypatch.setattr(module, name, wrapper)


def test_sweep_compiles_the_sentence_once(monkeypatch):
    s = congruence_sentence(5, 12)
    monkeypatch.setattr(fastengine, "_PLANS", {})
    compiled, checked, looked_up = [], [], []
    _recording(monkeypatch, compiled, (fastengine, "_compile"))
    _recording(monkeypatch, checked, (spectra, "require_sentence"))
    _recording(monkeypatch, looked_up, (fastengine, "_plan"))
    sp = spectrum(s, 2000, workers=1)
    assert len(sp.table.primes) == 303
    assert compiled == [(s,)]
    # the sentence is checked and its plan fetched once per sweep, not per prime
    assert checked == [(s,)]
    assert looked_up == [(s,)]
    # p = 5 mod 12, except 5 itself: the sentence needs p > 12
    assert sp.members() == [
        int(p) for p in sp.table.primes if p % 12 == 5 and p != 5
    ]


# the nine sentences of the benchmark's sweep workload
SWEEP_SENTENCES = [
    parse_sentence("E x. (((x * x) + 1) = 0)"),
    parse_sentence("E x. ((x * x) = 2)"),
    cyclotomic_sentence(20),
    cyclotomic_sentence(12),
    congruence_sentence(1, 12),
    congruence_sentence(1, 7),
    FAMILIES["powres"].build(n=3, d=3, r=1),
    FAMILIES["prime"].build(),
    FAMILIES["modcount"].build(r=1, q=4),
]

FAMILY_SENTENCES = {
    name: FAMILIES[name].build(**params)
    for name, params in {
        "congruence": {"a": 2, "d": 5},
        "cyclotomic": {"n": 12},
        "modcount": {"r": 1, "q": 3},
        "powres": {"n": 3, "d": 3, "r": 1},
        "psi": {"q": 3},
        "theta": {"q": 3},
        "prime": {},
    }.items()
}


def _corpus(n):
    """The first n sentences of claim 12's corpus."""
    rng = random.Random(verify.ENGINE_FUZZ_SEED)
    return [random_sentence(rng, max_depth=5) for _ in range(n)]


def _covered(s):
    return blockengine.covers(fastengine._plan(s))


def _prime_by_prime(s, bound, tuple_budget=DEFAULT_TUPLE_BUDGET):
    """What spectrum(s, bound) gives one prime at a time: its bits, or the
    message of the error it raises."""
    plan = fastengine._plan(s)
    bits = []
    for p in spectra.prime_table(bound).primes:
        try:
            ctx = RingContext(int(p), tuple_budget=tuple_budget)
            bits.append(fastengine.eval_rel(ctx, plan).nrows > 0)
        except RingSpectraError as exc:
            return f"{exc} (at prime {p})"
    return bits


def _spectrum_outcome(s, bound, tuple_budget=None):
    try:
        return spectrum(s, bound, workers=1, tuple_budget=tuple_budget).bits.tolist()
    except RingSpectraError as exc:
        return str(exc)


def test_every_tag_has_a_kernel_and_the_block_path_keeps_its_sentences():
    corpus = _corpus(500)
    tags = set()

    def walk(p):
        tags.add(p.tag)
        for c in p.kids:
            walk(c)

    for s in corpus + list(FAMILY_SENTENCES.values()):
        walk(fastengine._plan(s))
    assert tags <= set(fastengine._KERNELS)
    assert set(blockengine._KERNELS) <= set(fastengine._KERNELS)
    covered = [_covered(s) for s in corpus]
    assert sum(covered[:100]) == 44 and sum(covered) == 189
    assert [name for name, s in FAMILY_SENTENCES.items() if _covered(s)] == [
        "congruence", "cyclotomic", "modcount", "powres", "prime"
    ]


def test_block_path_matches_prime_by_prime(monkeypatch):
    # claim 12's corpus: the sentences that take the block path; the others
    # run the prime-by-prime loop in spectrum itself
    blocked = [s for s in _corpus(100) if _covered(s)]
    fired = set()
    for tag, kernel in blockengine._KERNELS.items():
        monkeypatch.setitem(
            blockengine._KERNELS, tag, lambda *args, tag=tag, kernel=kernel: (
                fired.add(tag) or kernel(*args))
        )

    def watch(name, kinds, module=blockengine):
        real = getattr(module, name)

        def wrapper(*args):
            out = real(*args)
            fired.update(kinds(sys._getframe(1).f_code.co_name, out, *args))
            return out

        monkeypatch.setattr(module, name, wrapper)

    def degree_kinds(caller, coeffs, poly, p):
        if caller == "_block_linear_exists":
            # a lane where every coefficient of a(u) vanishes
            return ["a vanishes"] if not np.all(np.any(coeffs, axis=0)) else []
        if caller != "_block_univar":
            return []
        deg = np.full(p.size, -1)
        for e, c in enumerate(coeffs):
            deg[c != 0] = e
        return [("all", "none", "linear")[d + 1] if d < 2 else "horner" for d in set(deg)]

    watch("_lane_coeffs", degree_kinds)
    watch("_block_complement", lambda caller, out, blk, lanes, rel, node: [
        "lane complement" if len(rel.cols) == 1 else "ragged complement"])
    watch("_atom_filter", lambda caller, out, conj, moduli: [
        f"{type(conj.node).__name__} filter"]
        if isinstance(getattr(moduli, "__self__", None), blockengine._Block) else [])
    watch("_join", lambda caller, out, *args: ["join"] if caller == "_block_joins" else [])
    watch("_block_extend", lambda caller, out, *args: ["extend"] if caller == "_block_and" else [])
    watch("_group_drop", lambda caller, out, *args: (
        ["mod group"] if caller == "_block_mod_exists" else []))
    # the body of E[r,q] v. has no column v: every row stands for all p values
    watch("_block_rel", lambda caller, out, *args: (
        ["mod without its variable"] if caller == "_block_mod_exists"
        and sys._getframe(2).f_locals["p"].node.var not in out.cols else []))
    watch("eval_rel", lambda caller, out, *args: ["prime by prime"] if caller == "_eval_chunk" else [],
          module=fastengine)
    extra = [
        # y enters the conjunction by extension, then meets its filter
        "E x. E y. (((x * 2) = 1) & (y < x))",
        # a = (3 - b^2) / 2, and where p = 2, every a at each root of b^2 = 3
        "E a. E b. ((((2 * a) + (b * b)) = 3) & (b = 5) & (a < 4))",
        # E[1,3] x. groups its body's rows by the lane and y
        "E y. E[1,3] x. ((((x * x) * x) = y) & (0 < y) & (y < 3))",
        # E[1,2] v. counts all p values of v, which its body does not use
        "E x. ((x = 1) & E[1,2] v. (x = 1))",
        # a(u) = 7u vanishes in the lane of 7, the one prime where it fails
        "A u. ((u = 0) | (E v. ((((7 * u) * v) + u) = 1)))",
    ]
    extra = [parse_sentence(t) for t in extra]
    assert all(map(_covered, extra))
    for s in list(FAMILY_SENTENCES.values()) + SWEEP_SENTENCES + blocked + extra:
        want = _prime_by_prime(s, 2000)
        assert _spectrum_outcome(s, 2000) == want, formula_to_text(s)
    # the last sentence fails only at 7
    assert [int(p) for p, b in zip(spectra.prime_table(2000).primes, want) if not b] == [7]
    assert fired >= set(blockengine._KERNELS) | {
        "all", "none", "linear", "horner", "lane complement", "ragged complement",
        "Less filter", "Not filter", "join", "extend", "prime by prime",
        "mod group", "a vanishes", "mod without its variable",
    }


@pytest.mark.parametrize("budget", [50, 100, 300, 1000, 2000, 30_000])
def test_block_budget_error_names_the_prime_as_prime_by_prime(budget):
    # the block runs out of budget where a prime alone would not, or where
    # one would, and the primes are then evaluated one at a time: a block
    # runs out of budget wherever one of its primes alone would
    s = FAMILIES["powres"].build(n=3, d=3, r=1)
    assert _covered(s)
    want = _prime_by_prime(s, 3000, budget)
    assert _spectrum_outcome(s, 3000, budget) == want
    assert isinstance(want, str) == (budget < 3000)
    if budget in (50, 300, 2000):
        for t in filter(_covered, _corpus(100)):
            want = _prime_by_prime(t, 600, budget)
            assert _spectrum_outcome(t, 600, budget) == want, formula_to_text(t)


@pytest.mark.parametrize("text, path, tag", [
    # a negated two-variable equation is a grid scan; it costs p^2 a prime,
    # so the sweep stops at 600, whose 109 primes would make one block
    ("E x. E y. !((x + (2 * y)) = 1)", (0, 0), "grid scan"),
    ("E x. E y. (((x * x) = 2) | ((y * y) = 3))", (0, 0), "or"),
    # a comparison over one variable is a grid scan too
    ("E x. (x < 3)", (0,), "grid scan"),
], ids=["negated pair", "or", "comparison"])
def test_a_tag_without_a_block_kernel_keeps_its_sentence_prime_by_prime(
    monkeypatch, text, path, tag
):
    # the node at path has no block kernel, so the sentence never reaches
    # eval_block
    s = parse_sentence(text)
    node = fastengine._plan(s)
    for i in path:
        node = node.kids[i]
    assert node.tag == tag and tag not in blockengine._KERNELS
    assert not _covered(s)
    passes = []
    monkeypatch.setattr(blockengine, "eval_block", lambda *args: passes.append(args))
    assert _spectrum_outcome(s, 600) == _prime_by_prime(s, 600)
    assert passes == []


def test_blocks_are_sized_by_the_rows_they_build(monkeypatch):
    passes = []
    real = blockengine.eval_block

    def counted(plan, primes, ctx):
        try:
            return real(plan, primes, ctx)
        finally:
            passes.append(ctx.peak_rows)

    monkeypatch.setattr(blockengine, "eval_block", counted)
    primes = spectra.prime_table(2000).primes
    chunks = np.array_split(primes, 8)
    # a congruence builds about a row per prime, so after its first block
    # the rest of each chunk goes in one pass
    s = congruence_sentence(1, 12)
    for chunk in chunks:
        passes.clear()
        spectra._eval_chunk((s, chunk, DEFAULT_TUPLE_BUDGET))
        assert 1 <= len(passes) <= 2
    # a cyclotomic sentence scans every residue, so its blocks stay in bound
    c = cyclotomic_sentence(20)
    passes.clear()
    spectrum(c, 2000, workers=1)
    assert len(passes) > 2 and max(passes) <= spectra._BLOCK_ROWS
    for t in (s, c):
        bits = spectrum(t, 2000, workers=1)
        assert bits.bits.tolist() == _prime_by_prime(t, 2000)
        assert spectrum(t, 2000, workers=2) == bits
    # a ground conjunct drops every lane of the first block, whose pass then
    # charges nothing, and holds at every later prime, where the cubic scans
    # every residue: the block after it stays within _BLOCK_MAX rows
    first = [int(p) for p in primes if p < 1000]
    g = parse_sentence(f"!({math.prod(first)} = 0) & E x. ((x * x) * x) = 2")
    wide = spectra.prime_table(8000).primes
    passes.clear()
    bits = spectra._eval_chunk((g, wide, DEFAULT_TUPLE_BUDGET))
    assert passes[0] == 0 and max(passes) <= 64 * spectra._BLOCK_ROWS
    assert bits == _prime_by_prime(g, 8000)
    # where that block runs out of budget it is cut again, not swept prime
    # by prime: at most a last prime of the chunk goes alone
    singles = []
    real_rel = fastengine.eval_rel
    monkeypatch.setattr(
        fastengine, "eval_rel", lambda ctx, p: singles.append(ctx.m) or real_rel(ctx, p)
    )
    assert spectra._eval_chunk((g, wide, 200_000)) == bits and len(set(singles)) <= 1


def test_block_inverse_matches_pow():
    p = np.array([2, 3, 5, 7, 1999, 4999963, 4999999], dtype=np.int64)
    blk = blockengine._Block(p, RingContext(int(p.max())))
    for c in (1, -1, 2, 12, 10**6, 2**70 + 1, -(2**70) - 3):
        units = [q for q in p.tolist() if c % q]
        want = [pow(c, -1, q) if c % q else 0 for q in p.tolist()]
        assert blk.inverse(c).tolist() == want
    assert blk.inverse(12) is blk.inverse(12)
