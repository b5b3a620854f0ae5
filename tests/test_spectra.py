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
    InvariantError,
    ResourceLimitError,
    RingSpectraError,
)
from ringspectra.evaluate import DEFAULT_TUPLE_BUDGET, RingContext
from ringspectra.logic import Equal, formula_to_text, parse_sentence, random_sentence
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
    power_residue_count,
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


def test_power_residue_count_examples():
    assert power_residue_count(13, 3) == 4
    assert power_residue_count(13, 5) == 12
    assert power_residue_count(11, 1) == 10
    for p in (7, 13, 19, 31):
        for n in (2, 3):
            if (p - 1) % n == 0:
                assert power_residue_count(p, n) == (p - 1) // n
    with pytest.raises(ValueError):
        power_residue_count(15, 2)


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
    cls = CongruenceClass(6, (1, 4))
    assert cls.unit_flags() == (True, False)
    assert cls.spectrum(50).members() == [7, 13, 19, 31, 37, 43]


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
    fastengine._plan.cache_clear()
    compiled, checked, looked_up = [], [], []
    _recording(monkeypatch, compiled, (fastengine, "_compile"))
    _recording(
        monkeypatch, checked, (spectra, "require_sentence"), (evaluate, "require_sentence")
    )
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

FAMILY_SENTENCES = [
    FAMILIES[name].build(**params)
    for name, params in {
        "congruence": {"a": 2, "d": 5},
        "cyclotomic": {"n": 12},
        "modcount": {"r": 1, "q": 3},
        "powres": {"n": 3, "d": 3, "r": 1},
        "psi": {"q": 3},
        "theta": {"q": 3},
        "prime": {},
    }.items()
]


def _prime_by_prime(s, bound, tuple_budget=DEFAULT_TUPLE_BUDGET):
    """What spectrum(s, bound) gives one prime at a time: its bits, or the
    message of the error it raises."""
    plan, _ = fastengine._plan(s)
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


def test_block_path_matches_prime_by_prime(monkeypatch):
    # claim 12's corpus: the sentences that take the block path; the others
    # run the prime-by-prime loop in spectrum itself
    rng = random.Random(verify.ENGINE_FUZZ_SEED)
    corpus = [random_sentence(rng, max_depth=5) for _ in range(100)]
    blocked = [s for s in corpus if fastengine._plan(s)[0].block]
    assert len(blocked) >= 50
    assert not fastengine._plan(FAMILIES["psi"].build(q=3))[0].block
    fired = set()

    def watch(name, kinds, module=blockengine):
        real = getattr(module, name)

        def wrapper(*args):
            out = real(*args)
            fired.update(kinds(sys._getframe(1).f_code.co_name, out, *args))
            return out

        monkeypatch.setattr(module, name, wrapper)

    def atom_kinds(caller, out, blk, lanes, atom, negate, node):
        if not atom.fv:
            return ["ground atom"]
        return ["grid scan"] if not isinstance(atom.node, Equal) else []

    def degree_kinds(caller, coeffs, poly, p):
        if caller != "_block_univar":
            return []
        deg = np.full(p.size, -1)
        for e, c in enumerate(coeffs):
            deg[c != 0] = e
        return [("all", "none", "linear")[d + 1] if d < 2 else "horner" for d in set(deg)]

    watch("_block_atom", atom_kinds)
    watch("_lane_coeffs", degree_kinds)
    for name in ("_block_linear_const", "_block_linear_exists", "_block_or",
                 "_block_project", "_block_mod_exists"):
        watch(name, lambda caller, out, *args, name=name: [name])
    watch("_block_complement", lambda caller, out, blk, lanes, rel, node: [
        "lane complement" if len(rel.cols) == 1 else "ragged complement"])
    watch("_atom_filter", lambda caller, out, conj, moduli: [
        f"{type(conj.node).__name__} filter"]
        if isinstance(getattr(moduli, "__self__", None), blockengine._Block) else [])
    watch("_join", lambda caller, out, *args: ["join"] if caller == "_block_joins" else [])
    watch("_block_extend", lambda caller, out, *args: ["extend"] if caller == "_block_and" else [])
    watch("eval_rel", lambda caller, out, *args: ["prime by prime"] if caller == "_eval_chunk" else [],
          module=fastengine)
    extra = [
        # y enters the conjunction by extension, then meets its filter
        "E x. E y. (((x * 2) = 1) & (y < x))",
        # a = (3 - b^2) / 2, and where p = 2, every a at each root of b^2 = 3
        "E a. E b. ((((2 * a) + (b * b)) = 3) & (b = 5) & (a < 4))",
    ]
    for s in FAMILY_SENTENCES + SWEEP_SENTENCES + blocked + [parse_sentence(t) for t in extra]:
        want = _prime_by_prime(s, 2000)
        assert _spectrum_outcome(s, 2000) == want, formula_to_text(s)
    assert fired >= {
        "ground atom", "grid scan", "all", "none", "linear", "horner",
        "_block_linear_const", "_block_linear_exists", "_block_or", "_block_project",
        "_block_mod_exists", "lane complement", "ragged complement", "Less filter",
        "Not filter", "join", "extend", "prime by prime",
    }


@pytest.mark.parametrize("budget", [100, 1000, 30_000])
def test_block_budget_error_names_the_prime_as_prime_by_prime(budget):
    # the block runs out of budget where a prime alone would not, or where
    # one would, and the primes are then evaluated one at a time
    s = FAMILIES["powres"].build(n=3, d=3, r=1)
    assert fastengine._plan(s)[0].block
    want = _prime_by_prime(s, 3000, budget)
    assert _spectrum_outcome(s, 3000, budget) == want
    assert isinstance(want, str) == (budget < 3000)


def test_block_atom_refuses_a_negated_two_variable_equation():
    # such an atom is a filter in a conjunction, and elsewhere keeps its
    # sentence off the block path
    s = parse_sentence("E x. E y. !((x + (2 * y)) = 1)")
    assert not fastengine._plan(s)[0].block
    atom = fastengine._plan(s)[0].kids[0].kids[0].kids[0]
    assert isinstance(atom.node, Equal) and len(atom.fv) == 2
    blk = blockengine._Block(np.array([5, 7]), RingContext(7))
    with pytest.raises(InvariantError, match="no block kernel"):
        blockengine._block_atom(blk, np.arange(2), atom, True, atom.node)


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
