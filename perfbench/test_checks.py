"""The benchmark's checks pass right answers and catch wrong ones.

    python3 -m pytest -q perfbench/test_checks.py
    python3 perfbench/test_checks.py
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (first: it puts src/ on the path)
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import rs  # noqa: E402


def _sweep_op(family):
    ops = workloads.setup_sweep(1)
    return next(op for op in ops if op.label.startswith(family))


def test_reference_primes_and_closed_forms():
    primes = reference.primes_upto(2000)
    assert len(primes) == 303 and primes[:5] == [2, 3, 5, 7, 11]
    assert [reference.is_prime(n) for n in (1, 2, 9, 999983, 1000001)] == [
        False, True, False, True, False,
    ]
    assert reference.member("cyclotomic", {"n": 12}, 3) is False  # F_12 = F_4^2 mod 3
    assert reference.member("cyclotomic", {"n": 12}, 13) is True
    assert reference.member("psi", {"q": 3}, 6563) and not reference.member("psi", {"q": 3}, 6553)


def test_sweep_check_catches_a_flipped_bit():
    op = _sweep_op("x2+1")
    spectrum, fits, profile = op.fn()
    assert op.check((spectrum, fits, profile)) is None
    bits = spectrum.bits.copy()
    i = int(rs.spectra.prime_table(workloads.SWEEP_BOUND).pi(997)) - 1
    bits[i] = not bits[i]
    flipped = rs.Spectrum(spectrum.bound, bits)
    assert "p=997" in op.check((flipped, fits, profile))


def test_sweep_check_catches_wrong_fits_and_ratios():
    op = _sweep_op("x2-2")
    spectrum, fits, profile = op.fn()
    assert op.check((spectrum, fits[1:], profile)) is not None
    ratios = profile.ratios[:-1] + (profile.ratios[-1] * (1 + 1e-9),)
    bad = rs.DensityProfile(profile.h_name, profile.samples, profile.pi_s, profile.pi, ratios)
    assert "ratios" in op.check((spectrum, fits, bad))


def test_large_m_check_catches_a_wrong_value():
    op = next(op for op in workloads.setup_large_m(1) if op.label.startswith("prime@"))
    assert op.check(True) is None
    assert op.check(False) is not None


def test_large_m_evaluations_start_with_an_empty_times_table():
    op = workloads.setup_large_m(1)[0]  # psi(3) just below 9^4
    op.prepare()
    assert op.check(op.fn()) is None
    assert rs.fastengine._TIMES_TABLE["rows"] is not None  # the evaluation built one
    op.prepare()
    assert rs.fastengine._TIMES_TABLE == {"bound": 0, "rows": None}


def test_oracle_sample_catches_a_wrong_value():
    ops = workloads.setup_oracle(1)
    index = min(range(len(ops)), key=lambda i: len(rs.formula_to_text(ops[i].sentence)))
    right = [reference.holds(ops[index].sentence, m) for m in workloads.ORACLE_MODULI]
    assert workloads.check_oracle_sample(ops, [(index, right)], 1) is None
    wrong = [not v for v in right]
    assert workloads.check_oracle_sample(ops, [(index, wrong)], 1) is not None


def test_reference_evaluator_agrees_with_eval_naive():
    rng = random.Random(7)
    for _ in range(30):
        s = rs.random_sentence(rng, max_depth=4)
        for m in (1, 2, 5, 9):
            assert reference.holds(s, m) == rs.eval_naive(rs.RingContext(m), s)


def test_tracer_records_outermost_spans_and_restores_the_program():
    original, naive = rs.eval_sentence, rs.evaluate.eval_naive
    s = rs.parse_sentence("E x. ((x * x) = 4)")
    tracer = Tracer()
    tracer.install()
    try:
        assert rs.eval_sentence is not original
        assert rs.eval_sentence(s, 7, engine="naive") is True
    finally:
        tracer.uninstall()
    assert rs.eval_sentence is original and rs.evaluate.eval_naive is naive
    names = [(name, parent) for name, _, _, parent, _ in tracer.spans]
    assert names == [("evaluate.eval_sentence", -1), ("evaluate.naive", 0)]
    assert all(end >= start for _, start, end, _, _ in tracer.spans)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name} ok")
