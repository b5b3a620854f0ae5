"""Density profiles, thinness, alternating sets, and the a^2 + b^4 primes."""

import math

import numpy as np
import pytest

from ringspectra.arith import sieve
from ringspectra.density import (
    DensityFunction,
    IDENTITY,
    LOG,
    LOGLOG,
    IntSequence,
    alternating_set,
    density_function,
    density_profile,
    double_exp_sequence,
    fi_spectrum,
    geometric_sequence,
    is_h_thin,
    laux_check,
    oscillation_report,
    pnt_bounds_check,
    pnt_log_thin_surrogate,
    semi_additive_check,
    sequence_from_spec,
)
from ringspectra.errors import DegenerateInputError, ResourceLimitError
from ringspectra.spectra import Spectrum, class_spectrum, from_members


def all_primes_spectrum(bound):
    table = sieve(bound)
    return Spectrum(bound, np.ones(len(table), dtype=bool))


def test_density_function_lookup():
    assert density_function("identity") is IDENTITY
    assert density_function("log") is LOG
    assert density_function("loglog") is LOGLOG
    with pytest.raises(ValueError):
        density_function("sqrt")
    with pytest.raises(DegenerateInputError):
        LOGLOG(1.0)  # log(log(1)) = log(0)


def test_sequence_construction():
    assert geometric_sequence(19, 4).terms == (19, 361, 6859, 130321)
    assert double_exp_sequence(2, 3).terms == (4, 16, 256)
    assert sequence_from_spec("geometric:3:4").terms == (3, 9, 27, 81)
    assert sequence_from_spec("doubleexp:7:2").terms == (7**7, 7**49)
    with pytest.raises(ValueError):
        IntSequence("bad", (5, 5))
    with pytest.raises(ValueError):
        IntSequence("empty", ())
    with pytest.raises(ValueError):
        sequence_from_spec("fib:1:5")


def test_profile_of_all_primes_is_one():
    s = all_primes_spectrum(10_000)
    for h in (IDENTITY, LOG):
        prof = density_profile(s, h, [100, 1_000, 10_000])
        assert prof.ratios == (1.0, 1.0, 1.0)
        assert prof.tail_window == (1.0, 1.0)


def test_residue_class_has_natural_density_half():
    prof = density_profile(class_spectrum(4, [1], 10_000), IDENTITY, [10_000])
    assert abs(prof.ratios[0] - 0.5) <= 0.03


def test_finite_set_density_vanishes():
    prof = density_profile(from_members([2, 3, 5], 100_000), IDENTITY, [100_000])
    assert prof.ratios[0] < 0.01


def test_empty_set_ratio_is_zero():
    prof = density_profile(from_members([], 1_000), LOG, [100, 1_000])
    assert prof.ratios == (0.0, 0.0)


def test_profile_monotone_in_the_spectrum():
    small = class_spectrum(8, [1], 10_000)
    large = class_spectrum(4, [1], 10_000)  # contains the mod 8 class
    samples = [500, 2_000, 10_000]
    for h in (IDENTITY, LOG):
        lo = density_profile(small, h, samples).ratios
        hi = density_profile(large, h, samples).ratios
        assert all(a <= b for a, b in zip(lo, hi))


def test_profile_validation():
    s = all_primes_spectrum(1_000)
    with pytest.raises(ValueError):
        density_profile(s, IDENTITY, [100, 2_000])  # beyond bound
    with pytest.raises(ValueError):
        density_profile(s, IDENTITY, [100, 100])
    with pytest.raises(ValueError):
        density_profile(s, IDENTITY, [])
    with pytest.raises(ValueError):
        density_profile(s, IDENTITY, [1, 50])


def test_tail_window_covers_largest_quarter():
    s = all_primes_spectrum(1_000)
    prof = density_profile(s, IDENTITY, [10, 20, 50, 100, 200, 500, 700, 1000])
    assert prof.tail_window == (1.0, 1.0)
    assert prof.tail_inf == 1.0 and prof.tail_sup == 1.0


def test_identity_density_implies_log_density_close_to_one():
    c4 = class_spectrum(4, [1], 1_000_000)
    identity_ratio = density_profile(c4, IDENTITY, [1_000_000]).ratios[0]
    log_ratio = density_profile(c4, LOG, [1_000_000]).ratios[0]
    assert abs(identity_ratio - 0.5) <= 0.02
    assert log_ratio >= 0.93


@pytest.mark.xfail(
    strict=True,
    reason="log-h ratio of the mod 4 class at 10^6 is 0.9383; a 0.95 floor"
    " is out of reach at this horizon",
)
def test_log_density_reaches_095_at_one_million():
    c4 = class_spectrum(4, [1], 1_000_000)
    assert density_profile(c4, LOG, [1_000_000]).ratios[0] >= 0.95


def test_pnt_bracket():
    assert pnt_bounds_check(sieve(100_000), 17) is True
    # spot arithmetic at x = 1000: pi = 168 inside (72.38, 217.15)
    x = 1000
    guide = x / math.log(x)
    assert 0.5 * guide < 168 < 1.5 * guide
    with pytest.raises(ValueError):
        pnt_bounds_check(sieve(100), 1)
    with pytest.raises(ValueError):
        pnt_bounds_check(sieve(10), 17)


def test_semi_additivity():
    assert semi_additive_check(LOG, 2.0, range(3, 50)) == []
    assert semi_additive_check(IDENTITY, 0.0, range(1, 50)) == []
    square = DensityFunction("square", lambda x: x * x)
    bad = semi_additive_check(square, 10.0, range(3, 30))
    assert ("sum", 11.0, 11.0) in bad
    with pytest.raises(ValueError):
        semi_additive_check(LOG, 2.0, [0, 5])


def test_difference_rule_violations_are_caught():
    # a steep convex h fails h(x-y) >= h(x) - h(y) for x > 2y
    cube = DensityFunction("cube", lambda x: x**3)
    bad = semi_additive_check(cube, 1.0, [2, 10])
    assert ("diff", 10.0, 2.0) in bad


def test_thinness_of_geometric_sequence():
    table = sieve(150_000)
    assert is_h_thin(geometric_sequence(19, 4), IDENTITY, 3.05, table) is True
    consecutive = IntSequence("n", tuple(range(1, 40)))
    assert is_h_thin(consecutive, IDENTITY, 3.05, table) is False
    with pytest.raises(ValueError):
        is_h_thin(geometric_sequence(19, 3), IDENTITY, 2.5, table)
    with pytest.raises(ResourceLimitError):
        is_h_thin(geometric_sequence(19, 5), IDENTITY, 3.05, table)


def test_growth_chain_check():
    table = sieve(150_000)
    assert laux_check(geometric_sequence(19, 4), 18.5, table) is True
    assert laux_check(geometric_sequence(20, 3), 19.0, table) is True
    assert laux_check(geometric_sequence(2, 10), 18.5, table) is False
    with pytest.raises(ValueError):
        laux_check(geometric_sequence(19, 3), 17.9, table)


@pytest.mark.slow
def test_growth_chain_reaches_fifth_term():
    # extends the chain check through the 19^4 -> 19^5 pair
    table = sieve(2_500_000)
    assert laux_check(geometric_sequence(19, 5), 18.5, table) is True


def test_alternating_set_intervals():
    h = alternating_set(geometric_sequence(19, 4), 150_000)
    assert 367 in h and 359 not in h and 6863 not in h
    members = h.members()
    assert all(361 < p < 6859 for p in members)
    assert len(members) == sieve(150_000).pi(6859) - sieve(150_000).pi(361)


def test_alternating_set_consecutive_integers_is_empty():
    seq = IntSequence("n", tuple(range(1, 21)))
    assert alternating_set(seq, 20).count() == 0


def test_alternating_set_edge_cases():
    assert alternating_set(geometric_sequence(19, 4), 300).count() == 0
    with pytest.raises(DegenerateInputError):
        alternating_set(IntSequence("short", (2, 3)), 100)


def test_alternating_set_second_interval():
    seq = IntSequence("gaps", (2, 10, 20, 30, 50))
    h = alternating_set(seq, 100)
    want = {11, 13, 17, 19, 31, 37, 41, 43, 47}
    assert set(h.members()) == want


def test_oscillation_report_identity():
    seq = geometric_sequence(19, 4)
    h = alternating_set(seq, 150_000)
    rep = oscillation_report(h, IDENTITY, seq)
    assert rep.odd_min >= 0.85  # surge just past s_3
    assert rep.even_max <= 0.10  # lull at s_4
    assert rep.gap >= 0.5
    assert [idx for idx, _, _ in rep.points] == [3, 4]


def test_oscillation_report_log_measures_the_lull():
    seq = geometric_sequence(19, 4)
    h = alternating_set(seq, 150_000)
    rep = oscillation_report(h, LOG, seq)
    assert rep.odd_min >= 0.85
    assert 0.70 <= rep.even_max <= 0.72  # log softens but does not erase it


def test_oscillation_report_trivial_and_errors():
    seq = geometric_sequence(19, 4)
    s = all_primes_spectrum(150_000)
    rep = oscillation_report(s, IDENTITY, seq)
    assert rep.even_max == 1.0 and rep.odd_min == 1.0
    with pytest.raises(DegenerateInputError):
        oscillation_report(s, IDENTITY, geometric_sequence(19, 3))  # no even index


def test_fi_members_match_direct_enumeration():
    bound = 1_000
    table = sieve(bound)
    direct = set()
    for p in table.primes:
        p = int(p)
        ok = any(
            round(math.sqrt(p - b**4)) ** 2 + b**4 == p
            for b in range(0, int(p**0.25) + 1)
            if p >= b**4
        )
        if ok:
            direct.add(p)
    assert set(fi_spectrum(bound).members()) == direct


def test_fi_spot_values():
    fi = fi_spectrum(100)
    assert 2 in fi and 17 in fi and 97 in fi
    assert 7 not in fi and 3 not in fi


def test_fi_count_growth_is_sublinear():
    fi = fi_spectrum(1_000_000)
    checkpoints = [10**3, 10**4, 10**5, 10**6]
    counts = fi.counts_up_to(checkpoints)
    for t, c in zip(checkpoints, counts):
        assert c / t**0.75 <= 2.0
    early = density_profile(fi, IDENTITY, [10**3]).ratios[0]
    late = density_profile(fi, IDENTITY, [10**6]).ratios[0]
    assert late < early / 2


def test_pnt_log_surrogate():
    assert pnt_log_thin_surrogate(double_exp_sequence(7, 4), 3.05) is True
    assert pnt_log_thin_surrogate(double_exp_sequence(5, 4), 3.05) is True
    # towers of base 2 double log pi at each step; doubling is below 3.05
    assert pnt_log_thin_surrogate(double_exp_sequence(2, 5), 3.05, skip=2) is False
    slow = IntSequence("slow", (100, 105))
    assert pnt_log_thin_surrogate(slow, 3.05) is False
    with pytest.raises(ValueError):
        pnt_log_thin_surrogate(IntSequence("tiny", (5, 500)), 3.05)
    with pytest.raises(ValueError):
        pnt_log_thin_surrogate(double_exp_sequence(7, 3), 3.0)
