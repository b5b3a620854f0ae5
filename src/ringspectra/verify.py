"""Reproduction suite: fourteen numbered claims tying the spectra, density,
and construction layers to concrete finite checks.

Each claim measures values at a given sieve bound and judges them against
a fixed statement.  Claim 14 reruns claims 1 through 11 at worker counts
1 and 8 and demands byte-identical reports, so every claim function must
be deterministic given (bound, workers).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

from .constructions import (
    congruence_sentence,
    cyclotomic_sentence,
    power_residue_sentence,
    psi_sentence,
    supexp_family,
)
from .density import (
    IDENTITY,
    LOG,
    alternating_set,
    density_profile,
    double_exp_sequence,
    fi_spectrum,
    geometric_sequence,
    is_h_thin,
    laux_check,
    oscillation_report,
    pnt_bounds_check,
    pnt_log_thin_surrogate,
)
from .errors import EngineDisagreementError
from .evaluate import RingContext, eval_sentence
from .fastengine import eval_fast
from .logic import parse_sentence, random_sentence
from .spectra import (
    almost_equal,
    class_spectrum,
    complement,
    exceptional_moduli,
    from_members,
    intersection,
    lagarias_in_B,
    prime_table,
    resolve_workers,
    spectrum,
    union,
)

ENGINE_FUZZ_SEED = 20260817

X_SQ_PLUS_1 = "E x. (((x * x) + 1) = 0)"
X_SQ_MINUS_2 = "E x. ((x * x) = 2)"


@dataclass(frozen=True)
class Claim:
    claim_id: int
    statement: str
    status: str  # "pass" or "fail"
    measured: dict
    elapsed: float

    def identity_key(self) -> str:
        # elapsed is wall-clock noise; everything else must reproduce
        payload = {
            "claim_id": self.claim_id,
            "statement": self.statement,
            "status": self.status,
            "measured": self.measured,
        }
        return json.dumps(payload, sort_keys=True)


def _members(s) -> list[int]:
    return [int(p) for p in s.members()]


def _claim_1(bound: int, workers):
    s1 = spectrum(parse_sentence(X_SQ_PLUS_1), bound, workers)
    s2 = spectrum(parse_sentence(X_SQ_MINUS_2), bound, workers)
    want1 = union(class_spectrum(4, [1], bound), from_members([2], bound))
    want2 = union(class_spectrum(8, [1, 7], bound), from_members([2], bound))
    ok = s1 == want1 and s2 == want2
    measured = {
        "x^2+1 count": s1.count(),
        "x^2-2 count": s2.count(),
        "x^2+1 exceptions": almost_equal(s1, want1).exceptions,
        "x^2-2 exceptions": almost_equal(s2, want2).exceptions,
    }
    return ok, measured


def _claim_2(bound: int, workers):
    s1 = spectrum(parse_sentence(X_SQ_PLUS_1), bound, workers)
    s2 = spectrum(parse_sentence(X_SQ_MINUS_2), bound, workers)
    carve = intersection(complement(s2), s1)
    want = class_spectrum(8, [5], bound)
    report = almost_equal(carve, want)
    ok = set(report.exceptions) <= {2}
    return ok, {"count": carve.count(), "exceptions": report.exceptions}


def _claim_3(bound: int, workers):
    bad_containment = []
    stray = {}
    for n in range(2, 21):
        sp = spectrum(cyclotomic_sentence(n), bound, workers)
        cls = class_spectrum(n, [1 % n], bound)
        if intersection(cls, complement(sp)).count():
            bad_containment.append(n)
        extras = _members(intersection(sp, complement(cls)))
        if extras:
            stray[str(n)] = extras
    stray_ok = all(int(n) % p == 0 for n, ps in stray.items() for p in ps)
    ok = not bad_containment and stray_ok
    return ok, {"missing class members": bad_containment, "extras": stray}


def _claim_4(bound: int, workers):
    moduli = exceptional_moduli(30)
    checks = {
        "exceptional moduli to 30": moduli,
        "2 mod 5 in B": lagarias_in_B(2, 5),
        "5 mod 8 in B": lagarias_in_B(5, 8),
    }
    ok = (
        moduli == [1, 2, 3, 4, 6, 8, 12, 24]
        and not lagarias_in_B(2, 5)
        and lagarias_in_B(5, 8)
    )
    return ok, checks


def _claim_5(bound: int, workers):
    table = prime_table(bound)
    pairs = 0
    mismatches = []
    for d in range(2, 13):
        for a in range(1, d):
            pairs += 1
            sp = spectrum(congruence_sentence(a, d), bound, workers)
            for p, member in zip(table.primes, sp.bits):
                p = int(p)
                if p > d and bool(member) != (p % d == a):
                    mismatches.append([a, d, p])
    ok = not mismatches
    return ok, {"pairs checked": pairs, "mismatches": mismatches}


def _claim_6(bound: int, workers):
    exceptions = {}
    ok = True
    for n, d, r in ((3, 3, 1), (4, 4, 1), (3, 6, 4)):
        sp = spectrum(power_residue_sentence(n, d, r), bound, workers)
        want = class_spectrum(n * d, [(r * n + 1) % (n * d)], bound)
        report = almost_equal(sp, want, threshold=n * d)
        exceptions[f"n={n} d={d} r={r}"] = report.exceptions
        ok = ok and report.plausible
    return ok, {"exceptions": exceptions}


def _claim_7(bound: int, workers):
    sp = spectrum(psi_sentence(3), bound, workers)

    def in_window(p: int) -> bool:
        low = 9
        while low < p:
            if low < p < 3 * low:
                return True
            low *= 9
        return False

    mismatches = [
        int(p)
        for p, member in zip(sp.table.primes, sp.bits)
        if int(p) > 3 and bool(member) != in_window(int(p))
    ]
    count_above_3 = sp.count() - sum(1 for p in (2, 3) if p in sp)
    ok = not mismatches
    return ok, {"count above 3": count_above_3, "mismatches": mismatches}


def _claim_8(bound: int, workers):
    seq = geometric_sequence(19, 4)
    alt = alternating_set(seq, 150_000)
    ident = oscillation_report(alt, IDENTITY, seq, skip=2)
    logr = oscillation_report(alt, LOG, seq, skip=2)
    ratios = {
        "identity at s3": round(ident.odd_min, 4),
        "identity at s4": round(ident.even_max, 4),
        "log at s3": round(logr.odd_min, 4),
        "log at s4": round(logr.even_max, 4),
    }
    ok = (
        ident.odd_min >= 0.85
        and ident.even_max <= 0.10
        and logr.odd_min >= 0.85
        and logr.even_max >= 0.85
    )
    return ok, ratios


def _claim_9(bound: int, workers):
    table = prime_table(150_000)
    seq = geometric_sequence(19, 4)
    chain = laux_check(seq, 18.5, table)
    thin = is_h_thin(seq, IDENTITY, 3.05, table)
    return chain and thin, {"chain check": chain, "identity-thin": thin}


def _claim_10(bound: int, workers):
    ctx = RingContext(100_000)
    rel = eval_fast(ctx, supexp_family(2).supexp)
    set_q2 = [int(v) for v in rel.rows[:, 0]]
    rel3 = eval_fast(RingContext(30), supexp_family(3).supexp)
    set_q3 = [int(v) for v in rel3.rows[:, 0]]
    surrogate = pnt_log_thin_surrogate(double_exp_sequence(7, 4), 3.05)
    ok = (
        set_q2 == [2, 4, 16, 256, 65536]
        and set_q3 == [3, 27]
        and surrogate
    )
    measured = {
        "q=2 m=100000": set_q2,
        "q=3 m=30": set_q3,
        "7-tower log-thin surrogate": surrogate,
    }
    return ok, measured


def _claim_11(bound: int, workers):
    fi = fi_spectrum(1_000_000)
    samples = [10**3, 10**4, 10**5, 10**6]
    counts = [int(c) for c in fi.counts_up_to(samples)]
    normalized = [round(c / t**0.75, 4) for c, t in zip(counts, samples)]
    profile = density_profile(fi, IDENTITY, samples)
    decays = profile.ratios[-1] < 0.5 * profile.ratios[0]
    ok = all(v <= 2 for v in normalized) and decays
    measured = {
        "counts": counts,
        "count/t^0.75": normalized,
        "identity ratios": [round(r, 6) for r in profile.ratios],
    }
    return ok, measured


def _claim_12(bound: int, workers):
    rng = random.Random(ENGINE_FUZZ_SEED)
    sentences = [random_sentence(rng, max_depth=5) for _ in range(500)]
    cases = disagreements = 0
    for s in sentences:
        for m in range(1, 41):
            cases += 1
            try:
                eval_sentence(s, m, engine="both")
            except EngineDisagreementError:
                disagreements += 1
    return disagreements == 0, {"cases": cases, "disagreements": disagreements}


def _claim_13(bound: int, workers):
    ok = pnt_bounds_check(prime_table(100_000), start=17)
    return ok, {"bracket holds": ok}


_CLAIMS = {
    1: ("quadratic spectra match their congruence classes exactly", _claim_1),
    2: ("complement of x^2-2 meet x^2+1 is the 5 mod 8 class", _claim_2),
    3: ("cyclotomic spectra contain 1 mod n; strays divide n (n <= 20)", _claim_3),
    4: ("exceptional moduli are 1,2,3,4,6,8,12,24; unit-square spot checks", _claim_4),
    5: ("fraction-order sentences pin p mod d for d <= 12, no exceptions", _claim_5),
    6: ("power-residue spectra match rn+1 mod nd up to small exceptions", _claim_6),
    7: ("tower-window sentence holds exactly on (9^n, 3*9^n), q=3", _claim_7),
    8: ("alternating-set density surges and collapses on the stated schedule", _claim_8),
    9: ("19^n passes the chain check at 18.5 and identity-thinness at 3.05", _claim_9),
    10: ("iterated-tower satisfying sets and surrogate log-thinness", _claim_10),
    11: ("a^2+b^4 prime counts stay under 2t^(3/4) and visibly decay", _claim_11),
    12: ("naive and relational engines agree on 500 random sentences, m <= 40", _claim_12),
    13: ("prime counts sit inside the half-to-threefold x/log x bracket", _claim_13),
    14: ("claims 1-11 reproduce identically at worker counts 1 and 8", None),
}

CLAIM_IDS = tuple(sorted(_CLAIMS))


def _run_single(claim_id: int, bound: int, workers) -> Claim:
    statement, fn = _CLAIMS[claim_id]
    start = time.perf_counter()
    ok, measured = fn(bound, workers)
    elapsed = time.perf_counter() - start
    return Claim(claim_id, statement, "pass" if ok else "fail", measured, elapsed)


def _run_block(bound: int, workers, ids) -> list[Claim]:
    return [_run_single(i, bound, workers) for i in ids]


def run_suite(
    bound: int = 10_000, workers: int | None = None, ids=None
) -> list[Claim]:
    """Run the numbered claims and return one report entry per claim.

    ids selects a subset (claim 14 always reruns 1-11 internally).  The
    workers argument feeds every spectrum sweep; None defers to the
    RINGSPECTRA_WORKERS environment variable.
    """
    if ids is None:
        ids = CLAIM_IDS
    ids = sorted(set(ids))
    unknown = [i for i in ids if i not in _CLAIMS]
    if unknown:
        raise ValueError(f"unknown claim ids {unknown}; valid ids are 1-14")
    resolved = resolve_workers(workers)
    blocks: dict[int, list[Claim]] = {}

    def block(count: int) -> list[Claim]:
        if count not in blocks:
            blocks[count] = _run_block(bound, count, range(1, 12))
        return blocks[count]

    claims: list[Claim] = []
    for claim_id in ids:
        if claim_id == 14:
            start = time.perf_counter()
            lo, hi = block(1), block(8)
            same = [a.identity_key() == b.identity_key() for a, b in zip(lo, hi)]
            measured = {
                "claims compared": 11,
                "mismatched claim ids": [i + 1 for i, s in enumerate(same) if not s],
            }
            elapsed = time.perf_counter() - start
            status = "pass" if all(same) else "fail"
            claims.append(Claim(14, _CLAIMS[14][0], status, measured, elapsed))
        elif claim_id <= 11 and 14 in ids and resolved in (1, 8):
            # claim 14 computes these blocks anyway; reuse instead of a third pass
            claims.append(block(resolved)[claim_id - 1])
        else:
            claims.append(_run_single(claim_id, bound, resolved))
    return claims


def report_json(claims: list[Claim], bound: int) -> str:
    """Deterministic JSON artifact: no timestamps, keys sorted."""
    payload = {
        "schema": "ringspectra.verify/1",
        "bound": bound,
        "claims": [
            {
                "claim_id": c.claim_id,
                "statement": c.statement,
                "status": c.status,
                "measured": c.measured,
            }
            for c in claims
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
