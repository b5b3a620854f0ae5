"""One workload in one fresh process: set up, time whole rounds, check.

    python3 perfbench/workloads.py --workload sweep --seed 1 --seconds 25 \
        --trace 0 [--setup-only]

run.py starts this script; it is not meant to be the entry point.  The
last line of standard output is one JSON object.  With --setup-only the
process stops right after set-up and reports only the moment it was ready.
Otherwise it also runs rounds of the workload's operations until --seconds
have passed, finishing the round in progress, and checks every output
against perfbench/reference.py.  With --trace 1 it runs half the time
untraced and half traced, and reports per-layer totals from the spans.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import ringspectra as rs  # noqa: E402

if not os.path.abspath(rs.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"ringspectra was imported from {rs.__file__}, not from {SRC}")

import reference  # noqa: E402

X2_PLUS_1 = "E x. (((x * x) + 1) = 0)"
X2_MINUS_2 = "E x. ((x * x) = 2)"

# sweep: one operation is `spectrum | classify | density` for one sentence
SWEEP_BOUND = 2000
SWEEP_MAX_D = 12
SWEEP_THRESHOLD = 50
SWEEP_SAMPLES = (100, 300, 1000, 2000)

# large-m: psi(3) on both sides of three window edges, the others near 10^6
PSI_EDGES = (6561, 19683, 59049)  # 9^4, 3*9^4, 9^5
PSI_SPREAD = 400
MILLION_WINDOW = (10**6 - 20_000, 10**6 + 20_000)

# oracle: a prefix of the engine-agreement corpus of `ringspectra verify`
ORACLE_CORPUS_SEED = 20260817
ORACLE_PREFIX = 50
ORACLE_MODULI = range(1, 41)
ORACLE_SAMPLE = 40

# looked up on rs at call time, so that a traced run sees the wrappers
CONSTRUCTORS = {
    "cyclotomic": lambda n: rs.cyclotomic_sentence(n),
    "congruence": lambda a, d: rs.congruence_sentence(a, d),
    "modcount": lambda r, q: rs.mod_count_sentence(r, q),
    "powres": lambda n, d, r: rs.power_residue_sentence(n, d, r),
    "prime": lambda: rs.prime_sentence(),
    "psi": lambda q: rs.psi_sentence(q),
}


class Op:
    """One timed operation on one sentence: prepare() is called just before
    the timed region, fn() in it, and check(out) returns what is wrong with
    its output, or None."""

    def __init__(self, label, sentence, evals, fn, check, prepare=None):
        self.label, self.sentence, self.evals = label, sentence, evals
        self.fn, self.check, self.prepare = fn, check, prepare


# ---------------------------------------------------------------------------
# sweep


def sweep_inputs(seed: int):
    """(family, params) for one round, in an order the seed picks.  The
    sentences are the same for every seed, because the cost of a sweep
    depends on its parameters: cyclotomic(20) costs three times
    cyclotomic(12), and congruence(2, 12) nearly twice congruence(8, 12),
    and every seed should do the same work."""
    items = [
        ("x2+1", {}),
        ("x2-2", {}),
        ("cyclotomic", {"n": 20}),
        ("cyclotomic", {"n": 12}),
        ("congruence", {"a": 1, "d": 12}),
        ("congruence", {"a": 1, "d": 7}),
        ("powres", {"n": 3, "d": 3, "r": 1}),
        ("prime", {}),
        ("modcount", {"r": 1, "q": 4}),
    ]
    random.Random(seed).shuffle(items)
    return items


def _sentence_text(family, params):
    if family == "x2+1":
        return X2_PLUS_1
    if family == "x2-2":
        return X2_MINUS_2
    return rs.formula_to_text(CONSTRUCTORS[family](**params))


def _sweep_op(sentence):
    spectrum = rs.spectrum(sentence, SWEEP_BOUND, workers=1)
    fits = rs.fit_congruences(spectrum, SWEEP_MAX_D, threshold=SWEEP_THRESHOLD)
    profile = rs.density_profile(spectrum, rs.density_function("log"), SWEEP_SAMPLES)
    return spectrum, fits, profile


@functools.lru_cache(maxsize=None)
def _classified(primes, members):
    return (
        reference.fit_reference(primes, members, SWEEP_MAX_D, SWEEP_THRESHOLD),
        reference.log_profile_reference(primes, members, SWEEP_SAMPLES),
    )


def check_sweep(family, params, out, primes):
    """Compare one sweep output with the closed form; fits and the density
    profile with their reference computed from the checked membership."""
    spectrum, fits, profile = out
    if spectrum.bound != SWEEP_BOUND or len(spectrum.bits) != len(primes):
        return f"spectrum of the wrong shape: {spectrum!r}"
    got = dict(zip(primes, (bool(b) for b in spectrum.bits)))
    members = set()
    for p in primes:
        want = reference.member(family, params, p)
        if want is not None and want != got[p]:
            return f"{family}{params} at p={p}: got {got[p]}, closed form {want}"
        if got[p]:
            members.add(p)
    got_fits = [(c.modulus, c.residues, r.right_only) for c, r in fits]
    if any(r.left_only for _, r in fits):
        return f"{family}{params}: fit reports members outside the set"
    want_fits, want_ratios = _classified(tuple(primes), frozenset(members))
    if got_fits != want_fits:
        return f"{family}{params}: fits {got_fits} != reference {want_fits}"
    if len(profile.ratios) != len(want_ratios) or any(
        abs(a - b) > 1e-12 for a, b in zip(profile.ratios, want_ratios)
    ):
        return f"{family}{params}: ratios {profile.ratios} != reference {want_ratios}"
    return None


def setup_sweep(seed: int):
    rs.spectra.prime_table(SWEEP_BOUND)
    items = sweep_inputs(seed)
    sentences = [rs.parse_sentence(_sentence_text(f, p)) for f, p in items]
    evals = len(rs.spectra.prime_table(SWEEP_BOUND))
    primes = reference.primes_upto(SWEEP_BOUND)
    return [
        Op(
            f"{family}{params}",
            s,
            evals,
            lambda s=s: _sweep_op(s),
            lambda out, f=family, p=params: check_sweep(f, p, out, primes),
        )
        for (family, params), s in zip(items, sentences)
    ]


def check_sweep_workers(ops) -> str | None:
    """Outside the timed part: one sweep at 2 workers gives the same bits."""
    op = ops[0]
    one = rs.spectrum(op.sentence, SWEEP_BOUND, workers=1)
    two = rs.spectrum(op.sentence, SWEEP_BOUND, workers=2)
    return None if one == two else f"{op.label}: bits differ at 1 and 2 workers"


# ---------------------------------------------------------------------------
# large-m


def _random_prime(rng, lo: int, hi: int, accept=lambda p: True) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if accept(n) and reference.is_prime(n):
            return n


def large_m_inputs(seed: int):
    """(family, params, p) for one round: the seed picks the primes, each
    from a fixed band and residue class so the work per round is alike."""
    rng = random.Random(seed)
    lo, hi = MILLION_WINDOW
    items = []
    for edge in PSI_EDGES:
        items.append(("psi", {"q": 3}, _random_prime(rng, edge - PSI_SPREAD, edge)))
        items.append(("psi", {"q": 3}, _random_prime(rng, edge + 1, edge + PSI_SPREAD)))
    powres = {"n": 3, "d": 3, "r": 1}
    # a member (p = 4 mod 9), a non-member that still counts its cubes
    # (p = 1, 7 mod 9), and one whose cyclotomic test already fails (p = 2 mod 3)
    for accept in (lambda p: p % 9 == 4, lambda p: p % 9 in (1, 7), lambda p: p % 3 == 2):
        items.append(("powres", powres, _random_prime(rng, lo, hi, accept)))
    for _ in range(2):
        items.append(("prime", {}, _random_prime(rng, lo, hi)))
    return items


def _empty_times_table():
    """Drop the fast engine's process-wide TIMES table, so that every
    evaluation builds its own, as a fresh `ringspectra eval` process does."""
    rs.fastengine._TIMES_TABLE.update(bound=0, rows=None)


def setup_large_m(seed: int):
    items = large_m_inputs(seed)
    built = {}
    ops = []
    for family, params, p in items:
        key = (family, tuple(sorted(params.items())))
        if key not in built:
            # as `ringspectra construct | ringspectra eval` does: text, then parse
            built[key] = rs.parse_sentence(rs.formula_to_text(CONSTRUCTORS[family](**params)))

        def check(out, family=family, params=params, p=p):
            want = reference.member(family, params, p)
            return None if out == want else f"{family}{params} at m={p}: got {out}, closed form {want}"

        s = built[key]
        ops.append(
            Op(
                f"{family}@{p}",
                s,
                1,
                lambda s=s, p=p: rs.eval_sentence(s, p),
                check,
                prepare=_empty_times_table,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# oracle


def setup_oracle(seed: int):
    rng = random.Random(ORACLE_CORPUS_SEED)
    corpus = [rs.random_sentence(rng, max_depth=5) for _ in range(ORACLE_PREFIX)]
    order = list(range(ORACLE_PREFIX))
    random.Random(seed).shuffle(order)

    def run(s):
        return [rs.eval_sentence(s, m, engine="both") for m in ORACLE_MODULI]

    def check(out, i):
        # engine="both" already raised if the engines disagreed
        if len(out) != len(ORACLE_MODULI):
            return f"sentence {i}: {len(out)} results"
        return None

    return [
        Op(
            f"sentence {i}",
            corpus[i],
            len(ORACLE_MODULI),
            lambda s=corpus[i]: run(s),
            lambda out, i=i: check(out, i),
        )
        for i in order
    ]


def check_oracle_sample(ops, outputs, seed: int) -> str | None:
    """The benchmark's own evaluator agrees with both engines on a seeded
    sample of (sentence, modulus) cases."""
    results = {}
    for index, out in outputs:
        if out is not None:
            results.setdefault(index, out)
    if not results:
        return None  # every operation failed, and each is counted as such
    rng = random.Random(seed ^ 0x5EED)
    for _ in range(ORACLE_SAMPLE):
        index = rng.choice(sorted(results))
        k = rng.randrange(len(ORACLE_MODULI))
        m = ORACLE_MODULI[k]
        want = reference.holds(ops[index].sentence, m)
        if results[index][k] != want:
            return f"{ops[index].label} at m={m}: engines say {results[index][k]}, reference {want}"
    return None


SETUPS = {"sweep": setup_sweep, "large-m": setup_large_m, "oracle": setup_oracle}


# ---------------------------------------------------------------------------
# timing


def run_rounds(ops, seconds: float, tracer=None):
    """Whole rounds of ops until `seconds` have passed.  Returns the wall
    time of the whole and of each round, per-operation durations, (op index,
    output or None) pairs, and counts of evaluations, failures and
    disagreements."""
    durations, outputs, round_walls = [], [], []
    evals = failed = disagreements = 0
    clock = time.perf_counter
    start = clock()
    while True:
        round_start = clock()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(durations)
            if op.prepare is not None:
                op.prepare()
            t0 = clock()
            try:
                out = op.fn()
            except AssertionError as exc:  # engine="both" found a disagreement
                out, failed, disagreements = None, failed + 1, disagreements + 1
                print(f"{op.label}: {exc}", file=sys.stderr)
            except rs.RingSpectraError as exc:
                out, failed = None, failed + 1
                print(f"{op.label}: {exc}", file=sys.stderr)
            durations.append(clock() - t0)
            outputs.append((index, out))
            if out is not None:
                evals += op.evals
        round_walls.append(clock() - round_start)
        if clock() - start >= seconds:
            break
    wall = clock() - start
    return {
        "wall": wall,
        "durations": durations,
        "outputs": outputs,
        "round_walls": round_walls,
        "evals": evals,
        "failed": failed,
        "disagreements": disagreements,
    }


def check_outputs(workload, ops, runs, seed) -> list[str]:
    errors = []
    for run in runs:
        for index, out in run["outputs"]:
            if out is not None:
                errors.append(ops[index].check(out))
        if run["disagreements"]:
            errors.append(f"{run['disagreements']} operations found the engines disagreeing")
    if workload == "sweep":
        errors.append(check_sweep_workers(ops))
    if workload == "oracle":
        errors.append(check_oracle_sample(ops, runs[0]["outputs"], seed))
    return [e for e in errors if e]


def layer_metrics(tracer, rounds: int) -> dict:
    """Set-up layers in seconds of one set-up; the others per round."""
    totals = tracer.totals()

    def total(part, name, parent=None, field=1):
        return sum(
            acc[field]
            for (span, caller), acc in totals[part].items()
            if span == name and parent in (None, caller)
        )

    def per_round(name, parent=None, field=1):
        return total("ops", name, parent, field) / rounds

    dispatcher = "evaluate.eval_sentence"
    fast_calls = total("ops", "fastengine.eval", field=0)
    fast_s = total("ops", "fastengine.eval")
    return {
        "arith.sieve_s": (total("setup", "arith.sieve"), "s"),
        "logic.parse_s": (total("setup", "logic.parse"), "s"),
        "logic.random_sentence_s": (total("setup", "logic.random_sentence"), "s"),
        "constructions.build_s": (total("setup", "constructions.build"), "s"),
        "evaluate.calls": (per_round(dispatcher, field=0), "count"),
        "evaluate.dispatch_self_s": (per_round(dispatcher, field=2), "s"),
        # eval_naive as the engine the dispatcher chose, not the fast
        # engine's own calls for ground atoms
        "evaluate.naive_calls": (per_round("evaluate.naive", dispatcher, field=0), "count"),
        "evaluate.naive_s": (per_round("evaluate.naive", dispatcher), "s"),
        "fastengine.calls": (fast_calls / rounds, "count"),
        "fastengine.eval_s": (fast_s / rounds, "s"),
        "fastengine.us_per_call": (1e6 * fast_s / fast_calls if fast_calls else 0.0, "us"),
        "spectra.sweep_self_s": (per_round("spectra.spectrum", field=2), "s"),
        "spectra.classify_s": (per_round("spectra.classify"), "s"),
        "density.profile_s": (per_round("density.profile"), "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file to write the traced run's spans to")
    args = ap.parse_args(argv)
    setup = SETUPS[args.workload]

    ops = setup(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if not args.trace:
        runs = [run_rounds(ops, args.seconds)]
        result = {
            "ready": ready,
            "evals_per_s": runs[0]["evals"] / runs[0]["wall"],
            "op_p50_ms": 1e3 * statistics.median(runs[0]["durations"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        from tracing import Tracer

        plain = run_rounds(ops, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced_ops = setup(args.seed)
            traced = run_rounds(traced_ops, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        runs = [plain, traced]
        if args.spans:
            tracer.write(args.spans)
        untraced_rate = plain["evals"] / plain["wall"]
        traced_rate = traced["evals"] / traced["wall"]
        result = {
            "layers": {
                **layer_metrics(tracer, len(traced["round_walls"])),
                "trace.untraced_evals_per_s": (untraced_rate, "1/s"),
                "trace.traced_evals_per_s": (traced_rate, "1/s"),
                "trace.overhead_pct": (100 * (untraced_rate / traced_rate - 1), "%"),
            }
        }

    errors = check_outputs(args.workload, ops, runs, args.seed)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result.update(
        correct=not errors,
        attempted=sum(len(r["durations"]) for r in runs),
        failed=sum(r["failed"] for r in runs),
        round_walls=[r["round_walls"] for r in runs],
        durations=[r["durations"] for r in runs],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
