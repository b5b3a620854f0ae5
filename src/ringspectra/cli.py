"""Command-line front end.

Subcommands: parse, eval, spectrum, classify, density, construct, verify.
Formula files use the module-logic grammar; "-" reads stdin so construct
output pipes straight into eval or spectrum.  Exit codes: 0 success,
1 failed verification or engine disagreement, 2 parse or usage error,
3 resource limit, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .constructions import FAMILIES
from .density import density_function, density_profile, sequence_from_spec
from .errors import (
    EngineDisagreementError,
    ParseError,
    ResourceLimitError,
    RingSpectraError,
)
from .evaluate import DEFAULT_TUPLE_BUDGET, RingContext, eval_sentence, naive_rows
from .logic import formula_to_text, free_vars, parse_formula
from .spectra import Spectrum, fit_congruences, from_members, spectrum

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_formula(path: str):
    return parse_formula(_read_text(path))


def _parse_params(text: str | None) -> dict[str, int]:
    if not text:
        return {}
    params = {}
    for piece in text.split(","):
        key, sep, value = piece.partition("=")
        if not sep:
            raise ValueError(f"expected name=value, got {piece!r}")
        params[key.strip()] = int(value)
    return params


def _parse_samples(text: str) -> list[int]:
    return [int(piece) for piece in text.split(",")]


def _spectrum_csv(s: Spectrum) -> str:
    lines = ["prime,member"]
    for p, member in zip(s.table.primes, s.bits):
        lines.append(f"{int(p)},{1 if member else 0}")
    return "\n".join(lines) + "\n"


def _spectrum_json(s: Spectrum) -> str:
    payload = {
        "schema": "ringspectra.spectrum/1",
        "bound": s.bound,
        "count": s.count(),
        "primes": [int(p) for p in s.members()],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _load_spectrum(path: str) -> Spectrum:
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        return from_members(payload["primes"], payload["bound"])
    members = []
    bound = 0
    rows = stripped.splitlines()
    if not rows or rows[0].strip() != "prime,member":
        raise ParseError("spectrum CSV must start with a prime,member header")
    for row in rows[1:]:
        if not row.strip():
            continue
        prime_text, _, member_text = row.partition(",")
        p = int(prime_text)
        bound = max(bound, p)
        if int(member_text):
            members.append(p)
    if bound < 2:
        raise ParseError("spectrum file lists no primes")
    return from_members(members, bound)


def _cmd_parse(args) -> int:
    formula = _load_formula(args.formula)
    sys.stdout.write(formula_to_text(formula) + "\n")
    return EXIT_OK


def _relation_rows(formula, names, ctx):
    from .fastengine import eval_fast

    rel = eval_fast(ctx, formula)
    order = [rel.cols.index(v) for v in names]
    return [tuple(int(row[i]) for i in order) for row in rel.rows]


def _cmd_eval(args) -> int:
    formula = _load_formula(args.formula)
    names = sorted(free_vars(formula))
    if not names:
        value = eval_sentence(
            formula, args.modulus, engine=args.engine, tuple_budget=args.tuple_budget
        )
        sys.stdout.write("true\n" if value else "false\n")
        return EXIT_OK
    budget = args.tuple_budget or DEFAULT_TUPLE_BUDGET
    ctx = RingContext(args.modulus, tuple_budget=budget)
    if args.engine == "naive":
        rows = naive_rows(ctx, formula, names, ctx.tuple_budget)
    else:
        rows = _relation_rows(formula, names, ctx)
    if args.engine == "both":
        naive = naive_rows(ctx, formula, names, ctx.tuple_budget)
        if rows != naive:
            raise EngineDisagreementError(
                formula_to_text(formula), args.modulus, naive, rows
            )
    lines = [",".join(names)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    formula = _load_formula(args.formula)
    s = spectrum(formula, args.bound, args.workers)
    text = _spectrum_json(s) if args.out == "json" else _spectrum_csv(s)
    _write_text(args.output, text)
    return EXIT_OK


def _cmd_classify(args) -> int:
    s = _load_spectrum(args.spectrum)
    fits = fit_congruences(s, args.max_d, threshold=args.threshold)
    payload = {
        "schema": "ringspectra.classify/1",
        "bound": s.bound,
        "max_d": args.max_d,
        "threshold": args.threshold,
        "fits": [
            {
                "modulus": cls.modulus,
                "residues": list(cls.residues),
                "left_only": list(report.left_only),
                "right_only": list(report.right_only),
                "plausible": report.plausible,
            }
            for cls, report in fits
        ],
    }
    _write_text(args.output, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _cmd_density(args) -> int:
    s = _load_spectrum(args.spectrum)
    h = density_function(args.h)
    if args.seq:
        seq = sequence_from_spec(args.seq)
        samples = [t for t in seq.terms if t <= s.bound]
    else:
        samples = _parse_samples(args.samples)
    profile = density_profile(s, h, samples)
    lines = ["n,pi_S,pi,ratio"]
    for n, pi_s, pi, ratio in zip(
        profile.samples, profile.pi_s, profile.pi, profile.ratios
    ):
        lines.append(f"{n},{pi_s},{pi},{ratio:.12g}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_construct(args) -> int:
    family = FAMILIES.get(args.family)
    if family is None:
        raise ValueError(f"unknown family {args.family!r}")
    sentence = family.build(**_parse_params(args.params))
    sys.stdout.write(formula_to_text(sentence) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import CLAIM_IDS, report_json, run_suite

    ids = CLAIM_IDS if args.claims is None else _parse_samples(args.claims)
    claims = run_suite(bound=args.bound, workers=args.workers, ids=ids)
    for claim in claims:
        line = f"claim {claim.claim_id:2d} {claim.status.upper():4s} {claim.statement}"
        sys.stdout.write(line + "\n")
        sys.stderr.write(f"  [{claim.elapsed:6.2f}s]\n")
    passed = sum(1 for c in claims if c.status == "pass")
    sys.stdout.write(f"{passed}/{len(claims)} claims pass\n")
    if args.json:
        _write_text(args.json, report_json(claims, args.bound))
    return EXIT_OK if passed == len(claims) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringspectra",
        description="Model checking over Z_m and prime-spectrum analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    p.add_argument("--formula", required=True, help="formula file, or - for stdin")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula in Z_m")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--formula", required=True, help="formula file, or - for stdin")
    p.add_argument("--engine", choices=("naive", "fast", "both"), default="fast")
    p.add_argument("--tuple-budget", type=int, default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("spectrum", help="primes p <= bound with Z_p |= sentence")
    p.add_argument("--formula", required=True, help="sentence file, or - for stdin")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--output", default=None, help="write here instead of stdout")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("classify", help="fit congruence classes to a spectrum")
    p.add_argument("--spectrum", required=True, help="spectrum CSV or JSON file")
    p.add_argument("--max-d", type=int, required=True)
    p.add_argument("--threshold", type=int, default=50)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("density", help="h-density profile of a spectrum")
    p.add_argument("--spectrum", required=True, help="spectrum CSV or JSON file")
    p.add_argument("--h", choices=("identity", "log", "loglog"), default="identity")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--samples", help="comma-separated sample points")
    group.add_argument(
        "--seq", help="geometric:q:kmax or doubleexp:q:kmax sample schedule"
    )
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("construct", help="print a sentence from a named family")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--params", default=None, help="comma-separated name=value pairs")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="run the reproduction suite")
    p.add_argument("--suite", choices=("paper",), default="paper")
    p.add_argument("--bound", type=int, default=10_000)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--claims", default=None, help="comma-separated claim ids")
    p.add_argument("--json", default=None, help="also write a JSON report here")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except EngineDisagreementError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFY
    except (RingSpectraError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
