"""Command-line front end.

Every subcommand is deterministic given its full flag set: randomness is
always surfaced as --seed.  Every handler but `schema` returns a `Report`
(a JSON payload, plus CSV rows and a text when the command has them) for
the one emitter, `_emit`: JSON with the manifest embedded under --json or
when the report has nothing else; CSV under --csv or when it has no text;
else the text.  --output puts the same bytes in a file, and a CSV or text
file gets the manifest as a `<file>.manifest.json` sidecar.  Exit codes
are 0 on success, 2 for domain/usage errors, 3 for budget or cap errors,
1 for anything unexpected.

Module level imports only the standard library and `carmlab.errors`; each
handler imports the library modules it runs, so a command loads no module
it does not use.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import CapExceededError, DomainError, FactorizationError, integer, rational

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3

_FLOAT_INT_LIMIT = 1 << 53
# bits of the largest integer a flag may spell, as a decimal, a power or --bits;
# 14,000 bits is 4,215 decimal digits, within what str() of an int may print
_MAX_INPUT_BITS = 14_000
# the library's DEFAULT_THRESHOLD and DEFAULT_BIT_LENGTHS as argparse passes
# string defaults through `type`, so the parser loads neither detector nor bench
_DEFAULT_THRESHOLD = "9/20"
_DEFAULT_BIT_LENGTHS = "64:128:256:512:1024"


def _parse_int(text: str) -> int:
    """Sizes accept 10000000, 10_000_000, 10**7, and 1e7."""
    # leading zeros count toward int()'s 4,300-digit limit, not the value
    s = re.sub(r"^([+-]?)0+(?=\d)", r"\1", text.strip().replace(",", "_"))
    with contextlib.suppress(ValueError):
        value = int(s)
        if value.bit_length() > _MAX_INPUT_BITS:
            raise argparse.ArgumentTypeError(f"{text!r} exceeds {_MAX_INPUT_BITS} bits")
        return value
    try:
        if "**" in s:
            base, exponent = (int(part) for part in s.split("**", 1))
            if exponent < 0:
                raise ValueError("negative exponent")
            # |base| <= 2^k makes the power at most 2^(k * exponent)
            if exponent * (abs(base) - 1).bit_length() >= _MAX_INPUT_BITS:
                raise argparse.ArgumentTypeError(f"{text!r} exceeds {_MAX_INPUT_BITS} bits")
            return base ** exponent
        value = float(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    digits = s.lstrip("+-").replace("_", "").lstrip("0")
    if digits.isdecimal() and len(digits) > sys.get_int_max_str_digits():
        # written out, but too long for int(): at least 10^4300 > 2^14000
        raise argparse.ArgumentTypeError(f"{text!r} exceeds {_MAX_INPUT_BITS} bits")
    # NaN and the spellings of infinity are not integers; 1e400 is, but float() reads it as inf
    if not value.is_integer() and not (math.isinf(value) and any(c.isdigit() for c in s)):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if abs(value) > _FLOAT_INT_LIMIT:
        raise argparse.ArgumentTypeError(
            f"{text!r} exceeds exact float range; write the integer out")
    return int(value)


def _parse_bit_lengths(text: str) -> tuple[int, ...]:
    """Colon-separated integers, e.g. 64:128:256."""
    return tuple(_parse_int(piece) for piece in text.split(":"))


def _parse_fraction(text: str) -> Fraction:
    try:
        return rational("value", text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@dataclass(frozen=True)
class Report:
    """One command's result: the JSON payload, and the CSV table
    (header, rows) and text rendering when the command has them."""

    payload: dict
    csv: tuple[list[str], list[list]] | None = None
    text: str | None = None


def _manifest(args: argparse.Namespace) -> dict:
    parameters = {key: str(value) for key, value in sorted(vars(args).items())
                  if key not in ("handler", "output") and value is not None}
    return {"command": args.command, "parameters": parameters,
            "seed": getattr(args, "seed", 0),
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "tool_version": __version__}


def _emit(report: Report, args: argparse.Namespace) -> None:
    manifest = _manifest(args)
    as_json = getattr(args, "json", False) or (report.csv is None and report.text is None)
    if as_json:
        body = json.dumps({**report.payload, "manifest": manifest}, indent=2) + "\n"
    elif getattr(args, "csv", False) or report.text is None:
        if report.csv is None:
            raise DomainError(f"{args.command} output has no CSV form")
        header, rows = report.csv
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
        body = buffer.getvalue()
    else:
        body = report.text + "\n" if report.text else ""
    if not args.output:
        sys.stdout.write(body)
        return
    Path(args.output).write_text(body)
    if not as_json:
        Path(args.output + ".manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------- census

def cmd_census(args: argparse.Namespace) -> Report:
    from .census import census_brute_force, census_exact
    from .factoring import factorize

    if args.exact:
        census = census_exact(args.n, factorize(args.n))
    else:
        census = census_brute_force(args.n)
    record = census.to_json_dict()
    return Report(record, csv=(list(record), [list(record.values())]),
                  text=_census_text(census))


def _census_text(census) -> str:
    n = census.n
    lines = [f"n = {n}  method = {census.method.value}"]
    if census.method.value == "BruteForce" and n <= 128:
        residues = [pow(a, n - 1, n) for a in range(1, n)]
        lines.append("a     : " + " ".join(f"{a:>4}" for a in range(1, n)))
        lines.append("a^n-1 : " + " ".join(f"{r:>4}" for r in residues))
        lines.append("        (entries != 1 are Fermat witnesses)")
    proportion = census.proportion_witnesses
    lines.append(f"count_A = {census.count_A}  count_B = {census.count_B}  "
                 f"count_C = {census.count_C}")
    lines.append(f"witness proportion = {proportion.numerator}/{proportion.denominator}"
                 f" = {float(proportion) * 100:.2f}%")
    return "\n".join(lines)


# -------------------------------------------------------------- classify

def cmd_classify(args: argparse.Namespace) -> Report:
    from .detector import DetectorConfig, detect_carmichael_general

    cfg = DetectorConfig(t_override=args.t, threshold=args.threshold,
                         rng_seed=args.seed)
    return Report(detect_carmichael_general(args.n, cfg).to_json_dict())


# -------------------------------------------------------------- enumerate

def cmd_enumerate(args: argparse.Namespace) -> Report:
    from .korselt import enumerate_carmichael, is_carmichael

    results = enumerate_carmichael(args.limit)
    lines = [json.dumps(is_carmichael(n).to_json_dict()) if args.certificates else str(n)
             for n in results]
    return Report({}, text="\n".join(lines))


# ------------------------------------------------------------------ bound

def cmd_bound(args: argparse.Namespace) -> Report:
    from .bound import classify_by_bound, prime_factor_bound
    from .factoring import factorize
    from .korselt import is_carmichael

    evaluation = prime_factor_bound(args.n)
    verdict = None
    # a Carmichael number is odd, so base 2 is a Fermat liar for it; an n
    # that fails base 2 gets no verdict without being factored
    if pow(2, args.n - 1, args.n) == 1:
        try:
            fac = factorize(args.n)
            if is_carmichael(args.n, fac):
                verdict = classify_by_bound(args.n, fac).value
        except FactorizationError:
            pass  # bound still reportable without the factor-based verdict
    return Report(evaluation.to_json_dict(verdict))


# ------------------------------------------------------------------ model

def cmd_model(args: argparse.Namespace) -> Report:
    from .accuracy import posterior_composite_given, posterior_general
    from .detector import DetectorConfig

    if args.bits > _MAX_INPUT_BITS:
        raise DomainError(f"--bits {args.bits} exceeds {_MAX_INPUT_BITS}")
    # checked before 2 ** bits, which is a fraction for negative bits
    bits = integer("bit_length", args.bits, 8)
    t = DetectorConfig(t_override=args.t).sample_size(2 ** bits)
    build = posterior_general if args.general else posterior_composite_given
    report = build(t, threshold=args.threshold, bit_length=bits,
                   fraction_A=args.fraction_a, fraction_B=args.fraction_b)
    return Report(report.to_json_dict())


# -------------------------------------------------------------- reproduce

def cmd_reproduce(args: argparse.Namespace) -> Report:
    from .reproduce import (bound_curve_series, reproduce_fermat_table,
                            reproduce_proportion_examples, reproduce_witness_catalog)

    if args.table == 1:
        report = reproduce_fermat_table()
        header = ["a", "computed", "published", "match", "witness"]
        rows = [[c[key] for key in header] for c in report["cells"]]
        return Report(report, csv=(header, rows), text=_fermat_table_text(report))
    if args.table == 2:
        report = reproduce_witness_catalog()
        header = ["published_percent", "printed_n", "n", "computed_percent",
                  "percent_match", "is_carmichael", "grouping_ok", "flags"]
        rows = [[r[key] for key in header[:-1]] + [";".join(r["flags"])]
                for r in report["rows"]]
        return Report(report, csv=(header, rows), text=_catalog_text(report))
    if args.proportions:
        report = reproduce_proportion_examples()
        return Report(report, text=_proportions_text(report))
    n = args.n if args.n is not None else 1729 if args.figure == 1 else 561
    if args.figure == 1:
        series = bound_curve_series(n)
        return Report({"series": series},
                      csv=(["a", "value"], [[f"{p['a']:.6f}", f"{p['value']:.12g}"]
                                            for p in series]))
    # --figure 2; argparse requires exactly one mode
    from .accuracy import empirical_proportion_distribution
    from .factoring import factorize

    histogram = empirical_proportion_distribution(
        n, factorize(n), t=args.t, trials=args.trials, seed=args.seed)
    return Report(histogram.to_json_dict(),
                  csv=(["bin_lo", "bin_hi", "count"],
                       [[f"{lo:.8f}", f"{hi:.8f}", count]
                        for lo, hi, count in histogram.csv_rows()]))


def _fermat_table_text(report: dict) -> str:
    lines = [f"Fermat test residues for n = {report['n']} (reference row diff)"]
    lines.append("a         : " + " ".join(f"{c['a']:>3}" for c in report["cells"]))
    lines.append("computed  : " + " ".join(f"{c['computed']:>3}" for c in report["cells"]))
    lines.append("published : " + " ".join(f"{c['published']:>3}" for c in report["cells"]))
    lines.append("match     : " + " ".join(" ok" if c["match"] else "BAD"
                                           for c in report["cells"]))
    lines.append(f"witnesses = {report['witnesses']}  proportion = "
                 f"{report['proportion_percent']:.2f}%  all cells match: "
                 f"{report['all_match']}")
    return "\n".join(lines)


def _catalog_text(report: dict) -> str:
    lines = ["high-witness Carmichael catalog (recomputed from factors)"]
    for row in report["rows"]:
        status = "ok " if row["percent_match"] and row["is_carmichael"] else "BAD"
        lines.append(f"[{status}] {row['published_percent']:>6}%  n = {row['n']:<20} "
                     f"computed {row['computed_percent']:.2f}%  carmichael="
                     f"{row['is_carmichael']}")
        for flag in row["flags"]:
            lines.append(f"       flag: {flag} (printed: {row['printed_n']})")
    lines.append(f"all rows match: {report['all_match']}")
    return "\n".join(lines)


def _proportions_text(report: dict) -> str:
    lines = ["worked witness-proportion examples"]
    for row in report["rows"]:
        mark = "ok " if row["match"] else "DIFF"
        lines.append(f"[{mark}] n = {row['n']}: exact "
                     f"{row['proportion_num']}/{row['proportion_den']} = "
                     f"{row['decimal']}  published {row['published']}")
        if row["note"]:
            lines.append(f"       note: {row['note']}")
    return "\n".join(lines)


# ------------------------------------------------------------------ bench

def cmd_bench(args: argparse.Namespace) -> Report:
    from .bench import run_benchmark

    report = run_benchmark(bit_lengths=args.bits, t=args.t, repeats=args.repeats,
                           seed=args.seed)
    return Report(report.to_json_dict())


# ----------------------------------------------------------------- schema

def cmd_schema(args: argparse.Namespace) -> None:
    from .schemas import SCHEMAS

    print(json.dumps(SCHEMAS[args.name], indent=2))


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    from .schemas import SCHEMAS

    parser = argparse.ArgumentParser(
        prog="carmlab",
        description="Carmichael number analysis: censuses, classification, "
                    "enumeration, bounds, accuracy modeling, reproduction, "
                    "and benchmarking.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="Fermat witness census of one n")
    p.add_argument("n", type=_parse_int)
    p.add_argument("--exact", action="store_true",
                   help="census from the factorization of n by Monier's formula "
                        "(any n that factorizes within budget); without it, brute "
                        "force up to 10^7")
    _output_flags(p)
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("classify", help="Monte Carlo classification of one n")
    p.add_argument("n", type=_parse_int)
    p.add_argument("--seed", type=_parse_int, default=0)
    p.add_argument("--t", type=_parse_int, default=None,
                   help="sample size override (default floor((ln n)^2))")
    p.add_argument("--threshold", type=_parse_fraction, default=_DEFAULT_THRESHOLD)
    p.add_argument("--output")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("enumerate", help="all Carmichael numbers up to a limit")
    p.add_argument("--limit", type=_parse_int, required=True)
    p.add_argument("--certificates", action="store_true",
                   help="emit JSON certificate records instead of plain integers")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("bound", help="smallest-prime-factor bound for one n")
    p.add_argument("n", type=_parse_int)
    p.add_argument("--output")
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("model", help="analytic detector accuracy at a bit length")
    p.add_argument("--bits", type=_parse_int, default=1024)
    p.add_argument("--t", type=_parse_int, default=None,
                   help="sample size (default floor((ln 2^bits)^2))")
    p.add_argument("--threshold", type=_parse_fraction, default=_DEFAULT_THRESHOLD)
    p.add_argument("--general", action="store_true",
                   help="model an input that may be prime (default: a composite input)")
    p.add_argument("--fraction-a", type=_parse_fraction, default=None,
                   help="assumed non-witness fraction |A|/n (default worst case 1/2)")
    p.add_argument("--fraction-b", type=_parse_fraction, default=None,
                   help="assumed coprime-witness fraction |B|/n (default 1/2)")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_model)

    p = sub.add_parser("reproduce", help="recompute bundled reference values")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", type=int, choices=(1, 2))
    group.add_argument("--proportions", action="store_true",
                       help="the three worked proportion examples")
    group.add_argument("--figure", type=int, choices=(1, 2),
                       help="reference figures as data series (CSV by default)")
    p.add_argument("--n", type=_parse_int, default=None)
    p.add_argument("--t", type=_parse_int, default=40)
    p.add_argument("--trials", type=_parse_int, default=2000)
    p.add_argument("--seed", type=_parse_int, default=0)
    _output_flags(p)
    p.set_defaults(handler=cmd_reproduce)

    p = sub.add_parser("bench", help="classification cost versus bit length")
    p.add_argument("--bits", type=_parse_bit_lengths, default=_DEFAULT_BIT_LENGTHS,
                   help="colon-separated bit lengths, e.g. 64:128:256")
    p.add_argument("--t", type=_parse_int, default=16)
    p.add_argument("--repeats", type=_parse_int, default=3)
    p.add_argument("--seed", type=_parse_int, default=0)
    p.add_argument("--output")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("schema", help="dump a JSON schema for machine output")
    p.add_argument("name", choices=sorted(SCHEMAS))
    p.set_defaults(handler=cmd_schema)

    return parser


def _output_flags(p: argparse.ArgumentParser) -> None:
    formats = p.add_mutually_exclusive_group()
    formats.add_argument("--json", action="store_true")
    formats.add_argument("--csv", action="store_true")
    p.add_argument("--output")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
        if report is not None:
            _emit(report, args)
        return EXIT_OK
    except (DomainError, CapExceededError, FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, DomainError) else EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
