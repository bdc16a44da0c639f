"""Command-line surface: membership checks, radius certificates, witness
construction, the incompatibility verdict, and the verification suite.

Exit codes: 0 success / all claims pass, 1 a violation was found,
2 invalid input (an `InputError`: malformed rational or JSON, invalid root
base, precondition failures; or an `OSError`). Any other exception is a
bug and ends in a traceback. Output documents are JSON; files are written
atomically (temp file in the target directory, then rename), and the
ERDOS_REPORT_PRETTY environment variable toggles indentation only (unset,
empty or "0" is off).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from .exact import MAX_DIGITS, InputError, RootValue, parse_rational
from .space import Point, m_index
from .clopen import (
    DEFAULT_DEN_CAP,
    AlphaBetaPair,
    Schedule,
    closedness_radius,
    first_failing_n,
    first_violating_index,
    o_openness_radius,
    openness_radius,
)
from .witness import (
    VSpec,
    construct_witness,
    file_source,
    ray_source,
    refute_group_compatibility,
)
from .harness import (
    CLAIM_IDS,
    InvalidParamsError,
    SampleConfig,
    run_suite,
    suite_exit_status,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2


def _dumps(document) -> str:
    if os.environ.get("ERDOS_REPORT_PRETTY", "") not in ("", "0"):
        return json.dumps(document, indent=2) + "\n"
    return json.dumps(document, separators=(",", ":")) + "\n"


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(document, out_path=None) -> None:
    text = _dumps(document)
    if out_path is not None:
        _atomic_write(out_path, text)
    sys.stdout.write(text)


def _parse_json_int(text: str) -> int:
    # main lifts the interpreter's own limit, so inputs keep the project's
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise InputError(f"invalid JSON integer: more than {MAX_DIGITS} digits")
    return int(text)


# [0-9], not int(): int() also takes "1_000", " 7" and other scripts' digits
_INT_RE = re.compile(r"[+-]?[0-9]+")


def _parse_int(text: str) -> int:
    """An integer flag in ASCII digits, at most MAX_DIGITS of them."""
    if not _INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r} (expected ASCII digits)")
    if len(text.lstrip("+-")) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"invalid integer: more than {MAX_DIGITS} digits")
    return int(text)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, parse_int=_parse_json_int)
    except InputError:
        raise
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise InputError(f"{path}: {exc}") from exc


def _load_point(path: str) -> Point:
    return Point.from_json(_load_json(path))


def _load_schedule(name: str) -> Schedule:
    if name == "default":
        return Schedule()
    return Schedule.from_json(_load_json(name))


def _pair_from_args(args) -> AlphaBetaPair:
    alpha = RootValue(parse_rational(args.alpha_base), 4)
    beta = RootValue(parse_rational(args.beta_base), 2)
    return AlphaBetaPair(alpha, beta)


def _source_from_arg(arg: str):
    if arg == "ray":
        return ray_source()
    if arg.startswith("file:"):
        data = _load_json(arg[len("file:"):])
        if not isinstance(data, list):
            raise InputError("point file must hold a JSON array of points")
        return file_source([Point.from_json(item) for item in data])
    raise InputError(f"unknown source {arg!r} (expected 'ray' or 'file:PATH')")


def _cmd_check(args) -> int:
    point = _load_point(args.point)
    if args.set == "Ealpha":
        alpha = RootValue(parse_rational(args.alpha_base), 4)
        m = m_index(point, alpha)
        member = m is None  # E_alpha: no prefix norm exceeds alpha
        trace = {"m_index": m}
    elif args.set == "A":
        pair = _pair_from_args(args)
        violating = first_violating_index(point, pair)
        member = violating is None
        trace = {"m_index": m_index(point, pair.alpha), "first_violating_index": violating}
    else:  # O
        schedule = _load_schedule(args.schedule)
        failing = first_failing_n(point, schedule)
        member = failing is None
        trace = {
            "first_failing_n": failing,
            "alpha_cutoff": schedule.least_n_with_alpha_above(point.norm_sq()),
        }
    _emit({"member": member, "set": args.set, "trace": trace}, args.out)
    return EXIT_OK


def _cmd_radius(args) -> int:
    point = _load_point(args.point)
    if args.kind == "o-open":
        schedule = _load_schedule(args.schedule)
        cert = o_openness_radius(point, schedule, args.den_cap)
    else:
        pair = _pair_from_args(args)
        if args.kind == "closed":
            cert = closedness_radius(point, pair, args.den_cap)
        else:
            cert = openness_radius(point, pair, args.den_cap)
    _emit(cert.to_json(), args.out)
    return EXIT_OK


def _cmd_witness(args) -> int:
    schedule = _load_schedule(args.schedule)
    v = VSpec(parse_rational(args.ball_radius), _source_from_arg(args.source))
    record = construct_witness(v, schedule)
    _emit(record.to_json(), args.out)
    return EXIT_OK


def _cmd_refute(args) -> int:
    schedule = _load_schedule(args.schedule)
    v = VSpec(parse_rational(args.ball_radius), _source_from_arg(args.source))
    verdict = refute_group_compatibility(v, schedule)
    _emit(verdict.to_json(), args.out)
    return EXIT_OK if verdict.holds else EXIT_VIOLATION


#: "1" -> "C1", ..., "remark" -> "Remark"
_CLAIM_ALIASES = {claim.lower().removeprefix("c"): claim for claim in CLAIM_IDS}


def _cmd_verify(args) -> int:
    schedule = _load_schedule(args.schedule)
    claims = []
    for token in args.claims.split(","):
        token = token.strip()
        if token.lower() not in _CLAIM_ALIASES:
            raise InvalidParamsError(
                f"unknown claim {token!r} (expected {','.join(_CLAIM_ALIASES)})")
        claims.append(_CLAIM_ALIASES[token.lower()])
    config = SampleConfig(
        max_support=args.max_support,
        max_index=args.max_index,
        max_numerator=args.max_numerator,
        max_denominator=args.max_denominator,
        seed=args.seed,
        count=args.samples,
        count_inner=args.inner,
    )
    reports = run_suite(schedule, config, tuple(claims))
    document = [report.to_json(include_timing=args.timings) for report in reports]
    _emit(document, args.report)
    return suite_exit_status(reports)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line in one line, as every other input
    error is reported, with no usage block; subparsers are built by the
    same class."""

    def error(self, message):
        self.exit(EXIT_INVALID, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="erdos-clopen",
        description=(
            "Exact membership checks, neighborhood-radius certificates, and "
            "additive counterexamples for clopen sets of the rational l2 "
            "sequence space. All numeric flags take exact p/q syntax."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_flags(p):
        p.add_argument("--alpha-base", default="2", metavar="P/Q",
                       help="base of the degree-4 alpha root (default 2)")
        p.add_argument("--beta-base", default="1/2", metavar="P/Q",
                       help="base of the degree-2 beta root (default 1/2)")

    def add_schedule_flag(p):
        p.add_argument("--schedule", default="default", metavar="S",
                       help="'default' or a schedule JSON file")

    def add_out_flag(p):
        p.add_argument("--out", metavar="PATH", help="also write the JSON here")

    check = sub.add_parser("check", help="decide membership of a point")
    check.add_argument("--point", required=True, metavar="P.json")
    check.add_argument("--set", required=True, choices=("Ealpha", "A", "O"))
    add_pair_flags(check)
    add_schedule_flag(check)
    add_out_flag(check)
    check.set_defaults(handler=_cmd_check)

    radius = sub.add_parser("radius", help="emit a radius certificate")
    radius.add_argument("--point", required=True, metavar="P.json")
    radius.add_argument("--kind", required=True, choices=("closed", "open", "o-open"))
    radius.add_argument("--den-cap", type=_parse_int, default=DEFAULT_DEN_CAP,
                        metavar="N", help="denominator cap for the bound")
    add_pair_flags(radius)
    add_schedule_flag(radius)
    add_out_flag(radius)
    radius.set_defaults(handler=_cmd_radius)

    def add_witness_flags(p):
        p.add_argument("--ball-radius", required=True, metavar="P/Q")
        p.add_argument("--source", default="ray", metavar="SRC",
                       help="'ray' or 'file:PTS.json'")
        add_schedule_flag(p)
        add_out_flag(p)

    witness = sub.add_parser("witness", help="construct one V+V counterexample")
    add_witness_flags(witness)
    witness.set_defaults(handler=_cmd_witness)

    refute = sub.add_parser("refute", help="full incompatibility verdict")
    add_witness_flags(refute)
    refute.set_defaults(handler=_cmd_refute)

    verify = sub.add_parser("verify", help="run the claim-verification suite")
    verify.add_argument("--claims", default=",".join(_CLAIM_ALIASES))
    verify.add_argument("--samples", type=_parse_int, default=10000, metavar="N")
    verify.add_argument("--seed", type=_parse_int, default=42, metavar="K")
    verify.add_argument("--inner", type=_parse_int, default=16, metavar="M",
                        help="perturbations per certified radius")
    verify.add_argument("--max-support", type=_parse_int, default=6)
    verify.add_argument("--max-index", type=_parse_int, default=12)
    verify.add_argument("--max-numerator", type=_parse_int, default=8)
    verify.add_argument("--max-denominator", type=_parse_int, default=8)
    verify.add_argument("--timings", action="store_true",
                        help="fill elapsed_ms (breaks byte-determinism)")
    verify.add_argument("--report", metavar="R.json")
    add_schedule_flag(verify)
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # inputs are held to MAX_DIGITS digits where they are parsed, but a
    # result (a certificate's prefix-norm base) may print with more
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
