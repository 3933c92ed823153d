"""Command-line frontend.

Every subcommand reads a problem file and maps onto one library
operation.  Exit codes: 0 for a mathematical "yes", 1 for a mathematical
"no" (including rejected preconditions such as non-unital input), 2 for
usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import textio
from .division import GBVerdict, divide, parse_strategy
from .errors import (
    BoundTooSmall,
    CompletionFailure,
    NotAGroebnerBasis,
    NotUnital,
    ParseError,
)
from .membership import build_truncation, is_member
from .pbw import verify_pbw
from .quotient import decompose, enumerate_basis
from .spolys import check_groebner, complete, s_polynomials


def _add_common(parser, poly=False, max_deg=False, strict=False, strategy=False):
    parser.add_argument("file", help="problem file")
    parser.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="output as canonical text or one JSON document",
    )
    if poly:
        parser.add_argument("--poly", required=True, help="polynomial in text form")
    if max_deg:
        parser.add_argument("--max-deg", type=int, required=True, dest="max_deg")
    if strict:
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--strict", dest="strict", action="store_true", default=True)
        group.add_argument("--no-strict", dest="strict", action="store_false")
    if strategy:
        parser.add_argument(
            "--strategy",
            default="first",
            help="divisor selection: first or seeded:<n>",
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ugb",
        description=(
            "Groebner bases for free and commutative-monomial algebras "
            "over exact coefficient rings"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("check-unital", help="report unit leading coefficients"))
    _add_common(sub.add_parser("spolys", help="list all critical-pair s-polynomials"))
    _add_common(sub.add_parser("check-gb", help="run the Buchberger criterion"))
    p = sub.add_parser("complete", help="adjoin reduced s-polynomials until the check passes")
    _add_common(p, max_deg=True)
    p.add_argument("--max-rounds", type=int, default=8, dest="max_rounds")
    p = sub.add_parser("normal-form", help="divide a polynomial and print the trace")
    _add_common(p, poly=True, strict=True, strategy=True)
    p = sub.add_parser("quotient-basis", help="enumerate normal words per degree")
    _add_common(p, max_deg=True, strict=True)
    p = sub.add_parser("decompose", help="split into ideal part plus normal part")
    _add_common(p, poly=True, strict=True)
    p = sub.add_parser("pbw", help="verify enveloping-algebra basis claims")
    _add_common(p, max_deg=True)
    p = sub.add_parser("member", help="brute-force ideal membership at a degree bound")
    _add_common(p, poly=True, max_deg=True)
    return parser


def _require_gens(problem):
    if problem.gens is None:
        raise ParseError("problem file has no generators (alphabet/gen lines)", problem.filename)
    return problem.gens


def _require_lie(problem):
    if problem.lie is None:
        raise ParseError("problem file has no lie block (rank/bracket lines)", problem.filename)
    return problem.lie


def _emit(args, record, layout):
    if args.format == "records":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(layout(record))


def _cmd_check_unital(args, problem):
    G = _require_gens(problem)
    _emit(args, textio.record_unital(G), textio.format_unital)
    return 0 if G.is_unital else 1


def _cmd_spolys(args, problem):
    G = _require_gens(problem)
    _emit(args, textio.record_spolys(s_polynomials(G), G.algebra), textio.format_spolys)
    return 0


def _cmd_check_gb(args, problem):
    G = _require_gens(problem)
    report = check_groebner(G)
    _emit(args, textio.record_gb_report(report, G.algebra), textio.format_gb_report)
    return 0 if report.verdict is GBVerdict.IS_GROEBNER else 1


def _cmd_complete(args, problem):
    G = _require_gens(problem)
    result = complete(G, args.max_deg, args.max_rounds)
    _emit(args, textio.record_completion(G, result), textio.format_completion)
    return 0


def _cmd_normal_form(args, problem):
    G = _require_gens(problem)
    f = textio.parse_poly(problem.algebra, args.poly, "--poly")
    strategy = parse_strategy(args.strategy)
    if args.strict:
        G.require_groebner()
    _emit(args, textio.record_trace(divide(f, G, strategy)), textio.format_trace)
    return 0


def _cmd_quotient_basis(args, problem):
    G = _require_gens(problem)
    basis = enumerate_basis(G, args.max_deg, strict=args.strict)
    _emit(args, textio.record_quotient(basis), textio.format_quotient)
    return 0


def _cmd_decompose(args, problem):
    G = _require_gens(problem)
    f = textio.parse_poly(problem.algebra, args.poly, "--poly")
    _emit(args, textio.record_split(*decompose(f, G, strict=args.strict)), textio.format_split)
    return 0


def _cmd_pbw(args, problem):
    L = _require_lie(problem)
    report = verify_pbw(L, args.max_deg)
    _emit(args, textio.record_pbw_report(report), textio.format_pbw_report)
    return 0 if report.ok else 1


def _cmd_member(args, problem):
    G = _require_gens(problem)
    f = textio.parse_poly(problem.algebra, args.poly, "--poly")
    module = build_truncation(G, args.max_deg)
    result = is_member(f, module)
    _emit(args, textio.record_membership(result, G.algebra), textio.format_membership)
    return 0 if result.member else 1


_COMMANDS = {
    "check-unital": _cmd_check_unital,
    "spolys": _cmd_spolys,
    "check-gb": _cmd_check_gb,
    "complete": _cmd_complete,
    "normal-form": _cmd_normal_form,
    "quotient-basis": _cmd_quotient_basis,
    "decompose": _cmd_decompose,
    "pbw": _cmd_pbw,
    "member": _cmd_member,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        problem = textio.load_problem(args.file)
        return _COMMANDS[args.command](args, problem)
    except (ParseError, BoundTooSmall, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotUnital, NotAGroebnerBasis, CompletionFailure) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
