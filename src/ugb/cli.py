"""Command-line frontend.

Each subcommand is declared once, in ``_COMMANDS``: its help text, the
input its problem file must declare (a ``GenSet``, or a ``LieAlgebra``
for ``pbw``), its options, and a handler that maps the input onto one
library operation and returns ``(record, text layout, exit code)``.
The parser is built from that table once, at import.  Exit codes: 0 for
a mathematical "yes", 1 for a mathematical "no" (including rejected
preconditions such as non-unital input), 2 for usage or parse errors
and for a division that runs past its step budget.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple

from . import textio
from .division import GenSet, divide
from .errors import (
    BoundTooSmall,
    BudgetExceeded,
    CompletionFailure,
    NotAGroebnerBasis,
    NotUnital,
    ParseError,
)
from .membership import build_truncation, is_member
from .pbw import LieAlgebra, verify_pbw
from .quotient import decompose, enumerate_basis
from .spolys import check_groebner, complete, require_groebner, s_polynomials


def _check_unital(args, G):
    return textio.record_unital(G), textio.format_unital, 0 if G.is_unital else 1


def _spolys(args, G):
    return textio.record_spolys(s_polynomials(G), G.algebra), textio.format_spolys, 0


def _check_gb(args, G):
    report = check_groebner(G)
    code = 0 if report.is_groebner else 1
    return textio.record_gb_report(report, G.algebra), textio.format_gb_report, code


def _complete(args, G):
    result = complete(G, args.max_deg, args.max_rounds)
    return textio.record_completion(G, result), textio.format_completion, 0


def _seed(strategy):
    """The divide seed for --strategy: None for "first", n for "seeded:<n>"."""
    strategy = strategy.strip()
    if strategy == "first":
        return None
    if strategy.startswith("seeded:"):
        try:
            return int(strategy[len("seeded:"):])
        except ValueError:
            raise ValueError(f"bad seed in strategy {strategy!r}") from None
    raise ValueError(f"unknown strategy {strategy!r} (expected first or seeded:<n>)")


def _normal_form(args, G):
    f = textio.parse_poly(G.algebra, args.poly, "--poly")
    seed = _seed(args.strategy)
    if args.strict:
        require_groebner(G)
    return textio.record_trace(f, divide(f, G, seed), G.algebra), textio.format_trace, 0


def _quotient_basis(args, G):
    basis = enumerate_basis(G, args.max_deg, strict=args.strict)
    return textio.record_quotient(basis, args.strict, G.algebra), textio.format_quotient, 0


def _decompose(args, G):
    f = textio.parse_poly(G.algebra, args.poly, "--poly")
    return textio.record_split(*decompose(f, G, strict=args.strict)), textio.format_split, 0


def _pbw(args, L):
    report = verify_pbw(L, args.max_deg)
    return textio.record_pbw_report(report), textio.format_pbw_report, 0 if report.ok else 1


def _member(args, G):
    f = textio.parse_poly(G.algebra, args.poly, "--poly")
    result = is_member(f, build_truncation(G, args.max_deg))
    record = textio.record_membership(result, args.max_deg, G.algebra)
    return record, textio.format_membership, 0 if result.member else 1


# kind: what the problem file must parse to; options: keys of _OPTIONS,
# in --help order; run: (args, GenSet or LieAlgebra) -> (record, layout, exit code)
_Command = namedtuple("_Command", "help kind options run")


_OPTIONS = {
    "--poly": dict(required=True, help="polynomial in text form"),
    "--max-deg": dict(type=int, required=True),
    "--max-rounds": dict(type=int, default=8),
    "--strategy": dict(default="first", help="divisor selection: first or seeded:<n>"),
    "--no-strict": dict(dest="strict", action="store_false"),
}

_COMMANDS = {
    "check-unital": _Command("report unit leading coefficients", GenSet, (), _check_unital),
    "spolys": _Command("list all critical-pair s-polynomials", GenSet, (), _spolys),
    "check-gb": _Command("run the Buchberger criterion", GenSet, (), _check_gb),
    "complete": _Command("adjoin reduced s-polynomials until the check passes", GenSet,
                         ("--max-deg", "--max-rounds"), _complete),
    "normal-form": _Command("divide a polynomial and print the trace", GenSet,
                            ("--poly", "--no-strict", "--strategy"), _normal_form),
    "quotient-basis": _Command("enumerate normal words per degree", GenSet,
                               ("--max-deg", "--no-strict"), _quotient_basis),
    "decompose": _Command("split into ideal part plus normal part", GenSet,
                          ("--poly", "--no-strict"), _decompose),
    "pbw": _Command("verify enveloping-algebra basis claims", LieAlgebra, ("--max-deg",), _pbw),
    "member": _Command("brute-force ideal membership at a degree bound", GenSet,
                       ("--poly", "--max-deg"), _member),
}

_MISSING = {
    GenSet: "problem file has no generators (alphabet/gen lines)",
    LieAlgebra: "problem file has no lie block (rank/bracket lines)",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ugb",
        description=(
            "Groebner bases for free and commutative-monomial algebras "
            "over exact coefficient rings"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("file", help="problem file")
        p.add_argument(
            "--format",
            choices=("text", "records"),
            default="text",
            help="output as canonical text or one JSON document",
        )
        for option in command.options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        problem = textio.load_problem(args.file)
        if not isinstance(problem, command.kind):
            raise ParseError(_MISSING[command.kind], args.file)
        record, layout, code = command.run(args, problem)
        if args.format == "records":
            print(textio.format_record(record))
        else:
            print(layout(record))
        return code
    except (ParseError, BoundTooSmall, BudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotUnital, NotAGroebnerBasis, CompletionFailure) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
