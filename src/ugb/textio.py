"""Text formats: polynomials, problem files, traces and reports.

Problem files hold one declaration per line; ``#`` starts a comment.
``ring``, ``oracle`` and ``alphabet`` come before the first ``gen``.

    ring Q
    oracle commutative
    alphabet x1 x2 x3
    gen x1 x1
    gen 2*x1 x2 - 1/2

Lie-algebra blocks describe brackets as coefficient vectors over the
basis, with 1-based generator indices and i > j; a Lie block is read in
the free algebra, so its file may declare no other oracle, and no
``alphabet`` or ``gen`` line:

    ring Z
    rank 3
    basis e f h
    bracket 2 1 : 0 0 -1
    bracket 3 1 : 2 0 0
    bracket 3 2 : 0 -2 0

Polynomial text is terms joined by signs: ``+`` and ``-`` always
separate terms, with optional spacing (``x-y`` is x - y).  A term is
``c*w``, a word, or a bare coefficient (a constant term), where a word is
a whitespace-separated run of symbols and ``1`` is the empty word.
Printing is canonical (descending in graded lex), so outputs are
diffable and parse back exactly.
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .division import GenSet
from .errors import BasisViolation, ParseError
from .pbw import LieAlgebra
from .poly import Algebra, oracle_from_name
from .rings import ring_from_name
from .words import FREE, Alphabet

_SIGN_RE = re.compile(r"([+-])")


def parse_poly(algebra, text, filename=None, line=None):
    """Polynomial from its text form; inverse of ``str(poly)``.  Each
    symbol token is looked up once, in the symbol table ``alphabet.index``;
    ``Algebra.poly`` then checks the words, through ``check_word``."""

    def fail(message):
        raise ParseError(message, filename, line)

    ring = algebra.ring
    index = algebra.alphabet.index

    def coefficient(token):
        try:
            return ring.parse(token)
        except ValueError as exc:
            # symbols cannot start with a digit; such a token is a
            # coefficient the ring rejects
            fail(str(exc) if token[0].isdigit() else f"unknown symbol {token!r}")

    parts = _SIGN_RE.split(text)  # term, sign, term, ...
    terms = []
    for k in range(0, len(parts), 2):
        tokens = parts[k].split()
        if not tokens:
            if k == 0:  # a leading sign, or no text at all
                if len(parts) == 1:
                    fail("empty polynomial text")
                continue
            fail("dangling sign at end of polynomial" if k == len(parts) - 1 else "two signs in a row")
        head, *rest = tokens
        letter = index.get(head)
        if letter is not None:
            coeff = 1
        elif "*" in head:
            coeff_text, _, symbol = head.partition("*")
            try:
                coeff = ring.parse(coeff_text)
            except ValueError as exc:
                fail(str(exc))
            letter = index.get(symbol)
            if letter is None and symbol != "1":
                fail(f"unknown symbol {symbol!r}" if symbol else f"missing word after {head!r}")
        else:
            coeff = coefficient(head)  # a bare coefficient c is c*1
        letters = [] if letter is None else [letter]  # [] is the word 1
        for token in rest:
            letter = index.get(token)
            if letter is None:
                coefficient(token)
                fail(f"misplaced coefficient {token!r}; write a term as c*w")
            if not letters:
                fail("a bare coefficient cannot be followed by symbols; use c*w")
            letters.append(letter)
        terms.append((-coeff if k and parts[k - 1] == "-" else coeff, bytes(letters)))
    try:
        return algebra.poly(terms)
    except BasisViolation as exc:
        fail(str(exc))


# Each directive of the two kinds of problem file; one file holds one kind.
_BLOCKS = {"alphabet": "gens", "gen": "gens", "rank": "lie", "basis": "lie", "bracket": "lie"}
# Directives a file may hold at most once.
_ONCE = {"ring", "oracle", "alphabet", "rank", "basis"}


def parse_problem(text, filename="<input>"):
    """The ``GenSet`` of an alphabet/gen file, the ``LieAlgebra`` of a Lie
    block, or ``None`` for a file with only ``ring``/``oracle`` lines."""
    ring = None
    oracle = None
    alphabet = None
    algebra = None
    gen_polys = []
    rank = None
    basis_names = None
    brackets = {}
    block = None
    once = {}  # directive -> line number

    def fail(message, line):
        raise ParseError(message, filename, line)

    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        directive, *rest = stripped.split(None, 1)
        rest = "".join(rest)
        kind = _BLOCKS.get(directive)
        if kind is not None:
            if block is not None and kind != block:
                fail("a lie block and alphabet or gen lines cannot share a file", lineno)
            block = kind
        if directive in _ONCE:
            if directive in once:
                fail(f"duplicate {directive} line", lineno)
            once[directive] = lineno
        try:
            if directive == "ring":
                ring = ring_from_name(rest)
            elif directive == "oracle":
                if algebra is not None:
                    fail("oracle must be declared before generators", lineno)
                oracle = oracle_from_name(rest)
            elif directive == "alphabet":
                alphabet = Alphabet(rest.split())
            elif directive == "gen":
                if ring is None:
                    fail("ring must be declared before generators", lineno)
                if alphabet is None:
                    fail("alphabet must be declared before generators", lineno)
                if algebra is None:
                    algebra = Algebra(ring, alphabet, oracle or FREE)
                p = parse_poly(algebra, rest, filename, lineno)
                if p.is_zero():
                    fail("generator is zero", lineno)
                gen_polys.append(p)
            elif directive == "rank":
                if not rest.isdecimal() or int(rest) < 1:
                    fail(f"bad rank {rest!r}", lineno)
                rank = int(rest)
            elif directive == "basis":
                basis_names = tuple(rest.split())
            elif directive == "bracket":
                if ring is None:
                    fail("ring must be declared before brackets", lineno)
                if rank is None:
                    fail("rank must be declared before brackets", lineno)
                head, sep, tail = rest.partition(":")
                if not sep:
                    fail("bracket line needs ':' between indices and coefficients", lineno)
                parts = head.split()
                if len(parts) != 2 or not all(p.isdecimal() for p in parts):
                    fail("bracket line needs two 1-based generator indices", lineno)
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
                if not (0 <= j < i < rank):
                    fail(f"bracket indices must satisfy rank >= i > j >= 1, got ({i + 1}, {j + 1})", lineno)
                coeff_texts = tail.split()
                if len(coeff_texts) != rank:
                    fail(f"bracket needs {rank} coefficients, got {len(coeff_texts)}", lineno)
                vec = tuple(ring.parse(t) for t in coeff_texts)
                if (i, j) in brackets:
                    fail(f"duplicate bracket ({i + 1}, {j + 1})", lineno)
                brackets[(i, j)] = vec
            else:
                fail(f"unknown directive {directive!r}", lineno)
        except ValueError as exc:  # a ring, oracle, alphabet or coefficient the line names
            fail(str(exc), lineno)

    if ring is None:
        fail("missing ring line", 1)
    if rank is not None:
        if oracle not in (None, FREE):
            fail("a lie block is read in the free algebra; its oracle must be free", once["oracle"])
        if basis_names is not None and len(basis_names) != rank:
            fail(f"basis has {len(basis_names)} names for rank {rank}", once["basis"])
        try:
            return LieAlgebra(ring, rank, brackets, basis_names)
        except ValueError as exc:  # the names; the rest was checked line by line above
            fail(str(exc), once.get("basis", once["rank"]))
    if basis_names is not None:  # a bracket line before any rank already failed
        fail("lie block needs a rank line", once["basis"])
    if alphabet is None:
        return None
    return GenSet(gen_polys, algebra or Algebra(ring, alphabet, oracle or FREE))


def load_problem(path):
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_problem(handle.read(), str(path))


# ---------------------------------------------------------------------------
# CLI results: each ``record_*`` turns engine values into the JSON document
# of ``--format records``; ``format_record`` writes that document, and each
# other ``format_*`` lays a record out as text.


def format_record(record):
    """The ``--format records`` document: the same text as
    ``json.dumps(record, indent=2, sort_keys=True)``.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder; this
    writer quotes strings with the C-accelerated quoter of the ``json``
    module and lays out the rest itself.  A list or tuple of dicts that
    share one non-empty key set, such as a trace's steps, is written from
    one template filled column by column; the text is still that of
    ``json.dumps``.  Records hold only dicts with ``str`` keys, lists,
    tuples, ``str``, ``int``, ``bool`` and ``None``; any other value or key
    type raises ``TypeError``.
    """
    return _json(record, "\n")


def _json(value, newline):
    """``value`` as indented JSON; ``newline`` is a line break followed by
    the indent of the line the value starts on.  A list or tuple of plain
    dicts with one non-empty key set fills one ``%`` template, its keys
    sorted and quoted once, from the ``_texts`` of each key's column."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):  # _quote raises TypeError on a non-str key
            item = value[key]
            items.append(f"{_quote(key)}: {_quote(item) if type(item) is str else _json(item, inner)}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        keys = value[0].keys() if type(value[0]) is dict else None
        if keys and all(type(d) is dict and d.keys() == keys for d in value):
            field = inner + "  "
            keys = sorted(keys)  # a non-str key raises TypeError in sorted or _quote
            template = "{" + field + ("," + field).join(
                _quote(key).replace("%", "%%") + ": %s" for key in keys
            ) + inner + "}"
            columns = [_texts(list(map(itemgetter(key), value)), field) for key in keys]
            items = map(template.__mod__, zip(*columns))
        else:
            items = _texts(value, inner)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _texts(values, newline):
    """The JSON texts of ``values``: mapped lazily in C when every value
    is exactly ``str`` or exactly ``int``, else written one by one."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return map(_quote, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    return [_json(value, newline) for value in values]


def record_steps(steps, algebra):
    # a long trace repeats its context words: render each distinct one once
    words = {word for _, left, _, right in steps for word in (left, right)}
    text = dict(zip(words, map(algebra.alphabet.word_text, words)))
    return [
        {"coeff": str(coeff), "left": text[left], "gen": gen, "right": text[right]}
        for coeff, left, gen, right in steps
    ]


def format_steps(steps, indent="  "):
    return [
        f"{indent}step {k}: coeff={s['coeff']} left={s['left']} gen={s['gen']} right={s['right']}"
        for k, s in enumerate(steps, 1)
    ]


def record_unital(G):
    return {
        "unital": G.is_unital,
        "leads": [
            {"gen": i, "coeff": str(g.lc()), "unit": inv is not None}
            for i, (g, inv) in enumerate(zip(G.gens, G.inv_leads))
        ],
    }


def format_unital(record):
    lines = [f"unital: {'yes' if record['unital'] else 'no'}"]
    for lead in record["leads"]:
        status = "unit" if lead["unit"] else "NOT a unit"
        lines.append(f"gen {lead['gen']}: leading coeff {lead['coeff']}: {status}")
    return "\n".join(lines)


def record_spolys(spolys, algebra):
    return {
        "count": len(spolys),
        "s_polynomials": [
            {
                "pair": [sp.i, sp.j],
                "ambiguity": algebra.alphabet.word_text(sp.ambiguity),
                "value": str(sp.value),
            }
            for sp in spolys
        ],
    }


def format_spolys(record):
    lines = [f"s-polynomials: {record['count']}"]
    for sp in record["s_polynomials"]:
        i, j = sp["pair"]
        lines.append(f"pair ({i}, {j}) ambiguity {sp['ambiguity']}: value = {sp['value']}")
    return "\n".join(lines)


def record_trace(f, trace, algebra):
    return {
        "dividend": str(f),
        "steps": record_steps(trace.steps, algebra),
        "remainder": str(trace.remainder),
    }


def _trace_lines(trace, label, indent=""):
    """A trace record laid out with its dividend under ``label``."""
    return [
        f"{indent}{label}: {trace['dividend']}",
        f"{indent}steps: {len(trace['steps'])}",
        *format_steps(trace["steps"], indent + "  "),
        f"{indent}remainder: {trace['remainder']}",
    ]


def format_trace(record):
    return "\n".join(_trace_lines(record, "dividend"))


def _gb_verdict(report):
    return "IsGroebner" if report.is_groebner else "NotGroebner"


def record_gb_report(report, algebra):
    return {
        "verdict": _gb_verdict(report),
        "pairs_checked": report.pairs_checked,
        "witnesses": [
            {
                "pair": [sp.i, sp.j],
                "ambiguity": algebra.alphabet.word_text(sp.ambiguity),
                "s_polynomial": str(sp.value),
                "trace": record_trace(sp.value, trace, algebra),
            }
            for sp, trace in report.witnesses
        ],
    }


def format_gb_report(record):
    lines = [f"verdict: {record['verdict']}", f"pairs checked: {record['pairs_checked']}"]
    for k, w in enumerate(record["witnesses"], 1):
        i, j = w["pair"]
        lines.append(f"witness {k}: pair ({i}, {j}) ambiguity {w['ambiguity']}")
        lines.extend(_trace_lines(w["trace"], "s-polynomial", "  "))
    return "\n".join(lines)


def record_completion(G, result):
    return {
        "status": "completed",
        "adjoined": len(result.gens) - len(G.gens),
        "generators": [str(g) for g in result.gens],
    }


def format_completion(record):
    lines = [
        f"status: {record['status']}",
        f"adjoined: {record['adjoined']}",
        f"generators: {len(record['generators'])}",
    ]
    lines.extend(f"gen {g}" for g in record["generators"])
    return "\n".join(lines)


def record_quotient(basis, verified, algebra):
    alphabet = algebra.alphabet
    return {
        "verified": verified,
        "max_degree": len(basis.by_degree) - 1,
        "counts": list(basis.counts()),
        "total": basis.total(),
        "by_degree": {
            str(d): [alphabet.word_text(w) for w in row]
            for d, row in enumerate(basis.by_degree)
        },
    }


def format_quotient(record):
    if record["verified"]:
        label = "normal words (verified Groebner basis)"
    else:
        label = "G-normal words (set not verified as a Groebner basis)"
    lines = [f"basis: {label}"]
    for d, row in record["by_degree"].items():
        if row:
            lines.append(f"deg {d}: {len(row)} - {', '.join(row)}")
        else:
            lines.append(f"deg {d}: 0")
    lines.append(f"total: {record['total']}")
    return "\n".join(lines)


def record_split(ideal_part, normal_part):
    return {"ideal_part": str(ideal_part), "normal_part": str(normal_part)}


def format_split(record):
    return f"ideal part: {record['ideal_part']}\nnormal part: {record['normal_part']}"


def record_pbw_report(report):
    return {
        "lie_ok": not report.jacobi_violations,
        "jacobi_violations": [list(triple) for triple, _ in report.jacobi_violations],
        "groebner": _gb_verdict(report.groebner),
        "pairs_checked": report.groebner.pairs_checked,
        "counts": list(report.counts),
        "expected_counts": list(report.expected_counts),
        "non_decreasing": report.non_decreasing,
        "ok": report.ok,
    }


def format_pbw_report(record):
    violations = record["jacobi_violations"]
    if record["lie_ok"]:
        lines = ["lie: ok"]
    else:
        lines = [f"lie: {len(violations)} Jacobi violations, first on triple {tuple(violations[0])}"]
    lines.append(f"groebner: {record['groebner']} (pairs checked: {record['pairs_checked']})")
    lines.append("counts:   " + ", ".join(str(c) for c in record["counts"]))
    lines.append("expected: " + ", ".join(str(c) for c in record["expected_counts"]))
    lines.append(f"non-decreasing normal words: {'yes' if record['non_decreasing'] else 'no'}")
    lines.append(f"pbw: {'verified' if record['ok'] else 'FAILED'}")
    return "\n".join(lines)


def record_membership(result, bound, algebra):
    out = {"member": result.member, "bound": bound}
    if result.member:
        out["witness"] = record_steps(result.witness, algebra)
    return out


def format_membership(record):
    if not record["member"]:
        return f"verdict: NotMemberAtBound\nbound: {record['bound']}"
    lines = [
        "verdict: Member",
        f"bound: {record['bound']}",
        f"witness steps: {len(record['witness'])}",
    ]
    lines.extend(format_steps(record["witness"]))
    return "\n".join(lines)
