"""Known-answer checkers.  Each factory returns ``check(code, out)``, which
gets the CLI exit code and the records-format stdout of one op and
returns None when the answer is right, or a message saying what is
wrong.  Expected answers come from the corpus data and :mod:`algebra`,
never from the engine path being timed.

A checker may instead raise :class:`KnownDefect` when the answer is wrong
in exactly the way a documented engine defect predicts; that op still
counts as failed.
"""

from __future__ import annotations

import json
from itertools import permutations
from math import comb

from algebra import add_into, parse_text, word_of
from corpus import contiguous_divides, standard_counts


class KnownDefect(Exception):
    """The answer is wrong exactly as a documented defect predicts."""


class WrongAnswer(Exception):
    pass


def _records(code, out, want_code):
    if code != want_code:
        raise WrongAnswer(f"exit code {code}, expected {want_code}")
    return json.loads(out)


def _guard(body):
    """Turn a checking body into ``check(code, out)``; malformed output
    (bad JSON, missing fields) is a wrong answer too."""

    def check(code, out):
        try:
            body(code, out)
        except (WrongAnswer, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    return check


def _expect(cond, message):
    if not cond:
        raise WrongAnswer(message)


def symmetric_counts(rank, max_deg):
    return [comb(rank + d - 1, d) for d in range(max_deg + 1)]


def non_decreasing(word, index):
    return all(index[a] <= index[b] for a, b in zip(word, word[1:]))


def pbw(lie, max_deg):
    """``ugb pbw``: Jacobi holds iff the verdict is verified, the violating
    triples are exactly the permutations of those found here, and the
    counts are the symmetric-algebra dimensions."""

    @_guard
    def check(code, out):
        bad = lie.jacobi_violations()
        rec = _records(code, out, 1 if bad else 0)
        want = {p for t in bad for p in permutations(t)}
        _expect({tuple(t) for t in rec["jacobi_violations"]} == want, "Jacobi violations differ")
        _expect(rec["lie_ok"] is (not bad), "lie_ok wrong")
        _expect(rec["groebner"] == ("NotGroebner" if bad else "IsGroebner"), "Groebner verdict wrong")
        _expect(rec["pairs_checked"] == comb(lie.rank, 3), "pair count is not C(rank, 3)")
        if not bad:
            _expect(rec["counts"] == symmetric_counts(lie.rank, max_deg), "basis counts wrong")
            _expect(rec["non_decreasing"] and rec["ok"], "pbw not verified")
        else:
            _expect(rec["ok"] is False, "broken table verified")

    return check


def check_gb(lie):
    """``ugb check-gb`` on a PBW system: the failing ambiguities are exactly
    the words x_a x_b x_c of the Jacobi-violating triples."""

    @_guard
    def check(code, out):
        bad = lie.jacobi_violations()
        rec = _records(code, out, 1 if bad else 0)
        _expect(rec["pairs_checked"] == comb(lie.rank, 3), "pair count is not C(rank, 3)")
        got = {w["ambiguity"] for w in rec["witnesses"]}
        want = {" ".join(lie.names[t] for t in triple) for triple in bad}
        _expect(got == want, "failing ambiguities differ from the Jacobi-violating triples")
        _expect(rec["verdict"] == ("NotGroebner" if bad else "IsGroebner"), "verdict wrong")

    return check


def _gen_index(a, b):
    return a * (a - 1) // 2 + b


def spolys(lie):
    """``ugb spolys``: one s-polynomial per triple a > b > c, at x_a x_b x_c,
    equal to x_a g(b, c) - g(a, b) x_c."""
    ring = lie.ring

    @_guard
    def check(code, out):
        gens = lie.generators()
        n = lie.names
        want = {}
        for a in range(lie.rank):
            for b in range(a):
                for c in range(b):
                    value = add_into({}, gens[_gen_index(b, c)], ring, 1, (n[a],), ())
                    add_into(value, gens[_gen_index(a, b)], ring, -1, (), (n[c],))
                    want[(_gen_index(b, c), _gen_index(a, b), f"{n[a]} {n[b]} {n[c]}")] = value
        rec = _records(code, out, 0)
        _expect(rec["count"] == comb(lie.rank, 3) == len(rec["s_polynomials"]), "count is not C(rank, 3)")
        got = {
            (sp["pair"][0], sp["pair"][1], sp["ambiguity"]): parse_text(sp["value"], ring)
            for sp in rec["s_polynomials"]
        }
        _expect(got == want, "s-polynomials differ")

    return check


def quotient(lie, max_deg):
    """``ugb quotient-basis`` on a PBW system: distinct non-decreasing words
    with symmetric-algebra counts, or exit 1 (strict mode) when Jacobi
    fails."""
    index = {s: i for i, s in enumerate(lie.names)}

    @_guard
    def check(code, out):
        if lie.jacobi_violations():
            _expect(code == 1 and out == "", f"exit code {code}, expected a strict-mode refusal")
            return
        rec = _records(code, out, 0)
        _expect(rec["verified"], "basis not verified")
        _expect(rec["counts"] == symmetric_counts(lie.rank, max_deg), "counts wrong")
        for words in rec["by_degree"].values():
            ws = [word_of(w) for w in words]
            _expect(len(set(ws)) == len(ws), "repeated word")
            _expect(all(non_decreasing(w, index) for w in ws), "word not non-decreasing")

    return check


def commutative_quotient(monomials, n, max_deg):
    """``ugb quotient-basis`` on a commutative monomial set: counts equal the
    brute-force multiset-divisibility count.  Counts that instead equal
    contiguous-factor matching are the documented commutative defect."""

    @_guard
    def check(code, out):
        true = standard_counts(monomials, n, max_deg)
        contiguous = standard_counts(monomials, n, max_deg, contiguous_divides)
        rec = _records(code, out, 0)
        if rec["counts"] != true and rec["counts"] == contiguous:
            raise KnownDefect(f"counts {rec['counts']} match contiguous matching, true {true}")
        _expect(rec["counts"] == true, f"counts {rec['counts']}, expected {true}")

    return check


def commutative_check_gb(monomials):
    """Monomial sets are Groebner bases; one pair per unordered pair."""

    @_guard
    def check(code, out):
        rec = _records(code, out, 0)
        _expect(rec["verdict"] == "IsGroebner", "monomial set not a Groebner basis")
        _expect(rec["pairs_checked"] == comb(len(monomials), 2), "pair count wrong")

    return check


def _expand(steps, gens, ring):
    total = {}
    for s in steps:
        add_into(total, gens[s["gen"]], ring, ring.parse(s["coeff"]), word_of(s["left"]), word_of(s["right"]))
    return total


def normal_form(lie, poly, remainders, key):
    """``ugb normal-form``: the trace reconstructs the dividend, every
    remainder word is non-decreasing, and the remainder is recorded under
    ``key`` so all strategies can be compared."""
    ring = lie.ring
    index = {s: i for i, s in enumerate(lie.names)}

    @_guard
    def check(code, out):
        gens = lie.generators()
        rec = _records(code, out, 0)
        _expect(parse_text(rec["dividend"], ring) == poly, "dividend differs from the query")
        remainder = parse_text(rec["remainder"], ring)
        _expect(all(non_decreasing(w, index) for w in remainder), "remainder word not non-decreasing")
        _expect(add_into(_expand(rec["steps"], gens, ring), remainder, ring) == poly, "trace does not reconstruct")
        remainders.setdefault(key, []).append(remainder)

    return check


def decompose(lie, poly, remainders, key):
    """``ugb decompose``: ideal part plus normal part is the query and the
    normal part is non-decreasing; it joins the normal forms under key."""
    ring = lie.ring
    index = {s: i for i, s in enumerate(lie.names)}

    @_guard
    def check(code, out):
        rec = _records(code, out, 0)
        normal = parse_text(rec["normal_part"], ring)
        _expect(all(non_decreasing(w, index) for w in normal), "normal part not non-decreasing")
        _expect(add_into(parse_text(rec["ideal_part"], ring), normal, ring) == poly, "parts do not sum to the query")
        remainders.setdefault(key, []).append(normal)

    return check


def agreement(remainders):
    """Keys whose recorded remainders are not all equal."""
    return sorted(k for k, rs in remainders.items() if any(r != rs[0] for r in rs))


def complete(gens, ring, fresh_check, grows):
    """``ugb complete``: the input generators come back first, followed by
    the adjoined ones (at least one when ``grows``, i.e. the input is known
    not to be a Groebner basis), and ``fresh_check(generator texts)``, a new
    check-gb run, passes."""

    @_guard
    def check(code, out):
        rec = _records(code, out, 0)
        got = rec["generators"]
        _expect([parse_text(g, ring) for g in got[: len(gens)]] == gens, "input generators not kept")
        _expect(rec["adjoined"] == len(got) - len(gens) >= int(grows), "adjoined count wrong")
        _expect(fresh_check(got), "completed set fails a fresh check-gb")

    return check


def member(lie, poly):
    """``ugb member`` on a member by construction: the witness expands to
    the query."""
    ring = lie.ring

    @_guard
    def check(code, out):
        gens = lie.generators()
        rec = _records(code, out, 0)
        _expect(rec["member"] is True, "member reported as non-member")
        _expect(_expand(rec["witness"], gens, ring) == poly, "witness does not expand to the query")

    return check


def non_member():
    """``ugb member`` on a non-member by construction."""

    @_guard
    def check(code, out):
        rec = _records(code, out, 1)
        _expect(rec["member"] is False, "non-member reported as member")

    return check
