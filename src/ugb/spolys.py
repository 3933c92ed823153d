"""Critical pairs: s-polynomials, the Buchberger criterion, a bounded
completion loop, and the verdict with its strict-mode gate.

An s-polynomial is the difference of two scaled context products of
generators whose leading terms meet at one ambiguity word; the scaling
divides by the (unit) leading coefficients, so coefficients stay small
and nothing outside the unit group is ever inverted.

The set's lead-word index (``GenSet.leads``) lists the pair family
(``critical_pairs``), the diamond-lemma family of its oracle, whole or
only the pairs that involve the generators from a given index on; see
:mod:`ugb.words`.  The check and completion divide each s-polynomial as
built; its ``SPoly`` is laid out only for the listing or a failure.
"""

from __future__ import annotations

from collections import namedtuple

from .division import GenSet, _reduce
from .errors import EngineInvariantBroken, NonUnitalRemainder, NotAGroebnerBasis, RoundsExceeded
from .words import _deglex


class GBReport(namedtuple("GBReport", "pairs_checked witnesses")):
    """Outcome of the Buchberger check.

    witnesses holds one (s-polynomial, division trace) pair for every
    nonzero remainder; the set is a Groebner basis exactly when there
    is none.
    """

    __slots__ = ()

    @property
    def is_groebner(self):
        return not self.witnesses


class SPoly(namedtuple("SPoly", "i j u u2 ambiguity value")):
    """s-polynomial about generators i and j at one placement (u, v, u2,
    v2) of their leading words on the ambiguity word.

    value = inv(a_i) * (u * g_i * v) - inv(a_j) * (u2 * g_j * v2); the two
    leading terms cancel at the ambiguity word, so either value == 0 or
    LM(value) < ambiguity.  Of the placement only the left contexts u and
    u2 are kept, to break ties in the pair order.
    """

    __slots__ = ()


def _make_spoly(G, i, j, u, v, u2, v2):
    """Ambiguity word and s-polynomial, as a division working dict, of one
    placement: the first scaled context product (no zero: a unit scales
    it), minus the second; context words are not re-checked.  Both must
    lead at the ambiguity word and cancel there, leaving every word below."""
    coerce = G.algebra.ring.coerce
    context = G.algebra.oracle.context
    c = G.inv_leads[i]
    working = {context(u, tw, v): coerce(c * tc) for tc, tw in G.gens[i].terms}
    c = G.inv_leads[j]
    for tc, tw in G.gens[j].terms:
        w = context(u2, tw, v2)
        nc = coerce(working.pop(w, 0) - c * tc)
        if nc:
            working[w] = nc
    ambiguity = context(u, G.lead_words[i], v)
    if ambiguity in working or context(u2, G.lead_words[j], v2) != ambiguity:
        raise EngineInvariantBroken("s-polynomial leading terms failed to cancel")
    return ambiguity, working


def _spoly(G, pair):
    """The SPoly of a placement (i, j, u, v, u2, v2), laid out."""
    i, j, u, _, u2, _ = pair
    ambiguity, working = _make_spoly(G, *pair)
    return SPoly(i, j, u, u2, ambiguity, G.algebra._layout(working))


def _pair_order(sp):
    """Ambiguity word, then generators, then placement: a total order on
    the pair family, so the list does not depend on emission order."""
    return (_deglex(sp.ambiguity), sp.i, sp.j, len(sp.u), len(sp.u2))


def s_polynomials(G):
    """All critical-pair s-polynomials of the set, ascending by ambiguity.

    Zero-valued s-polynomials are kept: they count as checked pairs.
    """
    G.require_unital()
    return sorted([_spoly(G, pair) for pair in G.leads.critical_pairs(0)], key=_pair_order)


def _failures(G, pairs, failed=()):
    """(s-polynomial, first-match trace), sorted by ``_pair_order``, of each
    placement in pairs and each (s-polynomial, trace) of failed (only its
    remainder is divided again) that leaves a nonzero remainder."""
    out = []
    for sp, trace in failed:
        trace = _reduce({w: c for c, w in trace.remainder.terms}, G)
        if trace.remainder.terms:
            out.append((sp, trace))
    for pair in pairs:
        trace = _reduce(_make_spoly(G, *pair)[1], G)
        if trace.remainder.terms:
            out.append((_spoly(G, pair), trace))
    out.sort(key=lambda failure: _pair_order(failure[0]))
    return out


def check_groebner(G):
    """Buchberger criterion: the set is a Groebner basis iff every
    s-polynomial divides to zero remainder (first-match division).

    Witnesses come in the order of ``s_polynomials``.  The pair family is
    finite for both shipped oracles, so the verdict is exact and
    unconditional.
    """
    G.require_unital()
    pairs = G.leads.critical_pairs(0)
    return GBReport(len(pairs), tuple(_failures(G, pairs)))


def require_groebner(G):
    """Strict-mode gate: normal forms, quotient bases and the split are
    canonical only for a verified Groebner basis.  Runs the check on
    every call and raises NotAGroebnerBasis unless the set passes."""
    if not check_groebner(G).is_groebner:
        raise NotAGroebnerBasis(
            "generating set verdict is NotGroebner; strict mode needs a "
            "verified Groebner basis (non-strict mode gives G-normal results)"
        )


def complete(G, max_degree, max_rounds=8):
    """Adjoin monic remainders of failing s-polynomials until the
    Buchberger check passes, restricted to ambiguity words of length at
    most max_degree.

    The first round divides every pair of the input, as ``check_groebner``
    does.  Each later round divides the new pairs, those involving an
    adjoined generator, and carries each pair that failed in the round
    before with its remainder, which alone is divided against the larger
    set.  That gives the remainder of dividing the s-polynomial itself:
    adjoined generators come after the old ones and the first match is the
    lowest generator index that divides, so every word an old generator
    reduced is reduced by the same step against the larger set.  A word's
    rewrite depends only on the word, so the remainder N(f) is linear in
    f, and f - N(f) is a sum of such steps, whose remainder is zero; hence
    N'(N(f)) == N'(f) for the larger set's N', and a pair that divided to
    zero stays zero.  The failures are sorted, by ``_pair_order``, before
    they are adjoined.  The verdict, the adjoined generators and the
    exceptions are those of running the full check every round.

    Already-complete input is returned unchanged.  Raises
    NonUnitalRemainder when a failing remainder has a non-unit leading
    coefficient, and RoundsExceeded when the round limit runs out or no
    failing ambiguity fits the degree bound.
    """
    G.require_unital()
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    if max_rounds < 1:
        raise ValueError("max_rounds must be positive")
    ring = G.algebra.ring
    current = G
    first_new = 0
    failed = []
    for _ in range(max_rounds):
        failed = _failures(current, current.leads.critical_pairs(first_new), failed)
        if not failed:
            return current
        additions = []
        for sp, trace in failed:
            if len(sp.ambiguity) > max_degree:
                continue
            remainder = trace.remainder
            inv = ring.inv_unit(remainder.lc())
            if inv is None:
                raise NonUnitalRemainder(
                    f"s-polynomial of pair ({sp.i}, {sp.j}) reduced to "
                    f"{remainder} with non-unit leading coefficient "
                    f"{remainder.lc()}"
                )
            monic = remainder.scale(inv)
            if monic not in additions:
                additions.append(monic)
        if not additions:
            raise RoundsExceeded(
                "every failing ambiguity word is longer than "
                f"max_degree={max_degree}; completion cannot progress"
            )
        first_new = len(current.gens)
        current = GenSet(current.gens + tuple(additions), G.algebra)
    raise RoundsExceeded(f"no Groebner basis after {max_rounds} rounds")
