"""Critical pairs: s-polynomials, the Buchberger criterion, a bounded
completion loop, and the verdict with its strict-mode gate.

An s-polynomial is the difference of two scaled context products of
generators whose leading terms meet at one ambiguity word; the scaling
divides by the (unit) leading coefficients, so coefficients stay small
and nothing outside the unit group is ever inverted.

The set's lead-word index (``GenSet.leads``) lists the pair family
(``critical_pairs``), the diamond-lemma family of its oracle, whole or
only the pairs that involve the generators from a given index on; see
:mod:`ugb.words`.
"""

from __future__ import annotations

from collections import namedtuple

from .division import GenSet, divide
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
    """Both scaled context products in one merge, the second scaled by the
    negated inverse; the oracle's context words are not re-checked."""
    algebra = G.algebra
    coerce = algebra.ring.coerce
    context = algebra.oracle.context
    terms = []
    for c, k, left, right in ((G.inv_leads[i], i, u, v), (coerce(-G.inv_leads[j]), j, u2, v2)):
        for tc, tw in G.gens[k].terms:
            nc = coerce(c * tc)
            if nc:  # _sum trusts its terms to be nonzero
                terms.append((nc, context(left, tw, right)))
    value = algebra._sum(terms)
    ambiguity = context(u, G.lead_words[i], v)
    if not (value.is_zero() or _deglex(value.lm()) < _deglex(ambiguity)):
        raise EngineInvariantBroken("s-polynomial leading terms failed to cancel")
    return SPoly(i, j, u, u2, ambiguity, value)


def _pair_order(sp):
    """Ambiguity word, then generators, then placement: a total order on
    the pair family, so the list does not depend on emission order."""
    return (_deglex(sp.ambiguity), sp.i, sp.j, len(sp.u), len(sp.u2))


def _spolys(G, first_new):
    """s-polynomials of the pairs (i, j), i <= j, with j >= first_new,
    unsorted."""
    return [_make_spoly(G, *pair) for pair in G.leads.critical_pairs(first_new)]


def s_polynomials(G):
    """All critical-pair s-polynomials of the set, ascending by ambiguity.

    Zero-valued s-polynomials are kept: they count as checked pairs.
    """
    G.require_unital()
    return sorted(_spolys(G, 0), key=_pair_order)


def _failures(pending, G):
    """(s-polynomial, first-match trace) for each (s-polynomial, dividend)
    of pending whose dividend has a nonzero remainder against G, in the
    order given."""
    out = []
    for sp, f in pending:
        trace = divide(f, G)
        if not trace.remainder.is_zero():
            out.append((sp, trace))
    return out


def check_groebner(G):
    """Buchberger criterion: the set is a Groebner basis iff every
    s-polynomial divides to zero remainder (first-match division).

    The pair family is finite for both shipped oracles, so the verdict is
    exact and unconditional.
    """
    spolys = s_polynomials(G)
    return GBReport(len(spolys), tuple(_failures([(sp, sp.value) for sp in spolys], G)))


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

    The first round divides every s-polynomial of the input.  Each later
    round divides the new pairs, those involving an adjoined generator,
    and carries each pair that failed in the round before with its
    remainder, which alone is divided against the larger set.  That gives
    the remainder of dividing the s-polynomial itself: adjoined generators
    come after the old ones and the first match is the lowest generator
    index that divides, so every word an old generator reduced is reduced
    by the same step against the larger set.  A word's rewrite depends
    only on the word, so the remainder N(f) is linear in f, and f - N(f)
    is a sum of such steps, whose remainder is zero; hence N'(N(f)) ==
    N'(f) for the larger set's N', and a pair that divided to zero stays
    zero.  Only the failures are sorted, by ``_pair_order``, before they
    are adjoined.  The verdict, the adjoined generators and the exceptions
    are those of running the full check every round.

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
        pending = [(sp, trace.remainder) for sp, trace in failed]
        pending += [(sp, sp.value) for sp in _spolys(current, first_new)]
        failed = _failures(pending, current)
        if not failed:
            return current
        failed.sort(key=lambda failure: _pair_order(failure[0]))
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
