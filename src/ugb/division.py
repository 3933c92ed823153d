"""Two-sided division with remainder: f = remainder + sum of c * (u*g*v).

Divisors are drawn only from the supplied generating set.  All leading
coefficients must be units, which makes the divisibility test purely
combinatorial (it looks at leading words only, and the multiplication
oracle defines it) and keeps every inversion legal over the ground ring.
The remainder is "G-normal": no leading word of the set divides any of
its words.  When the set is a verified Groebner basis this normal form
is unique and independent of the divisor choice: the first match (lowest
generator index, then leftmost factor) or a seeded random one.

The loop, ``_reduce``, takes a working dict: ``divide`` hands it the
dividend's terms, the Buchberger check each s-polynomial as built.

Termination is guaranteed because the working leading monomial strictly
decreases in a well order; the step budget is a defensive guard against
engine bugs, not expected behavior.
"""

from __future__ import annotations

import random
from collections import namedtuple
from heapq import heapify, heappop, heappush

from .errors import BudgetExceeded, EngineInvariantBroken, NotUnital
from .poly import Poly, ensure_same_algebra

DEFAULT_STEP_BUDGET = 10 ** 6

# Maps each letter b to 255 - b: on words of one length it reverses the order.
NEG = bytes(range(255, -1, -1))


class GenSet:
    """An ordered set of nonzero generators in one algebra.

    ``inv_leads`` is the per-generator unit record: the inverse of each
    leading coefficient, None where it is not a unit.  Operations that
    invert leading coefficients insist on all of them being units.
    ``leads`` is the oracle's class built on the leading words, the index
    asked by every division, basis enumeration and pair listing.
    The set is built once and never written again; its generators are
    read through ``gens``.
    """

    __slots__ = ("algebra", "gens", "inv_leads", "lead_words", "leads")

    def __init__(self, gens, algebra=None):
        gens = tuple(gens)
        if algebra is None:
            if not gens:
                raise ValueError("an empty generating set needs an explicit algebra")
            algebra = gens[0].algebra
        for g in gens:
            ensure_same_algebra(algebra, g.algebra)
            if g.is_zero():
                raise ValueError("zero polynomial in generating set")
        self.algebra = algebra
        self.gens = gens
        self.inv_leads = tuple(algebra.ring.inv_unit(g.lc()) for g in gens)
        self.lead_words = tuple(g.lm() for g in gens)
        self.leads = type(algebra.oracle)(self.lead_words)

    @property
    def is_unital(self):
        return None not in self.inv_leads

    def require_unital(self):
        if not self.is_unital:
            bad = [i for i, inv in enumerate(self.inv_leads) if inv is None]
            raise NotUnital(
                f"leading coefficients of generators {bad} are not units "
                f"in {self.algebra.ring}"
            )

    def __repr__(self):
        return f"GenSet({list(self.gens)})"


class DivisionTrace(namedtuple("DivisionTrace", "steps remainder")):
    """Full record of one division run of f by G.

    Each step is the plain tuple (coeff, left, gen, right), one rewrite
    that subtracts coeff * (left * G.gens[gen] * right).  Invariant: f ==
    remainder + sum of the recorded steps, and no leading word of G
    divides a remainder word.
    """

    __slots__ = ()


def divide(f, G, seed=None, step_budget=DEFAULT_STEP_BUDGET):
    """Run the rewriting loop until the working polynomial is exhausted.

    Each iteration either peels the leading term into the remainder (no
    divisor matches) or subtracts a scaled generator context product that
    cancels it exactly.  With ``seed=None`` the divisor is the first match
    (lowest generator index, then leftmost factor); with an int it is a
    uniform choice among all matches, reproducible from the seed.
    """
    G.require_unital()
    ensure_same_algebra(f.algebra, G.algebra)
    if step_budget <= 0:
        raise ValueError("step_budget must be positive")
    rng = None if seed is None else random.Random(seed)
    return _reduce({w: c for c, w in f.terms}, G, rng, step_budget)


def _reduce(working, G, rng=None, step_budget=DEFAULT_STEP_BUDGET):
    """The loop of ``divide`` on a working dict, word -> nonzero
    coefficient, which it consumes; the caller has run the guards."""
    algebra = G.algebra
    coerce = algebra.ring.coerce
    context = algebra.oracle.context
    leads = G.leads
    inv_leads = G.inv_leads
    gens = G.gens

    # Max-heap of the words entering ``working``: each entry is the triple
    # (-len(w), w.translate(NEG), w), so that the least entry is the
    # graded-lex greatest word, read back as entry[2].  Both keys compare
    # in C, and the complemented word decides only between equal lengths.
    # A word that leaves ``working`` leaves a stale entry, dropped when it
    # is popped; a word that cancels and comes back gets a second entry.
    heap = [(-len(w), w.translate(NEG), w) for w in working]
    heapify(heap)
    steps = []
    peeled = []
    prev = ()  # below every heap entry
    iterations = 0
    while working:
        iterations += 1
        if iterations > step_budget:
            raise BudgetExceeded(f"division exceeded {step_budget} steps")
        entry = heappop(heap)
        while entry[2] not in working:
            entry = heappop(heap)
        if entry <= prev:
            raise EngineInvariantBroken("leading monomial failed to decrease")
        prev = entry
        lm_f = entry[2]
        lc_f = working[lm_f]
        if rng is None:
            match = leads.first(lm_f)
        else:
            matches = leads.matches(lm_f)
            match = rng.choice(matches) if matches else None
        if match is None:
            peeled.append((lc_f, lm_f))
            del working[lm_f]
            continue
        i, u, v = match
        lam = coerce(lc_f * inv_leads[i])
        steps.append((lam, u, i, v))
        for tc, tw in gens[i].terms:
            w = context(u, tw, v)
            cur = working.get(w, 0)  # 0 only when absent: no stored zeros
            nc = coerce(cur - lam * tc)
            if not nc:
                working.pop(w, None)
            else:
                working[w] = nc
                if not cur:
                    heappush(heap, (-len(w), w.translate(NEG), w))
        if lm_f in working:
            raise EngineInvariantBroken("leading term failed to cancel")
    remainder = Poly(algebra, tuple(peeled))
    return DivisionTrace(tuple(steps), remainder)

