"""Two-sided division with remainder: f = remainder + sum of c * (u*g*v).

Divisors are drawn only from the supplied generating set.  All leading
coefficients must be units, which makes the divisibility test purely
combinatorial (it looks at leading words only, and the multiplication
oracle defines it) and keeps every inversion legal over the ground ring.
The remainder is "G-normal": no leading word of the set divides any of
its words.  When the set is a verified Groebner basis this normal form
is unique and independent of the divisor-selection strategy.

Termination is guaranteed because the working leading monomial strictly
decreases in a well order; the step budget is a defensive guard against
engine bugs, not expected behavior.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import neg

from .errors import BudgetExceeded, EngineInvariantBroken, NotAGroebnerBasis, NotUnital
from .poly import Poly, ensure_same_algebra

DEFAULT_STEP_BUDGET = 10 ** 6


class FirstMatch:
    """Deterministic choice: lowest generator index, then leftmost factor."""

    def __repr__(self):
        return "first"


@dataclass(frozen=True)
class Seeded:
    """Uniform random choice among all (generator, position) matches,
    reproducible from the seed."""

    seed: int

    def __repr__(self):
        return f"seeded:{self.seed}"


FIRST_MATCH = FirstMatch()


def parse_strategy(text):
    """Strategy from CLI text: "first" or "seeded:<n>"."""
    text = text.strip()
    if text == "first":
        return FIRST_MATCH
    if text.startswith("seeded:"):
        tail = text[len("seeded:"):]
        try:
            return Seeded(int(tail))
        except ValueError:
            raise ValueError(f"bad seed in strategy {text!r}") from None
    raise ValueError(f"unknown strategy {text!r} (expected first or seeded:<n>)")


class GBVerdict(enum.Enum):
    IS_GROEBNER = "IsGroebner"
    NOT_GROEBNER = "NotGroebner"


@dataclass(frozen=True)
class GBReport:
    """Outcome of the Buchberger check.

    witnesses holds one (s-polynomial, division trace) pair for every
    nonzero remainder; it is empty exactly when the verdict is
    IS_GROEBNER.
    """

    verdict: GBVerdict
    pairs_checked: int
    witnesses: tuple


class GenSet:
    """An ordered set of nonzero generators in one algebra.

    Carries a per-generator record of which leading coefficients are
    units; operations that invert leading coefficients insist on all of
    them being units.  ``leads`` is the oracle's divisibility index over
    the leading words, and ``gen_terms`` the generators' term tuples, which
    every division step reads.  The Groebner verdict for the set is
    computed on demand and cached (the set itself is immutable).
    """

    __slots__ = (
        "algebra", "gens", "gen_terms", "unit_leads", "is_unital", "lead_words", "leads",
        "_inv_leads", "_report",
    )

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
        self.gen_terms = tuple(g.terms for g in gens)
        ring = algebra.ring
        self.unit_leads = tuple(ring.is_unit(g.lc()) for g in gens)
        self.is_unital = all(self.unit_leads)
        self.lead_words = tuple(g.lm() for g in gens)
        self.leads = algebra.oracle.lead_index(self.lead_words)
        self._inv_leads = tuple(
            ring.inv_unit(g.lc()) if unit else None
            for g, unit in zip(gens, self.unit_leads)
        )
        self._report = None

    def require_unital(self):
        if not self.is_unital:
            bad = [i for i, unit in enumerate(self.unit_leads) if not unit]
            raise NotUnital(
                f"leading coefficients of generators {bad} are not units "
                f"in {self.algebra.ring}"
            )

    def groebner_report(self):
        """Cached Buchberger verdict for this set."""
        if self._report is None:
            check_groebner(self)
        return self._report

    def is_groebner(self):
        return self.groebner_report().verdict is GBVerdict.IS_GROEBNER

    def require_groebner(self):
        """Strict-mode gate: normal forms, quotient bases and the split
        are canonical only for a verified Groebner basis."""
        verdict = self.groebner_report().verdict
        if verdict is not GBVerdict.IS_GROEBNER:
            raise NotAGroebnerBasis(
                f"generating set verdict is {verdict.value}; strict mode needs a "
                "verified Groebner basis (non-strict mode gives G-normal results)"
            )

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def __getitem__(self, i):
        return self.gens[i]

    def __repr__(self):
        return f"GenSet({list(self.gens)})"


@dataclass(frozen=True)
class DivisionTrace:
    """Full record of one division run.

    Each step is the plain tuple (coeff, left, gen, right), one rewrite
    that subtracts coeff * (left * gens[gen] * right).  Invariant:
    dividend == remainder + sum of the recorded steps, and no leading word
    of the set divides a remainder word.
    """

    dividend: Poly
    gens: GenSet
    steps: tuple
    remainder: Poly


def divide(f, G, strategy=FIRST_MATCH, step_budget=DEFAULT_STEP_BUDGET):
    """Run the rewriting loop until the working polynomial is exhausted.

    Each iteration either peels the leading term into the remainder (no
    divisor matches) or subtracts a scaled generator context product that
    cancels it exactly.
    """
    G.require_unital()
    ensure_same_algebra(f.algebra, G.algebra)
    if step_budget <= 0:
        raise ValueError("step_budget must be positive")
    rng = random.Random(strategy.seed) if isinstance(strategy, Seeded) else None

    algebra = G.algebra
    coerce = algebra.ring.coerce
    mul_words = algebra.oracle.mul_words
    leads = G.leads
    inv_leads = G._inv_leads
    gen_terms = G.gen_terms

    working = {w: c for c, w in f.terms}
    # Max-heap of the words entering ``working``: each entry is one flat
    # tuple (-len(w), -w[0], ..., -w[-1], w), so that the least entry is
    # the graded-lex greatest word, read back as entry[-1].  The terms of f
    # descend in that order, so their ascending entries are already a heap.
    # A word that leaves ``working`` leaves a stale entry, dropped when it
    # is popped; a word that cancels and comes back gets a second entry.
    heap = [(-len(w), *map(neg, w), w) for _, w in f.terms]
    steps = []
    peeled = []
    prev = ()  # below every heap entry
    iterations = 0
    while working:
        iterations += 1
        if iterations > step_budget:
            raise BudgetExceeded(f"division exceeded {step_budget} steps")
        entry = heappop(heap)
        while entry[-1] not in working:
            entry = heappop(heap)
        if entry <= prev:
            raise EngineInvariantBroken("leading monomial failed to decrease")
        prev = entry
        lm_f = entry[-1]
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
        for tc, tw in gen_terms[i]:
            w = mul_words(u, mul_words(tw, v))
            cur = working.get(w, 0)  # 0 only when absent: no stored zeros
            nc = coerce(cur - lam * tc)
            if not nc:
                working.pop(w, None)
            else:
                working[w] = nc
                if not cur:
                    heappush(heap, (-len(w), *map(neg, w), w))
        if lm_f in working:
            raise EngineInvariantBroken("leading term failed to cancel")
    remainder = Poly(algebra, tuple(peeled))
    return DivisionTrace(f, G, tuple(steps), remainder)


def normal_form(f, G, strict=True):
    """The unique remainder of f modulo a verified Groebner basis.

    With ``strict=False`` the division still runs, but the result is only
    G-normal: reduced with respect to the given set, with no uniqueness
    claim unless the set actually is a Groebner basis.
    """
    if strict:
        G.require_groebner()
    return divide(f, G, FIRST_MATCH).remainder


# spolys builds on GenSet and divide above; importing it once they exist
# lets GenSet.groebner_report run the check without a cyclic import.
from .spolys import check_groebner  # noqa: E402
