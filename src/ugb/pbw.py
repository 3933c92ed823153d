"""Lie algebras by structure constants and their enveloping-algebra
rewriting systems.

A rank-n Lie algebra over an exact ring is stored as bracket coefficient
vectors for index pairs i > j; the antisymmetric extension is computed,
never stored.  The associated generating set in the free algebra consists
of x_i x_j - x_j x_i - [x_i, x_j] for i > j, each monic with leading word
x_i x_j, hence unital over any coefficient ring.  When the set passes the
Buchberger check, the quotient has the non-decreasing words as a module
basis with symmetric-algebra dimension counts, which is verified here
degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .division import GBVerdict, GenSet
from .errors import InvalidLie
from .poly import FREE, Algebra
from .quotient import QuotientBasis, enumerate_basis
from .words import Alphabet


class LieAlgebra:
    """Structure constants over an exact ring, for index pairs i > j."""

    __slots__ = ("ring", "rank", "names", "brackets")

    def __init__(self, ring, rank, brackets=None, names=None):
        if rank < 1:
            raise ValueError("rank must be positive")
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(rank))
        else:
            names = tuple(names)
            if len(names) != rank:
                raise ValueError("need exactly one name per generator")
        Alphabet(names)  # validates the symbols
        stored = {}
        for (i, j), vec in (brackets or {}).items():
            if not (0 <= j < i < rank):
                raise ValueError(f"bracket index pair ({i}, {j}) must satisfy rank > i > j >= 0")
            vec = tuple(ring.coerce(c) for c in vec)
            if len(vec) != rank:
                raise ValueError(f"bracket ({i}, {j}) needs {rank} coefficients")
            if any(not ring.is_zero(c) for c in vec):
                stored[(i, j)] = vec
        self.ring = ring
        self.rank = rank
        self.names = names
        self.brackets = stored

    def bracket_vector(self, i, j):
        """Coefficients of [x_i, x_j] over the basis, any index order."""
        ring = self.ring
        zero = ring.zero()
        if i == j:
            return (zero,) * self.rank
        if i > j:
            return self.brackets.get((i, j), (zero,) * self.rank)
        vec = self.brackets.get((j, i))
        if vec is None:
            return (zero,) * self.rank
        return tuple(ring.neg(c) for c in vec)

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and other.ring == self.ring
            and other.rank == self.rank
            and other.names == self.names
            and other.brackets == self.brackets
        )

    def __repr__(self):
        return f"LieAlgebra({self.ring}, rank={self.rank}, names={list(self.names)})"


@dataclass(frozen=True)
class JacobiViolation:
    triple: tuple
    coefficients: tuple


@dataclass(frozen=True)
class LieReport:
    ok: bool
    violations: tuple


def _bracket_with_gen(L, vec, k):
    # [sum_m vec_m x_m, x_k] as a coefficient vector
    ring = L.ring
    out = [ring.zero()] * L.rank
    for m, c in enumerate(vec):
        if ring.is_zero(c):
            continue
        bm = L.bracket_vector(m, k)
        for t in range(L.rank):
            out[t] = ring.add(out[t], ring.mul(c, bm[t]))
    return out


def validate_lie(L):
    """Exhaustive antisymmetry and Jacobi verification over all triples.

    Antisymmetry holds by construction (only i > j is stored), so the
    report lists Jacobi failures: every triple whose cyclic bracket sum
    is nonzero, together with that sum.
    """
    ring = L.ring
    violations = []
    for i in range(L.rank):
        for j in range(L.rank):
            for k in range(L.rank):
                v1 = _bracket_with_gen(L, L.bracket_vector(i, j), k)
                v2 = _bracket_with_gen(L, L.bracket_vector(j, k), i)
                v3 = _bracket_with_gen(L, L.bracket_vector(k, i), j)
                total = tuple(
                    ring.add(ring.add(a, b), c) for a, b, c in zip(v1, v2, v3)
                )
                if any(not ring.is_zero(c) for c in total):
                    violations.append(JacobiViolation((i, j, k), total))
    return LieReport(not violations, tuple(violations))


def pbw_generators(L):
    """The rewriting system x_i x_j -> x_j x_i + [x_i, x_j] as a GenSet.

    No Jacobi validation happens here; probes deliberately build systems
    from invalid tables to compare the two verdicts.
    """
    algebra = Algebra(L.ring, Alphabet(L.names), FREE)
    ring = L.ring
    one = ring.one()
    gens = []
    for i in range(L.rank):
        for j in range(i):
            terms = [(one, (i, j)), (ring.neg(one), (j, i))]
            for k, c in enumerate(L.bracket_vector(i, j)):
                if not ring.is_zero(c):
                    terms.append((ring.neg(c), (k,)))
            gens.append(algebra.poly(terms))
    return GenSet(gens, algebra)


@dataclass(frozen=True)
class PBWSystem:
    lie: LieAlgebra
    gens: GenSet


def build_pbw(L):
    """Validated enveloping-algebra rewriting system; raises InvalidLie."""
    report = validate_lie(L)
    if not report.ok:
        first = report.violations[0]
        raise InvalidLie(
            f"Jacobi identity fails on triple {first.triple} "
            f"({len(report.violations)} violating triples in total)"
        )
    return PBWSystem(L, pbw_generators(L))


@dataclass(frozen=True)
class PBWReport:
    """Joint verdicts: Jacobi, Buchberger, basis counts, word shape."""

    lie: LieReport
    groebner: object
    basis: QuotientBasis
    counts: tuple
    expected_counts: tuple
    non_decreasing: bool

    @property
    def ok(self):
        return (
            self.lie.ok
            and self.groebner.verdict is GBVerdict.IS_GROEBNER
            and self.counts == self.expected_counts
            and self.non_decreasing
        )


def verify_pbw(L, max_degree):
    """Check the enveloping-algebra basis claims up to a degree bound.

    Runs the Buchberger check on the rewriting system, enumerates normal
    words, and compares the per-degree counts with the symmetric-algebra
    dimensions C(n + d - 1, d); also asserts every normal word is
    non-decreasing.  Failures are reported, never raised.
    """
    lie_report = validate_lie(L)
    G = pbw_generators(L)
    gb_report = G.groebner_report()
    basis = enumerate_basis(G, max_degree, strict=False)
    counts = basis.counts()
    expected = tuple(comb(L.rank + d - 1, d) for d in range(max_degree + 1))
    non_decreasing = all(
        all(w[t] <= w[t + 1] for t in range(len(w) - 1)) for w in basis.words()
    )
    return PBWReport(lie_report, gb_report, basis, counts, expected, non_decreasing)
