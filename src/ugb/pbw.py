"""Lie algebras by structure constants and their enveloping-algebra
rewriting systems.

A rank-n Lie algebra over an exact ring is stored as bracket coefficient
vectors for index pairs i > j; the antisymmetric extension is computed,
never stored.  The associated generating set in the free algebra consists
of x_i x_j - x_j x_i - [x_i, x_j] for i > j, each monic with leading word
x_i x_j, hence unital over any coefficient ring; ``pbw_generators`` builds
it without checking Jacobi, so invalid tables can be probed too.
``validate_lie`` evaluates the Jacobi sum once per unordered triple of
distinct indices and still reports every ordered triple on which it fails.
When the set passes the Buchberger check, the quotient has the
non-decreasing words as a module basis with symmetric-algebra dimension
counts; ``verify_pbw`` checks the counts degree by degree, and the word
shape on the leading words alone.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, permutations
from math import comb

from .division import GenSet
from .poly import Algebra
from .quotient import count_basis
from .spolys import check_groebner
from .words import FREE, Alphabet


class LieAlgebra:
    """Structure constants over an exact ring, for index pairs i > j."""

    __slots__ = ("ring", "rank", "alphabet", "brackets")

    def __init__(self, ring, rank, brackets=None, names=None):
        if rank < 1:
            raise ValueError("rank must be positive")
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(rank))
        else:
            names = tuple(names)
            if len(names) != rank:
                raise ValueError("need exactly one name per generator")
        alphabet = Alphabet(names)  # validates the symbols
        stored = {}
        for (i, j), vec in (brackets or {}).items():
            if not (0 <= j < i < rank):
                raise ValueError(f"bracket index pair ({i}, {j}) must satisfy rank > i > j >= 0")
            vec = tuple(ring.coerce(c) for c in vec)
            if len(vec) != rank:
                raise ValueError(f"bracket ({i}, {j}) needs {rank} coefficients")
            if any(vec):
                stored[(i, j)] = vec
        self.ring = ring
        self.rank = rank
        self.alphabet = alphabet
        self.brackets = stored

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and other.ring == self.ring
            and other.rank == self.rank
            and other.alphabet == self.alphabet
            and other.brackets == self.brackets
        )

    def __repr__(self):
        return f"LieAlgebra({self.ring}, rank={self.rank}, names={list(self.alphabet.names)})"


def validate_lie(L):
    """Exhaustive antisymmetry and Jacobi verification over all triples.

    Antisymmetry holds by construction (only i > j is stored), so the
    result is the tuple of Jacobi failures, empty exactly when Jacobi
    holds: a (triple, sum) pair for every ordered triple whose cyclic
    bracket sum is nonzero, in lexicographic order.  The sum is
    alternating in the triple, so it vanishes when an index repeats and
    is evaluated once per set i < j < k, on the nonzero bracket
    coefficients only; the other orders of a set reuse it with the sign
    of the permutation.
    """
    coerce = L.ring.coerce
    # (m, k) -> nonzero (t, c) of [x_m, x_k], for both orders of the pair;
    # entries may be raw negatives, since each sum is coerced once
    table = {}
    for (i, j), vec in L.brackets.items():
        nonzero = [(t, c) for t, c in enumerate(vec) if c]
        table[(i, j)] = nonzero
        table[(j, i)] = [(t, -c) for t, c in nonzero]
    violations = []
    for i, j, k in combinations(range(L.rank), 3):
        # [[x_i, x_j], x_k] + [[x_j, x_k], x_i] + [[x_k, x_i], x_j]
        total = [0] * L.rank
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, u in table.get((a, b), ()):
                for t, v in table.get((m, c), ()):
                    total[t] += u * v
        total = tuple(map(coerce, total))
        if any(total):
            # permutations() lists the orders even, odd, odd, even, even, odd
            neg = tuple(coerce(-x) for x in total)
            violations += zip(permutations((i, j, k)), (total, neg, neg, total, total, neg))
    violations.sort()  # the triples are distinct, so no sum is compared
    return tuple(violations)


def pbw_generators(L):
    """The rewriting system x_i x_j -> x_j x_i + [x_i, x_j] as a GenSet.

    No Jacobi validation happens here; probes deliberately build systems
    from invalid tables to compare the two verdicts.
    """
    algebra = Algebra(L.ring, L.alphabet, FREE)
    gens = []
    for i in range(L.rank):
        for j in range(i):
            terms = [(1, (i, j)), (-1, (j, i))]
            for k, c in enumerate(L.brackets.get((i, j), ())):
                if c:
                    terms.append((-c, (k,)))
            gens.append(algebra.poly(terms))
    return GenSet(gens, algebra)


class PBWReport(namedtuple("PBWReport", "jacobi_violations groebner counts expected_counts non_decreasing")):
    """Joint verdicts: Jacobi (the ``validate_lie`` failures), Buchberger,
    basis counts, word shape."""

    __slots__ = ()

    @property
    def ok(self):
        return (
            not self.jacobi_violations
            and self.groebner.is_groebner
            and self.counts == self.expected_counts
            and self.non_decreasing
        )


def verify_pbw(L, max_degree):
    """Check the enveloping-algebra basis claims up to a degree bound.

    Counts the normal words first (``count_basis``, with no listing), so a
    negative bound raises before any other work; then runs the Jacobi and
    Buchberger checks and compares the counts with the symmetric-algebra
    dimensions C(n + d - 1, d).  Under the free oracle a factor of a
    normal word is normal, so the normal words are non-decreasing exactly
    when a leading word divides each descent ``a b``, a > b.  Every lead
    ``pbw_generators`` builds is a descent, one per pair, so this verdict
    checks the index, not the algebra: it holds for every table.  Failed
    claims are reported, never raised.
    """
    G = pbw_generators(L)
    counts = count_basis(G, max_degree)
    violations = validate_lie(L)
    gb_report = check_groebner(G)
    expected = tuple(comb(L.rank + d - 1, d) for d in range(max_degree + 1))
    first = G.leads.first
    non_decreasing = all(first(bytes((a, b))) is not None for a in range(L.rank) for b in range(a))
    return PBWReport(violations, gb_report, counts, expected, non_decreasing)
