"""Brute-force ideal membership at a degree bound.

The truncated module spans every context product u * g * v whose words
stay inside the bound, and each query is one exact linear solve against
those rows in a single sparse row echelon.  Its pivot is a row's lowest
column, the leading word, and the ring supplies only an exact-quotient
rule: plain division over Q, and over Z the quotient when it exists,
with an xgcd row operation otherwise (no division by non-units
anywhere).  Z/n is still solved by lifting to Z with the congruence
rows n * e_k adjoined.  Witnesses come back in the same (coeff, left,
gen, right) shape as division steps and reconstruct the query exactly.

This module is deliberately independent of the reduction engine so the
two can cross-check each other.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .division import DivisionStep
from .errors import BoundTooSmall, UnsupportedRing
from .poly import ensure_same_algebra
from .rings import IntegerRing, ModularRing, RationalField
from .words import _deglex


def _xgcd(a, b):
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _divide_exactly(a, b):
    """Exact quotient over Z, or None when b does not divide a."""
    return a // b if a % b == 0 else None


def _add_scaled(dst, src, c):
    """dst += c * src on a (row, combination) pair of sparse dicts,
    dropping the entries that cancel."""
    for d, s in zip(dst, src):
        for t, v in s.items():
            v = d.get(t, 0) + c * v
            if v:
                d[t] = v
            else:
                d.pop(t, None)


def _scaled(pair, c):
    return tuple({t: c * v for t, v in s.items()} for s in pair)


class _Echelon:
    """Sparse incremental row echelon with row-combination tracking.

    Rows and combinations are ``{index: nonzero}`` dicts, kept together
    as (row, combination) pairs.  A row's pivot is its lowest column,
    and a stored pivot row has a positive pivot entry.  The ring enters
    only through ``quotient(a, b)``, the exact quotient a / b or None
    when there is none.  On insert a missing quotient is met by an xgcd
    row operation, which replaces the pivot by the gcd row and carries
    on with the cancelled remainder (no division by non-units anywhere);
    on solve it means the target is not in the row span.
    """

    def __init__(self, rows, quotient):
        self.quotient = quotient
        self.pivots = {}
        for r, row in enumerate(rows):
            self._reduce((dict(row), {r: 1}), insert=True)

    def _reduce(self, pair, insert):
        """Cancel the row of the pair against the pivots, lowest column
        first, and return what is left of it.  Insert stores a nonzero
        remainder as a new pivot; solve stops at the first column it
        cannot cancel."""
        vec = pair[0]
        while vec:
            col = min(vec)
            a = vec[col]
            piv = self.pivots.get(col)
            if piv is None:
                if insert:
                    self.pivots[col] = _scaled(pair, -1) if a < 0 else pair
                return vec
            b = piv[0][col]
            q = self.quotient(a, b)
            if q is not None:
                _add_scaled(pair, piv, -q)
            elif not insert:
                return vec
            else:
                g, x, y = _xgcd(b, a)
                self.pivots[col] = _scaled(pair, y)
                _add_scaled(self.pivots[col], piv, x)
                pair = _scaled(pair, -(b // g))
                _add_scaled(pair, piv, a // g)
                vec = pair[0]
        return vec  # fully cancelled: a dependent row, or a member

    def solve(self, target):
        """Combination of the rows equal to target, or None."""
        pair = (dict(target), {})
        if self._reduce(pair, insert=False):
            return None
        return {r: -c for r, c in pair[1].items()}


@dataclass(frozen=True)
class MembershipResult:
    """Member with an explicit witness, or not provable at this bound.

    A negative answer certifies non-membership only relative to the
    truncation degree; for a verified Groebner basis it is decisive,
    because membership of a degree-d element is witnessed at degree d.
    """

    member: bool
    witness: tuple
    bound: int


class TruncatedModule:
    """All context products of the generators within a degree bound,
    flattened to coefficient rows over the basis words."""

    def __init__(self, genset, bound, columns, rows, provenance):
        self.genset = genset
        self.bound = bound
        self.columns = columns
        self.col_index = {w: t for t, w in enumerate(columns)}
        self.rows = rows
        self.provenance = provenance
        self._solver = None

    def __len__(self):
        return len(self.rows)

    def _vector(self, poly):
        return {self.col_index[w]: c for c, w in poly.terms}

    def _get_solver(self):
        """Z/n is lifted to Z with the congruence rows n * e_k appended
        after the real rows, so their indices never reach a witness."""
        if self._solver is None:
            ring = self.genset.algebra.ring
            vectors = [self._vector(p) for p in self.rows]
            if isinstance(ring, RationalField):
                quotient = operator.truediv
            elif isinstance(ring, (IntegerRing, ModularRing)):
                quotient = _divide_exactly
            else:
                raise UnsupportedRing(f"no exact solver for {ring}")
            if isinstance(ring, ModularRing):
                vectors += [{k: ring.modulus} for k in range(len(self.columns))]
            self._solver = _Echelon(vectors, quotient)
        return self._solver


def build_truncation(G, bound):
    """Enumerate context products u * g * v with every word inside the bound.

    The fixed order is graded and both oracles map words to single
    monic words, so the leading word has maximal length among the terms
    and the row filter is exactly len(u) + len(LM(g)) + len(v) <= bound.
    Identical rows (the same polynomial from different contexts) are
    kept once, first provenance wins.  Rows are ordered by generator,
    then context degree, then context words.
    """
    algebra = G.algebra
    max_lead = max((len(w) for w in G.lead_words), default=0)
    if bound < max_lead:
        raise BoundTooSmall(
            f"bound {bound} is below the maximal generator degree {max_lead}"
        )
    n = algebra.alphabet.size
    oracle = algebra.oracle
    columns = []
    for d in range(bound + 1):
        columns.extend(oracle.basis_words(n, d))
    columns.sort(key=_deglex, reverse=True)
    one = algebra.ring.one()
    rows = []
    provenance = []
    seen = set()
    for i, g in enumerate(G.gens):
        room = bound - len(G.lead_words[i])
        for s in range(room + 1):
            for a in range(s + 1):
                b = s - a
                for u in oracle.basis_words(n, a):
                    for v in oracle.basis_words(n, b):
                        p = g.scale(one, u, v)
                        if p.terms in seen:
                            continue
                        seen.add(p.terms)
                        rows.append(p)
                        provenance.append((i, u, v))
    return TruncatedModule(G, bound, columns, rows, provenance)


def is_member(f, T):
    """Exact solvability of f against the truncated module rows.

    Member results carry a witness of (coeff, left, gen, right) entries
    whose expansion reconstructs f.
    """
    G = T.genset
    ensure_same_algebra(f.algebra, G.algebra)
    if any(len(w) > T.bound for _, w in f.terms):
        raise BoundTooSmall(f"query exceeds the truncation bound {T.bound}")
    if f.is_zero():
        return MembershipResult(True, (), T.bound)
    ring = G.algebra.ring
    sol = T._get_solver().solve(T._vector(f))
    if sol is None:
        return MembershipResult(False, None, T.bound)
    witness = []
    for r in sorted(sol):
        if r >= len(T.rows):
            break  # congruence rows of Z/n
        coeff = ring.coerce(sol[r])
        if ring.is_zero(coeff):
            continue
        i, u, v = T.provenance[r]
        witness.append(DivisionStep(coeff, u, i, v))
    return MembershipResult(True, tuple(witness), T.bound)


def expand_witness(G, witness):
    """Sum of the witness context products; equals the queried element."""
    scaled = (G[s.gen].scale(s.coeff, s.left, s.right) for s in witness)
    terms = [t for p in scaled for t in p.terms]
    return G.algebra.poly(terms)
