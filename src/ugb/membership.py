"""Brute-force ideal membership at a degree bound.

The truncated module spans every context product u * g * v whose words
stay inside the bound, and it is built with the sparse row echelon of
those rows, so each query is one exact linear solve against it.  A
pivot is a row's lowest column, the leading word, and the ring supplies
only an exact quotient: the rational one over Q, and over Z the
quotient when it exists, with an xgcd row operation otherwise (no
division by non-units anywhere).  Over Z/n the same elimination runs on
residues: each pivot entry is normalised to a divisor of n, so the Z
quotient rule still applies, and each non-unit pivot brings its
annihilator row, which keeps the echelon a Howell basis and the greedy
solve exact.  Each pivot keeps a short recipe, which only a member
solve expands into module rows.  Witnesses come back in the same
(coeff, left, gen, right) shape as division steps, and each one is
expanded and checked against the query before it is returned.

This module is deliberately independent of the reduction engine so the
two can cross-check each other.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BoundTooSmall, EngineInvariantBroken
from .poly import Poly, ensure_same_algebra
from .words import _normal_levels


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


def _add_scaled(pair, pivot, c, n):
    """pair += c * pivot: the pivot's row is merged into the pair's row,
    entries taken mod n when n is nonzero and dropped when they cancel,
    and (pivot atom, c) is appended to the pair's recipe."""
    vec = pair[0]
    for t, v in pivot[0].items():
        v = vec.get(t, 0) + c * v
        if n:
            v %= n
        if v:
            vec[t] = v
        else:
            vec.pop(t, None)
    pair[1].append((pivot[1], c))


def _scaled(pair, c, n):
    row, recipe = pair
    if n:
        return ({t: w for t, v in row.items() if (w := c * v % n)},
                [(i, w) for i, v in recipe if (w := c * v % n)])
    return {t: c * v for t, v in row.items()}, [(i, c * v) for i, v in recipe]


class _Echelon:
    """Sparse incremental row echelon whose pivots keep short recipes.

    Rows are ``{index: nonzero}`` dicts, and a row in elimination is a
    (row, recipe) pair.  A row's pivot is its lowest column, and a
    stored pivot row has a positive pivot entry.  The ring enters
    through ``quotient(a, b)``, the exact quotient a / b or None when
    there is none, and ``modulus``: 0 over Z and Q, n over Z/n, where
    every entry is a residue reduced as it is formed.  On insert a
    missing quotient is met by an xgcd row operation, which replaces the
    pivot by the gcd row and carries on with the cancelled remainder (no
    division by non-units anywhere); on solve it means the target is not
    in the row span.

    Over Z/n a row that lands on an empty column with entry a is scaled
    by the xgcd cofactor to the entry g = gcd(a, n), and what that
    leaves of the row goes on, so every pivot entry divides n and
    integer divisibility is the exact quotient on residues.  Each time a
    pivot entry becomes a non-unit g, the annihilator (n / g) * pivot is
    inserted too.  That keeps the rows a Howell basis (Howell 1986): a
    span element that vanishes up to a column is spanned by the pivots
    beyond it, so the greedy solve is exact.  Over Z/p every pivot entry
    is 1 and no annihilator arises.

    Witnesses are expanded on demand.  Each stored pivot is a (row,
    atom) pair, the atom being its creation index offset past the input
    row indices, and keeps a recipe: (index, coefficient) entries, over
    input rows and older atoms, whose weighted sum is that pivot row.  A
    row operation appends one entry to the working row's recipe; only a
    member solve expands its recipe, in one pass over the atoms from
    newest to oldest.
    """

    def __init__(self, rows, quotient, modulus):
        self.quotient = quotient
        self.modulus = modulus
        self.pivots = {}
        self.recipes = []
        self.first_atom = len(rows)
        for r, row in enumerate(rows):
            todo = [(dict(row), [(r, 1)])]
            while todo:
                self._reduce(todo.pop(), todo)

    def _set_pivot(self, col, pair, g, todo):
        atom = self.first_atom + len(self.recipes)
        self.recipes.append(pair[1])
        self.pivots[col] = (pair[0], atom)
        if self.modulus and g != 1:
            todo.append(_scaled((pair[0], [(atom, 1)]), self.modulus // g, self.modulus))

    def _reduce(self, pair, todo=None):
        """Cancel the row of the pair against the pivots, lowest column
        first, and return what is left of it.  Insert (with a todo list
        for the annihilator rows) stores what it cannot cancel as a
        pivot; solve stops at the first column it cannot cancel."""
        n = self.modulus
        vec = pair[0]
        while vec:
            col = min(vec)
            a = vec[col]
            piv = self.pivots.get(col)
            if piv is None:
                if todo is None:
                    return vec
                # over Z and Q (n = 0) this only makes the pivot entry positive
                g, x, y = _xgcd(a, n)
                self._set_pivot(col, pair if x == 1 else _scaled(pair, x, n), g, todo)
                if not n:
                    return vec
                # pair - (a / g) * pivot is c * pair, as x * a + y * n = g
                c = y * (n // g) % n
                if not c:
                    return {}
                pair = _scaled(pair, c, n)
                vec = pair[0]
            else:
                b = piv[0][col]
                q = self.quotient(a, b)
                if q is not None:
                    _add_scaled(pair, piv, -q, n)
                elif todo is None:
                    return vec
                else:
                    g, x, y = _xgcd(b, a)
                    new = _scaled(pair, y, n)
                    _add_scaled(new, piv, x, n)
                    self._set_pivot(col, new, g, todo)
                    pair = _scaled(pair, -(b // g), n)
                    _add_scaled(pair, piv, a // g, n)
                    vec = pair[0]
        return vec  # fully cancelled: a dependent row, or a member

    def solve(self, target):
        """Combination of the rows equal to target, or None.  Each atom,
        newest first, is replaced by its recipe, which refers only to
        input rows and older atoms, so one pass leaves only input rows."""
        pair = (dict(target), [])
        if self._reduce(pair):
            return None
        n = self.modulus
        comb = {}
        for i, c in pair[1]:
            comb[i] = comb.get(i, 0) - c
        first = self.first_atom
        for atom in range(first + len(self.recipes) - 1, first - 1, -1):
            c = comb.pop(atom, 0)
            if n:
                c %= n
            if c:
                for i, v in self.recipes[atom - first]:
                    comb[i] = comb.get(i, 0) + c * v
        return {r: w for r, c in comb.items() if (w := c % n if n else c)}


class MembershipResult(namedtuple("MembershipResult", "witness")):
    """Member with an explicit witness, or not provable at this bound
    (``witness`` is None).

    A negative answer certifies non-membership only relative to the
    truncation degree; for a verified Groebner basis it is decisive,
    because membership of a degree-d element is witnessed at degree d.
    """

    __slots__ = ()

    @property
    def member(self):
        return self.witness is not None


class TruncatedModule(namedtuple(
        "TruncatedModule", "genset bound columns col_index rows provenance echelon")):
    """All context products of the generators within a degree bound,
    flattened to coefficient rows over the basis words (``col_index``
    maps a word to its column), with ``provenance[r]`` the (gen, left,
    right) of row r and ``echelon`` the rows' echelon.  Over Z/n the
    echelon works on residues, and the annihilator rows it adds are
    combinations of module rows, so every index of a solution is a
    module row."""

    __slots__ = ()


def build_truncation(G, bound):
    """The truncated module: every context product u * g * v with all its
    words inside the bound, with the echelon of those rows.

    The fixed order is graded and both oracles map words to single
    monic words, so the leading word has maximal length among the terms
    and the row filter is exactly len(u) + len(LM(g)) + len(v) <= bound.
    The basis words grow once, degree by degree, by the oracle's
    ``extensions``: the oracle indexes no leading word, so they are every
    basis word one letter longer.  The columns are those levels read
    backwards, which is descending in the order.  Rows follow the
    generators, then the oracle's ``contexts`` read off the levels: every
    split (u, v) when free, (1, m) per monomial m when commutative.  A
    repeated row keeps its first provenance; two generators can give one
    (commutative x and y both give x y), and so can two free contexts of
    one (x x - 1 under (x, 1) and (1, x)).
    """
    algebra = G.algebra
    max_lead = max((len(w) for w in G.lead_words), default=0)
    if bound < max_lead:
        raise BoundTooSmall(
            f"bound {bound} is below the maximal generator degree {max_lead}"
        )
    levels = _normal_levels(algebra.oracle, algebra.alphabet.letters, bound)
    columns = [w for level in reversed(levels) for w in reversed(level)]
    context = algebra.oracle.context
    contexts = algebra.oracle.contexts
    rows = []
    provenance = []
    seen = set()
    for i, g in enumerate(G.gens):
        for u, v in contexts(levels, bound - len(G.lead_words[i])):
            # u and v are basis words and the coefficients stay g's own,
            # so this is g.scale(1, u, v)
            terms = tuple([(tc, context(u, tw, v)) for tc, tw in g.terms])
            if terms in seen:
                continue
            seen.add(terms)
            rows.append(Poly(algebra, terms))
            provenance.append((i, u, v))
    col_index = {w: t for t, w in enumerate(columns)}
    ring = algebra.ring
    echelon = _Echelon([{col_index[w]: c for c, w in p.terms} for p in rows], ring.quotient, ring.modulus)
    return TruncatedModule(G, bound, columns, col_index, rows, provenance, echelon)


def is_member(f, T):
    """Exact solvability of f against the truncated module rows.

    Member results carry a witness of plain (coeff, left, gen, right)
    tuples, the shape of division steps, whose expansion reconstructs f.
    """
    G = T.genset
    ensure_same_algebra(f.algebra, G.algebra)
    if any(len(w) > T.bound for _, w in f.terms):
        raise BoundTooSmall(f"query exceeds the truncation bound {T.bound}")
    ring = G.algebra.ring
    sol = T.echelon.solve({T.col_index[w]: c for c, w in f.terms})
    if sol is None:
        return MembershipResult(None)
    witness = []
    for r in sorted(sol):
        i, u, v = T.provenance[r]
        witness.append((ring.coerce(sol[r]), u, i, v))
    witness = tuple(witness)
    if expand_witness(G, witness) != f:
        raise EngineInvariantBroken("membership witness does not expand to the query")
    return MembershipResult(witness)


def expand_witness(G, witness):
    """Sum of the witness context products; equals the queried element."""
    scaled = (G.gens[gen].scale(coeff, left, right) for coeff, left, gen, right in witness)
    terms = [t for p in scaled for t in p.terms]
    return G.algebra.poly(terms)
