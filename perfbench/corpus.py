"""Seeded corpus generators: Lie structure constants, Jacobi-breaking
perturbations, long words, membership queries and commutative monomial
sets, written out through the engine's problem-file text format.

Everything here is plain data built with :mod:`algebra`; the engine only
ever sees the files and ``--poly`` strings produced from it.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from algebra import Ring, add_into, to_text


class Lie:
    """Structure constants ``brackets[(a, b)]`` for a > b (0-based), each a
    coefficient vector over the basis, in a named ring."""

    def __init__(self, name, names, brackets, ring):
        self.name = name
        self.names = list(names)
        self.brackets = {k: list(v) for k, v in brackets.items()}
        self.ring = Ring(ring) if isinstance(ring, str) else ring

    @property
    def rank(self):
        return len(self.names)

    def vector(self, a, b):
        """[x_a, x_b] for any index order, by antisymmetry."""
        zero = [0] * self.rank
        if a > b:
            return self.brackets.get((a, b), zero)
        if a < b:
            return [-c for c in self.brackets.get((b, a), zero)]
        return zero

    def bracket(self, vec, k):
        """[sum_m vec_m x_m, x_k] as a coefficient vector."""
        out = [0] * self.rank
        for m, c in enumerate(vec):
            if c:
                for t, d in enumerate(self.vector(m, k)):
                    out[t] += c * d
        return [self.ring.norm(c) for c in out]

    def jacobi_violations(self):
        """Sorted triples a > b > c whose cyclic bracket sum is nonzero."""
        bad = []
        for a, b, c in combinations(reversed(range(self.rank)), 3):
            total = [
                self.ring.norm(p + q + r)
                for p, q, r in zip(
                    self.bracket(self.vector(a, b), c),
                    self.bracket(self.vector(b, c), a),
                    self.bracket(self.vector(c, a), b),
                )
            ]
            if any(total):
                bad.append((a, b, c))
        return bad

    def generators(self):
        """PBW rewriting system x_a x_b - x_b x_a - [x_a, x_b] for a > b,
        in the engine's generator order."""
        n = self.names
        gens = []
        for a in range(self.rank):
            for b in range(a):
                g = {(n[a], n[b]): self.ring.norm(1), (n[b], n[a]): self.ring.norm(-1)}
                for m, c in enumerate(self.vector(a, b)):
                    add_into(g, {(n[m],): c}, self.ring, scale=-1)
                gens.append(g)
        return gens

    def lie_text(self):
        lines = [f"# {self.name}", f"ring {self.ring}", f"rank {self.rank}", "basis " + " ".join(self.names)]
        for (a, b), vec in sorted(self.brackets.items()):
            if any(self.ring.norm(c) for c in vec):
                lines.append(f"bracket {a + 1} {b + 1} : " + " ".join(str(self.ring.norm(c)) for c in vec))
        return "\n".join(lines) + "\n"

    def gens_text(self):
        lines = [f"# {self.name} PBW generators", f"ring {self.ring}", "alphabet " + " ".join(self.names)]
        lines.extend("gen " + to_text(g, self.names) for g in self.generators())
        return "\n".join(lines) + "\n"


def gl(n, ring):
    """gl_n on E_ij with [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    index = {p: t for t, p in enumerate(pairs)}
    brackets = {}
    for (i, j), a in index.items():
        for (k, l), b in index.items():
            if a > b:
                vec = [0] * len(pairs)
                if j == k:
                    vec[index[(i, l)]] += 1
                if l == i:
                    vec[index[(k, j)]] -= 1
                if any(vec):
                    brackets[(a, b)] = vec
    names = [f"e{i + 1}{j + 1}" for i, j in pairs]
    return Lie(f"gl{n}", names, brackets, ring)


def sl2(ring):
    """[f, e] = -h, [h, e] = 2e, [h, f] = -2f."""
    return Lie("sl2", ["e", "f", "h"], {(1, 0): [0, 0, -1], (2, 0): [2, 0, 0], (2, 1): [0, -2, 0]}, ring)


def heisenberg(ring):
    """[y, x] = -z with z central."""
    return Lie("heis", ["x", "y", "z"], {(1, 0): [0, 0, -1]}, ring)


def perturb(lie, rng, at=None):
    """A copy of ``lie`` with one bracket coefficient moved by a unit so
    that Jacobi fails on at least one triple.  The seed picks the unit and,
    unless ``at`` fixes it as (a, b, m), the coefficient: m of [x_a, x_b]."""
    pairs = [(a, b) for a in range(lie.rank) for b in range(a)]
    while True:
        a, b, m = at if at is not None else (*rng.choice(pairs), rng.randrange(lie.rank))
        out = Lie(lie.name + "-pert", lie.names, lie.brackets, lie.ring)
        vec = list(out.vector(a, b))
        vec[m] += rng.choice(lie.ring.units())
        out.brackets[(a, b)] = vec
        if out.jacobi_violations():
            return out


def descending_word(lie, k):
    """The basis in descending order, repeated k times: every adjacent pair
    is an inversion, so division rewrites from the top down."""
    return tuple(reversed(lie.names)) * k


def long_poly(lie, k, rng, extra_terms=2):
    """A unit multiple of ``descending_word(lie, k)`` plus a few short,
    seeded lower-order terms."""
    ring = lie.ring
    poly = {descending_word(lie, k): rng.choice(ring.units())}
    for _ in range(extra_terms):
        w = tuple(rng.choice(lie.names) for _ in range(rng.randrange(1, 4)))
        add_into(poly, {w: rng.choice(ring.units())}, ring)
    return poly


def context_product(gens, rng, names, bound):
    """(i, u, v) with len(u) + 2 + len(v) <= bound, uniformly by room."""
    i = rng.randrange(len(gens))
    room = rng.randrange(bound - 2 + 1)
    a = rng.randrange(room + 1)
    u = tuple(rng.choice(names) for _ in range(a))
    v = tuple(rng.choice(names) for _ in range(room - a))
    return i, u, v


def member_query(lie, bound, rng, terms=3):
    """A nonzero random combination of context products within the bound."""
    ring = lie.ring
    gens = lie.generators()
    while True:
        poly = {}
        for _ in range(terms):
            i, u, v = context_product(gens, rng, lie.names, bound)
            add_into(poly, gens[i], ring, rng.choice(ring.units()), u, v)
        if poly:
            return poly


def non_member_query(lie, bound, rng):
    """A member plus a unit times a non-decreasing word.  Non-decreasing
    words are a free basis of the PBW quotient, so the sum is never in
    the ideal."""
    ring = lie.ring
    poly = member_query(lie, bound, rng)
    d = rng.randrange(1, bound + 1)
    w = tuple(sorted(rng.choice(range(lie.rank)) for _ in range(d)))
    add_into(poly, {tuple(lie.names[t] for t in w): rng.choice(ring.units())}, ring)
    return poly


# -- commutative monomial slice ------------------------------------------------


def sorted_words(n, d):
    return list(combinations_with_replacement(range(n), d))


def multiset_divides(m, w):
    return all(w.count(a) >= m.count(a) for a in set(m))


def contiguous_divides(m, w):
    k = len(m)
    return any(w[p:p + k] == m for p in range(len(w) - k + 1))


def standard_counts(monomials, n, max_deg, divides=multiset_divides):
    """Sorted words per degree that no monomial divides: the true quotient
    counts with multiset divisibility, or with ``contiguous_divides`` the
    counts an engine matching sorted factors would give."""
    return [
        sum(1 for w in sorted_words(n, d) if not any(divides(m, w) for m in monomials))
        for d in range(max_deg + 1)
    ]


def monomial_sets(rng, n, max_deg, defective, clean):
    """``defective`` sets on which contiguous matching miscounts the
    quotient (the first is always {x z}) and ``clean`` sets on which it
    does not, each of 1 to 3 degree-2 monomials over n letters."""
    found_bad = [((0, 2),)]
    found_good = []
    candidates = sorted_words(n, 2)
    while len(found_bad) < defective or len(found_good) < clean:
        ms = tuple(sorted(rng.sample(candidates, rng.randrange(1, 4))))
        true = standard_counts(ms, n, max_deg)
        seen = standard_counts(ms, n, max_deg, contiguous_divides)
        bucket = found_bad if true != seen else found_good
        limit = defective if true != seen else clean
        if len(bucket) < limit and ms not in bucket:
            bucket.append(ms)
    return found_bad[:defective], found_good


def monomial_text(monomials, names):
    lines = ["# commutative monomial set", "ring Q", "oracle commutative", "alphabet " + " ".join(names)]
    lines.extend("gen " + " ".join(names[a] for a in m) for m in monomials)
    return "\n".join(lines) + "\n"


def free_text(gens, names):
    lines = ["# free presentation", "ring Q", "alphabet " + " ".join(names)]
    lines.extend("gen " + g for g in gens)
    return "\n".join(lines) + "\n"

