"""Shared corpus builders and random generators for the test suite."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

from ugb import COMMUTATIVE, FREE, QQ, ZZ, Algebra, GenSet, LieAlgebra
from ugb.membership import _xgcd
from ugb.rings import IntegerRing, ModularRing, RationalField
from ugb.words import _deglex


def word(*letters):
    """The word of the given letter indices, as the engine holds it."""
    return bytes(letters)


def gset(algebra, *term_lists):
    """The generating set of one polynomial per list of (coeff, word) terms."""
    return GenSet([algebra.poly(t) for t in term_lists], algebra)


def random_word(rng, n_letters, max_len, oracle=FREE, min_len=0):
    length = rng.randint(min_len, max_len)
    letters = [rng.randrange(n_letters) for _ in range(length)]
    if oracle is COMMUTATIVE or isinstance(oracle, type(COMMUTATIVE)):
        letters.sort()
    return bytes(letters)


def basis_words(oracle, n_letters, degree):
    """The basis words of a degree, ascending in the order, by brute
    force: every word of the degree that ``is_basis_word`` accepts."""
    words = map(bytes, product(range(n_letters), repeat=degree))
    return [w for w in words if oracle.is_basis_word(w)]


def word_product(oracle, *words):
    """The product of basis words, written out apart from the oracles:
    their concatenation, sorted under the commutative oracle."""
    word = bytes(letter for w in words for letter in w)
    return bytes(sorted(word)) if oracle is COMMUTATIVE else word


def canonical(ring, c):
    """The canonical element of ring equal to the exact number c, by the
    element contract and not by the ring object: c mod n over Z/n, an
    int for an integral value over Q, and c itself over Z."""
    if isinstance(ring, ModularRing):
        return c % ring.modulus
    if isinstance(ring, RationalField):
        c = Fraction(c)
        return c.numerator if c.denominator == 1 else c
    return c


def random_nonzero(rng, ring):
    if isinstance(ring, IntegerRing):
        c = 0
        while c == 0:
            c = rng.randint(-9, 9)
        return c
    if isinstance(ring, RationalField):
        num = 0
        while num == 0:
            num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 9))
    if isinstance(ring, ModularRing):
        return rng.randint(1, ring.modulus - 1)
    raise TypeError(f"no sampler for {ring}")


def random_unit(rng, ring):
    while True:
        c = random_nonzero(rng, ring)
        if ring.inv_unit(c) is not None:
            return c


def random_poly(rng, algebra, max_deg=4, max_terms=5, nonzero=False):
    terms = []
    for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
        word = random_word(rng, algebra.alphabet.size, max_deg, algebra.oracle)
        terms.append((random_nonzero(rng, algebra.ring), word))
    p = algebra.poly(terms)
    if nonzero and p.is_zero():
        word = random_word(rng, algebra.alphabet.size, max_deg, algebra.oracle)
        p = algebra.poly([(random_nonzero(rng, algebra.ring), word)])
    return p


def random_unital_poly(rng, algebra, max_deg=3, max_terms=3):
    """Nonzero polynomial with a unit leading coefficient and a nonempty
    leading word (constant-led generators make the ideal everything)."""
    while True:
        p = random_poly(rng, algebra, max_deg, max_terms, nonzero=True)
        lc, lm = p.leading()
        if not lm:
            continue
        if algebra.ring.inv_unit(lc) is not None:
            return p
        unit = random_unit(rng, algebra.ring)
        q = p + algebra.monomial(lm, unit - lc)
        if not q.is_zero() and q.lm() == lm:
            return q


def random_telescope_instance(rng, algebra, size):
    """Polynomials sharing one leading monomial with unit leads, plus
    nonzero coefficients whose weighted sum against the leads vanishes."""
    ring = algebra.ring
    alpha = random_word(rng, algebra.alphabet.size, 3, algebra.oracle, min_len=1)
    fs, leads = [], []
    for _ in range(size):
        lead = random_unit(rng, ring)
        tail = random_poly(rng, algebra, max_deg=2, max_terms=2)
        tail = algebra.poly([(c, w) for c, w in tail.terms if _deglex(w) < _deglex(alpha)])
        fs.append(algebra.monomial(alpha, lead) + tail)
        leads.append(lead)
    while True:
        cs = [random_nonzero(rng, ring) for _ in range(size - 1)]
        weighted = sum(c * a for c, a in zip(cs, leads))
        last = canonical(ring, -weighted * ring.inv_unit(leads[-1]))
        if last:
            return fs, cs + [last]


def telescope(fs, cs):
    """The paper's telescoping lemma: rewrite sum(c_i * f_i) as
    sum(d_k * (f_k/a_k - f_{k+1}/a_{k+1})).

    All f_i must share one leading monomial with unit leading
    coefficients a_i, and the weighted sum of the c_i against the a_i
    must vanish (equivalently, the leading terms cancel).  Returns the
    n-1 pairs (d_k, S_{k,k+1}) with d_k the running sum c_1*a_1 + ... +
    c_k*a_k; their combination reconstructs the input sum exactly.
    Raises ValueError when a precondition fails.
    """
    fs = list(fs)
    cs = list(cs)
    if not fs or len(fs) != len(cs):
        raise ValueError("need equally many polynomials and coefficients")
    ring = fs[0].algebra.ring
    cs = [ring.coerce(c) for c in cs]
    if any(f.is_zero() for f in fs):
        raise ValueError("zero polynomial in telescope input")
    if not all(cs):
        raise ValueError("zero coefficient in telescope input")
    lm0 = fs[0].lm()
    if any(f.lm() != lm0 for f in fs):
        raise ValueError("leading monomials differ")
    lcs = [f.lc() for f in fs]
    invs = [ring.inv_unit(a) for a in lcs]
    for a, inv in zip(lcs, invs):
        if inv is None:
            raise ValueError(f"leading coefficient {a} is not a unit")
    if ring.coerce(sum(c * a for c, a in zip(cs, lcs))):
        raise ValueError("weighted coefficient sum does not vanish")
    scaled = [f.scale(inv) for f, inv in zip(fs, invs)]
    out = []
    d = 0
    for k in range(len(fs) - 1):
        d = ring.coerce(d + cs[k] * lcs[k])
        out.append((d, scaled[k] - scaled[k + 1]))
    return out


def random_ideal_combo(rng, G, max_context=2, parts=3):
    """Random sum of context products of the generators (a known member)."""
    algebra = G.algebra
    total = algebra.zero()
    for _ in range(parts):
        i = rng.randrange(len(G.gens))
        u = random_word(rng, algebra.alphabet.size, max_context, algebra.oracle)
        v = random_word(rng, algebra.alphabet.size, max_context, algebra.oracle)
        c = random_nonzero(rng, algebra.ring)
        total = total + G.gens[i].scale(c, u, v)
    return total


def ideal_part(trace, G):
    """Sum of the recorded division steps, coeff * (left * G.gens[gen] * right)
    each: the step expansion of a division trace by G, formed
    independently of its remainder."""
    scaled = (G.gens[gen].scale(coeff, left, right) for coeff, left, gen, right in trace.steps)
    return G.algebra.poly([t for p in scaled for t in p.terms])


def reconstruct(trace, G):
    """The dividend as the trace of its division by G records it: steps
    plus remainder."""
    return ideal_part(trace, G) + trace.remainder


def reference_spoly(G, i, j, u, v, u2, v2):
    """The s-polynomial of generators i and j at one placement, built as
    two checked ``scale`` calls and a subtraction:
    inv(a_i) * (u * g_i * v) - inv(a_j) * (u2 * g_j * v2)."""
    ring = G.algebra.ring
    gi, gj = G.gens[i], G.gens[j]
    return (gi.scale(ring.inv_unit(gi.lc()), u, v)
            - gj.scale(ring.inv_unit(gj.lc()), u2, v2))


def _eager_add_scaled(dst, src, c, n):
    for d, s in zip(dst, src):
        for t, v in s.items():
            v = d.get(t, 0) + c * v
            if n:
                v %= n
            if v:
                d[t] = v
            else:
                d.pop(t, None)


def _eager_scaled(pair, c, n):
    if n:
        return tuple({t: w for t, v in s.items() if (w := c * v % n)} for s in pair)
    return tuple({t: c * v for t, v in s.items()} for s in pair)


class EagerEchelon:
    """The membership echelon with eager row-combination tracking, kept
    as the reference for witnesses expanded on demand.  Every row is a
    (row, combination) pair of sparse dicts, and each row operation
    merges both, so every stored pivot carries its combination of the
    input rows.  The elimination is the one of ``membership._Echelon``
    step for step: the same quotient rule, xgcd pivot replacement, Z/n
    gcd scaling and annihilator rows."""

    def __init__(self, rows, quotient, modulus):
        self.quotient = quotient
        self.modulus = modulus
        self.pivots = {}
        for r, row in enumerate(rows):
            todo = [(dict(row), {r: 1})]
            while todo:
                self._reduce(todo.pop(), todo)

    def _set_pivot(self, col, pair, g, todo):
        self.pivots[col] = pair
        if self.modulus and g != 1:
            todo.append(_eager_scaled(pair, self.modulus // g, self.modulus))

    def _reduce(self, pair, todo=None):
        n = self.modulus
        vec = pair[0]
        while vec:
            col = min(vec)
            a = vec[col]
            piv = self.pivots.get(col)
            if piv is None:
                if todo is None:
                    return vec
                g, x, y = _xgcd(a, n)
                self._set_pivot(col, pair if x == 1 else _eager_scaled(pair, x, n), g, todo)
                if not n:
                    return vec
                c = y * (n // g) % n
                if not c:
                    return {}
                pair = _eager_scaled(pair, c, n)
                vec = pair[0]
            else:
                b = piv[0][col]
                q = self.quotient(a, b)
                if q is not None:
                    _eager_add_scaled(pair, piv, -q, n)
                elif todo is None:
                    return vec
                else:
                    g, x, y = _xgcd(b, a)
                    new = _eager_scaled(pair, y, n)
                    _eager_add_scaled(new, piv, x, n)
                    self._set_pivot(col, new, g, todo)
                    pair = _eager_scaled(pair, -(b // g), n)
                    _eager_add_scaled(pair, piv, a // g, n)
                    vec = pair[0]
        return vec

    def solve(self, target):
        pair = (dict(target), {})
        if self._reduce(pair):
            return None
        return {r: -c for r, c in pair[1].items()}


def eager_echelon(T):
    ring = T.genset.algebra.ring
    rows = [{T.col_index[w]: c for c, w in p.terms} for p in T.rows]
    return EagerEchelon(rows, ring.quotient, ring.modulus)


def eager_witness(T, echelon, f):
    """The witness ``is_member`` gave with eager tracking, from the eager
    echelon of T: None for a non-member, else (coeff, left, gen, right)
    tuples by row index."""
    ring = T.genset.algebra.ring
    sol = echelon.solve({T.col_index[w]: c for c, w in f.terms})
    if sol is None:
        return None
    return tuple((ring.coerce(sol[r]), T.provenance[r][1], T.provenance[r][0], T.provenance[r][2])
                 for r in sorted(sol))


def reference_truncation(G, bound):
    """Rows and provenance of the truncation built with the checked
    ``g.scale(1, u, v)``, in ``build_truncation``'s order: generator,
    context degree, left context degree, then the words; a repeated row
    keeps its first provenance."""
    algebra = G.algebra
    n = algebra.alphabet.size
    oracle = algebra.oracle
    rows, provenance, seen = [], [], set()
    for i, g in enumerate(G.gens):
        for s in range(bound - len(G.lead_words[i]) + 1):
            for a in range(s + 1):
                for u in basis_words(oracle, n, a):
                    for v in basis_words(oracle, n, s - a):
                        p = g.scale(1, u, v)
                        if p.terms not in seen:
                            seen.add(p.terms)
                            rows.append(p)
                            provenance.append((i, u, v))
    return rows, provenance


def run_optimized(source):
    """Standard output of source run by this interpreter under ``-O``,
    which strips assert statements; soundness checks must survive it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, "-O", "-c", source],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


# ---------------------------------------------------------------------------
# named corpora


def sl2(ring=ZZ):
    """Basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    return LieAlgebra(
        ring,
        3,
        {
            (1, 0): (0, 0, -1),
            (2, 0): (2, 0, 0),
            (2, 1): (0, -2, 0),
        },
        names=("e", "f", "h"),
    )


def perturbed_sl2(ring=ZZ):
    """sl2 with [e,f] = h + e, which breaks Jacobi on (e, f, h).

    The perturbation must survive a bracket: tweaking only [h,e] or [h,f]
    by multiples of e and f leaves Jacobi intact because [e,e] = [f,f] = 0.
    """
    return LieAlgebra(
        ring,
        3,
        {
            (1, 0): (-1, 0, -1),
            (2, 0): (2, 0, 0),
            (2, 1): (0, -2, 0),
        },
        names=("e", "f", "h"),
    )


def heisenberg(ring):
    """Basis (x, y, z): [x,y] = z, z central."""
    return LieAlgebra(ring, 3, {(1, 0): (0, 0, -1)}, names=("x", "y", "z"))


def gl(n, ring):
    """gl_n on E_ij, named eij in row-major order:
    [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
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
                brackets[(a, b)] = vec
    return LieAlgebra(ring, len(pairs), brackets, names=[f"e{i + 1}{j + 1}" for i, j in pairs])


def perturbed_gl(n, ring, a, b, m):
    """gl_n with coefficient m of [x_a, x_b] (0-based, a > b) moved by +1."""
    L = gl(n, ring)
    vec = list(L.brackets.get((a, b), [0] * L.rank))
    vec[m] += 1
    return LieAlgebra(ring, L.rank, {**L.brackets, (a, b): vec}, names=L.alphabet.names)


def abelian(ring, rank):
    return LieAlgebra(ring, rank)


def example1_genset(ring=QQ, n=3):
    """All degree-2 monomials of the commutative oracle on n letters."""
    algebra = Algebra(ring, [f"x{i + 1}" for i in range(n)], COMMUTATIVE)
    gens = [algebra.monomial((i, j)) for i in range(n) for j in range(i, n)]
    return GenSet(gens, algebra)


def inverse_pair_genset(ring=QQ):
    """{xy - 1, yx - 1} in the free algebra on (x, y)."""
    algebra = Algebra(ring, ["x", "y"], FREE)
    return GenSet(
        [
            algebra.poly([(1, (0, 1)), (-1, ())]),
            algebra.poly([(1, (1, 0)), (-1, ())]),
        ],
        algebra,
    )


def free_lift(G):
    """G's generators, on the same sorted words, in the free algebra over
    the same ring and alphabet, followed by the commutators
    x_i x_j - x_j x_i for i > j: a free presentation of G's quotient,
    whose truncation needs only free concatenation."""
    A = G.algebra
    free = Algebra(A.ring, A.alphabet, FREE)
    n = A.alphabet.size
    commutators = [free.poly([(1, (i, j)), (-1, (j, i))]) for i in range(n) for j in range(i)]
    return GenSet([free.poly(g.terms) for g in G.gens] + commutators, free)


def brute_normal_words(G, degree):
    """Oracle for quotient counts: filter every basis word through the
    factor test directly."""
    from ugb import is_normal

    algebra = G.algebra
    return [w for w in basis_words(algebra.oracle, algebra.alphabet.size, degree) if is_normal(w, G)]
