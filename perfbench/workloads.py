"""The four workloads: seeded corpora, problem files and fixed op lists.

An op is one ``ugb`` CLI invocation (records output) plus the checker
for its known answer.  Each op's cost is set by its input sizes, which
the op lists fix; the seed moves coefficients, perturbations and query
contents.  The heaviest ops make up about a twentieth of each list and
the next size class another tenth or more, so the 90th-percentile
latency falls inside one size class and not on the edge between two.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import checks
import corpus
from algebra import Ring, to_text


@dataclass
class Op:
    label: str
    argv: list
    check: object
    group: object = None  # ops whose remainders must agree share a group


@dataclass
class Workload:
    files: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)
    remainders: dict = field(default_factory=dict)

    def file(self, workdir, name, text):
        path = os.path.join(workdir, name)
        self.files[path] = text
        return path

    def op(self, label, argv, check, times=1, group=None):
        for _ in range(times):
            self.ops.append(Op(label, [str(a) for a in argv] + ["--format", "records"], check, group))


def _slug(lie):
    return f"{lie.name}_{str(lie.ring).replace('/', '')}"


def pbw_check(rng, workdir, fresh_check):
    """gl_n PBW systems for n = 2..4 over Z, Q and Z/4, a Jacobi-breaking
    perturbation of each gl2 and gl3 system, and a commutative monomial
    slice."""
    w = Workload()
    for n in (2, 3, 4):
        for ring in ("Z", "Q", "Z/4"):
            lie = corpus.gl(n, ring)
            lie_file = w.file(workdir, _slug(lie) + ".lie", lie.lie_text())
            gens_file = w.file(workdir, _slug(lie) + ".gb", lie.gens_text())
            tag = f"gl{n}/{ring}"
            if n == 4:
                # validate_lie over Q and enumerate_basis at degree 4 are the
                # heavy cases; one op each.
                degree = {"Z": 4, "Q": 2, "Z/4": 3}[ring]
                w.op(f"pbw {tag} d{degree}", ["pbw", lie_file, "--max-deg", degree], checks.pbw(lie, degree))
                w.op(f"check-gb {tag}", ["check-gb", gens_file], checks.check_gb(lie))
                continue
            # gl3 over Q costs about three times Z: its ops run once, pbw at
            # degree 3 only.
            slow = (n, ring) == (3, "Q")
            reps = 1 if slow else {2: 3, 3: 2}[n]
            for degree in (3,) if slow else (2, 3, 4):
                w.op(f"pbw {tag} d{degree}", ["pbw", lie_file, "--max-deg", degree], checks.pbw(lie, degree), reps)
            for degree in (2, 3, 4):
                w.op(f"quotient-basis {tag} d{degree}", ["quotient-basis", gens_file, "--max-deg", degree],
                     checks.quotient(lie, degree), reps)
            w.op(f"check-gb {tag}", ["check-gb", gens_file], checks.check_gb(lie), max(reps, 2))
            w.op(f"spolys {tag}", ["spolys", gens_file], checks.spolys(lie), max(reps, 2))
            broken = corpus.perturb(lie, rng)
            broken_lie = w.file(workdir, _slug(broken) + ".lie", broken.lie_text())
            broken_gens = w.file(workdir, _slug(broken) + ".gb", broken.gens_text())
            w.op(f"pbw {tag} broken", ["pbw", broken_lie, "--max-deg", 3], checks.pbw(broken, 3))
            w.op(f"check-gb {tag} broken", ["check-gb", broken_gens], checks.check_gb(broken))
            w.op(f"quotient-basis {tag} broken", ["quotient-basis", broken_gens, "--max-deg", 3],
                 checks.quotient(broken, 3))
    names = ["x", "y", "z"]
    defective, clean = corpus.monomial_sets(rng, len(names), 3, defective=2, clean=4)
    for k, ms in enumerate(defective + clean):
        path = w.file(workdir, f"monomials{k}.gb", corpus.monomial_text(ms, names))
        w.op("quotient-basis commutative", ["quotient-basis", path, "--max-deg", 3],
             checks.commutative_quotient(ms, len(names), 3))
        w.op("check-gb commutative", ["check-gb", path], checks.commutative_check_gb(ms))
    return w


def _gl2(ring):
    return corpus.gl(2, ring)


# (system, descending blocks, polynomials, op kinds run on each polynomial)
REDUCE_PLAN = (
    (corpus.sl2, 5, 1, ("first",)),
    (corpus.sl2, 4, 1, ("first", "seeded", "decompose")),
    (corpus.sl2, 4, 1, ("first", "decompose")),
    (corpus.sl2, 3, 2, ("first", "seeded", "decompose")),
    (_gl2, 3, 2, ("first", "decompose")),
    (_gl2, 2, 2, ("first", "seeded", "decompose")),
    (corpus.heisenberg, 5, 1, ("first", "seeded", "decompose")),
    (corpus.heisenberg, 4, 2, ("first", "seeded", "decompose")),
    (corpus.heisenberg, 3, 1, ("first", "seeded", "decompose")),
)


def reduce_long(rng, workdir, fresh_check):
    """Long descending words (the basis reversed, repeated) plus short
    seeded terms against sl2, gl2 and Heisenberg PBW over Z, Q and Z/8,
    by FirstMatch, by seeded choice and by decompose."""
    w = Workload()
    for ring in ("Z", "Q", "Z/8"):
        for make, blocks, count, kinds in REDUCE_PLAN:
            lie = make(ring)
            path = w.file(workdir, _slug(lie) + ".gb", lie.gens_text())
            for _ in range(count):
                poly = corpus.long_poly(lie, blocks, rng)
                text = to_text(poly, lie.names)
                key = (lie.name, str(lie.ring), text)
                tag = f"{lie.name}/{lie.ring} {blocks}x{lie.rank}"
                for kind in kinds:
                    if kind == "decompose":
                        w.op(f"decompose {tag}", ["decompose", path, "--poly", text],
                             checks.decompose(lie, poly, w.remainders, key), group=key)
                        continue
                    strategy = "first" if kind == "first" else f"seeded:{rng.randrange(1000)}"
                    w.op(f"normal-form {kind} {tag}", ["normal-form", path, "--poly", text, "--strategy", strategy],
                         checks.normal_form(lie, poly, w.remainders, key), group=key)
    return w


# Perturbation positions (a, b, m), the unit going to coefficient m of
# [x_a, x_b].  Found by completing every position with every unit: at
# these, completion at degree 3 takes 3 rounds whatever unit the seed
# picks, and all positions of one list cost the same within about 10%,
# so the seed moves the systems but not the op sizes.
GL4_POSITIONS = {"Q": [(13, 1, 8)], "Z/5": [(6, 2, 2)]}
GL3_POSITIONS = {
    "Z/5": [
        (1, 0, 6), (1, 0, 7), (1, 0, 8), (2, 0, 0), (2, 0, 1), (2, 0, 3), (2, 0, 4), (2, 0, 5), (2, 0, 8),
        (2, 1, 1), (3, 0, 4), (3, 0, 5), (3, 2, 8), (4, 0, 2), (4, 0, 4), (4, 0, 5), (4, 3, 2), (4, 3, 6),
        (5, 0, 5), (5, 0, 6), (5, 0, 8), (5, 1, 0), (5, 1, 1), (5, 1, 2), (5, 1, 5), (5, 2, 8), (6, 0, 0),
        (6, 0, 1), (6, 2, 3), (6, 4, 5), (6, 4, 6), (6, 4, 7), (7, 0, 4), (7, 1, 2), (7, 1, 6), (7, 1, 7),
        (7, 1, 8), (7, 2, 0), (7, 3, 3), (7, 4, 8), (7, 5, 0), (7, 6, 7), (7, 6, 8), (8, 2, 7),
    ],
    "Q": [
        (1, 0, 5), (2, 0, 0), (2, 0, 4), (2, 0, 5), (2, 0, 8), (2, 1, 0), (2, 1, 1), (2, 1, 2), (2, 1, 4),
        (2, 1, 5), (3, 0, 0), (3, 0, 4), (3, 0, 5), (3, 0, 8), (3, 1, 2), (3, 1, 6), (3, 1, 7), (3, 1, 8),
        (3, 2, 4), (4, 0, 0), (4, 0, 1), (4, 0, 2), (4, 0, 8), (4, 1, 0), (4, 1, 1), (4, 2, 1), (4, 3, 2),
        (4, 3, 4), (4, 3, 6), (4, 3, 7), (4, 3, 8), (5, 0, 1), (5, 0, 4), (5, 0, 5), (5, 0, 6), (5, 0, 8),
        (5, 1, 0), (5, 1, 1), (5, 1, 8), (5, 3, 5), (5, 4, 0), (5, 4, 2), (5, 4, 5), (5, 4, 6), (6, 0, 0),
        (6, 0, 1), (6, 1, 4), (6, 4, 3), (6, 5, 4), (6, 5, 5), (6, 5, 6), (8, 5, 5), (8, 5, 6), (8, 7, 4),
    ],
}

# Free presentations over Q in x, y: generators (lead, tail...) become
# lead - a*tail[0] - tail[1] with a seeded unit a; then the completion
# degree and the number of ops.  For every unit the first completes in 4
# rounds adjoining 6 generators, the second in 3 rounds adjoining 3.
PRESENTATIONS = (
    ((("x", "y", "x"), ("y", "y")), (("y", "x", "y"), ("x",)), 6, 12),
    ((("x", "y", "x"), ("y",)), (("y", "y"), ("x",)), 5, 60),
)


def _presentation(template, rng):
    ring = Ring("Q")
    gens = []
    for lead, *tail in template:
        g = {lead: ring.norm(1)}
        for word, c in zip(tail, (rng.choice(ring.units()), 1)):
            g[word] = ring.norm(-c)
        gens.append(g)
    return gens, ring


def complete_grow(rng, workdir, fresh_check):
    """Perturbed gl3 and gl4 PBW systems over Q and Z/5 completed at degree
    3, and small free presentations over Q."""
    w = Workload()

    def complete_op(label, text, name, gens, ring, degree, grows):
        path = w.file(workdir, name, text)
        header = text[: text.index("\ngen ") + 1]
        w.op(label, ["complete", path, "--max-deg", degree],
             checks.complete(gens, ring, lambda got: fresh_check(header, got), grows))

    for n, ring, count in ((4, "Q", 1), (4, "Z/5", 1), (3, "Q", 12), (3, "Z/5", 20)):
        positions = (GL4_POSITIONS if n == 4 else GL3_POSITIONS)[ring]
        for t, at in enumerate(rng.sample(positions, count)):
            lie = corpus.perturb(corpus.gl(n, ring), rng, at)
            complete_op(f"complete gl{n}/{ring}", lie.gens_text(), f"{_slug(lie)}{t}.gb",
                        lie.generators(), lie.ring, 3, grows=True)
    names = ["x", "y"]
    for k, (*template, degree, count) in enumerate(PRESENTATIONS):
        for t in range(count):
            gens, ring = _presentation(template, rng)
            text = corpus.free_text([to_text(g, names) for g in gens], names)
            complete_op(f"complete presentation{k}", text, f"presentation{k}-{t}.gb", gens, ring, degree,
                        grows=False)
    return w


# (system, bound, member queries, non-member queries)
MEMBER_PLAN = (
    (_gl2, "Z", 5, 1, 0),
    (_gl2, "Q", 4, 0, 1),
    (_gl2, "Z/4", 4, 1, 1),
    (corpus.sl2, "Z", 5, 6, 6),
    (corpus.heisenberg, "Z", 5, 4, 4),
    (_gl2, "Z", 4, 2, 2),
    (corpus.sl2, "Z/4", 4, 2, 2),
    (corpus.heisenberg, "Z/4", 4, 2, 2),
    (_gl2, "Q", 3, 1, 1),
    (corpus.sl2, "Q", 3, 5, 5),
    (corpus.heisenberg, "Q", 3, 5, 5),
    (corpus.sl2, "Z", 3, 6, 6),
    (corpus.heisenberg, "Z", 3, 6, 6),
    (corpus.sl2, "Z/4", 3, 6, 6),
    (corpus.heisenberg, "Z/4", 3, 5, 5),
)


def member_trunc(rng, workdir, fresh_check):
    """Member and non-member queries against gl2, sl2 and Heisenberg PBW
    truncations at bounds 3 to 5 over Z, Q and Z/4.  gl2 over Q at bound
    5 (about 111 s per op) is left out for run length."""
    w = Workload()
    for make, ring, bound, members, non_members in MEMBER_PLAN:
        lie = make(ring)
        path = w.file(workdir, f"{_slug(lie)}.gb", lie.gens_text())
        tag = f"{lie.name}/{lie.ring} b{bound}"
        for _ in range(members):
            poly = corpus.member_query(lie, bound, rng)
            w.op(f"member {tag} yes", ["member", path, "--poly", to_text(poly, lie.names), "--max-deg", bound],
                 checks.member(lie, poly))
        for _ in range(non_members):
            poly = corpus.non_member_query(lie, bound, rng)
            w.op(f"member {tag} no", ["member", path, "--poly", to_text(poly, lie.names), "--max-deg", bound],
                 checks.non_member())
    return w


WORKLOADS = {
    "pbw-check": pbw_check,
    "reduce-long": reduce_long,
    "complete-grow": complete_grow,
    "member-trunc": member_trunc,
}
