"""Commutative-oracle divisibility is multiset inclusion, not factor search.

The leading word ``x z`` divides the sorted word ``x y z`` although it is
not a contiguous factor of it; every layer (division, the Buchberger
check, normal words) must agree with the membership oracle on that.
"""

import json
import random
from collections import Counter
from itertools import combinations_with_replacement

from hypothesis import assume, given, settings, strategies as st

import helpers
from ugb import (
    COMMUTATIVE,
    QQ,
    ZZ,
    Algebra,
    GenSet,
    build_truncation,
    check_groebner,
    enumerate_basis,
    is_member,
    normal_form,
)
from ugb.cli import main

BOUND = 4


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_non_contiguous_divisor_regression(tmp_path, capsys):
    path = tmp_path / "xz.gb"
    path.write_text("ring Q\noracle commutative\nalphabet x y z\ngen x z\n")
    path = str(path)

    code, out = _run(capsys, "check-gb", path)
    assert code == 0 and "IsGroebner" in out

    code, out = _run(capsys, "quotient-basis", path, "--max-deg", "3", "--format", "records")
    basis = json.loads(out)
    assert code == 0 and basis["verified"]
    assert len(basis["by_degree"]["3"]) == 7
    assert "x y z" not in basis["by_degree"]["3"]

    code, out = _run(capsys, "normal-form", path, "--poly", "x y z", "--format", "records")
    trace = json.loads(out)
    assert code == 0 and trace["remainder"] == "0"
    assert trace["steps"] == [{"coeff": "1", "left": "y", "gen": 0, "right": "1"}]

    code, out = _run(capsys, "member", path, "--poly", "x y z", "--max-deg", "3", "--format", "records")
    assert code == 0 and json.loads(out)["member"]


def _brute_counts(lead_words, max_degree):
    # a sorted word is normal when no leading word's letter counts fit in it
    leads = [Counter(w) for w in lead_words]
    return tuple(
        sum(
            1
            for w in combinations_with_replacement(range(3), d)
            if all(lead - Counter(w) for lead in leads)
        )
        for d in range(max_degree + 1)
    )


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([ZZ, QQ]))
def test_commutative_groebner_sets_agree_with_membership(seed, ring):
    rng = random.Random(seed)
    algebra = Algebra(ring, ["x", "y", "z"], COMMUTATIVE)
    gens = [
        helpers.random_unital_poly(rng, algebra, max_deg=2, max_terms=rng.randint(1, 3))
        for _ in range(rng.randint(1, 3))
    ]
    G = GenSet(gens, algebra)
    assume(check_groebner(G).is_groebner)

    assert enumerate_basis(G, BOUND).counts() == _brute_counts(G.lead_words, BOUND)

    module = build_truncation(G, BOUND)
    queries = [helpers.random_poly(rng, algebra, max_deg=BOUND) for _ in range(4)]
    queries += [helpers.random_ideal_combo(rng, G, max_context=1) for _ in range(4)]
    for f in queries:
        assert normal_form(f, G).is_zero() == is_member(f, module).member, f
