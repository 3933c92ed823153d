import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# One profile for every property test: no per-example deadline, since a
# busy machine or the -X dev run slows an example without making it wrong,
# and a failure prints the blob that reproduces it.
settings.register_profile("ugb", deadline=None, print_blob=True)
settings.load_profile("ugb")

import helpers  # noqa: E402
from ugb import QQ, ZZ, Zmod, check_groebner, pbw_generators  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def example1_q():
    return helpers.example1_genset(QQ, 3)


@pytest.fixture(scope="session")
def sl2_z():
    return pbw_generators(helpers.sl2(ZZ))


@pytest.fixture(scope="session")
def heis_z4():
    return pbw_generators(helpers.heisenberg(Zmod(4)))


@pytest.fixture(scope="session")
def inverse_pair_q():
    return helpers.inverse_pair_genset(QQ)


@pytest.fixture(scope="session")
def gb_corpora(example1_q, sl2_z, heis_z4, inverse_pair_q):
    """The verified Groebner corpora used across uniqueness and agreement
    tests."""
    corpora = {
        "example1/Q": example1_q,
        "sl2/Z": sl2_z,
        "heisenberg/Z4": heis_z4,
        "inverse-pair/Q": inverse_pair_q,
    }
    for G in corpora.values():
        assert check_groebner(G).is_groebner
    return corpora
