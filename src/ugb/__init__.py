"""Groebner bases for two-sided ideals over exact coefficient rings.

The engine works in a free associative algebra (or its commutative
monomial sibling) over Z, Z/n or Q.  Generating sets with unit leading
coefficients admit a division algorithm whose remainders span the
quotient by normal words; the Buchberger criterion decides when the set
is a Groebner basis, and the enveloping-algebra construction turns Lie
structure constants into such a set with non-decreasing normal words.
A separate linear-algebra membership oracle cross-checks the reduction
engine at bounded degree.
"""

from .division import DivisionTrace, GenSet, divide
from .errors import (
    AlgebraMismatch,
    BasisViolation,
    BoundTooSmall,
    BudgetExceeded,
    CompletionFailure,
    EngineInvariantBroken,
    NonUnitalRemainder,
    NotAGroebnerBasis,
    NotUnital,
    ParseError,
    RoundsExceeded,
    UGBError,
    ZeroPolynomial,
)
from .membership import (
    MembershipResult,
    TruncatedModule,
    build_truncation,
    expand_witness,
    is_member,
)
from .pbw import (
    LieAlgebra,
    PBWReport,
    pbw_generators,
    validate_lie,
    verify_pbw,
)
from .poly import Algebra, Poly, oracle_from_name
from .quotient import QuotientBasis, count_basis, decompose, enumerate_basis, is_normal, normal_form
from .rings import QQ, ZZ, ModularRing, Ring, Zmod, ring_from_name
from .spolys import (
    GBReport,
    SPoly,
    check_groebner,
    complete,
    require_groebner,
    s_polynomials,
)
from .textio import load_problem, parse_poly, parse_problem
from .words import COMMUTATIVE, EMPTY, FREE, Alphabet, CommutativeMerge, FreeConcat

__version__ = "0.1.0"
