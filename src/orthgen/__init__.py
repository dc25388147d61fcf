"""Generator calculus and constructive decompositions for odd split orthogonal groups.

The package works over exact commutative rings in which 2 is invertible:
the rationals, prime fields F_p (p odd), Z/p^k, truncated and full
polynomial rings, and Laurent polynomial rings.  The main entry points
are re-exported here; the cli module backs the `orthgen` console script.
"""

from .errors import OrthgenError
from .rings import (
    IdealDescriptor,
    LaurentRing,
    ModularRing,
    PolynomialRing,
    PrimeField,
    RationalField,
    Scalar,
    TruncatedRing,
    canonical_json,
    ring_from_string,
    scalar_from_string,
    variable,
)
from .quadratic_space import (
    FormContext,
    Matrix,
    Vector,
    is_orthogonal,
    matrices_congruent,
    monomial_pattern,
    one_perp,
)
from .generators import (
    GenLabel,
    Word,
    commutator,
    diag_orthogonal,
    eval_word,
    gen_F,
    gen_oe,
    perm_matrix,
    random_word,
    theta,
    word_from_json,
    word_to_json,
)
from .transvections import (
    OrderIdealWitness,
    TransvectionSpec,
    solve_alternating,
)
from .decompose import (
    HorrocksInstance,
    LocalDecomposition,
    TmtDecomposition,
    check_horrocks_instance,
    factor_alt,
    factor_to,
    factor_unipotent,
    local_decompose,
    mo_split,
    theta_conjugate,
    tmt_decompose,
)
from .identity_suite import ITEM_IDS, mutation_selftest, run_suite

__version__ = "0.1.0"

__all__ = [
    "FormContext",
    "GenLabel",
    "HorrocksInstance",
    "ITEM_IDS",
    "IdealDescriptor",
    "LaurentRing",
    "LocalDecomposition",
    "Matrix",
    "ModularRing",
    "OrderIdealWitness",
    "OrthgenError",
    "PolynomialRing",
    "PrimeField",
    "RationalField",
    "Scalar",
    "TmtDecomposition",
    "TransvectionSpec",
    "TruncatedRing",
    "Vector",
    "Word",
    "canonical_json",
    "check_horrocks_instance",
    "commutator",
    "diag_orthogonal",
    "eval_word",
    "factor_alt",
    "factor_to",
    "factor_unipotent",
    "gen_F",
    "gen_oe",
    "is_orthogonal",
    "local_decompose",
    "matrices_congruent",
    "mo_split",
    "monomial_pattern",
    "mutation_selftest",
    "one_perp",
    "perm_matrix",
    "random_word",
    "ring_from_string",
    "run_suite",
    "scalar_from_string",
    "solve_alternating",
    "theta",
    "theta_conjugate",
    "tmt_decompose",
    "variable",
    "word_from_json",
    "word_to_json",
    "__version__",
]
