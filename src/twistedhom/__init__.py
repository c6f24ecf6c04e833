"""Exact twisted first (co)homology of finitely presented groups.

Given a finite presentation of a group G and an action of its generators on
a free module over Z or Z/n by invertible matrices, this package computes
the coinvariants H_0(G; M), the first homology H_1(G; M) and the first
cohomology H^1(G; M) in exact arithmetic, together with diagnostics,
crossed-homomorphism witnesses and an exhaustive mod-2 oracle. Built-in
data covers the genus-2 Goeritz group of the 3-sphere.
"""

from .exactlinalg import (
    AbelianGroupStructure,
    IntMatrix,
    SnfResult,
    hstack,
    kernel_basis,
    lattice_quotient,
    snf,
    solve_in_lattice,
    unimodular_inverse,
    vstack,
)
from .fox import (
    GroupRingElement,
    cocycle_matrix,
    fox_derivative,
    fundamental_identity_check,
)
from .goeritzdata import NamedExample, builtin_examples, goeritz_e2, toy_examples
from .homology import (
    CohomologyResult,
    OracleCounts,
    OracleRefusal,
    PrincipalMap,
    UctComparison,
    brute_force_h1_mod2,
    coinvariants,
    h1_cohomology,
    h1_homology,
    kerf_reduction,
    principal_map,
    uct_check,
)
from .presentation import Diagnostic, Presentation, from_equations, validate
from .representation import (
    CoefficientRing,
    Representation,
    change_ring,
    check_bilinear_form_preserved,
    check_relators_trivial,
    dual,
    evaluate_group_ring,
    evaluate_word,
)
from .words import (
    Generator,
    ParseError,
    Word,
    identity_word,
    invert,
    multiply,
    parse_word,
    word_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupStructure",
    "CoefficientRing",
    "CohomologyResult",
    "Diagnostic",
    "Generator",
    "GroupRingElement",
    "IntMatrix",
    "NamedExample",
    "OracleCounts",
    "OracleRefusal",
    "ParseError",
    "Presentation",
    "PrincipalMap",
    "Representation",
    "SnfResult",
    "UctComparison",
    "Word",
    "brute_force_h1_mod2",
    "builtin_examples",
    "change_ring",
    "check_bilinear_form_preserved",
    "check_relators_trivial",
    "cocycle_matrix",
    "coinvariants",
    "dual",
    "evaluate_group_ring",
    "evaluate_word",
    "fox_derivative",
    "from_equations",
    "fundamental_identity_check",
    "goeritz_e2",
    "h1_cohomology",
    "h1_homology",
    "hstack",
    "identity_word",
    "invert",
    "kernel_basis",
    "kerf_reduction",
    "lattice_quotient",
    "multiply",
    "parse_word",
    "principal_map",
    "snf",
    "solve_in_lattice",
    "toy_examples",
    "uct_check",
    "unimodular_inverse",
    "validate",
    "vstack",
    "word_to_text",
]
