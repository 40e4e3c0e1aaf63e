"""Dirac-number (16-dimensional hypercomplex) arithmetic.

Schoolbook and factorized fast multiplication over pluggable scalar
rings, with exact verification, symbolic identity proofs, operation
counting and straight-line program generation.
"""

from .algebra import (
    DiracNumber,
    MultTable,
    RingMismatchError,
    SignedBasis,
    build_table_from_generators,
    derive_b_matrix,
    mul_schoolbook,
    parse_printed_table,
    table_errata,
)
from .exactnum import (
    Counter,
    CountingRing,
    CountingScalar,
    DyadicRational,
    IntRing,
    LinearForm,
    lf_from_b,
    DYADIC,
    FLOAT,
    FORMS,
    INTS,
)
from .fastmult import (
    Pipeline,
    PrecomputedOperator,
    assemble_pipeline,
    mul_fast,
    precompute,
    verify_pipeline,
)
from .linalg import Mat, SignedPermutation, dirsum, kron, signed_perm_matrix, template_AB, template_EF

__all__ = [
    "DiracNumber",
    "MultTable",
    "RingMismatchError",
    "SignedBasis",
    "build_table_from_generators",
    "derive_b_matrix",
    "mul_schoolbook",
    "parse_printed_table",
    "table_errata",
    "Counter",
    "CountingRing",
    "CountingScalar",
    "DyadicRational",
    "IntRing",
    "LinearForm",
    "lf_from_b",
    "DYADIC",
    "FLOAT",
    "FORMS",
    "INTS",
    "Pipeline",
    "PrecomputedOperator",
    "assemble_pipeline",
    "mul_fast",
    "precompute",
    "verify_pipeline",
    "Mat",
    "SignedPermutation",
    "dirsum",
    "kron",
    "signed_perm_matrix",
    "template_AB",
    "template_EF",
]

__version__ = "0.1.0"
