"""Bi-orthonormal eigensystems of gain/loss-symmetric Hamiltonians and the
sign-flip structure of their Gram matrices.

The package builds the dual pair of eigenbases of a diagonalizable
non-Hermitian matrix, extracts the per-state sign linking each dual to the
parity-reflected state, and verifies and exploits the resulting identity:
the inverse of the Gram matrix is the Gram matrix with sign-flipped
entries, an O(n^2) step with no linear solve; the dual basis is then one
matrix product of the states with that inverse.
"""

from .biortho import (
    BiorthonormalSystem,
    EigenSystem,
    biorthonormalize,
    diagnose_exceptional,
    pair_left_right,
    solve_real_form,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    AmbiguousPairing,
    DefectiveMatrix,
    EnsembleExhausted,
    InputFormatError,
    InvalidGrid,
    InvalidParity,
    NonConvergence,
    NotPositiveDefinite,
    NotPTInvariant,
    NumericalError,
    PtGramError,
    SignatureUndefined,
    SingularMatrix,
    UnpairedComplexEigenvalue,
)
from .gram import (
    GramPair,
    TheoremCheck,
    check_indefinite_norms,
    check_unconventional_completeness,
    dual_gram,
    dual_via_signature,
    gram_matrix,
    inverse_via_signature,
    verify_signature_theorem,
)
from .linalg import RealBasis, eigendecompose, solve
from .models import (
    discretized_schrodinger,
    lattice_chain,
    random_pt,
    random_unbroken_pt,
    two_level,
)
from .symmetry import (
    ParityOperator,
    Signature,
    SpectrumClassification,
    build_charge,
    check_pseudo_hermiticity,
    check_pt_symmetry,
    classify_spectrum,
    extract_signature,
    fix_pt_phase,
    make_parity,
)
from .verify import (
    BenchRow,
    PipelineArtifacts,
    RelationCheck,
    bench_dual_routes,
    full_verification,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousPairing",
    "BenchRow",
    "BiorthonormalSystem",
    "DefectiveMatrix",
    "DEFAULT_TOLERANCES",
    "EigenSystem",
    "EnsembleExhausted",
    "GramPair",
    "InputFormatError",
    "InvalidGrid",
    "InvalidParity",
    "NonConvergence",
    "NotPositiveDefinite",
    "NotPTInvariant",
    "NumericalError",
    "ParityOperator",
    "PipelineArtifacts",
    "PtGramError",
    "RealBasis",
    "RelationCheck",
    "Signature",
    "SignatureUndefined",
    "SingularMatrix",
    "SpectrumClassification",
    "TheoremCheck",
    "Tolerances",
    "UnpairedComplexEigenvalue",
    "bench_dual_routes",
    "biorthonormalize",
    "build_charge",
    "check_indefinite_norms",
    "check_pseudo_hermiticity",
    "check_pt_symmetry",
    "check_unconventional_completeness",
    "classify_spectrum",
    "diagnose_exceptional",
    "discretized_schrodinger",
    "dual_gram",
    "dual_via_signature",
    "eigendecompose",
    "extract_signature",
    "fix_pt_phase",
    "full_verification",
    "gram_matrix",
    "inverse_via_signature",
    "lattice_chain",
    "make_parity",
    "pair_left_right",
    "random_pt",
    "random_unbroken_pt",
    "run_pipeline",
    "solve",
    "solve_real_form",
    "two_level",
    "verify_signature_theorem",
]
