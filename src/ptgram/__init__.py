"""Bi-orthonormal eigensystems of gain/loss-symmetric Hamiltonians and the
sign-flip structure of their Gram matrices.

The package builds the dual pair of eigenbases of a diagonalizable
non-Hermitian matrix, extracts the per-state sign linking each dual to the
parity-reflected state, and verifies and exploits the resulting identity:
the inverse of the Gram matrix is the Gram matrix with sign-flipped
entries, an O(n^2) step with no linear solve; the dual basis is then one
matrix product of the states with that inverse.
"""

from . import biortho, config, errors, gram, linalg, models, symmetry, verify
from .biortho import *  # noqa: F403
from .config import *  # noqa: F403
from .errors import *  # noqa: F403
from .gram import *  # noqa: F403
from .linalg import *  # noqa: F403
from .models import *  # noqa: F403
from .symmetry import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    name
    for module in (biortho, config, errors, gram, linalg, models, symmetry, verify)
    for name in module.__all__
]
