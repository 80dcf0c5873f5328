"""Temporal induction: k-induction over the product miter.

The third proof engine, complementing the correspondence fixed point
(sound, incomplete) and symbolic traversal (complete, expensive):
k-induction with simple-path constraints, added only when a step model
repeats a state, optionally strengthened by a correspondence partition.
See :mod:`repro.induction.engine` for the formulation and the soundness
argument.
"""

from .engine import (
    INDUCTION_FALLBACK,
    PROGRESS_INDUCTION_ROUND,
    KInductionEngine,
    check_equivalence_k_induction,
    check_equivalence_sweep_induction,
)
from .invariant import (
    Candidate,
    InvariantSet,
    candidates_from_classes,
    candidates_from_simulation,
)

__all__ = [
    "Candidate",
    "INDUCTION_FALLBACK",
    "InvariantSet",
    "KInductionEngine",
    "PROGRESS_INDUCTION_ROUND",
    "candidates_from_classes",
    "candidates_from_simulation",
    "check_equivalence_k_induction",
    "check_equivalence_sweep_induction",
]
