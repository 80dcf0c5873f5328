"""The paper's contribution: sequential equivalence checking by signal
correspondence, without state space traversal."""

from .cexsplit import partition_by_value, replay_packed, replay_pattern
from .partition import Partition, SignalFunction
from .timeframe import TimeFrame
from .correspondence import (
    CorrespondenceResult,
    compute_fixpoint,
    initial_partition,
)
from .retiming_aug import RetimingAugmenter, is_augmented
from .engine import (
    VanEijkVerifier,
    check_equivalence_van_eijk,
    equivalence_percentage,
)
from .satbackend import SatCorrespondence, check_equivalence_sat_sweep
from .diagnose import DiagnosisReport, diagnose
from .bmc import bmc_refute, check_inequivalence_bmc

__all__ = [
    "bmc_refute",
    "check_inequivalence_bmc",
    "DiagnosisReport",
    "diagnose",
    "SatCorrespondence",
    "check_equivalence_sat_sweep",
    "CorrespondenceResult",
    "Partition",
    "RetimingAugmenter",
    "SignalFunction",
    "TimeFrame",
    "VanEijkVerifier",
    "check_equivalence_van_eijk",
    "compute_fixpoint",
    "equivalence_percentage",
    "initial_partition",
    "is_augmented",
    "partition_by_value",
    "replay_packed",
    "replay_pattern",
]
