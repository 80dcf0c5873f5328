"""Sequential-safe FRAIG sweeping: preprocessor, FRAIG-BMC and engine.

* :func:`fraig_reduce` — shrink one circuit on the shared AIG substrate
  (registers as pseudo-inputs; merges certified by one incremental
  solver; names/interface preserved).
* :func:`preprocess_pair` / :func:`preprocess_jobspec` — the opt-in
  ``--preprocess fraig`` pass in front of every engine, applied before
  the daemon's cache key.
* :func:`fraig_bmc_refute` / :class:`FrameSweeper` — functionally reduced
  BMC unrolling (``--fraig-frames``).
* :func:`check_equivalence_fraig_sweep` — the standalone ``fraig_sweep``
  portfolio lane.
"""

from .engine import check_equivalence_fraig_sweep
from .frames import FrameSweeper, fraig_bmc_refute
from .preprocess import (
    PREPROCESS_PASSES,
    attach_preprocess_details,
    preprocess_jobspec,
    preprocess_pair,
    split_preprocess_options,
)
from .reduce import FraigReduction, fraig_reduce

__all__ = [
    "FraigReduction",
    "FrameSweeper",
    "PREPROCESS_PASSES",
    "attach_preprocess_details",
    "check_equivalence_fraig_sweep",
    "fraig_bmc_refute",
    "fraig_reduce",
    "preprocess_jobspec",
    "preprocess_pair",
    "split_preprocess_options",
]
