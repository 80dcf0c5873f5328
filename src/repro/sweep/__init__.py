"""Sequential-safe FRAIG sweeping: the reducer and the ``fraig_sweep`` engine.

* :func:`fraig_reduce` — shrink one circuit on the shared AIG substrate
  (registers as pseudo-inputs; merges certified by one incremental
  solver; names/interface preserved).
* :func:`check_equivalence_fraig_sweep` — the ``fraig_sweep`` method:
  both circuits reduced, then the SAT signal correspondence.
"""

from .engine import check_equivalence_fraig_sweep
from .reduce import FraigReduction, fraig_reduce

__all__ = [
    "FraigReduction",
    "check_equivalence_fraig_sweep",
    "fraig_reduce",
]
