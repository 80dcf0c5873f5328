"""Combinational equivalence checking (the paper's base verification engine).

Two interchangeable backends:

* :func:`check_comb_equivalence_bdd` — canonical-form comparison via BDDs.
* :func:`check_comb_equivalence_sat` — Tseitin miter + CDCL SAT.

Both report a :class:`CecResult` with a counterexample on failure.
"""

from .result import CecResult
from .bddcec import check_comb_equivalence_bdd
from .satcec import check_comb_equivalence_sat

__all__ = [
    "CecResult",
    "check_comb_equivalence_bdd",
    "check_comb_equivalence_sat",
    "check_comb_equivalence",
]


def check_comb_equivalence(spec, impl, backend="bdd", **kwargs):
    """Dispatch to a CEC backend by name: 'bdd' or 'sat'."""
    if backend == "bdd":
        return check_comb_equivalence_bdd(spec, impl, **kwargs)
    if backend == "sat":
        return check_comb_equivalence_sat(spec, impl, **kwargs)
    raise ValueError("unknown CEC backend: {!r}".format(backend))
