"""The standalone ``fraig_sweep`` engine (a portfolio lane).

FRAIG-reduce both circuits, then run the SAT-backed signal correspondence
of :mod:`repro.core.satbackend` on the reduced pair.  The combinational
sweep removes exactly the redundancy the correspondence fixed point would
otherwise spend refinement rounds re-proving frame by frame, so the lane
behaves like ``sat_sweep`` with a head start on netlists with functional
(not just structural) duplication.  Verdicts transfer unchanged — see
:mod:`repro.sweep.reduce` for the soundness argument — and a refutation's
input trace is already valid on the originals.
"""

import time

from ..budget import Budget
from ..errors import ResourceBudgetExceeded
from ..reach.result import SecResult
from .reduce import fraig_reduce


def check_equivalence_fraig_sweep(spec, impl, match_inputs="name",
                                  match_outputs="order", seed=2024,
                                  progress=None, budget=None,
                                  **sat_options):
    """SEC by FRAIG reduction + SAT signal correspondence.

    ``sat_options`` are forwarded to
    :func:`~repro.core.satbackend.check_equivalence_sat_sweep`
    (``sim_frames``, ``k``, ...); both reductions and the sweep share one
    ``budget``.  Returns a :class:`~repro.reach.SecResult` with
    ``method="fraig_sweep"`` whose ``details["fraig"]`` records both
    reductions.
    """
    from ..core.satbackend import check_equivalence_sat_sweep

    started = time.perf_counter()
    budget = budget or Budget()
    try:
        spec_red = fraig_reduce(spec, seed=seed, budget=budget)
        impl_red = fraig_reduce(impl, seed=seed, budget=budget)
    except ResourceBudgetExceeded as exc:
        return SecResult(equivalent=None, method="fraig_sweep",
                         seconds=time.perf_counter() - started,
                         details={"aborted": str(exc)})
    if progress is not None:
        progress("fraig_reduced",
                 spec_ands=spec_red.stats["ands_after"],
                 impl_ands=impl_red.stats["ands_after"],
                 merges=spec_red.stats["merges"] + impl_red.stats["merges"])
    result = check_equivalence_sat_sweep(
        spec_red.reduced, impl_red.reduced, match_inputs=match_inputs,
        match_outputs=match_outputs, seed=seed, progress=progress,
        budget=budget, **sat_options)
    result.method = "fraig_sweep"
    if result.details is None:
        result.details = {}
    result.details["fraig"] = {
        "spec": dict(spec_red.stats),
        "impl": dict(impl_red.stats),
    }
    # The reduction preserves the input interface; the checked-identity
    # translation turns any contract drift into a loud error here rather
    # than a bogus replay downstream.
    if result.counterexample is not None:
        result.counterexample = spec_red.translate_trace(
            result.counterexample)
    return result
