"""repro — Sequential Equivalence Checking without State Space Traversal.

A complete reproduction of C.A.J. van Eijk's DATE 1998 paper: sequential
equivalence checking by signal correspondence (a greatest fixed-point
iteration over functionally equivalent signals) instead of product-machine
state-space traversal, together with every substrate the paper depends on —
a complement-edge BDD package with sifting, a CDCL SAT solver, a gate-level
netlist library with ``.bench``/BLIF support, retiming and resynthesis
transformations, and the symbolic-traversal baseline it is compared against.

Quick start::

    from repro import verify
    from repro.circuits import fig2_pair

    spec, impl = fig2_pair()
    result = verify(spec, impl)
    assert result.proved
"""

from .errors import (
    BddError,
    NetlistError,
    NodeLimitExceeded,
    ParseError,
    ReproError,
    ResourceBudgetExceeded,
    SatError,
    TransformError,
    VerificationError,
)
from .budget import Budget
from .netlist import Circuit, GateType, build_product
from .reach import (
    CexTrace,
    SecResult,
    check_equivalence_traversal,
    explicit_check_equivalence,
)
from .core import VanEijkVerifier, bmc_refute, check_equivalence_sat_sweep
from .induction import (
    KInductionEngine,
    check_equivalence_k_induction,
    check_equivalence_sweep_induction,
)

__version__ = "1.0.0"

METHODS = ("van_eijk", "traversal", "sat_sweep", "fraig_sweep",
           "k_induction", "sweep_induct", "bmc", "explicit")


def verify(spec, impl, method="van_eijk", match_inputs="name",
           match_outputs="order", time_limit=None, cancel_check=None,
           **options):
    """Check two sequential circuits for equivalence.

    ``method`` selects the engine:

    * ``"van_eijk"`` — the paper's signal-correspondence method (default);
      options are :class:`~repro.core.VanEijkVerifier` parameters.
    * ``"traversal"`` — the symbolic state-space-traversal baseline;
      options are those of
      :func:`~repro.reach.check_equivalence_traversal`.
    * ``"sat_sweep"`` — the SAT-backed signal correspondence (§6).
    * ``"fraig_sweep"`` — FRAIG-reduce both circuits on the AIG substrate
      first, then run the SAT correspondence on the reduced pair
      (:mod:`repro.sweep`).
    * ``"k_induction"`` — temporal induction over the product miter:
      proves what the fixed point cannot, without traversal; options are
      :class:`~repro.induction.KInductionEngine` parameters.
    * ``"sweep_induct"`` — SAT correspondence first; an inconclusive fixed
      point hands its partition to k-induction as a strengthening
      invariant instead of falling back to traversal.
    * ``"bmc"`` — bounded model checking: a complete *refuter* up to a
      depth bound (shortest counterexamples); it never proves.
    * ``"explicit"`` — explicit-state oracle (tiny circuits only).

    Every method additionally accepts ``preprocess="fraig"``: the pair is
    shrunk by the sequential-safe FRAIG sweep before the engine runs;
    verdicts and counterexample traces are unaffected (the reduction
    preserves the per-frame functions and the circuit interface), and the
    reduction telemetry lands in ``details["preprocess"]``.

    ``time_limit`` (seconds) and ``cancel_check()`` form the call's one
    :class:`~repro.budget.Budget`, which covers preprocessing and the
    engine alike; a spent budget returns an inconclusive result whose
    ``details["aborted"]`` is "time budget exhausted" or "cancelled".

    Returns a :class:`~repro.reach.SecResult`.
    """
    if method not in METHODS:
        raise ValueError(
            "unknown method {!r}; choose one of {}".format(method, METHODS))
    budget = Budget(time_limit, cancel_check)
    info = None
    if options.get("preprocess"):
        from .sweep import preprocess_pair, split_preprocess_options

        passes, pre_kwargs, options = split_preprocess_options(options)
        try:
            spec, impl, info = preprocess_pair(spec, impl, passes=passes,
                                               budget=budget, **pre_kwargs)
        except ResourceBudgetExceeded as exc:
            return SecResult(None, method=method,
                             details={"aborted": str(exc)})
    kwargs = dict(options, budget=budget)
    pair = dict(spec=spec, impl=impl, match_inputs=match_inputs,
                match_outputs=match_outputs)
    if method == "van_eijk":
        result = VanEijkVerifier(**kwargs).verify(**pair)
    elif method == "sat_sweep":
        result = check_equivalence_sat_sweep(**pair, **kwargs)
    elif method == "fraig_sweep":
        from .sweep import check_equivalence_fraig_sweep

        result = check_equivalence_fraig_sweep(**pair, **kwargs)
    elif method == "k_induction":
        result = check_equivalence_k_induction(**pair, **kwargs)
    elif method == "sweep_induct":
        result = check_equivalence_sweep_induction(**pair, **kwargs)
    else:
        entry = {"bmc": bmc_refute, "traversal": check_equivalence_traversal,
                 "explicit": explicit_check_equivalence}[method]
        result = entry(build_product(**pair), **kwargs)
    if info is not None:
        result.details["preprocess"] = info
    return result


__all__ = [
    "BddError",
    "Budget",
    "CexTrace",
    "Circuit",
    "GateType",
    "KInductionEngine",
    "METHODS",
    "NetlistError",
    "NodeLimitExceeded",
    "ParseError",
    "ReproError",
    "ResourceBudgetExceeded",
    "SatError",
    "SecResult",
    "TransformError",
    "VanEijkVerifier",
    "VerificationError",
    "build_product",
    "check_equivalence_k_induction",
    "check_equivalence_sat_sweep",
    "verify",
]
