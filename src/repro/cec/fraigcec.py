"""Fraig-based combinational equivalence checking.

The two circuits are combined into a product over shared inputs and
swept by :func:`repro.sweep.reduce.fraig_reduce`.  Sweeping merges every
pair of equivalent nodes, so the circuits are equivalent exactly when
each output pair ends on the same witness record.  Otherwise the SAT
backend gives the verdict and the counterexample.
"""

from ..errors import VerificationError
from ..netlist.product import build_product
from .result import CecResult
from .satcec import check_comb_equivalence_sat


def check_comb_equivalence_fraig(spec, impl, match_inputs="name",
                                 match_outputs="order", seed=2024):
    """Check two combinational circuits by AIG sweeping."""
    # Imported here so that importing repro.cec does not load repro.sweep.
    from ..sweep.reduce import fraig_reduce

    if spec.num_registers or impl.num_registers:
        raise VerificationError(
            "combinational check on sequential circuits; use the SEC engine"
        )
    product = build_product(spec, impl, match_inputs=match_inputs,
                            match_outputs=match_outputs)
    reduction = fraig_reduce(product.circuit, seed=seed)
    witness = reduction.net_map
    if all(witness[s] == witness[i] for s, i in product.output_pairs):
        stats = reduction.stats
        return CecResult(True, stats={
            "ands_before": stats["ands_before"],
            "ands_after": stats["ands_after"],
            "merges": stats["merges"],
        })
    return check_comb_equivalence_sat(spec, impl, match_inputs=match_inputs,
                                      match_outputs=match_outputs)
