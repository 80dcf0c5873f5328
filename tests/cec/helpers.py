"""FRAIG sweeping as a third combinational equivalence check.

The paper's fixed point collapsed to one time frame is SAT sweeping, so
sweeping the product of two combinational circuits decides their
equivalence: the sweep merges every pair of equivalent nodes, and the
circuits are equivalent exactly when each output pair ends on one witness
record of :func:`~repro.sweep.fraig_reduce`.
"""

from repro.netlist import build_product
from repro.sweep import fraig_reduce


def sweep_verdict(spec, impl, match_inputs="name", match_outputs="order"):
    """Sweep the product; returns ``(equivalent, reduction)``."""
    product = build_product(spec, impl, match_inputs=match_inputs,
                            match_outputs=match_outputs)
    reduction = fraig_reduce(product.circuit)
    witness = reduction.net_map
    equivalent = all(witness[s] == witness[i]
                     for s, i in product.output_pairs)
    return equivalent, reduction
