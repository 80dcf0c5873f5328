"""SAT-based combinational equivalence checking (Tseitin miter + CDCL)."""

from ..errors import VerificationError
from ..sat import Solver
from ..sat.tseitin import TseitinEncoder
from .result import CecResult


def check_comb_equivalence_sat(spec, impl, match_inputs="name",
                               match_outputs="order"):
    """Check two combinational circuits for equivalence with the SAT solver.

    Each output pair becomes one incremental query under a selector
    assumption, so the counterexample identifies the failing pair.
    """
    if spec.num_registers or impl.num_registers:
        raise VerificationError(
            "combinational check on sequential circuits; use the SEC engine"
        )
    if len(spec.inputs) != len(impl.inputs):
        raise VerificationError("input count mismatch")
    if len(spec.outputs) != len(impl.outputs):
        raise VerificationError("output count mismatch")
    if match_inputs == "name" and set(spec.inputs) != set(impl.inputs):
        raise VerificationError("input names differ; use match_inputs='order'")

    enc = TseitinEncoder()
    spec_vars = enc.encode_frame(spec)
    if match_inputs == "name":
        leaves = {net: spec_vars[net] for net in impl.inputs}
    else:
        leaves = {
            i_net: spec_vars[s_net]
            for i_net, s_net in zip(impl.inputs, spec.inputs)
        }
    impl_vars = enc.encode_frame(impl, leaves=leaves)
    solver = Solver()
    solver.add_cnf(enc.cnf)
    if match_outputs == "name":
        pairs = [(net, net) for net in spec.outputs]
    else:
        pairs = list(zip(spec.outputs, impl.outputs))
    for s_out, i_out in pairs:
        # Ask for s_out != i_out via two polarity-split queries.
        for pos, neg in (
            (spec_vars[s_out], impl_vars[i_out]),
            (impl_vars[i_out], spec_vars[s_out]),
        ):
            if solver.solve(assumptions=[pos, -neg]):
                model = solver.model()
                cex = {
                    net: model.get(spec_vars[net], False)
                    for net in spec.inputs
                }
                return CecResult(
                    False,
                    counterexample=cex,
                    failing_output=(s_out, i_out),
                    stats=_stats(solver),
                )
    return CecResult(True, stats=_stats(solver))


def _stats(solver):
    return {
        "conflicts": solver.conflicts,
        "decisions": solver.decisions,
        "propagations": solver.propagations,
    }
