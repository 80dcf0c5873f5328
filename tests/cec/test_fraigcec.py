"""Edge cases for the FRAIG-based combinational checker.

The sweeping CEC backend shares the AIG substrate with the sequential
preprocessor, so the corner cases the reducer newly leans on — constant
outputs, duplicate outputs, trivial one-gate circuits, positional input
matching — are pinned here directly against the other backends.
"""

import pytest

from repro.cec import check_comb_equivalence_sat
from repro.cec.fraigcec import check_comb_equivalence_fraig
from repro.errors import VerificationError
from repro.netlist import Circuit, GateType, single_eval

from ..netlist.helpers import random_sequential_circuit


def comb(seed, n_inputs=4, n_gates=12):
    return random_sequential_circuit(seed, n_inputs=n_inputs, n_regs=0,
                                     n_gates=n_gates)


def test_constant_outputs_equivalent():
    c = Circuit("c_taut")
    c.add_input("a")
    c.add_gate("na", GateType.NOT, ["a"])
    c.add_gate("o", GateType.OR, ["a", "na"])  # = 1
    c.add_output("o")
    d = Circuit("c_one")
    d.add_input("a")
    d.add_gate("o", GateType.CONST1, [])
    d.add_output("o")
    assert check_comb_equivalence_fraig(c.validate(), d.validate()).equivalent


def test_constant_outputs_inequivalent_with_cex():
    c = Circuit("c_zero")
    c.add_input("a")
    c.add_gate("o", GateType.CONST0, [])
    c.add_output("o")
    d = Circuit("c_id")
    d.add_input("a")
    d.add_gate("o", GateType.BUF, ["a"])
    d.add_output("o")
    result = check_comb_equivalence_fraig(c.validate(), d.validate())
    assert not result.equivalent
    cex = result.counterexample
    assert single_eval(c, cex, {})["o"] != single_eval(d, cex, {})["o"]


def test_duplicate_outputs():
    c = Circuit("dup")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("g", GateType.AND, ["a", "b"])
    c.add_gate("g2", GateType.AND, ["b", "a"])
    c.add_output("g")
    c.add_output("g2")  # same function, twice
    d = Circuit("dup2")
    d.add_input("a")
    d.add_input("b")
    d.add_gate("h", GateType.AND, ["a", "b"])
    d.add_output("h")
    d.add_output("h")  # literally the same net, twice
    assert check_comb_equivalence_fraig(
        c.validate(), d.validate(), match_outputs="order").equivalent


def test_single_gate_circuits():
    for gtype in (GateType.AND, GateType.OR, GateType.XOR, GateType.NAND):
        c = Circuit("single_{}".format(gtype.name))
        c.add_input("a")
        c.add_input("b")
        c.add_gate("o", gtype, ["a", "b"])
        c.add_output("o")
        c.validate()
        assert check_comb_equivalence_fraig(c, c.copy()).equivalent, gtype


def test_match_inputs_order_with_renamed_nets():
    c = Circuit("named")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("o", GateType.AND, ["a", "b"])
    c.add_output("o")
    d = Circuit("renamed")
    d.add_input("x")
    d.add_input("y")
    d.add_gate("o", GateType.AND, ["x", "y"])
    d.add_output("o")
    c.validate()
    d.validate()
    # By name the interfaces differ — must refuse loudly.
    with pytest.raises(VerificationError):
        check_comb_equivalence_fraig(c, d, match_inputs="name")
    # Positionally they are the same function.
    assert check_comb_equivalence_fraig(c, d, match_inputs="order").equivalent


def test_match_inputs_order_detects_swapped_asymmetric_inputs():
    c = Circuit("impl1")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("nb", GateType.NOT, ["b"])
    c.add_gate("o", GateType.AND, ["a", "nb"])  # a & !b
    c.add_output("o")
    d = Circuit("impl2")
    d.add_input("b")
    d.add_input("a")
    d.add_gate("nb", GateType.NOT, ["b"])
    d.add_gate("o", GateType.AND, ["a", "nb"])  # same by name, not by order
    d.add_output("o")
    c.validate()
    d.validate()
    result = check_comb_equivalence_fraig(c, d, match_inputs="order")
    assert not result.equivalent


def test_fraig_as_cec():
    """An optimized impl is proved by sweeping alone: every output pair of
    the product lands on one witness record, so SAT never runs."""
    from repro.transform import optimize

    spec = comb(5, n_gates=14)
    impl = optimize(spec, level=2, seed=77)
    result = check_comb_equivalence_fraig(spec, impl)
    assert result.equivalent
    assert "merges" in result.stats and "conflicts" not in result.stats


def test_sequential_circuit_rejected():
    seq = random_sequential_circuit(5, n_inputs=2, n_regs=2, n_gates=8)
    comb_c = comb(5)
    for spec, impl in ((seq, seq.copy()), (seq, comb_c), (comb_c, seq)):
        with pytest.raises(VerificationError):
            check_comb_equivalence_fraig(spec, impl)


@pytest.mark.parametrize("seed", [1, 17, 23])
def test_agrees_with_sat_backend_on_random_circuits(seed):
    c = comb(seed)
    d = comb(seed)  # same recipe -> same circuit
    fr = check_comb_equivalence_fraig(c, d)
    sat = check_comb_equivalence_sat(c, d)
    assert fr.equivalent == sat.equivalent is True
