"""Edge cases for FRAIG sweeping as a combinational checker.

Sweeping the product of two combinational circuits with
:func:`~repro.sweep.fraig_reduce` (``helpers.sweep_verdict``) decides
their equivalence, so the corner cases the reducer leans on — constant
outputs, duplicate outputs, trivial one-gate circuits, positional input
matching — are pinned here directly against the SAT backend.
"""

import pytest

from repro.cec import check_comb_equivalence_sat
from repro.errors import VerificationError
from repro.netlist import Circuit, GateType, single_eval

from ..netlist.helpers import random_sequential_circuit
from .helpers import sweep_verdict


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
    assert sweep_verdict(c.validate(), d.validate())[0]


def test_constant_outputs_inequivalent_with_cex():
    c = Circuit("c_zero")
    c.add_input("a")
    c.add_gate("o", GateType.CONST0, [])
    c.add_output("o")
    d = Circuit("c_id")
    d.add_input("a")
    d.add_gate("o", GateType.BUF, ["a"])
    d.add_output("o")
    assert not sweep_verdict(c.validate(), d.validate())[0]
    cex = check_comb_equivalence_sat(c, d).counterexample
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
    assert sweep_verdict(c.validate(), d.validate(),
                         match_outputs="order")[0]


def test_single_gate_circuits():
    for gtype in (GateType.AND, GateType.OR, GateType.XOR, GateType.NAND):
        c = Circuit("single_{}".format(gtype.name))
        c.add_input("a")
        c.add_input("b")
        c.add_gate("o", gtype, ["a", "b"])
        c.add_output("o")
        c.validate()
        assert sweep_verdict(c, c.copy())[0], gtype


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
        sweep_verdict(c, d, match_inputs="name")
    # Positionally they are the same function.
    assert sweep_verdict(c, d, match_inputs="order")[0]


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
    assert not sweep_verdict(c, d, match_inputs="order")[0]


def test_fraig_as_cec():
    """An optimized impl is proved by sweeping alone: every output pair of
    the product lands on one witness record."""
    from repro.transform import optimize

    spec = comb(5, n_gates=14)
    impl = optimize(spec, level=2, seed=77)
    equivalent, reduction = sweep_verdict(spec, impl)
    assert equivalent
    assert reduction.stats["merges"] > 0


@pytest.mark.parametrize("seed", [1, 17, 23])
def test_agrees_with_sat_backend_on_random_circuits(seed):
    c = comb(seed)
    d = comb(seed)  # same recipe -> same circuit
    sat = check_comb_equivalence_sat(c, d)
    assert sweep_verdict(c, d)[0] == sat.equivalent is True
