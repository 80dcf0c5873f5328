"""AIG tests: construction, conversion and SAT sweeping.

The AIGER codec is covered by ``tests/interop/test_aiger.py``.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.netlist import Circuit, GateType, SequentialSimulator, single_eval
from repro.netlist.aig import (
    Aig,
    FALSE,
    TRUE,
    from_circuit,
    lit_neg,
    to_circuit,
)
from repro.sweep import fraig_reduce

from .helpers import circuit_seeds, random_sequential_circuit


# --------------------------------------------------------------- basic ops


def test_constants_and_literals():
    assert lit_neg(FALSE) == TRUE
    assert lit_neg(TRUE) == FALSE


def test_and2_rules():
    aig = Aig()
    a = aig.add_input("a")
    b = aig.add_input("b")
    assert aig.and2(a, FALSE) == FALSE
    assert aig.and2(a, TRUE) == a
    assert aig.and2(a, a) == a
    assert aig.and2(a, lit_neg(a)) == FALSE
    # Structural hashing: same AND created once, argument order irrelevant.
    g1 = aig.and2(a, b)
    g2 = aig.and2(b, a)
    assert g1 == g2
    assert aig.num_ands == 1


def test_or_xor_mux_semantics():
    aig = Aig()
    a = aig.add_input("a")
    b = aig.add_input("b")
    s = aig.add_input("s")
    o = aig.or2(a, b)
    x = aig.xor2(a, b)
    m = aig.mux(s, a, b)
    av, bv, sv = (lit := None), None, None  # readability only
    for va, vb, vs in itertools.product([0, 1], repeat=3):
        env = {1: va, 2: vb, 3: vs}
        _, lit_value = aig.simulate(env, width=1)
        assert lit_value(o) == (va | vb)
        assert lit_value(x) == (va ^ vb)
        assert lit_value(m) == (va if vs else vb)


def test_and_many():
    aig = Aig()
    lits = [aig.add_input("i{}".format(k)) for k in range(5)]
    conj = aig.and_many(lits)
    env_all = {v: 1 for v in aig.inputs}
    _, lit_value = aig.simulate(env_all, width=1)
    assert lit_value(conj) == 1
    env_one = dict(env_all)
    env_one[aig.inputs[2]] = 0
    _, lit_value = aig.simulate(env_one, width=1)
    assert lit_value(conj) == 0
    assert aig.and_many([]) == TRUE


def test_latch_api():
    aig = Aig()
    x = aig.add_input("x")
    q = aig.add_latch(init=True, name="q")
    aig.set_latch_next(q, x)
    aig.add_output(q)
    assert aig.latches[0][1] == x
    assert aig.latches[0][2] is True
    with pytest.raises(NetlistError):
        aig.set_latch_next(x, q)


def test_set_latch_next_finds_latches_appended_directly():
    """The AIGER readers append to ``latches`` without ``add_latch``."""
    aig = Aig()
    x = aig.add_input("x")
    q = aig.add_latch(name="q")
    aig.set_latch_next(q, x)
    var = aig._new_var()
    aig.latches.append([var, FALSE, False])
    aig.set_latch_next(2 * var, lit_neg(q))
    aig.set_latch_next(q, lit_neg(x))
    assert aig.latches == [[q >> 1, lit_neg(x), False],
                           [var, lit_neg(q), False]]
    with pytest.raises(NetlistError):
        aig.set_latch_next(x, q)


def test_cleanup_drops_dangling():
    aig = Aig()
    a = aig.add_input("a")
    b = aig.add_input("b")
    keep = aig.and2(a, b)
    aig.and2(a, lit_neg(b))  # dangling
    aig.add_output(keep)
    dropped = aig.cleanup()
    assert dropped == 1
    assert aig.num_ands == 1


# --------------------------------------------------------------- conversion


@settings(max_examples=30, deadline=None)
@given(circuit_seeds)
def test_circuit_aig_round_trip(seed):
    circuit = random_sequential_circuit(seed)
    aig, lit_of = from_circuit(circuit)
    back = to_circuit(aig, name=circuit.name)
    sim_a = SequentialSimulator(circuit, width=32, seed=6)
    sim_b = SequentialSimulator(back, width=32, seed=6)
    sig_a = sim_a.run(10)
    sig_b = sim_b.run(10)
    for out_a, out_b in zip(circuit.outputs, back.outputs):
        assert sig_a[out_a] == sig_b[out_b]


def test_from_circuit_gate_types():
    c = Circuit("all_gates")
    c.add_input("a")
    c.add_input("b")
    for gtype in (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
                  GateType.XOR, GateType.XNOR):
        c.add_gate("g_{}".format(gtype.value), gtype, ["a", "b"])
        c.add_output("g_{}".format(gtype.value))
    c.add_gate("g_not", GateType.NOT, ["a"])
    c.add_output("g_not")
    c.add_gate("g_c1", GateType.CONST1, [])
    c.add_output("g_c1")
    aig, lit_of = from_circuit(c)
    for va in (False, True):
        for vb in (False, True):
            expected = single_eval(c, {"a": va, "b": vb}, {})
            env = {aig.inputs[0]: int(va), aig.inputs[1]: int(vb)}
            _, lit_value = aig.simulate(env, width=1)
            for net in c.outputs:
                assert bool(lit_value(lit_of[net])) == expected[net], net


def test_structural_sharing_across_gates():
    c = Circuit("share")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("g1", GateType.AND, ["a", "b"])
    c.add_gate("g2", GateType.NAND, ["a", "b"])  # complement: same node
    c.add_output("g1")
    c.add_output("g2")
    aig, lit_of = from_circuit(c)
    assert aig.num_ands == 1
    assert lit_of["g2"] == lit_neg(lit_of["g1"])


# --------------------------------------------------------------- SAT sweeping


def _twin_and():
    c = Circuit("dupfn")
    c.add_input("a")
    c.add_input("b")
    # Two structurally different, functionally equal computations of a&b.
    c.add_gate("g1", GateType.AND, ["a", "b"])
    c.add_gate("na", GateType.NOT, ["a"])
    c.add_gate("nb", GateType.NOT, ["b"])
    c.add_gate("g2", GateType.NOR, ["na", "nb"])
    c.add_gate("o", GateType.XOR, ["g1", "g2"])  # constant 0
    c.add_output("o")
    c.add_output("g2")  # keeps the merged node live
    return c


def _antivalent_pair():
    c = Circuit("anti")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("g1", GateType.NAND, ["a", "b"])
    c.add_gate("g2", GateType.AND, ["a", "b"])
    c.add_gate("o", GateType.XNOR, ["g1", "g2"])  # constant 0
    c.add_output("o")
    c.add_output("g2")
    return c


def _absorbing_or():
    c = Circuit("redund")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("ab", GateType.AND, ["a", "b"])
    c.add_gate("o", GateType.OR, ["a", "ab"])  # absorption: == a
    c.add_output("o")
    return c


def _rare_difference():
    c = Circuit("rare")
    names = ["x{}".format(k) for k in range(20)]
    for name in names:
        c.add_input(name)
    # g is 1 only on the all-ones input, which random simulation all but
    # never hits: simulation pairs g (and its deep subtrees) with the
    # constant, and only refuting SAT models split them.
    c.add_gate("g", GateType.AND, names)
    c.add_output("g")
    return c


_CONST0 = {"net": None, "negated": False, "const": 0}


@pytest.mark.parametrize("build,expect,ands", [
    (_twin_and, lambda w: {"g2": w["g1"], "o": _CONST0}, 1),
    (_antivalent_pair,
     lambda w: {"g1": dict(w["g2"], negated=True), "o": _CONST0}, 1),
    (_absorbing_or,
     lambda w: {"o": {"net": "a", "negated": False, "const": None}}, 0),
    (_rare_difference, lambda w: {"g": dict(w["g"], const=None)}, 19),
], ids=["merge", "antivalence", "node_equal_to_input", "rare_difference"])
def test_fraig_reduce_witness_map(build, expect, ands):
    """Sweeping merges equal and antivalent nodes, onto inputs too, and
    keeps apart nodes that only a SAT model distinguishes."""
    reduction = fraig_reduce(build().validate())
    witness = reduction.net_map
    for net, record in expect(witness).items():
        assert witness[net] == record, net
    assert reduction.stats["ands_after"] == ands
