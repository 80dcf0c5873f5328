"""Candidate invariants: construction, violation semantics, CEGAR drops."""

from unittest import mock

import pytest

from repro.circuits import onehot_chain_pair
from repro.core.satbackend import CONST_NET
from repro.fuzz.generate import build_pair
from repro.induction.invariant import (
    Candidate,
    InvariantSet,
    candidates_from_classes,
    candidates_from_simulation,
)
from repro.netlist import build_product
from repro.netlist.simulate import SequentialSimulator
from repro.sat.tseitin import TseitinEncoder

from ..netlist.helpers import counter_circuit, toggle_circuit


def test_candidate_violated_by_equality():
    cand = Candidate("a", False, "b", False, 0)
    assert not cand.violated_by({"a": 1, "b": 1})
    assert cand.violated_by({"a": 1, "b": 0})


def test_candidate_complemented_pair():
    cand = Candidate("a", True, "b", False, 0)
    assert not cand.violated_by({"a": 0, "b": 1})
    assert cand.violated_by({"a": 1, "b": 1})


def test_candidate_constant_pin():
    one = Candidate("a", False, CONST_NET, False, 0)
    zero = Candidate("a", False, CONST_NET, True, 1)
    assert not one.violated_by({"a": 1})
    assert one.violated_by({"a": 0})
    assert not zero.violated_by({"a": 0})
    assert zero.violated_by({"a": 1})
    assert one.describe() == "a == 1"
    assert zero.describe() == "a == 0"


def test_candidates_from_classes_registers_only():
    circuit = counter_circuit(3)
    regs = list(circuit.registers)
    classes = [
        [(regs[0], False), (regs[1], True), ("some_gate", False)],
        [("gate_a", False), ("gate_b", False)],  # no registers: skipped
        [(regs[2], False)],  # singleton: nothing to pair
    ]
    cands = candidates_from_classes(classes, circuit)
    assert len(cands) == 1
    assert {cands[0].a_net, cands[0].b_net} == {regs[0], regs[1]}


def test_candidates_from_classes_constant_class():
    circuit = counter_circuit(3)
    regs = list(circuit.registers)
    classes = [[(CONST_NET, False), (regs[0], True), (regs[1], False)]]
    cands = candidates_from_classes(classes, circuit)
    assert len(cands) == 2
    assert all(c.is_constant for c in cands)


def test_candidates_from_classes_accepts_signal_objects():
    class Sig:
        def __init__(self, net, complemented):
            self.net = net
            self.complemented = complemented

    circuit = counter_circuit(3)
    regs = list(circuit.registers)
    cands = candidates_from_classes(
        [[Sig(regs[0], False), Sig(regs[1], False)]], circuit)
    assert len(cands) == 1
    assert not cands[0].a_comp and not cands[0].b_comp


def test_candidates_from_simulation_toggle():
    """A lone toggle register only matches the constant bucket by luck; the
    point is that the function runs and yields only register candidates."""
    circuit = toggle_circuit()
    cands = candidates_from_simulation(circuit, seed=7, sim_frames=8,
                                       sim_width=8)
    for cand in cands:
        assert cand.a_net in circuit.registers
        assert cand.is_constant or cand.b_net in circuit.registers


def test_invariant_set_drop_refuted_moves_candidates():
    cands = [Candidate("a", False, "b", False, 0),
             Candidate("a", False, CONST_NET, False, 1)]
    invs = InvariantSet(cands)
    assert invs.counts() == {"candidates_initial": 2,
                             "candidates_active": 2,
                             "candidates_dropped": 0}
    dropped = invs.drop_refuted({"a": 0, "b": 0})  # refutes the const pin
    assert dropped == [cands[1]]
    assert invs.active == [cands[0]]
    dropped = invs.drop_refuted({"a": 0, "b": 0})  # idempotent
    assert dropped == []
    assert invs.counts()["candidates_dropped"] == 1


def test_invariant_set_clauses_and_violations_roundtrip():
    """Asserted frames force equality; violation literals detect breaks."""
    from repro.sat.solver import Solver

    cands = [Candidate("a", False, "b", False, 0)]
    invs = InvariantSet(cands)
    enc = TseitinEncoder()
    invs.bind(enc)
    va, vb = enc.new_var(), enc.new_var()
    frame = {"a": va, "b": vb}
    invs.assert_frame(frame)
    viols = invs.violation_literals(0, frame)
    assert len(viols) == 1
    # memoized: same literal on re-query
    assert invs.violation_literals(0, frame) == viols

    solver = Solver()
    solver.ensure_vars(enc.cnf.num_vars)
    for clause in enc.cnf.clauses:
        solver.add_clause(clause)
    act = invs.assumptions()
    # With the candidate active, a != b is unsatisfiable.
    assert solver.solve(assumptions=act + [va, -vb]) is False
    # Without it, the violation literal can be made true.
    assert solver.solve(assumptions=viols) is True


# -- one signature read ----------------------------------------------------------

#: One of the k-induction pairs the benchmark runs: xor-reencoded and
#: retimed, so its registers fall into several signature classes.
XOR_RETIMED_RECIPE = {
    "base": {"name": "ih15", "n_regs": 7, "n_inputs": 2, "n_outputs": 1,
             "seed": 14668, "deep_counter_bits": 0, "mixer_width": 0},
    "transforms": [{"kind": "xor_reencode", "pairs": 2, "seed": 260},
                   {"kind": "retime", "moves": 2, "seed": 806}]}


def signature_candidates(circuit, seed=2024, sim_frames=24, sim_width=32):
    """The simulation candidates as a reference computes them: one
    signature class per normalized register signature, plus the constant."""
    sim = SequentialSimulator(circuit, width=sim_width, seed=seed)
    signatures = sim.run(sim_frames)
    full = (1 << sim_frames * sim_width) - 1
    ref_bit = (sim_frames - 1) * sim_width
    classes = {full: [(CONST_NET, False)]}
    for net in circuit.registers:
        complemented = not (signatures[net] >> ref_bit) & 1
        signature = signatures[net] ^ (full if complemented else 0)
        classes.setdefault(signature, []).append((net, complemented))
    return candidates_from_classes(classes.values(), circuit)


def candidate_tuples(candidates):
    return [(c.a_net, c.a_comp, c.b_net, c.b_comp, c.index)
            for c in candidates]


@pytest.mark.parametrize("pair", [
    lambda: onehot_chain_pair(16),
    lambda: build_pair(XOR_RETIMED_RECIPE),
], ids=["onehot_chain16", "xor_retimed"])
def test_simulation_candidates_read_the_signatures_once(pair):
    """``SequentialSimulator.signatures`` builds a map of every net on each
    read; read once per register, it made candidate seeding O(registers x
    nets)."""
    circuit = build_product(*pair(), match_outputs="order").circuit
    reads = []
    real = SequentialSimulator.signatures

    def counted(sim):
        reads.append(sim)
        return real.fget(sim)

    with mock.patch.object(SequentialSimulator, "signatures",
                           property(counted)):
        candidates = candidates_from_simulation(circuit)
    assert len(reads) <= 1
    assert len(candidates) > 1
    assert candidate_tuples(candidates) == candidate_tuples(
        signature_candidates(circuit))
