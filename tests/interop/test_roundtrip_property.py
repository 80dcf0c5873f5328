"""Property tests for the bench → aag → aig → Circuit round trip.

Satellite of the interop subsystem: for randomly generated benchmarks the
full format chain must be lossless — the ascii-born and binary-born
circuits are structurally identical, the canonical AIG fingerprint never
moves, and latch initial values survive — so every downstream consumer
(engines, FRAIG, daemon, fleet) can be format-blind by construction.
"""

from hypothesis import given, settings, strategies as st

from repro.circuits.generators import generate_benchmark
from repro.interop.aiger import (
    dumps_aiger_ascii,
    dumps_aiger_binary,
    loads_aiger,
)
from repro.interop.fingerprint import aig_fingerprint
from repro.netlist import bench
from repro.netlist.aig import from_circuit, to_circuit

seeds = st.integers(min_value=0, max_value=10 ** 6)


def _chain(circuit):
    """bench text -> ascii AIGER -> binary AIGER -> Circuit."""
    reparsed = bench.loads(bench.dumps(circuit), name=circuit.name)
    aig, _ = from_circuit(reparsed)
    text = dumps_aiger_ascii(aig)
    ascii_born = loads_aiger(text)
    blob = dumps_aiger_binary(ascii_born)
    binary_born = loads_aiger(blob)
    return aig, ascii_born, binary_born


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_format_chain_preserves_structure(seed):
    circuit = generate_benchmark("rt{}".format(seed), n_regs=5, n_inputs=3,
                                 n_outputs=2, seed=seed)
    aig, ascii_born, binary_born = _chain(circuit)
    # One canonical fingerprint across every encoding in the chain.
    prints = {aig_fingerprint(circuit), aig_fingerprint(aig),
              aig_fingerprint(ascii_born), aig_fingerprint(binary_born)}
    assert len(prints) == 1
    # The two AIGER-born circuits are *structurally* identical, not just
    # functionally equivalent.
    from_ascii = to_circuit(ascii_born, name="a")
    from_binary = to_circuit(binary_born, name="b")
    assert aig_fingerprint(from_ascii) == aig_fingerprint(from_binary)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_format_chain_preserves_interface_and_state(seed):
    circuit = generate_benchmark("rt{}".format(seed), n_regs=4, n_inputs=2,
                                 n_outputs=2, seed=seed)
    _, _, binary_born = _chain(circuit)
    back = to_circuit(binary_born, name=circuit.name)
    assert sorted(back.inputs) == sorted(circuit.inputs)
    assert len(back.outputs) == len(circuit.outputs)
    assert len(back.registers) == len(circuit.registers)
    # Initial values ride the AIGER reset fields, keyed by register name.
    original_inits = {name: reg.init
                      for name, reg in circuit.registers.items()}
    assert {name: reg.init for name, reg in back.registers.items()} \
        == original_inits


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_both_writers_are_fixed_points_on_random_circuits(seed):
    circuit = generate_benchmark("rt{}".format(seed), n_regs=4, seed=seed)
    aig, _ = from_circuit(circuit)
    text = dumps_aiger_ascii(aig)
    assert dumps_aiger_ascii(loads_aiger(text)) == text
    blob = dumps_aiger_binary(aig)
    assert dumps_aiger_binary(loads_aiger(blob)) == blob
