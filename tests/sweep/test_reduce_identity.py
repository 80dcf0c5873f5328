"""The FRAIG reducer must be invisible to every observer.

Three properties pin the reducer's soundness contract:

* **Bit-identity** — the reduced circuit, started from the same initial
  state and fed the same input frames, produces bit-identical output
  streams (registers are treated as free pseudo-inputs during sweeping,
  so every merge holds in *all* states, not just reachable ones).
* **Determinism** — merges always go to the topologically-first member
  of an equivalence class and the sweep runs to completion, so the
  reduced circuit's structural fingerprint is independent of the
  simulation seed and stable across repeated runs.
* **Witness honesty** — the net map must relate every original net to
  its surviving representative (possibly negated, possibly a constant),
  and that relation must hold cycle by cycle under simulation.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.interop.fingerprint import aig_fingerprint
from repro.netlist import CompiledSim
from repro.sweep import fraig_reduce

from ..netlist.helpers import random_sequential_circuit

import pytest


def random_frames(circuit, n_frames, rng):
    return [
        {net: rng.randint(0, 1) for net in circuit.inputs}
        for _ in range(n_frames)
    ]


def replay_pair(original, reduced, frames):
    """Replay the same stimulus on both circuits; return per-frame dicts."""
    orig = CompiledSim(original).replay(original.initial_state(), frames)
    red = CompiledSim(reduced).replay(reduced.initial_state(), frames)
    return orig, red


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_reduced_circuit_is_bit_identical(seed):
    circuit = random_sequential_circuit(seed, n_inputs=3, n_regs=4,
                                        n_gates=18)
    reduction = fraig_reduce(circuit)
    reduced = reduction.reduced

    # The interface is preserved verbatim: same input/output names in the
    # same order, same registers with the same initial values.
    assert list(reduced.inputs) == list(circuit.inputs)
    assert list(reduced.outputs) == list(circuit.outputs)
    assert list(reduced.registers) == list(circuit.registers)
    assert reduced.initial_state() == circuit.initial_state()

    rng = random.Random(seed ^ 0xBEEF)
    frames = random_frames(circuit, 8, rng)
    orig, red = replay_pair(circuit, reduced, frames)
    for t, (fo, fr) in enumerate(zip(orig, red)):
        for net in circuit.outputs:
            assert fo[net] == fr[net], (
                "frame {} output {} diverged".format(t, net))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_reduction_never_grows_the_circuit(seed):
    circuit = random_sequential_circuit(seed, n_inputs=3, n_regs=3,
                                        n_gates=24)
    reduction = fraig_reduce(circuit)
    assert reduction.stats["ands_after"] <= reduction.stats["ands_before"]
    assert reduction.reduced.num_registers == circuit.num_registers


@pytest.mark.parametrize("circuit_seed", [7, 99, 4242])
def test_fingerprint_independent_of_simulation_seed(circuit_seed):
    circuit = random_sequential_circuit(circuit_seed, n_inputs=3, n_regs=4,
                                        n_gates=20)
    prints = {
        aig_fingerprint(fraig_reduce(circuit, seed=s).reduced)
        for s in (1, 2, 3, 2024)
    }
    assert len(prints) == 1


def test_fingerprint_stable_across_repeated_runs():
    circuit = random_sequential_circuit(31337, n_inputs=4, n_regs=5,
                                        n_gates=22)
    first = fraig_reduce(circuit)
    second = fraig_reduce(circuit)
    assert (aig_fingerprint(first.reduced)
            == aig_fingerprint(second.reduced))
    assert first.stats["merges"] == second.stats["merges"]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_witness_map_holds_under_simulation(seed):
    circuit = random_sequential_circuit(seed, n_inputs=3, n_regs=3,
                                        n_gates=16)
    reduction = fraig_reduce(circuit)
    rng = random.Random(seed ^ 0xF00D)
    frames = random_frames(circuit, 6, rng)
    orig, red = replay_pair(circuit, reduction.reduced, frames)

    for net, entry in reduction.net_map.items():
        for fo, fr in zip(orig, red):
            if net not in fo:
                continue
            if entry["const"] is not None:
                assert fo[net] == entry["const"], net
            elif entry["net"] is not None and entry["net"] in fr:
                expect = fr[entry["net"]] ^ (1 if entry["negated"] else 0)
                assert fo[net] == expect, net


def test_translate_trace_is_checked_identity():
    from repro.reach.result import CexTrace

    circuit = random_sequential_circuit(11, n_inputs=2, n_regs=2, n_gates=10)
    reduction = fraig_reduce(circuit)
    frame = {net: 0 for net in circuit.inputs}
    trace = CexTrace([frame], frame)
    assert reduction.translate_trace(trace) is trace
    assert reduction.translate_trace(None) is None
    bogus = CexTrace([], {"no_such_input": 1})
    with pytest.raises(NetlistError):
        reduction.translate_trace(bogus)
