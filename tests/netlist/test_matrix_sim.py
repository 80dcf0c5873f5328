"""Pattern-matrix simulation: many patterns packed one per bit lane.

Partition seeding and counterexample replay simulate a whole matrix of
patterns at once — pattern *i* is bit lane *i* of every word — through the
one stdlib kernel, :class:`CompiledSim`, at widths well past a machine word.
The contract these tests pin is lane independence: packing a pattern matrix
into words, evaluating or replaying it once, and reading lane *i* back must
give exactly what pattern *i* gives alone — whatever the width, however the
matrix is chunked, for BUF/const aliases and oversized words alike — and
:func:`make_sim` must hand every caller that same kernel and slot layout.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.netlist
from repro.core.cexsplit import replay_packed
from repro.errors import NetlistError
from repro.netlist import (
    Circuit,
    CompiledSim,
    GateType,
    SequentialSimulator,
    bit_parallel_eval,
    make_sim,
)

from .helpers import circuit_seeds, random_sequential_circuit, toggle_circuit

#: Matrix widths below, at and across the 64-bit machine word.
WIDTHS = (1, 8, 64, 65, 150)


def random_matrix(circuit, rng, width):
    """A width-lane pattern matrix as one packed word per leaf net."""
    return {
        net: rng.getrandbits(width)
        for net in list(circuit.inputs) + list(circuit.registers)
    }


def lane(env, i):
    return {net: (word >> i) & 1 for net, word in env.items()}


def random_patterns(sim, rng, n_patterns, frames):
    return [
        (rng.getrandbits(len(sim.registers)),
         [rng.getrandbits(len(sim.inputs)) for _ in range(frames)])
        for _ in range(n_patterns)
    ]


def step_matrix(sim, patterns):
    """Replay a pattern matrix frame by frame through ``CompiledSim.eval``
    (the path partition seeding takes), as word lists by slot."""
    width = len(patterns)
    state = {
        net: sum(((bits >> r) & 1) << i
                 for i, (bits, _) in enumerate(patterns))
        for r, net in enumerate(sim.registers)
    }
    frames = []
    for t in range(len(patterns[0][1])):
        env = dict(state)
        for j, net in enumerate(sim.inputs):
            env[net] = sum(((frame_bits[t] >> j) & 1) << i
                           for i, (_, frame_bits) in enumerate(patterns))
        words = sim.eval(env, width)
        frames.append([words[net] for net in sim.net_order])
        state = {name: words[reg.data_in]
                 for name, reg in sim.circuit.registers.items()}
    return frames


# ------------------------------------------------------------ frame identity


@settings(max_examples=40, deadline=None)
@given(circuit_seeds, st.integers(min_value=0, max_value=2 ** 30),
       st.sampled_from(WIDTHS))
def test_matrix_matches_compiled_and_interpreter(seed, pattern_seed, width):
    """One packed evaluation of the matrix == the interpreter == each lane
    evaluated alone at width 1."""
    circuit = random_sequential_circuit(seed)
    sim = CompiledSim(circuit)
    env = random_matrix(circuit, random.Random(pattern_seed), width)
    packed = sim.eval(env, width)
    assert packed == bit_parallel_eval(circuit, env, width)
    for i in range(width):
        alone = sim.eval(lane(env, i), 1)
        assert {net: (word >> i) & 1 for net, word in packed.items()} == alone


def test_buf_and_const_gates_alias_in_matrix_space():
    """Aliased BUF/const outputs fill every lane of a wide word — CONST1 is
    the all-ones mask at the matrix width, not at a machine word."""
    c = Circuit("alias")
    c.add_input("a")
    c.add_gate("zero", GateType.CONST0, [])
    c.add_gate("one", GateType.CONST1, [])
    c.add_gate("buf", GateType.BUF, ["a"])
    c.add_gate("inv", GateType.NOT, ["buf"])
    c.add_gate("mix", GateType.OR, ["zero", "one", "buf"])
    c.add_output("mix")
    c.validate()
    sim = CompiledSim(c)
    for width in WIDTHS:
        full = (1 << width) - 1
        a = random.Random(width).getrandbits(width)
        words = sim.eval({"a": a}, width)
        assert words == bit_parallel_eval(c, {"a": a}, width)
        assert words["zero"] == 0
        assert words["one"] == full
        assert words["buf"] == a
        assert words["inv"] == a ^ full
        assert words["mix"] == full


def test_matrix_masks_oversized_env_words():
    """Bits above the matrix width never leak into any lane."""
    circuit = random_sequential_circuit(9)
    sim = CompiledSim(circuit)
    rng = random.Random(9)
    for width in WIDTHS:
        env = random_matrix(circuit, rng, width)
        junk = {net: word | (rng.getrandbits(70) << width)
                for net, word in env.items()}
        words = sim.eval(junk, width)
        assert words == sim.eval(env, width)
        assert all(word >> width == 0 for word in words.values())


def test_slot_layout_is_shared_with_compiled():
    """Packed replay words are indexed by ``sim.index(net)``; every kernel
    :func:`make_sim` builds for a circuit shares one slot layout."""
    circuit = random_sequential_circuit(5)
    compiled = CompiledSim(circuit)
    for sim in (make_sim(circuit), SequentialSimulator(circuit).sim):
        assert sim.net_order == compiled.net_order
        assert all(sim.index(net) == compiled.index(net) == slot
                   for slot, net in enumerate(sim.net_order))
        assert sim.next_state_slots == compiled.next_state_slots
    patterns = random_patterns(compiled, random.Random(5), 70, 3)
    assert replay_packed(make_sim(circuit), patterns) == replay_packed(
        compiled, patterns)


# ------------------------------------------------------------ replay identity


@settings(max_examples=20, deadline=None)
@given(circuit_seeds, st.integers(min_value=0, max_value=2 ** 30),
       st.integers(min_value=1, max_value=4), st.sampled_from(WIDTHS))
def test_matrix_replay_matches_compiled(seed, stim_seed, frames, n_patterns):
    """Packed replay == stepping the matrix through ``CompiledSim.eval``
    frame by frame with the register feedback done by hand."""
    circuit = random_sequential_circuit(seed)
    sim = CompiledSim(circuit)
    patterns = random_patterns(sim, random.Random(stim_seed), n_patterns,
                               frames)
    assert replay_packed(sim, patterns) == step_matrix(sim, patterns)


@settings(max_examples=15, deadline=None)
@given(circuit_seeds, st.integers(min_value=0, max_value=2 ** 30),
       st.sampled_from([1, 64, 100]), st.sampled_from([1, 7, 64]))
def test_matrix_replay_packed_matches_generic(seed, stim_seed, n_patterns,
                                              chunk):
    """Replaying the whole matrix at once == replaying it in row chunks and
    stitching the chunks' lanes back together: no lane sees another."""
    circuit = random_sequential_circuit(seed)
    sim = CompiledSim(circuit)
    patterns = random_patterns(sim, random.Random(stim_seed), n_patterns, 2)
    whole = replay_packed(sim, patterns)
    stitched = [[0] * len(sim.net_order) for _ in whole]
    for start in range(0, n_patterns, chunk):
        part = replay_packed(sim, patterns[start:start + chunk])
        for frame, words in zip(stitched, part):
            for slot, word in enumerate(words):
                frame[slot] |= word << start
    assert whole == stitched


def test_matrix_replay_packed_rejects_ragged_frames():
    """A ragged matrix is refused wherever the short row sits, including
    past the first machine word."""
    sim = make_sim(toggle_circuit())
    with pytest.raises(ValueError):
        replay_packed(sim, [(0, [0, 1]), (1, [0])])
    ragged = [(0, [1, 0])] * 65 + [(1, [1])]
    with pytest.raises(ValueError):
        replay_packed(sim, ragged)


def test_matrix_replay_packed_empty_is_empty():
    """No rows, or rows with no frames, replay to no frames."""
    sim = make_sim(toggle_circuit())
    assert replay_packed(sim, []) == []
    assert replay_packed(sim, [(0, [])] * 70) == []


# ------------------------------------------------------------ error surfaces


def test_missing_env_error_categories_match_compiled():
    """A matrix missing a leaf net is reported with the same category
    naming at every width, by the kernel and the interpreter alike."""
    circuit = toggle_circuit()
    for width in WIDTHS:
        for evaluate in (CompiledSim(circuit).eval,
                         lambda env, w: bit_parallel_eval(circuit, env, w)):
            with pytest.raises(NetlistError, match="input net 'en'"):
                evaluate({"q": (1 << width) - 1}, width)
            with pytest.raises(NetlistError, match="register net 'q'"):
                evaluate({"en": (1 << width) - 1}, width)


# ---------------------------------------------------------- kernel selection


def test_make_sim_selects_backends():
    """There is one kernel: :func:`make_sim` always builds it, takes no
    backend name, and the simulator that seeds partitions uses it too."""
    circuit = toggle_circuit()
    assert type(make_sim(circuit)) is CompiledSim
    assert type(SequentialSimulator(circuit).sim) is CompiledSim
    with pytest.raises(TypeError):
        make_sim(circuit, "matrix")
    assert not hasattr(repro.netlist, "SIM_BACKENDS")
