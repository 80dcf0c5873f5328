"""CompiledSim: the codegen kernel must be bit-identical to the interpreter.

The compiled kernel backs partition seeding, counterexample replay, and the
fuzz replay oracle, so its contract is strict: for every circuit and every
pattern word it returns exactly what ``bit_parallel_eval`` (and therefore
``single_eval``) returns, and its replay entry points agree with
``cexsplit.replay_pattern``.  Three-valued simulation is deliberately *not*
compiled; these tests pin that boundary too.
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.cexsplit import replay_packed, replay_pattern
from repro.errors import NetlistError
from repro.netlist import (
    Circuit,
    CompiledSim,
    GateType,
    SequentialSimulator,
    bit_parallel_eval,
    make_sim,
    single_eval,
)
from repro.netlist.simulate import _env_net_category

from .helpers import circuit_seeds, counter_circuit, random_sequential_circuit, toggle_circuit

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                       "src")


def random_env(circuit, rng, width):
    return {
        net: rng.getrandbits(width)
        for net in list(circuit.inputs) + list(circuit.registers)
    }


def test_make_sim_builds_the_compiled_kernel():
    circuit = random_sequential_circuit(5)
    sim = make_sim(circuit)
    assert type(sim) is CompiledSim
    reference = CompiledSim(circuit)
    assert sim.net_order == reference.net_order
    assert sim.next_state_slots == reference.next_state_slots


# ------------------------------------------------------------ frame identity


#: Pattern counts below, at and across a 64-bit machine word.
WIDE = (64, 65, 150)


@settings(max_examples=60, deadline=None)
@given(circuit_seeds, st.integers(min_value=0, max_value=2 ** 30),
       st.sampled_from((1, 8) + WIDE))
@example(seed=3, pattern_seed=1, width=WIDE[0])
@example(seed=4, pattern_seed=2, width=WIDE[1])
@example(seed=5, pattern_seed=3, width=WIDE[2])
def test_compiled_matches_interpreter_and_reference(seed, pattern_seed, width):
    """CompiledSim.eval == bit_parallel_eval == single_eval, bit for bit."""
    circuit = random_sequential_circuit(seed)
    sim = CompiledSim(circuit)
    rng = random.Random(pattern_seed)
    env = random_env(circuit, rng, width)
    compiled = sim.eval(env, width)
    interpreted = bit_parallel_eval(circuit, env, width)
    assert compiled == interpreted
    for bit in range(width):
        env_bool = {net: bool((w >> bit) & 1) for net, w in env.items()}
        inputs = {net: env_bool[net] for net in circuit.inputs}
        state = {net: env_bool[net] for net in circuit.registers}
        expected = single_eval(circuit, inputs, state)
        for net, word in compiled.items():
            assert bool((word >> bit) & 1) == expected[net], net


def test_buf_and_const_gates_compile_to_aliases():
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
    words = sim.eval({"a": 0b1010}, 4)
    assert words == bit_parallel_eval(c, {"a": 0b1010}, 4)
    assert words["zero"] == 0
    assert words["one"] == 0b1111
    assert words["buf"] == 0b1010
    assert words["inv"] == 0b0101
    assert words["mix"] == 0b1111


def test_eval_masks_oversized_env_words():
    c = toggle_circuit()
    sim = CompiledSim(c)
    words = sim.eval({"en": 0xFF, "q": 0xFF}, 2)
    assert all(word <= 0b11 for word in words.values())


# ------------------------------------------------------------ replay identity


@settings(max_examples=30, deadline=None)
@given(circuit_seeds, st.integers(min_value=0, max_value=2 ** 30),
       st.integers(min_value=1, max_value=5))
def test_replay_matches_legacy_replay_pattern(seed, stim_seed, frames):
    circuit = random_sequential_circuit(seed)
    sim = CompiledSim(circuit)
    rng = random.Random(stim_seed)
    initial = {net: rng.random() < 0.5 for net in circuit.registers}
    stimulus = [
        {net: rng.random() < 0.5 for net in circuit.inputs}
        for _ in range(frames)
    ]
    legacy = replay_pattern(circuit, initial, stimulus)
    compiled = replay_pattern(circuit, initial, stimulus, sim=sim)
    assert len(legacy) == len(compiled) == frames
    for old, new in zip(legacy, compiled):
        assert {net: bool(v) for net, v in old.items()} == {
            net: bool(v) for net, v in new.items()}


@settings(max_examples=20, deadline=None)
@given(circuit_seeds, st.integers(min_value=0, max_value=2 ** 30),
       st.integers(min_value=1, max_value=6))
@example(seed=3, stim_seed=1, n_patterns=WIDE[0])
@example(seed=4, stim_seed=2, n_patterns=WIDE[1])
@example(seed=5, stim_seed=3, n_patterns=WIDE[2])
def test_replay_packed_equals_per_pattern_replays(seed, stim_seed, n_patterns):
    """Bit i of every packed word must equal pattern i's scalar replay."""
    circuit = random_sequential_circuit(seed)
    sim = CompiledSim(circuit)
    rng = random.Random(stim_seed)
    frames = 3
    patterns = []
    for _ in range(n_patterns):
        state_bits = rng.getrandbits(len(sim.registers))
        frame_bits = [rng.getrandbits(len(sim.inputs)) for _ in range(frames)]
        patterns.append((state_bits, frame_bits))
    packed = replay_packed(sim, patterns)
    assert len(packed) == frames
    for i, (state_bits, frame_bits) in enumerate(patterns):
        initial = {
            net: bool((state_bits >> j) & 1)
            for j, net in enumerate(sim.registers)
        }
        stimulus = [
            {net: bool((bits >> j) & 1) for j, net in enumerate(sim.inputs)}
            for bits in frame_bits
        ]
        scalar = sim.replay(initial, stimulus)
        for packed_words, scalar_vals in zip(packed, scalar):
            for slot, net in enumerate(sim.net_order):
                assert ((packed_words[slot] >> i) & 1) == scalar_vals[net], (
                    "pattern {} net {}".format(i, net))


def test_replay_packed_rejects_ragged_frames():
    sim = CompiledSim(toggle_circuit())
    with pytest.raises(ValueError):
        replay_packed(sim, [(0, [0, 1]), (1, [0])])


def test_replay_packed_empty_is_empty():
    sim = CompiledSim(toggle_circuit())
    assert replay_packed(sim, []) == []


# ---------------------------------------------------------------- sequential


def test_sequential_simulator_signatures_unchanged_by_compilation():
    """Signatures are pinned against a hand-run of the interpreter with the
    same RNG draw order, so kernel compilation cannot drift the partition
    seeding behaviour."""
    circuit = counter_circuit(4)
    seq = SequentialSimulator(circuit, width=16, seed=7)
    seq.run(5)
    rng = random.Random(7)
    full = (1 << 16) - 1
    init = circuit.initial_state()
    state = {net: full if init[net] else 0 for net in circuit.registers}
    sigs = {net: 0 for net in seq.sim.net_order}
    for _ in range(5):
        env = {net: rng.getrandbits(16) for net in circuit.inputs}
        env.update(state)
        words = bit_parallel_eval(circuit, env, 16)
        for net in sigs:
            sigs[net] = (sigs[net] << 16) | words[net]
        state = {
            name: words[reg.data_in]
            for name, reg in circuit.registers.items()
        }
    assert seq.signatures == sigs
    assert seq.state == state


def test_sequential_simulator_accepts_shared_kernel():
    circuit = counter_circuit(3)
    shared = CompiledSim(circuit)
    a = SequentialSimulator(circuit, width=8, seed=3, compiled=shared)
    b = SequentialSimulator(circuit, width=8, seed=3)
    a.run(4)
    b.run(4)
    assert a.sim is shared
    assert a.signatures == b.signatures


def test_compilation_and_frames_reuse_one_topo_sort():
    """validate() warms the memoized order; neither kernel compilation nor
    any number of frames recomputes it."""
    circuit = counter_circuit(4)
    baseline = circuit.topo_computations
    assert baseline >= 1
    sim = CompiledSim(circuit)
    for _ in range(10):
        sim.eval({net: 1 for net in list(circuit.inputs)
                  + list(circuit.registers)}, 1)
    assert circuit.topo_computations == baseline


# ------------------------------------------------------------ error surfaces


def test_missing_input_error_category():
    sim = CompiledSim(toggle_circuit())
    with pytest.raises(NetlistError, match="input net 'en'"):
        sim.eval({"q": 1}, 1)


def test_missing_register_error_category():
    sim = CompiledSim(toggle_circuit())
    with pytest.raises(NetlistError, match="register net 'q'"):
        sim.eval({"en": 1}, 1)


def test_interpreter_error_categories_match_compiled():
    circuit = toggle_circuit()
    with pytest.raises(NetlistError, match="input net 'en'"):
        bit_parallel_eval(circuit, {"q": 1}, 1)
    with pytest.raises(NetlistError, match="register net 'q'"):
        bit_parallel_eval(circuit, {"en": 1}, 1)


def test_env_net_category_is_exhaustive():
    circuit = toggle_circuit()
    assert _env_net_category(circuit, "en") == "input"
    assert _env_net_category(circuit, "q") == "register"
    assert _env_net_category(circuit, "nonesuch") == "undefined"


# ------------------------------------------------------------ dependencies


def test_engines_never_import_numpy():
    """Seeding, SAT replay, FRAIG sweeping and the fuzz replay oracle run
    on the stdlib kernel alone; pyproject.toml declares no dependencies, so
    neither numpy nor networkx may be imported."""
    script = textwrap.dedent("""
        import sys
        import repro
        from repro.circuits import fig2_pair
        from repro.fuzz.replay import validate_refutation
        from repro.reach import CexTrace, SecResult

        spec, impl = fig2_pair()
        assert repro.verify(spec, impl, method="sat_sweep").equivalent
        assert repro.verify(spec, impl, method="fraig_sweep").equivalent
        claim = SecResult(equivalent=False, method="bmc",
                          counterexample=CexTrace(inputs=[{"x": True}],
                                                  final_input={"x": False}))
        assert not validate_refutation(spec, impl, claim).valid
        print("numpy" in sys.modules, "networkx" in sys.modules)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", script], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False False"
