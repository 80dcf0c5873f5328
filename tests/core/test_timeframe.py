"""Time-frame model tests: the Fig. 1 identity and polarity normalization."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.timeframe import TimeFrame
from repro.netlist import Circuit, GateType, build_product, single_eval

from ..netlist.helpers import counter_circuit, random_sequential_circuit, toggle_circuit


def env_from(frame, state, inputs_now, inputs_next):
    env = {}
    for net, var in frame.state_id.items():
        env[var] = state[net]
    for net, var in frame.in_id.items():
        env[var] = inputs_now[net]
    for net, var in frame.next_in_id.items():
        env[var] = inputs_next[net]
    return env


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_fig1_identity(seed):
    """ν_v(s, x_t, x_{t+1}) must equal f_v(δ(s, x_t), x_{t+1})."""
    circuit = random_sequential_circuit(seed, n_inputs=2, n_regs=3, n_gates=8)
    frame = TimeFrame(circuit)
    mgr = frame.manager
    import random as pyrandom

    rng = pyrandom.Random(seed + 7)
    for _ in range(6):
        state = {net: rng.random() < 0.5 for net in circuit.registers}
        x_now = {net: rng.random() < 0.5 for net in circuit.inputs}
        x_next = {net: rng.random() < 0.5 for net in circuit.inputs}
        env = env_from(frame, state, x_now, x_next)
        # Direct evaluation of the circuit gives delta and the shifted frame.
        values_now = single_eval(circuit, x_now, state)
        next_state = {
            net: values_now[reg.data_in]
            for net, reg in circuit.registers.items()
        }
        values_next = single_eval(circuit, x_next, next_state)
        for net in circuit.signals():
            nu = frame.shift(frame.f(net))
            assert mgr.evaluate(nu, env) == values_next[net], net


def test_f_matches_single_eval():
    circuit = counter_circuit(3)
    frame = TimeFrame(circuit)
    mgr = frame.manager
    for bits in itertools.product([False, True], repeat=4):
        state = {"q0": bits[0], "q1": bits[1], "q2": bits[2]}
        inputs = {"en": bits[3]}
        expected = single_eval(circuit, inputs, state)
        env = env_from(frame, state, inputs, {"en": False})
        for net in circuit.signals():
            assert mgr.evaluate(frame.f(net), env) == expected[net], net


def test_ref_value_matches_initial_state():
    circuit = toggle_circuit()
    frame = TimeFrame(circuit, seed=5)
    # At the reference point the register q holds its initial value 0.
    assert frame.ref_value("q") is False
    assert frame.ref_value("out") is False
    # d = en XOR q = en at s0; must match the reference input.
    en_ref = frame.ref_env[frame.in_id["en"]]
    assert frame.ref_value("d") == en_ref


def test_restrict_to_initial():
    circuit = toggle_circuit()
    frame = TimeFrame(circuit)
    mgr = frame.manager
    # f_q restricted to s0 is constant 0; f_d restricted is the input en.
    assert frame.restrict_to_initial(frame.f("q")) == mgr.false
    assert frame.restrict_to_initial(frame.f("d")) == mgr.var_edge(
        frame.in_id["en"]
    )


def test_signatures_cover_all_signals_and_respect_polarity():
    circuit = counter_circuit(3)
    frame = TimeFrame(circuit, sim_frames=8, sim_width=16)
    functions = frame.build_signal_functions()
    nets_seen = {net for fn in functions for net, _ in fn.members}
    assert set(circuit.signals()) | {"@const"} == nets_seen
    # Normalized signatures have bit (frame 0, pattern 0) == 1 by def of
    # polarity normalization at the reference point.
    total_bits = frame.sim_frames * frame.sim_width
    for fn in functions:
        assert (fn.signature >> (total_bits - frame.sim_width)) & 1 == 1


def test_identical_functions_share_record():
    circuit = Circuit("dup")
    circuit.add_input("x")
    circuit.add_gate("g1", GateType.NOT, ["x"])
    circuit.add_gate("g2", GateType.NOT, ["x"])
    circuit.add_gate("g3", GateType.BUF, ["x"])
    circuit.add_output("g1")
    frame = TimeFrame(circuit)
    functions = frame.build_signal_functions()
    by_nets = {tuple(sorted(fn.nets())): fn for fn in functions}
    # g1/g2 identical; g3 and x identical; antivalence joins them all into
    # one record up to polarity: g1's normalized function equals x's when x0
    # fixes the polarity.
    joined = [fn for fn in functions if len(fn.members) >= 2]
    assert joined, by_nets


def test_add_gate_signal_extends_model():
    circuit = toggle_circuit()
    frame = TimeFrame(circuit)
    edge = frame.add_gate_signal("extra", GateType.AND, ["en", "q"])
    assert frame.f("extra") == edge
    frame.resimulate()
    assert "extra" in frame.signatures


def test_product_timeframe_shares_inputs():
    c = toggle_circuit()
    product = build_product(c, c.copy())
    frame = TimeFrame(product.circuit.copy())
    assert set(frame.in_id) == {"en"}
    assert len(frame.state_id) == 2
