"""Engine-level properties: soundness against the oracle, option behaviour,
budgets, and the %eqs metric."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.budget import Budget
from repro.core import VanEijkVerifier, check_equivalence_van_eijk
from repro.errors import VerificationError
from repro.netlist import Circuit, GateType, bit_parallel_eval, build_product
from repro.reach import explicit_check_equivalence
from repro.transform import (
    inject_distinguishable_fault,
    optimize,
    retime,
    synthesize,
    xor_reencode,
)

from ..netlist.helpers import counter_circuit, random_sequential_circuit, toggle_circuit


def replay(product, trace):
    circuit = product.circuit
    state = {name: reg.init for name, reg in circuit.registers.items()}
    values = None
    for frame_inputs in trace.full_sequence():
        env = {net: int(bool(frame_inputs.get(net, False)))
               for net in circuit.inputs}
        env.update({net: int(bool(v)) for net, v in state.items()})
        values = bit_parallel_eval(circuit, env, 1)
        state = {
            name: bool(values[reg.data_in])
            for name, reg in circuit.registers.items()
        }
    return any(
        values[s] != values[i] for s, i in product.output_pairs
    )


# --------------------------------------------------------------- soundness


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_never_proves_inequivalent_pairs(seed):
    """The cardinal soundness property, checked against the oracle."""
    spec = random_sequential_circuit(seed, n_inputs=2, n_regs=3, n_gates=8)
    impl, _ = inject_distinguishable_fault(spec, seed=seed)
    product = build_product(spec, impl, match_outputs="order")
    oracle = explicit_check_equivalence(product)
    result = VanEijkVerifier().verify_product(product)
    if oracle.refuted:
        assert result.equivalent is not True
        if result.refuted:
            assert replay(product, result.counterexample)
    else:
        assert result.equivalent is not False


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_proves_synthesized_pairs(seed):
    """Completeness on the paper's target class: retimed+optimized pairs."""
    spec = random_sequential_circuit(seed, n_inputs=2, n_regs=4, n_gates=10)
    impl = synthesize(spec, retime_moves=3, optimize_level=2, seed=seed)
    result = check_equivalence_van_eijk(spec, impl, match_outputs="order")
    assert result.proved


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_complete_for_combinational_optimization(seed):
    """§6: the method is complete for combinationally optimized circuits."""
    spec = random_sequential_circuit(seed, n_inputs=3, n_regs=4, n_gates=10)
    impl = optimize(spec, level=2, seed=seed + 1)
    result = VanEijkVerifier(use_retiming=False).verify(
        spec, impl, match_outputs="order"
    )
    assert result.proved


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_complete_for_retiming(seed):
    """§6: the method is complete for retimed circuits."""
    spec = random_sequential_circuit(seed, n_inputs=2, n_regs=4, n_gates=10)
    impl = retime(spec, moves=4, seed=seed + 1)
    result = VanEijkVerifier(use_retiming=True).verify(
        spec, impl, match_outputs="order"
    )
    assert result.proved


def test_simulation_refutation_produces_replayable_trace():
    spec = counter_circuit(3)
    impl, _ = inject_distinguishable_fault(spec, seed=11)
    product = build_product(spec, impl, match_outputs="order")
    result = VanEijkVerifier().verify_product(product)
    assert result.refuted
    assert result.details.get("refuted_by") == "simulation"
    assert replay(product, result.counterexample)


# --------------------------------------------------------------- options


def test_option_simulation_off_still_sound():
    spec = counter_circuit(3)
    impl = optimize(spec, level=2, seed=1)
    for use_simulation in (False, True):
        result = VanEijkVerifier(use_simulation=use_simulation).verify(
            spec, impl, match_outputs="order"
        )
        assert result.proved


def test_option_fundeps_off_still_sound():
    spec = counter_circuit(3)
    impl = optimize(spec, level=2, seed=2)
    for use_fundeps in (False, True):
        result = VanEijkVerifier(use_fundeps=use_fundeps).verify(
            spec, impl, match_outputs="order"
        )
        assert result.proved


def test_fundeps_record_substitutions():
    spec = counter_circuit(4)
    impl = retime(spec, moves=2, seed=3)
    with_fd = VanEijkVerifier(use_fundeps=True).verify(
        spec, impl, match_outputs="order"
    )
    without_fd = VanEijkVerifier(use_fundeps=False).verify(
        spec, impl, match_outputs="order"
    )
    assert with_fd.proved and without_fd.proved
    assert with_fd.details["substitutions"] > 0
    assert without_fd.details["substitutions"] == 0


def test_reach_bound_options_validated():
    spec = toggle_circuit()
    with pytest.raises(ValueError):
        VanEijkVerifier(reach_bound="bogus").verify(spec, spec.copy())


def test_node_budget_abort():
    spec = counter_circuit(6)
    impl = optimize(spec, level=2, seed=4)
    result = VanEijkVerifier(node_limit=50).verify(
        spec, impl, match_outputs="order"
    )
    assert result.inconclusive
    assert "aborted" in result.details


def test_time_budget_abort():
    spec = counter_circuit(8)
    impl = optimize(spec, level=2, seed=5)
    result = VanEijkVerifier(budget=Budget(0.0)).verify(
        spec, impl, match_outputs="order"
    )
    assert result.inconclusive


def test_interface_mismatch_raises():
    a = toggle_circuit()
    b = toggle_circuit()
    b.add_input("extra")
    with pytest.raises(VerificationError):
        VanEijkVerifier().verify(a, b)


# --------------------------------------------------------------- metrics


def test_eqs_percent_high_for_identical():
    spec = counter_circuit(4)
    result = VanEijkVerifier().verify(spec, spec.copy(), match_outputs="order")
    assert result.proved
    assert result.details["eqs_percent"] == 100.0


def test_eqs_percent_drops_with_optimization():
    spec = counter_circuit(5)
    light = VanEijkVerifier().verify(
        spec, retime(spec, moves=2, seed=6), match_outputs="order"
    )
    heavy = VanEijkVerifier().verify(
        spec, synthesize(spec, retime_moves=2, optimize_level=2, seed=6),
        match_outputs="order",
    )
    assert light.proved and heavy.proved
    assert heavy.details["eqs_percent"] <= light.details["eqs_percent"]


def test_result_repr_and_flags():
    spec = toggle_circuit()
    result = VanEijkVerifier().verify(spec, spec.copy())
    assert result.proved and not result.refuted and not result.inconclusive
    assert "EQUIVALENT" in repr(result)
    assert result.method == "van_eijk"
    assert result.seconds >= 0
