"""SAT refinement backend: agreement with the BDD backend, soundness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.budget import Budget
from repro.core import check_equivalence_sat_sweep, compute_fixpoint
from repro.core.satbackend import SatCorrespondence
from repro.core.timeframe import TimeFrame
from repro.errors import ResourceBudgetExceeded
from repro.netlist import build_product
from repro.reach import explicit_check_equivalence
from repro.transform import inject_distinguishable_fault, optimize, synthesize

from ..netlist.helpers import counter_circuit, random_sequential_circuit, toggle_circuit


def bdd_partition_netsets(product):
    frame = TimeFrame(product.circuit.copy())
    fix = compute_fixpoint(frame, frame.build_signal_functions())
    return {
        frozenset(net for fn in cls for net, _ in fn.members)
        for cls in fix.partition.classes
    }


def sat_partition_netsets(product):
    engine = SatCorrespondence(product)
    classes, _ = engine.compute()
    return {frozenset(sig.net for sig in cls) for cls in classes}


def normalize(netsets):
    cleaned = {frozenset(c - {"@const"}) for c in netsets}
    return {c for c in cleaned if c}


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_backends_compute_identical_partitions(seed):
    """The maximum relation is unique — both backends must find it."""
    spec = random_sequential_circuit(seed, n_inputs=2, n_regs=3, n_gates=8)
    impl = optimize(spec, level=2, seed=seed + 1)
    product = build_product(spec, impl, match_outputs="order")
    assert normalize(bdd_partition_netsets(product)) == normalize(
        sat_partition_netsets(product)
    )


def test_backends_compute_identical_partitions_on_suite_row():
    from repro.circuits import row_by_name

    spec, impl = row_by_name("s386").pair()
    product = build_product(spec, impl, match_outputs="order")
    assert normalize(bdd_partition_netsets(product)) == normalize(
        sat_partition_netsets(product)
    )


def test_proves_optimized_counter():
    spec = counter_circuit(4)
    impl = optimize(spec, level=2, seed=3)
    result = check_equivalence_sat_sweep(spec, impl, match_outputs="order")
    assert result.proved
    assert result.details["classes"] >= 1


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_sound_on_mutations(seed):
    spec = random_sequential_circuit(seed, n_inputs=2, n_regs=3, n_gates=8)
    impl, _ = inject_distinguishable_fault(spec, seed=seed)
    product = build_product(spec, impl, match_outputs="order")
    oracle = explicit_check_equivalence(product)
    result = check_equivalence_sat_sweep(spec, impl, match_outputs="order")
    if oracle.refuted:
        # Sound: never proves an inequivalent pair.
        assert result.equivalent is not True


def test_constant_class_contains_stuck_signals():
    from repro.netlist import Circuit, GateType

    c = Circuit("stuck")
    c.add_input("x")
    c.add_gate("one", GateType.CONST1, [])
    c.add_register("r", "one", init=True)
    c.add_gate("o", GateType.BUF, ["r"])
    c.add_output("o")
    product = build_product(c, c.copy(), match_outputs="order")
    classes = sat_partition_netsets(product)
    const_class = next(cls for cls in classes if "@const" in cls)
    assert {"s.r", "i.r"} <= const_class


def test_iteration_budget():
    spec = counter_circuit(5)
    impl = optimize(spec, level=2, seed=1)
    with pytest.raises(ResourceBudgetExceeded):
        product = build_product(spec, impl, match_outputs="order")
        engine = SatCorrespondence(product)
        # Pre-splitting only by simulation; one refinement round cannot be
        # enough for a 5-bit counter without seeding... force it by lying:
        engine.compute(max_iterations=0)


def test_time_budget():
    spec = counter_circuit(6)
    impl = optimize(spec, level=2, seed=2)
    result = check_equivalence_sat_sweep(spec, impl, match_outputs="order",
                                         budget=Budget(0.0))
    assert result.inconclusive
    assert "aborted" in result.details


def test_inconclusive_not_refuted_on_undecidable():
    from repro.circuits import onehot_ring_pair

    spec, impl = onehot_ring_pair(enable=True)
    result = check_equivalence_sat_sweep(spec, impl, match_outputs="order")
    assert result.inconclusive or result.proved
    assert result.equivalent is not False


def test_result_metadata():
    spec = toggle_circuit()
    result = check_equivalence_sat_sweep(spec, spec.copy())
    assert result.proved
    assert result.method == "sat_sweep"
    assert result.iterations >= 1
    assert result.details["functions"] > 0


# ---------------------------------------------------------- Fig. 4 with SAT


def test_sat_retiming_unlocks_fig3():
    from repro.circuits import fig3_pair

    spec, impl = fig3_pair()
    off = check_equivalence_sat_sweep(spec, impl, match_outputs="order")
    assert off.inconclusive
    on = check_equivalence_sat_sweep(spec, impl, match_outputs="order",
                                     use_retiming=True)
    assert on.proved
    assert on.details["retime_rounds"] == 1


def test_sat_retiming_rounds_capped():
    from repro.circuits import onehot_ring_pair

    spec, impl = onehot_ring_pair(enable=False)
    capped = check_equivalence_sat_sweep(spec, impl, match_outputs="order",
                                         use_retiming=True,
                                         max_retiming_rounds=1)
    assert capped.inconclusive
    full = check_equivalence_sat_sweep(spec, impl, match_outputs="order",
                                       use_retiming=True,
                                       max_retiming_rounds=4)
    assert full.proved
    assert full.details["retime_rounds"] == 2


def test_sat_and_bdd_fig4_agree_on_retimed_suite():
    from repro.circuits import row_by_name
    from repro.core import VanEijkVerifier
    from repro.transform import retime

    row = row_by_name("s386")
    spec = row.spec()
    impl = retime(spec, moves=4, seed=21)
    bdd = VanEijkVerifier().verify(spec, impl, match_outputs="order")
    sat = check_equivalence_sat_sweep(spec, impl, match_outputs="order",
                                      use_retiming=True)
    assert bdd.proved and sat.proved
