"""Fixed-point iteration unit tests (Eq. 2, Eq. 3, Theorems 1-2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.correspondence import (
    compute_fixpoint,
    initial_partition,
)
from repro.core.timeframe import TimeFrame
from repro.errors import ResourceBudgetExceeded
from repro.netlist import Circuit, GateType, SequentialSimulator, build_product

from ..netlist.helpers import counter_circuit, random_sequential_circuit, toggle_circuit


def make_frame(circuit):
    return TimeFrame(circuit.copy() if hasattr(circuit, "copy") else circuit)


def class_nets(partition):
    return [
        sorted(net for fn in cls for net, _ in fn.members)
        for cls in partition.classes
    ]


def test_t0_groups_by_initial_state_behaviour():
    # Two registers with equal init but different next-state functions are
    # together in T0 and split by refinement.
    c = Circuit("t0")
    c.add_input("x")
    c.add_register("p", "x", init=False)
    c.add_gate("nx", GateType.NOT, ["x"])
    c.add_register("q", "nx", init=False)
    c.add_gate("o", GateType.OR, ["p", "q"])
    c.add_output("o")
    frame = make_frame(c)
    functions = frame.build_signal_functions()
    t0 = initial_partition(frame, functions, use_simulation=False)
    together = [cls for cls in class_nets(t0) if "p" in cls and "q" in cls]
    assert together
    fix = compute_fixpoint(frame, functions, use_simulation=False)
    apart = [cls for cls in class_nets(fix.partition) if "p" in cls]
    assert all("q" not in cls for cls in apart)


def test_simulation_seeding_presplits():
    c = Circuit("t1")
    c.add_input("x")
    c.add_register("p", "x", init=False)
    c.add_gate("nx", GateType.NOT, ["x"])
    c.add_register("q", "nx", init=False)
    c.add_gate("o", GateType.OR, ["p", "q"])
    c.add_output("o")
    frame = make_frame(c)
    functions = frame.build_signal_functions()
    with_sim = initial_partition(frame, functions, use_simulation=True)
    without_sim = initial_partition(frame, functions, use_simulation=False)
    assert with_sim.num_classes >= without_sim.num_classes


def test_fixpoint_is_stable():
    """Re-running refinement on the fixpoint changes nothing (Thm. 2)."""
    c = random_sequential_circuit(3, n_inputs=2, n_regs=3, n_gates=8)
    product = build_product(c, c.copy(), match_outputs="order")
    frame = make_frame(product.circuit)
    functions = frame.build_signal_functions()
    fix1 = compute_fixpoint(frame, functions)
    fix2 = compute_fixpoint(frame, functions)
    assert class_nets(fix1.partition) == class_nets(fix2.partition)


def test_iterations_bounded_by_functions_plus_one():
    """Theorem 2's bound: at most |F| + 1 iterations."""
    c = counter_circuit(4)
    product = build_product(c, c.copy(), match_outputs="order")
    frame = make_frame(product.circuit)
    functions = frame.build_signal_functions()
    fix = compute_fixpoint(frame, functions, use_simulation=False)
    assert fix.iterations <= len(functions) + 1


def test_self_product_all_signals_correspond():
    c = random_sequential_circuit(9, n_inputs=2, n_regs=3, n_gates=8)
    product = build_product(c, c.copy(), match_outputs="order")
    frame = make_frame(product.circuit)
    fix = compute_fixpoint(frame, frame.build_signal_functions())
    for cls in fix.partition.classes:
        nets = [net for fn in cls for net, _ in fn.members]
        spec_side = {n[2:] for n in nets if n.startswith("s.")}
        impl_side = {n[2:] for n in nets if n.startswith("i.")}
        # In a self product every spec signal has its mirror in class.
        assert spec_side == impl_side, nets


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_classes_are_sequentially_equivalent(seed):
    """Soundness of the relation itself: same-class members (polarity
    adjusted) agree on every simulated reachable state."""
    c = random_sequential_circuit(seed, n_inputs=2, n_regs=3, n_gates=8)
    product = build_product(c, c.copy(), match_outputs="order")
    frame = make_frame(product.circuit)
    fix = compute_fixpoint(frame, frame.build_signal_functions())
    # Long independent simulation (different seed than the seeding run).
    sim = SequentialSimulator(product.circuit, width=64, seed=seed + 999)
    sim.run(40)
    total_bits = 40 * 64
    full = (1 << total_bits) - 1
    for cls in fix.partition.classes:
        members = [(net, comp) for fn in cls for net, comp in fn.members
                   if net != "@const"]
        if len(members) < 2:
            continue
        ref_net, ref_comp = members[0]
        ref_sig = sim.signatures[ref_net] ^ (full if ref_comp else 0)
        for net, comp in members[1:]:
            sig = sim.signatures[net] ^ (full if comp else 0)
            assert sig == ref_sig, (ref_net, net)


def test_constant_signals_join_const_class():
    c = Circuit("const")
    c.add_input("x")
    c.add_register("r", "one", init=True)   # reloads 1 forever
    c.add_gate("one", GateType.CONST1, [])
    c.add_gate("o", GateType.BUF, ["r"])
    c.add_output("o")
    frame = make_frame(c)
    fix = compute_fixpoint(frame, frame.build_signal_functions())
    const_class = next(
        cls for cls in fix.partition.classes
        if any(net == "@const" for fn in cls for net, _ in fn.members)
    )
    nets = {net for fn in const_class for net, _ in fn.members}
    assert "r" in nets


def test_antivalent_signals_share_class():
    c = Circuit("anti")
    c.add_input("x")
    c.add_register("p", "x", init=False)
    c.add_gate("np", GateType.NOT, ["p"])
    c.add_output("np")
    frame = make_frame(c)
    fix = compute_fixpoint(frame, frame.build_signal_functions())
    cls = next(
        cls for cls in fix.partition.classes
        if any(net == "p" for fn in cls for net, _ in fn.members)
    )
    members = {net: comp for fn in cls for net, comp in fn.members}
    assert "np" in members
    assert members["p"] != members["np"]


def test_fundep_substitution_equals_plain_result():
    """§4: the substitution is an implementation device — the computed
    relation must be identical with and without it."""
    for seed in (1, 5, 9):
        c = random_sequential_circuit(seed, n_inputs=2, n_regs=4, n_gates=10)
        product = build_product(c, c.copy(), match_outputs="order")
        frame_a = make_frame(product.circuit)
        fix_a = compute_fixpoint(frame_a, frame_a.build_signal_functions(),
                                 use_fundeps=True)
        frame_b = make_frame(product.circuit)
        fix_b = compute_fixpoint(frame_b, frame_b.build_signal_functions(),
                                 use_fundeps=False)
        assert class_nets(fix_a.partition) == class_nets(fix_b.partition)


def test_iteration_budget_enforced():
    c = counter_circuit(5)
    product = build_product(c, c.copy(), match_outputs="order")
    frame = make_frame(product.circuit)
    functions = frame.build_signal_functions()
    with pytest.raises(ResourceBudgetExceeded):
        compute_fixpoint(frame, functions, use_simulation=False,
                         max_iterations=1)


def test_reach_bound_only_adds_equivalences():
    """A reachability bound can only coarsen the final partition."""
    from repro.bdd.transfer import transfer
    from repro.reach import TransitionSystem, symbolic_reachability

    c = random_sequential_circuit(4, n_inputs=2, n_regs=3, n_gates=8)
    product = build_product(c, c.copy(), match_outputs="order")
    frame = make_frame(product.circuit)
    functions = frame.build_signal_functions()
    plain = compute_fixpoint(frame, functions)
    ts = TransitionSystem(product.circuit)
    reached, _, _ = symbolic_reachability(ts)
    bound = transfer(ts.manager, reached, frame.manager,
                     {ts.cur_id[n]: frame.state_id[n] for n in ts.cur_id})
    frame2 = make_frame(product.circuit)
    functions2 = frame2.build_signal_functions()
    ts2 = TransitionSystem(product.circuit)
    reached2, _, _ = symbolic_reachability(ts2)
    bound2 = transfer(ts2.manager, reached2, frame2.manager,
                      {ts2.cur_id[n]: frame2.state_id[n] for n in ts2.cur_id})
    bounded = compute_fixpoint(frame2, functions2, reach_bound=bound2)
    assert bounded.partition.num_classes <= plain.partition.num_classes


def test_constrain_refinement_identical_partition():
    """The fixed point is stable under Eq. 3's don't-care reading: two ν
    functions agree on every Q-state iff their generalized cofactors by Q
    coincide, so splitting the final classes by ``ν ↓ Q`` splits nothing.
    Without simulation seeding only refinement splits T0's classes.
    Substituting functional dependencies reaches the same partition."""
    for seed in (2, 7):
        c = random_sequential_circuit(seed, n_inputs=2, n_regs=4, n_gates=10)
        product = build_product(c, c.copy(), match_outputs="order")
        frame = make_frame(product.circuit)
        fix = compute_fixpoint(frame, frame.build_signal_functions(),
                               use_simulation=False, use_fundeps=False)
        assert fix.iterations > 1
        mgr = frame.manager
        mgr.register_root(fix.q_edge)

        def split_by_constrain(cls):
            buckets = {}
            for fn in cls:
                key = mgr.constrain(frame.shift(fn.edge), fix.q_edge)
                buckets.setdefault(key, []).append(fn)
            return list(buckets.values())

        refined, changed = fix.partition.refine(split_by_constrain)
        assert not changed
        assert class_nets(refined) == class_nets(fix.partition)
        frame = make_frame(product.circuit)
        with_fundeps = compute_fixpoint(frame, frame.build_signal_functions(),
                                        use_simulation=False)
        assert class_nets(with_fundeps.partition) == class_nets(fix.partition)
