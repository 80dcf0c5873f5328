"""The paper's worked examples, asserted in detail (Figs. 2-4, §6)."""

import pytest

from repro.circuits import fig2_pair, fig3_pair, mod3_counter_pair, onehot_ring_pair
from repro.core import VanEijkVerifier, compute_fixpoint
from repro.core.timeframe import TimeFrame
from repro.netlist import build_product
from repro.reach import check_equivalence_traversal, explicit_check_equivalence


def final_classes(spec, impl, **fixpoint_options):
    product = build_product(spec, impl, match_inputs="name",
                            match_outputs="order")
    frame = TimeFrame(product.circuit.copy())
    functions = frame.build_signal_functions()
    fix = compute_fixpoint(frame, functions, **fixpoint_options)
    classes = []
    for cls in fix.partition.classes:
        nets = sorted(net for fn in cls for net, _ in fn.members)
        if len(nets) > 1:
            classes.append(nets)
    return fix, classes, frame


def test_fig2_discovers_the_papers_classes():
    spec, impl = fig2_pair()
    fix, classes, frame = final_classes(spec, impl)
    flat = {frozenset(c) for c in classes}
    # {f3, f6}: the retimed AND corresponds to the register v6.
    assert any({"s.v3", "i.v6"} <= set(c) for c in flat)
    # {f4, f7}: the outputs correspond.
    assert any({"s.v4", "i.v7"} <= set(c) for c in flat)
    # v1 pairs with the implementation's remaining input register.
    assert any({"s.v1", "i.w1"} <= set(c) for c in flat)


def test_fig2_correspondence_condition():
    spec, impl = fig2_pair()
    # Without substitution the v6 equivalence stays a conjunct of Q.
    fix, _, frame = final_classes(spec, impl, use_fundeps=False)
    mgr = frame.manager
    v1 = mgr.var_edge(frame.state_id["s.v1"])
    v2 = mgr.var_edge(frame.state_id["s.v2"])
    v6 = mgr.var_edge(frame.state_id["i.v6"])
    w1 = mgr.var_edge(frame.state_id["i.w1"])
    # Definition 1 on Fig. 2: Q simplifies to v1·v2 == v6, up to the
    # register pairing v1 == w1.
    condition = mgr.apply_xnor(mgr.apply_and(v1, v2), v6)
    strengthened = mgr.apply_and(condition, mgr.apply_xnor(v1, w1))
    assert mgr.apply_implies(fix.q_edge, condition) == mgr.true
    assert mgr.apply_implies(strengthened, fix.q_edge) == mgr.true


def test_fig2_fundep_substitution_used():
    spec, impl = fig2_pair()
    fix, _, _ = final_classes(spec, impl, use_fundeps=True)
    # The paper's example replaces state variable v6 by v1·v2.
    assert fix.substitutions >= 1


def test_fig2_proved_by_engine():
    spec, impl = fig2_pair()
    result = VanEijkVerifier().verify(spec, impl, match_outputs="order")
    assert result.proved
    assert result.details["retime_rounds"] == 0
    oracle = explicit_check_equivalence(
        build_product(spec, impl, match_outputs="order")
    )
    assert oracle.proved


def test_fig3_requires_retiming_augmentation():
    spec, impl = fig3_pair()
    no_retime = VanEijkVerifier(use_retiming=False).verify(
        spec, impl, match_outputs="order"
    )
    assert no_retime.inconclusive
    with_retime = VanEijkVerifier(use_retiming=True).verify(
        spec, impl, match_outputs="order"
    )
    assert with_retime.proved
    assert with_retime.details["retime_rounds"] == 1
    assert with_retime.details["augmented_signals"] >= 1


def test_fig3_is_actually_equivalent():
    spec, impl = fig3_pair()
    oracle = explicit_check_equivalence(
        build_product(spec, impl, match_outputs="order")
    )
    assert oracle.proved


def test_fig3_augmented_signal_is_the_missing_product():
    spec, impl = fig3_pair()
    product = build_product(spec, impl, match_outputs="order")
    result = VanEijkVerifier().verify_product(product)
    assert result.proved


def test_mod3_counters_proved_despite_reencoding():
    spec, impl = mod3_counter_pair()
    oracle = explicit_check_equivalence(
        build_product(spec, impl, match_outputs="order")
    )
    assert oracle.proved
    result = VanEijkVerifier(use_retiming=False).verify(
        spec, impl, match_outputs="order"
    )
    assert result.proved


def test_onehot_plain_ring_needs_retiming():
    spec, impl = onehot_ring_pair(enable=False)
    assert explicit_check_equivalence(
        build_product(spec, impl, match_outputs="order")
    ).proved
    bare = VanEijkVerifier(use_retiming=False).verify(
        spec, impl, match_outputs="order"
    )
    assert bare.inconclusive
    augmented = VanEijkVerifier(use_retiming=True, max_retiming_rounds=4).verify(
        spec, impl, match_outputs="order"
    )
    assert augmented.proved


def test_onehot_enabled_ring_is_the_incompleteness_witness():
    spec, impl = onehot_ring_pair(enable=True)
    product = build_product(spec, impl, match_outputs="order")
    assert explicit_check_equivalence(product).proved
    # The whole Fig. 4 method terminates undecided...
    full = VanEijkVerifier(max_retiming_rounds=6).verify_product(product)
    assert full.inconclusive
    # ...but never wrongly refutes (soundness), and the fallbacks prove it.
    reach = VanEijkVerifier(reach_bound="exact").verify_product(product)
    assert reach.proved
    traversal = check_equivalence_traversal(product)
    assert traversal.proved


def test_onehot_enabled_approx_blocks_insufficient():
    # Machine-by-machine approximation cannot see cross-register one-hotness
    # when each register lands in its own block.
    spec, impl = onehot_ring_pair(enable=True)
    result = VanEijkVerifier(reach_bound="approx").verify(
        spec, impl, match_outputs="order"
    )
    # The blocks here are connected (the ring couples all registers), so the
    # approximation may actually be exact; accept either outcome but demand
    # soundness: never a refutation.
    assert result.equivalent in (True, None)
