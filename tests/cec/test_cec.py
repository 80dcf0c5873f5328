"""Combinational equivalence checking: the BDD and SAT backends, and the
FRAIG sweep of the product, must agree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import VerificationError
from repro.netlist import Circuit, GateType, single_eval
from repro.cec import (
    check_comb_equivalence,
    check_comb_equivalence_bdd,
    check_comb_equivalence_sat,
)
from repro.transform import optimize, inject_fault

from ..netlist.helpers import random_sequential_circuit
from .helpers import sweep_verdict


def random_comb_circuit(seed, n_inputs=4, n_gates=10):
    """Combinational circuit: random sequential circuit with 0 registers."""
    return random_sequential_circuit(
        seed, n_inputs=n_inputs, n_regs=0, n_gates=n_gates
    )


def test_identical_equivalent_both_backends():
    c = random_comb_circuit(3)
    for backend in ("bdd", "sat"):
        result = check_comb_equivalence(c, c.copy(), backend=backend)
        assert result.equivalent, backend


def test_structurally_different_equivalent():
    c = Circuit("demorgan")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("o", GateType.NAND, ["a", "b"])
    c.add_output("o")
    d = Circuit("demorgan2")
    d.add_input("a")
    d.add_input("b")
    d.add_gate("na", GateType.NOT, ["a"])
    d.add_gate("nb", GateType.NOT, ["b"])
    d.add_gate("o", GateType.OR, ["na", "nb"])
    d.add_output("o")
    assert check_comb_equivalence_bdd(c, d).equivalent
    assert check_comb_equivalence_sat(c, d).equivalent


def test_inequivalent_with_valid_cex():
    c = Circuit("and2")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("o", GateType.AND, ["a", "b"])
    c.add_output("o")
    d = Circuit("or2")
    d.add_input("a")
    d.add_input("b")
    d.add_gate("o", GateType.OR, ["a", "b"])
    d.add_output("o")
    for checker in (check_comb_equivalence_bdd, check_comb_equivalence_sat):
        result = checker(c, d)
        assert not result.equivalent
        cex = result.counterexample
        va = single_eval(c, cex, {})["o"]
        vb = single_eval(d, cex, {})["o"]
        assert va != vb


def test_interface_errors():
    c = random_comb_circuit(1)
    seq = random_sequential_circuit(1, n_regs=2)
    with pytest.raises(VerificationError):
        check_comb_equivalence_bdd(c, seq)
    with pytest.raises(VerificationError):
        check_comb_equivalence_sat(seq, c)
    d = random_comb_circuit(2, n_inputs=5)
    with pytest.raises(VerificationError):
        check_comb_equivalence_bdd(c, d)
    with pytest.raises(ValueError):
        check_comb_equivalence(c, c, backend="nope")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_backends_agree_on_optimized(seed):
    spec = random_comb_circuit(seed)
    impl = optimize(spec, level=2, seed=seed)
    bdd_result = check_comb_equivalence_bdd(spec, impl)
    sat_result = check_comb_equivalence_sat(spec, impl)
    assert bdd_result.equivalent
    assert sat_result.equivalent


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_backends_agree_on_mutations(seed):
    spec = random_comb_circuit(seed)
    impl, _ = inject_fault(spec, seed=seed)
    bdd_result = check_comb_equivalence_bdd(spec, impl)
    sat_result = check_comb_equivalence_sat(spec, impl)
    assert bdd_result.equivalent == sat_result.equivalent
    if not bdd_result.equivalent:
        cex = sat_result.counterexample
        outs_a = single_eval(spec, cex, {})
        outs_b = single_eval(impl, cex, {})
        assert any(
            outs_a[o1] != outs_b[o2]
            for o1, o2 in zip(spec.outputs, impl.outputs)
        )


def test_match_by_order():
    c = Circuit("m1")
    c.add_input("a")
    c.add_gate("o", GateType.NOT, ["a"])
    c.add_output("o")
    d = Circuit("m2")
    d.add_input("z")
    d.add_gate("w", GateType.NOT, ["z"])
    d.add_output("w")
    assert check_comb_equivalence_bdd(c, d, match_inputs="order").equivalent
    assert check_comb_equivalence_sat(c, d, match_inputs="order").equivalent


# ---------------------------------------------------------------- fraig
# Sweeping the product of the pair (``helpers.sweep_verdict``) is a third
# check, and must agree with both backends.


def test_fraig_backend_equivalent():
    c = random_comb_circuit(8)
    impl = optimize(c, level=2, seed=8)
    equivalent, reduction = sweep_verdict(c, impl)
    assert equivalent
    assert reduction.stats["ands_after"] <= reduction.stats["ands_before"]


def test_fraig_backend_inequivalent_with_cex():
    c = random_comb_circuit(9)
    impl, _ = inject_fault(c, seed=2)
    bdd_result = check_comb_equivalence_bdd(c, impl)
    equivalent, _ = sweep_verdict(c, impl)
    assert bdd_result.equivalent == equivalent
    if not equivalent:
        cex = check_comb_equivalence_sat(c, impl).counterexample
        outs_a = single_eval(c, cex, {})
        outs_b = single_eval(impl, cex, {})
        assert any(
            outs_a[o1] != outs_b[o2]
            for o1, o2 in zip(c.outputs, impl.outputs)
        )


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_all_three_backends_agree(seed):
    spec = random_comb_circuit(seed)
    impl, _ = inject_fault(spec, seed=seed + 1)
    verdicts = {
        backend: check_comb_equivalence(spec, impl, backend=backend).equivalent
        for backend in ("bdd", "sat")
    }
    verdicts["fraig"] = sweep_verdict(spec, impl)[0]
    assert len(set(verdicts.values())) == 1, verdicts
