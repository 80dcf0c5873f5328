"""The k-induction engine: proofs beyond correspondence, sound refutation.

The acceptance core of the subsystem: correspondence-inconclusive pairs
(the fixed point cannot close them) proved by induction *without* state
traversal, cross-checked against the traversal oracle; refutations must
survive replay; exactly one solver per run.
"""

import pytest

from repro import verify
from repro.budget import Budget
from repro.core.satbackend import check_equivalence_sat_sweep
from repro.circuits import onehot_chain_pair, onehot_ring_pair
from repro.errors import VerificationError
from repro.fuzz.generate import build_pair
from repro.fuzz.replay import validate_refutation
from repro.induction import (
    INDUCTION_FALLBACK,
    PROGRESS_INDUCTION_ROUND,
    KInductionEngine,
    check_equivalence_k_induction,
    check_equivalence_sweep_induction,
)
from repro.netlist import build_product
from repro.reach import check_equivalence_traversal
from repro.transform import inject_distinguishable_fault, optimize

from ..netlist.helpers import counter_circuit, toggle_circuit

#: Fuzz recipes (the ``repro.fuzz.generate`` format) whose pairs defeat
#: the SAT sweep: retimed, some also XOR-reencoded, random circuits.
FUZZ_RECIPES = [
    {"base": {"name": "ih6", "n_regs": 6, "n_inputs": 2, "n_outputs": 1,
              "seed": 5875, "deep_counter_bits": 0, "mixer_width": 0},
     "transforms": [{"kind": "xor_reencode", "pairs": 2, "seed": 107},
                    {"kind": "retime", "moves": 2, "seed": 329}]},
    {"base": {"name": "ih15", "n_regs": 7, "n_inputs": 2, "n_outputs": 1,
              "seed": 14668, "deep_counter_bits": 0, "mixer_width": 0},
     "transforms": [{"kind": "xor_reencode", "pairs": 2, "seed": 260},
                    {"kind": "retime", "moves": 2, "seed": 806}]},
    {"base": {"name": "ih33", "n_regs": 5, "n_inputs": 2, "n_outputs": 1,
              "seed": 32254, "deep_counter_bits": 0, "mixer_width": 0},
     "transforms": [{"kind": "xor_reencode", "pairs": 2, "seed": 566},
                    {"kind": "retime", "moves": 2, "seed": 1760}]},
    {"base": {"name": "ih41", "n_regs": 5, "n_inputs": 4, "n_outputs": 1,
              "seed": 40070, "deep_counter_bits": 0, "mixer_width": 0},
     "transforms": [{"kind": "retime", "moves": 4, "seed": 1278}]},
    {"base": {"name": "ih117", "n_regs": 5, "n_inputs": 2, "n_outputs": 1,
              "seed": 114322, "deep_counter_bits": 0, "mixer_width": 0},
     "transforms": [{"kind": "retime", "moves": 2, "seed": 3634}]},
]

#: Correspondence-inconclusive pairs (the fixed point cannot prove them)
#: that k-induction must close without traversal.
INCONCLUSIVE_PAIRS = [
    ("onehot_ring", lambda: onehot_ring_pair()),
    ("onehot_ring_en", lambda: onehot_ring_pair(enable=True)),
    ("onehot_chain6", lambda: onehot_chain_pair(6)),
] + [(recipe["base"]["name"], lambda recipe=recipe: build_pair(recipe))
     for recipe in FUZZ_RECIPES]


@pytest.mark.parametrize("name,make", INCONCLUSIVE_PAIRS,
                         ids=[n for n, _ in INCONCLUSIVE_PAIRS])
def test_proves_correspondence_inconclusive_pairs(name, make):
    spec, impl = make()
    sweep = check_equivalence_sat_sweep(spec, impl, match_outputs="order")
    assert sweep.equivalent is None, "pair must defeat the fixed point"
    result = check_equivalence_k_induction(spec, impl, match_outputs="order",
                                           max_depth=12)
    assert result.proved
    assert result.method == "k_induction"
    assert result.details["depth"] <= 12
    # one incremental solver for the whole depth schedule
    assert result.details["solver_stats"]["solver_constructions"] == 1
    # traversal oracle agrees
    product = build_product(spec, impl, match_outputs="order")
    oracle = check_equivalence_traversal(product)
    assert oracle.proved


def test_proves_optimized_counter():
    spec = counter_circuit(4)
    impl = optimize(spec, level=2, seed=11)
    result = check_equivalence_k_induction(spec, impl, match_outputs="order")
    assert result.proved


def test_refutes_injected_fault_with_valid_counterexample():
    spec, impl = onehot_ring_pair()
    impl, _ = inject_distinguishable_fault(impl, seed=5)
    result = check_equivalence_k_induction(spec, impl, match_outputs="order",
                                           max_depth=12)
    assert result.refuted
    assert result.counterexample is not None
    assert result.details["cex_depth"] >= 0
    report = validate_refutation(spec, impl, result, match_outputs="order")
    assert report.valid, report.reason


def test_refutes_toggle_vs_constant():
    from repro.netlist import Circuit, GateType

    spec = toggle_circuit()
    impl = Circuit("broken")
    impl.add_input("en")
    impl.add_register("q", "d", init=False)
    impl.add_gate("d", GateType.XOR, ["en", "q"])
    impl.add_gate("out", GateType.CONST0, [])
    impl.add_output("out")
    impl.validate()
    result = check_equivalence_k_induction(spec, impl, match_outputs="order")
    assert result.refuted


def test_strengthening_lowers_proof_depth():
    """The chain pair needs depth m without candidates but closes at the
    ring's depth with them — the invariant is doing real work."""
    spec, impl = onehot_chain_pair(6)
    plain = check_equivalence_k_induction(
        spec, impl, match_outputs="order", strengthen=False, max_depth=12)
    strong = check_equivalence_k_induction(
        spec, impl, match_outputs="order", strengthen=True, max_depth=12)
    assert plain.proved and strong.proved
    assert strong.details["depth"] < plain.details["depth"]
    assert strong.details["candidate_source"] == "simulation"
    assert plain.details["candidate_source"] == "none"
    assert strong.details["candidates_active"] > 0


def test_wrong_partition_is_dropped_not_trusted():
    """A deliberately false candidate partition must not break soundness:
    the engine drops refuted candidates and still proves the pair."""
    spec, impl = onehot_ring_pair()
    product = build_product(spec, impl, match_outputs="order")
    regs = list(product.circuit.registers)
    # claim ALL registers equal — false for a one-hot ring
    bogus = [[(net, False) for net in regs]]
    engine = KInductionEngine(max_depth=12, partition=bogus)
    result = engine.verify_product(product)
    assert result.proved
    assert result.details["candidates_dropped"] > 0
    assert result.details["candidate_source"] == "partition"


def test_wrong_partition_cannot_fake_a_refutation():
    """Bogus candidates on an equivalent pair never yield 'refuted'."""
    spec = counter_circuit(3)
    impl = optimize(spec, level=2, seed=3)
    product = build_product(spec, impl, match_outputs="order")
    regs = list(product.circuit.registers)
    bogus = [[(regs[0], False), (regs[1], True)],
             [(regs[i], False) for i in range(len(regs))]]
    engine = KInductionEngine(max_depth=10, partition=bogus)
    result = engine.verify_product(product)
    assert result.equivalent is not False


def test_bound_reached_is_inconclusive():
    spec, impl = onehot_chain_pair(8)
    result = check_equivalence_k_induction(
        spec, impl, match_outputs="order", strengthen=False, max_depth=2)
    assert result.equivalent is None
    assert result.details["bound_reached"] == 2


def test_time_budget_aborts_inconclusive():
    spec, impl = onehot_chain_pair(8)
    result = check_equivalence_k_induction(
        spec, impl, match_outputs="order", budget=Budget(0.0))
    assert result.equivalent is None
    assert "aborted" in result.details


def test_clause_limit_aborts_inconclusive():
    spec, impl = onehot_chain_pair(8)
    result = check_equivalence_k_induction(
        spec, impl, match_outputs="order", clause_limit=100)
    assert result.equivalent is None
    assert result.details["aborted"].startswith(
        "induction clause budget exhausted (")


def test_progress_rounds_emitted():
    events = []

    def progress(kind, **data):
        events.append((kind, data))

    spec, impl = onehot_ring_pair()
    result = check_equivalence_k_induction(
        spec, impl, match_outputs="order", progress=progress)
    rounds = [d for k, d in events if k == "induction_round"]
    assert result.proved
    assert len(rounds) == result.details["rounds"]
    assert rounds[-1]["proved"] is True
    assert rounds[-1]["depth"] == result.details["depth"]


def test_progress_event_name_matches_service_registry():
    from repro.service.events import PROGRESS_INDUCTION_ROUND as service_name

    assert PROGRESS_INDUCTION_ROUND == service_name == "induction_round"


def test_max_depth_validation():
    with pytest.raises(ValueError):
        KInductionEngine(max_depth=0)


def test_sweep_induction_fast_path_skips_induction():
    """A pair the fixed point proves returns in the correspondence phase."""
    spec = counter_circuit(3)
    impl = optimize(spec, level=2, seed=3)
    result = check_equivalence_sweep_induction(spec, impl,
                                               match_outputs="order")
    assert result.proved
    assert result.method == "sweep_induct"
    assert result.details["phase"] == "correspondence"


def test_sweep_induction_falls_back_with_event():
    events = []

    def progress(kind, **data):
        events.append((kind, data))

    spec, impl = onehot_chain_pair(6)
    result = check_equivalence_sweep_induction(
        spec, impl, match_outputs="order", max_depth=12, progress=progress)
    assert result.proved
    assert result.details["phase"] == "induction"
    assert result.details["sweep"]["iterations"] >= 1
    fallbacks = [d for k, d in events if k == INDUCTION_FALLBACK]
    assert len(fallbacks) == 1
    assert fallbacks[0]["classes"] >= 1


def test_sweep_induction_no_fallback_fails_fast():
    spec, impl = onehot_chain_pair(6)
    result = check_equivalence_sweep_induction(
        spec, impl, match_outputs="order", fallback=False)
    assert result.equivalent is None
    assert result.details["fallback"] == "disabled"


def test_sweep_induction_refutes_through_base_case():
    spec, impl = onehot_ring_pair()
    impl, _ = inject_distinguishable_fault(impl, seed=5)
    result = check_equivalence_sweep_induction(spec, impl,
                                               match_outputs="order")
    assert result.refuted
    report = validate_refutation(spec, impl, result, match_outputs="order")
    assert report.valid, report.reason


def test_verify_dispatch():
    spec, impl = onehot_ring_pair()
    result = verify(spec, impl, method="k_induction", match_outputs="order")
    assert result.proved
    result = verify(spec, impl, method="sweep_induct", match_outputs="order")
    assert result.proved


def test_onehot_chain_pair_validates():
    spec, impl = onehot_chain_pair(4)
    spec.validate()
    impl.validate()
    with pytest.raises(ValueError):
        onehot_chain_pair(0)
