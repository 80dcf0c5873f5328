"""Incremental SAT refinement engine: resource regressions and identity.

The incremental engine must (a) build exactly one solver and one frame
encoding per ``compute()`` call — that is the whole point of the rework —
and (b) compute the *identical* partition and verdict as the monolithic
solver-per-round baseline on every circuit we can throw at it: random
pairs, the table-1 suite, and the persisted fuzz corpus.
"""

import os

from hypothesis import given, settings, strategies as st
import pytest

from repro.circuits import row_by_name
from repro.core import check_equivalence_sat_sweep
from repro.core.satbackend import SatCorrespondence
from repro.fuzz.corpus import discover
from repro.fuzz.generate import build_pair
from repro.fuzz.harness import DEFAULT_FUZZ_ENGINES
from repro.netlist import build_product
from repro.transform import optimize

from ..netlist.helpers import counter_circuit, random_sequential_circuit

CORPUS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "corpus")


def product_for(seed):
    spec = random_sequential_circuit(seed, n_inputs=2, n_regs=3, n_gates=8)
    impl = optimize(spec, level=2, seed=seed + 1)
    return build_product(spec, impl, match_outputs="order")


def partition_netsets(product, incremental):
    engine = SatCorrespondence(product, incremental=incremental)
    classes, _ = engine.compute()
    return {
        frozenset((sig.net, sig.complemented) for sig in cls)
        for cls in classes
    }


# ------------------------------------------------------- resource regressions


@pytest.mark.parametrize("k", [1, 2])
def test_one_solver_and_one_encoding_per_compute(k):
    """The tentpole guarantee: no per-round rebuilds, ever."""
    spec = counter_circuit(4)
    impl = optimize(spec, level=2, seed=3)
    product = build_product(spec, impl, match_outputs="order")
    engine = SatCorrespondence(product, k=k)
    engine.compute()
    assert engine.stats["solver_constructions"] == 1
    assert engine.stats["frame_encodings"] == 1
    assert engine.stats["rounds"] >= 1
    assert engine.stats["sat_queries"] > 0


def test_monolithic_baseline_rebuilds_per_round():
    """The contrast that makes the regression test meaningful."""
    spec = counter_circuit(4)
    impl = optimize(spec, level=2, seed=3)
    product = build_product(spec, impl, match_outputs="order")
    engine = SatCorrespondence(product, incremental=False)
    engine.compute()
    # Initial split + one construction per refinement round.
    assert engine.stats["solver_constructions"] == 1 + engine.stats["rounds"]
    assert engine.stats["frame_encodings"] == engine.stats["solver_constructions"]


def test_cex_replay_splits_are_exercised():
    """On a pair that actually refines, witnesses must be replayed.

    A deliberately weak simulation seeding (two 1-wide frames) leaves T0
    coarse, so the SAT queries have real splitting to do.
    """
    spec = counter_circuit(4)
    impl = optimize(spec, level=2, seed=3)
    product = build_product(spec, impl, match_outputs="order")
    engine = SatCorrespondence(product, sim_frames=2, sim_width=1)
    engine.compute()
    stats = engine.solver_stats()
    assert stats["cex_patterns"] >= 1
    assert stats["cex_class_splits"] >= 1
    assert stats["conflicts"] >= 0 and stats["learned"] >= 0


# ---------------------------------------------------------- identity checks


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_incremental_and_monolithic_partitions_identical(seed):
    """The maximum relation is unique; both engines must land on it."""
    product = product_for(seed)
    assert partition_netsets(product, True) == partition_netsets(
        product, False)


@pytest.mark.parametrize("name", ["s298", "s386"])
def test_suite_verdicts_and_class_counts_agree(name):
    spec, impl = row_by_name(name).pair()
    inc = check_equivalence_sat_sweep(spec, impl, match_outputs="order",
                                      incremental=True)
    mono = check_equivalence_sat_sweep(spec, impl, match_outputs="order",
                                       incremental=False)
    assert inc.equivalent == mono.equivalent
    assert inc.details["classes"] == mono.details["classes"]
    # And the new engine really was cheaper to set up.
    assert (inc.details["solver_stats"]["solver_constructions"]
            < mono.details["solver_stats"]["solver_constructions"])


@pytest.mark.parametrize("entry", discover(CORPUS_DIR), ids=lambda e: e.id)
def test_corpus_verdicts_agree(entry):
    spec, impl = build_pair(entry.recipe)
    inc = check_equivalence_sat_sweep(spec, impl, match_outputs="order",
                                      incremental=True)
    mono = check_equivalence_sat_sweep(spec, impl, match_outputs="order",
                                       incremental=False)
    assert inc.equivalent == mono.equivalent
    assert inc.details["classes"] == mono.details["classes"]


# ------------------------------------------------------- progress / plumbing


def test_progress_reports_refinement_rounds_with_solver_stats():
    spec = counter_circuit(4)
    impl = optimize(spec, level=2, seed=3)
    events = []

    def progress(kind, **data):
        events.append((kind, data))

    result = check_equivalence_sat_sweep(spec, impl, match_outputs="order",
                                         progress=progress)
    assert result.proved
    kinds = [kind for kind, _ in events]
    assert "initial_split" in kinds
    rounds = [data for kind, data in events if kind == "refinement_round"]
    assert rounds
    assert [data["round"] for data in rounds] == list(
        range(1, len(rounds) + 1))
    for data in rounds:
        assert "classes" in data and "conflicts" in data
        assert "sat_queries" in data and "cex_patterns" in data
    assert rounds[-1]["changed"] is False


def test_verdict_details_carry_solver_stats():
    spec = counter_circuit(4)
    impl = optimize(spec, level=2, seed=3)
    result = check_equivalence_sat_sweep(spec, impl, match_outputs="order")
    stats = result.details["solver_stats"]
    assert stats["solver_constructions"] == 1
    assert stats["frame_encodings"] == 1
    assert stats["rounds"] >= 1


def test_sat_sweep_in_default_fuzz_battery():
    lanes = {label: (method, options)
             for label, method, options in DEFAULT_FUZZ_ENGINES}
    assert lanes["sat_sweep"][0] == "sat_sweep"
    # The battery also runs the engine behind the FRAIG preprocessor.
    method, options = lanes["sat_sweep_fraig"]
    assert method == "sat_sweep"
    assert options["preprocess"] == "fraig"
