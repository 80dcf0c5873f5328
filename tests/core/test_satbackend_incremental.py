"""Incremental SAT refinement engine: resource regressions and identity.

The incremental engine must (a) build exactly one solver and one frame
encoding per ``compute()`` call — that is the whole point of the rework —
and (b) compute the *identical* partition and verdict as the monolithic
solver-per-round reference engine (:class:`SolverPerRound`, below) on
every circuit we can throw at it: random pairs, the table-1 suite, and the
persisted fuzz corpus.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st
import pytest

from repro.circuits import row_by_name
from repro.core import check_equivalence_sat_sweep, satbackend
from repro.core.satbackend import CONST_NET, SatCorrespondence
from repro.fuzz.corpus import discover
from repro.fuzz.generate import build_pair
from repro.fuzz.harness import DEFAULT_FUZZ_ENGINES
from repro.netlist import build_product
from repro.sat.tseitin import TseitinEncoder
from repro.transform import optimize

from ..netlist.helpers import counter_circuit, random_sequential_circuit
from .test_satbackend_worklist import (
    CORPUS_DIR, RoundByRound, signed_classes)


def product_for(seed):
    spec = random_sequential_circuit(seed, n_inputs=2, n_regs=3, n_gates=8)
    impl = optimize(spec, level=2, seed=seed + 1)
    return build_product(spec, impl, match_outputs="order")


class SolverPerRound(RoundByRound):
    """The monolithic reference engine: the base case and every refinement
    round encode the frames into a fresh solver and discard it, learned
    clauses and all.  It runs the round loop of :class:`RoundByRound`
    with its own round.  The maximum correspondence is unique, so it must
    land on the same partition as the one-solver engine."""

    def _setup_solver(self):
        pass  # nothing is shared between rounds

    def _fresh_solver(self, n_frames):
        enc = TseitinEncoder()
        frames = self._encode_unrolled(enc, n_frames)
        true_var = enc.new_var()
        solver = self._new_solver()
        solver.add_cnf(enc.cnf)
        solver.add_clause([true_var])

        def lit(sig, frame_vars):
            var = true_var if sig.net == CONST_NET else frame_vars[sig.net]
            return -var if sig.complemented else var

        return solver, frames, lit

    def _absorb(self, solver):
        live = solver.stats()
        for key in ("conflicts", "decisions", "propagations", "restarts"):
            self.stats[key] += live[key]

    def _split_at_initial(self, classes, deadline):
        solver, frames, lit = self._fresh_solver(self.k)
        for net, reg in self.circuit.registers.items():
            var = frames[0][net]
            solver.add_clause([var if reg.init else -var])

        def differ(a, b):
            self._check_budget(deadline)
            for frame_vars in frames:
                la, lb = lit(a, frame_vars), lit(b, frame_vars)
                for assumptions in ([la, -lb], [-la, lb]):
                    self.stats["sat_queries"] += 1
                    if solver.solve(assumptions=assumptions):
                        return True
            return False

        try:
            return split_all(classes, differ)
        finally:
            self._absorb(solver)

    def _refine_round(self, classes, deadline):
        solver, frames, lit = self._fresh_solver(self.k + 1)
        # Q: equivalence clauses at frames 0..k-1 for every current class.
        for frame_vars in frames[:-1]:
            for cls in classes:
                if len(cls) < 2:
                    continue
                rep = lit(cls[0], frame_vars)
                for member in cls[1:]:
                    m = lit(member, frame_vars)
                    solver.add_clause([-rep, m])
                    solver.add_clause([rep, -m])
        changed = []
        check_frame = frames[-1]

        def differ(a, b):
            self._check_budget(deadline)
            la, lb = lit(a, check_frame), lit(b, check_frame)
            for assumptions in ([la, -lb], [-la, lb]):
                self.stats["sat_queries"] += 1
                if solver.solve(assumptions=assumptions):
                    changed.append(True)
                    return True
            return False

        try:
            return split_all(classes, differ), bool(changed)
        finally:
            self._absorb(solver)


def split_all(classes, differ):
    """Split each class into groups of members ``differ`` cannot tell
    from the group's first member."""
    result = []
    for cls in classes:
        if len(cls) == 1:
            result.append(cls)
            continue
        subgroups = []
        for sig in cls:
            for group in subgroups:
                if not differ(sig, group[0]):
                    group.append(sig)
                    break
            else:
                subgroups.append([sig])
        result.extend(subgroups)
    return result


def solver_per_round_sweep(spec, impl):
    """``check_equivalence_sat_sweep`` run on the reference engine."""
    with mock.patch.object(satbackend, "SatCorrespondence", SolverPerRound):
        return check_equivalence_sat_sweep(spec, impl, match_outputs="order")


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
    engine = SolverPerRound(product)
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
    assert signed_classes(product, SatCorrespondence) == signed_classes(
        product, SolverPerRound)


@pytest.mark.parametrize("name", ["s298", "s386"])
def test_suite_verdicts_and_class_counts_agree(name):
    spec, impl = row_by_name(name).pair()
    inc = check_equivalence_sat_sweep(spec, impl, match_outputs="order")
    mono = solver_per_round_sweep(spec, impl)
    assert inc.equivalent == mono.equivalent
    assert inc.details["classes"] == mono.details["classes"]
    # And the new engine really was cheaper to set up.
    assert (inc.details["solver_stats"]["solver_constructions"]
            < mono.details["solver_stats"]["solver_constructions"])


@pytest.mark.parametrize("entry", discover(CORPUS_DIR), ids=lambda e: e.id)
def test_corpus_verdicts_agree(entry):
    spec, impl = build_pair(entry.recipe)
    inc = check_equivalence_sat_sweep(spec, impl, match_outputs="order")
    mono = solver_per_round_sweep(spec, impl)
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
    # The battery also runs the same sweep on the FRAIG-reduced pair.
    method, options = lanes["fraig_sweep"]
    assert method == "fraig_sweep"
    assert options == lanes["sat_sweep"][1]
