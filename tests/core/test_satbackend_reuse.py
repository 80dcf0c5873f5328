"""Proof reuse across splits must not change the partition.

The SAT engine guards Q per class member and keeps a pair's UNSAT answers
while every guard their assumption cores named is live; a split marks the
answers that named a guard it retired unproven.  The skip is sound only if
the cores behind it are right.  A wrong one shows in the partition, not in
the verdict: an engine that reuses every cached proof, whatever its core,
still proves the multi-round rows equivalent, with coarser classes.  So
these tests compare partitions as sets of nets, on the rows that took the
most rounds under the round-by-round schedule and on random pairs against
the solver-per-round reference.  Three more pin the worklist's schedule:
s838 makes at most half the queries the round-by-round schedule made, a
class asks its pairs one polarity at a time so that the leader's literal
stays placed, and the solver simplifies only once, when the base case ends.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st
import pytest

from repro.core import satbackend
from repro.core.satbackend import SatCorrespondence
from repro.sat.solver import Solver
from repro.netlist import build_product
from repro.transform import optimize

from ..netlist.helpers import random_sequential_circuit
from .test_satbackend import bdd_partition_netsets, normalize
from .test_satbackend_incremental import SolverPerRound
from .test_satbackend_worklist import row_product


def netsets(classes):
    return {frozenset(sig.net for sig in cls) for cls in classes}


@pytest.mark.parametrize("name",
                         ["s208", "s420", "s838", "s1423", "s5378"])
def test_multi_round_rows_reuse_proofs_and_match_bdd(name):
    product = row_product(name)
    classes, _ = SatCorrespondence(product).compute()
    assert normalize(netsets(classes)) == normalize(
        bdd_partition_netsets(product))


def test_s838_makes_at_most_half_the_round_schedules_queries():
    """Round by round, s838 took 59 rounds and 2,445 queries to peel its
    counter chain one link per round.  The worklist splits as soon as a
    witness comes and asks again only the pairs whose proofs a split
    broke."""
    engine = SatCorrespondence(row_product("s838"))
    engine.compute()
    assert engine.stats["sat_queries"] <= 1222


def test_s838_refinement_queries_keep_the_leader_placed():
    """Each guarded query assumes ``[la, -lb]`` or ``[-la, lb]``.  Asked
    pair by pair, both polarities in turn, the first assumption changes on
    531 of s838's 535 guarded queries, so each one places its leader's
    literal afresh.  Asked one polarity at a time per class, it changes on
    277 of 488: most of s838's classes have two members, whose two queries
    differ in the leader's sign either way, so the bound is two thirds."""
    firsts = []

    class Recording(Solver):
        def solve(self, assumptions=(), conflict_budget=None, guards=None):
            if guards:
                firsts.append(assumptions[0])
            return super().solve(assumptions, conflict_budget, guards)

    with mock.patch.object(satbackend, "Solver", Recording):
        SatCorrespondence(row_product("s838")).compute()
    changes = sum(1 for i, lit in enumerate(firsts)
                  if i == 0 or lit != firsts[i - 1])
    assert firsts and 3 * changes <= 2 * len(firsts)


def test_simplify_runs_once_at_the_end_of_the_base_case():
    """A split retires its guards by unit clauses alone; the one
    ``simplify()`` drops the initial-state clauses after the base case."""
    calls = []

    class Recording(Solver):
        def solve(self, assumptions=(), conflict_budget=None, guards=None):
            calls.append("guarded" if guards else "base")
            return super().solve(assumptions, conflict_budget, guards)

        def simplify(self):
            calls.append("simplify")
            return super().simplify()

    with mock.patch.object(satbackend, "Solver", Recording):
        SatCorrespondence(row_product("s838")).compute()
    assert calls.count("simplify") == 1
    end = calls.index("simplify")
    assert set(calls[:end]) == {"base"}
    assert set(calls[end + 1:]) == {"guarded"}


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_k2_partitions_match_solver_per_round(seed):
    """Two-frame induction on random pairs.  Seeding from two one-bit
    frames leaves T0 coarse, so the fixed point takes several rounds and
    later rounds have proofs to reuse; six registers and twenty gates give
    the classes room to split under proofs that a round reuses."""
    spec = random_sequential_circuit(seed, n_inputs=2, n_regs=6, n_gates=20)
    impl = optimize(spec, level=2, seed=seed + 1)
    product = build_product(spec, impl, match_outputs="order")
    weak = {"k": 2, "sim_frames": 2, "sim_width": 1}
    engine = SatCorrespondence(product, **weak)
    classes, _ = engine.compute()
    reference, _ = SolverPerRound(product, **weak).compute()
    assert netsets(classes) == netsets(reference)
