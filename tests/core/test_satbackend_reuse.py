"""Proof reuse across refinement rounds must not change the partition.

The SAT engine guards Q per class member and skips a pair whose last UNSAT
proof rests only on guards that are still live.  The skip is sound only if
the assumption cores behind it are right.  A wrong one shows in the
partition, not in the verdict: an engine that reuses every cached proof,
whatever its core, still proves the multi-round rows equivalent, with
coarser classes.  So these tests compare partitions as sets of nets, on the
rows where reuse fires most and on random pairs against the solver-per-round
reference.  One more pins how much reuse there is: a split retires only the
guards of the members that left, so on s838 most pairs of a round are
verified without a query.  The last pins the query order: a class's pairs
are asked one polarity at a time, so the leader's literal stays placed.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st
import pytest

from repro.circuits import row_by_name
from repro.core import satbackend
from repro.core.satbackend import SatCorrespondence
from repro.sat.solver import Solver
from repro.netlist import build_product
from repro.transform import optimize

from ..netlist.helpers import random_sequential_circuit
from .test_satbackend import bdd_partition_netsets, normalize
from .test_satbackend_incremental import SolverPerRound


def netsets(classes):
    return {frozenset(sig.net for sig in cls) for cls in classes}


@pytest.mark.parametrize("name",
                         ["s208", "s420", "s838", "s1423", "s5378"])
def test_multi_round_rows_reuse_proofs_and_match_bdd(name):
    spec, impl = row_by_name(name).pair()
    product = build_product(spec, impl, match_outputs="order")
    engine = SatCorrespondence(product)
    classes, rounds = engine.compute()
    assert rounds > 1
    assert engine.stats["proofs_reused"] > 0
    assert normalize(netsets(classes)) == normalize(
        bdd_partition_netsets(product))


def test_s838_reuses_more_proofs_than_it_queries():
    spec, impl = row_by_name("s838").pair()
    product = build_product(spec, impl, match_outputs="order")
    engine = SatCorrespondence(product)
    engine.compute()
    assert engine.stats["proofs_reused"] > engine.stats["sat_queries"]


def test_s838_refinement_queries_keep_the_leader_placed():
    """Each guarded query assumes ``[la, -lb]`` or ``[-la, lb]``.  Asked
    pair by pair, both polarities in turn, the first assumption changed on
    all 1,816 guarded queries of s838, so each one placed its leader's
    literal afresh.  Asked one polarity at a time per class, it may change
    on at most half of them."""
    firsts = []

    class Recording(Solver):
        def solve(self, assumptions=(), conflict_budget=None, guards=None):
            if guards:
                firsts.append(assumptions[0])
            return super().solve(assumptions, conflict_budget, guards)

    spec, impl = row_by_name("s838").pair()
    product = build_product(spec, impl, match_outputs="order")
    with mock.patch.object(satbackend, "Solver", Recording):
        SatCorrespondence(product).compute()
    changes = sum(1 for i, lit in enumerate(firsts)
                  if i == 0 or lit != firsts[i - 1])
    assert firsts and 2 * changes <= len(firsts)


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
