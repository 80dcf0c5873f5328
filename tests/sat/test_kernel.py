"""The SAT kernel's search is pinned, call by call and across commits.

``Solver`` takes its decisions from a lazily invalidated activity heap and
propagates in one loop with the literal tests inlined.  Neither may change
the search: ``ScanSolver`` keeps the linear decision scan and the
method-call propagation loop they replaced, and must agree with ``Solver``
on every verdict, model and effort counter after every call.  The
``solver_stats`` pins at the bottom hold the engines' counts at the values
the scan-based kernel produced.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.circuits import delay_line_pair, onehot_chain_pair, row_by_name
from repro.errors import ResourceBudgetExceeded
from repro.sat.solver import FALSE, TRUE, UNASSIGNED, Solver

NUM_VARS = 12


class ScanSolver(Solver):
    """Reference kernel: scan every variable per decision, and test and
    assign literals through ``_lit_value`` and ``_enqueue``."""

    def _pick_branch(self):
        best = None
        best_act = -1.0
        for var in range(self.num_vars):
            if self.assign[var] == UNASSIGNED and self.activity[var] > best_act:
                best = var
                best_act = self.activity[var]
        if best is None:
            return None
        return 2 * best + (0 if self.saved_phase[best] else 1)

    def _propagate(self):
        head = self._qhead
        while head < len(self.trail):
            lit = self.trail[head]
            head += 1
            self.propagations += 1
            false_lit = lit ^ 1
            watching = self.watches[lit]
            self.watches[lit] = []
            i = 0
            while i < len(watching):
                clause = watching[i]
                i += 1
                # Make sure the false literal is at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) == TRUE:
                    self.watches[lit].append(clause)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches[clause[1] ^ 1].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                self.watches[lit].append(clause)
                if not self._enqueue(first, clause):
                    # Conflict: restore remaining watchers and report.
                    self.watches[lit].extend(watching[i:])
                    self._qhead = len(self.trail)
                    return clause
            self._qhead = head
        self._qhead = head
        return None


def snapshot(solver, verdict):
    return verdict, solver.model(), solver.stats(), solver.learned


def assert_same(kernel, reference, call):
    """Apply ``call`` to both solvers; every observable must agree."""
    outcomes = []
    for solver in (kernel, reference):
        try:
            outcomes.append(snapshot(solver, call(solver)))
        except ResourceBudgetExceeded as exc:
            outcomes.append(snapshot(solver, str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0]


def random_3sat(rng, num_vars, num_clauses):
    return [[v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, num_vars + 1), 3)]
            for _ in range(num_clauses)]


literals = st.integers(1, NUM_VARS).flatmap(lambda v: st.sampled_from([v, -v]))
clauses = st.lists(literals, min_size=1, max_size=4)
calls = st.one_of(
    st.tuples(st.just("add"), clauses),
    st.tuples(st.just("solve"), st.lists(literals, max_size=3),
              st.sampled_from([None, 0, 1, 5])),
    st.tuples(st.just("simplify")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(clauses, max_size=40), st.lists(calls, max_size=25))
def test_interleaved_calls_match_scan_reference(base, script):
    kernel, reference = Solver(), ScanSolver()
    for clause in base:
        assert_same(kernel, reference, lambda s: s.add_clause(clause))
    for call in script:
        if call[0] == "add":
            assert_same(kernel, reference,
                        lambda s: s.add_clause(call[1]))
        elif call[0] == "solve":
            assert_same(kernel, reference, lambda s: s.solve(
                assumptions=call[1], conflict_budget=call[2]))
        else:
            assert_same(kernel, reference, lambda s: s.simplify())


@pytest.mark.parametrize("seed", range(4))
def test_hard_random_3sat_matches_scan_reference(seed):
    """Near the 3-SAT threshold: restarts, learned-clause reduction and
    queries under changing assumptions, on both kernels."""
    rng = random.Random(seed)
    kernel, reference = Solver(), ScanSolver()
    for solver in (kernel, reference):
        solver.max_learned = 40
    for clause in random_3sat(rng, 120, 511):
        assert_same(kernel, reference, lambda s: s.add_clause(clause))
    for _ in range(6):
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, 121), 2)]
        assert_same(kernel, reference,
                    lambda s: s.solve(assumptions=assumptions))
    assert kernel.restarts > 0


def test_activity_rescale_matches_scan_reference():
    """Bumps past 1e100 rescale every activity; the heap is rebuilt."""
    rng = random.Random(7)
    kernel, reference = Solver(), ScanSolver()
    for solver in (kernel, reference):
        solver.var_inc = 1e99
    for clause in random_3sat(rng, 100, 426):
        assert_same(kernel, reference, lambda s: s.add_clause(clause))
    for _ in range(3):
        assert_same(kernel, reference, lambda s: s.solve())
    assert kernel.var_inc < 1e90  # at least one rescale ran


class RaiseOnce:
    """A budget whose ``check`` raises at its first call only."""

    def __init__(self):
        self.calls = 0

    def check(self):
        self.calls += 1
        if self.calls == 1:
            raise ResourceBudgetExceeded("cancelled")


def test_budget_raise_between_pick_and_assignment_loses_no_variable():
    """The 256th decision polls the budget after the pick and before the
    assignment; the raise must leave that variable eligible, or the
    re-solve would stop with it unassigned."""
    kernel, reference = Solver(RaiseOnce()), ScanSolver(RaiseOnce())
    assert_same(kernel, reference, lambda s: s.ensure_vars(400))
    assert assert_same(kernel, reference, lambda s: s.solve()) == "cancelled"
    assert assert_same(kernel, reference, lambda s: s.solve()) is True
    assert len(kernel.model()) == kernel.num_vars == 400


# -- the engines' counts -------------------------------------------------------

#: job -> (sat_queries, conflicts, decisions, propagations) of
#: ``details["solver_stats"]``.
ENGINE_COUNTS = {
    "sat_sweep-s208": (1095, 527, 892, 33427),
    "sat_sweep-s298": (1316, 678, 1187, 45010),
    "k_induction-onehot_chain16": (11, 63, 666, 8053),
    "fraig_sweep-s208": (3672, 606, 825, 197160),
    "bmc-delay100": (100, 0, 800, 2110),
}

ENGINE_JOBS = {
    "sat_sweep-s208": lambda: repro.verify(
        *row_by_name("s208").pair(), method="sat_sweep"),
    "sat_sweep-s298": lambda: repro.verify(
        *row_by_name("s298").pair(), method="sat_sweep"),
    "k_induction-onehot_chain16": lambda: repro.verify(
        *onehot_chain_pair(16), method="k_induction", max_depth=32),
    "fraig_sweep-s208": lambda: repro.verify(
        *row_by_name("s208").pair(), method="fraig_sweep"),
    "bmc-delay100": lambda: repro.verify(
        *delay_line_pair(100), method="bmc", max_depth=100),
}


@pytest.mark.parametrize("job", sorted(ENGINE_COUNTS))
def test_engine_solver_counts(job):
    stats = ENGINE_JOBS[job]().details["solver_stats"]
    assert (stats["sat_queries"], stats["conflicts"], stats["decisions"],
            stats["propagations"]) == ENGINE_COUNTS[job]
