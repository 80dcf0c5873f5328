"""The SAT kernel's search is pinned, call by call and across commits.

``Solver`` takes its decisions from a lazily invalidated activity heap and
propagates in one loop with the literal tests inlined.  Neither may change
the search: ``ScanSolver`` keeps the linear decision scan and the
method-call propagation loop they replaced, and must agree with ``Solver``
on every verdict, model and effort counter after every call.  The
``solver_stats`` pins at the bottom hold the engines' counts at the values
the scan-based kernel produces, which a test re-derives by running each
engine on ``ScanSolver``.  The assumption cores of ``failed_assumptions``
are checked in between: each must refute the clauses on its own.  The
scripts pass guard lists too, and the guard-level cases after them pin
what placing every guard on one decision level must keep: the verdict of
``solve(assumptions=G + A)`` and a core that refutes on its own.  After
every call of the random scripts, the value array must be consistent: a
variable's two literals both unassigned or opposite, the trail all true.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.circuits import delay_line_pair, onehot_chain_pair, row_by_name
from repro.core import bmc, satbackend
from repro.errors import ResourceBudgetExceeded, SatError
from repro.induction import engine as induction_engine
from repro.sat import solver as solver_module
from repro.sat.solver import FALSE, TRUE, UNASSIGNED, Solver

NUM_VARS = 12


class ScanSolver(Solver):
    """Reference kernel: scan every variable per decision, and test and
    assign literals through ``_lit_value`` and ``_enqueue``."""

    def _pick_branch(self):
        best = None
        best_act = -1.0
        for var in range(self.num_vars):
            if self.vals[2 * var] == UNASSIGNED and self.activity[var] > best_act:
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


def assert_values_consistent(solver):
    """The value array holds each variable's two literals both unassigned
    or opposite, and every literal on the trail is true."""
    vals = solver.vals
    assert len(vals) == 2 * solver.num_vars
    for var in range(solver.num_vars):
        pair = (vals[2 * var], vals[2 * var + 1])
        assert pair in ((UNASSIGNED, UNASSIGNED), (TRUE, FALSE),
                        (FALSE, TRUE)), (var, pair)
    assert all(vals[lit] == TRUE for lit in solver.trail)


def assert_same(kernel, reference, call):
    """Apply ``call`` to both solvers; every observable must agree."""
    outcomes = []
    for solver in (kernel, reference):
        try:
            outcomes.append(snapshot(solver, call(solver)))
        except ResourceBudgetExceeded as exc:
            outcomes.append(snapshot(solver, str(exc)))
        assert_values_consistent(solver)
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0]


def random_3sat(rng, num_vars, num_clauses):
    return [[v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, num_vars + 1), 3)]
            for _ in range(num_clauses)]


literals = st.integers(1, NUM_VARS).flatmap(lambda v: st.sampled_from([v, -v]))
clauses = st.lists(literals, min_size=1, max_size=4)
#: Guard lists: none, one of a few that recur (so a later call finds its
#: guard level standing), or a fresh one.
guard_lists = st.one_of(st.none(), st.sampled_from([[1, 2], [-3, 4, 5]]),
                        st.lists(literals, max_size=4))
calls = st.one_of(
    st.tuples(st.just("add"), clauses),
    st.tuples(st.just("solve"), st.lists(literals, max_size=3),
              st.sampled_from([None, 0, 1, 5]), guard_lists),
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
                assumptions=call[1], conflict_budget=call[2],
                guards=call[3]))
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


# -- assumption cores ----------------------------------------------------------


def assert_core_refutes(clauses, assumptions, core):
    """``core`` is drawn from ``assumptions`` and refutes ``clauses`` on a
    fresh solver."""
    assert core <= set(assumptions)
    fresh = Solver()
    for clause in clauses:
        fresh.add_clause(clause)
    assert fresh.solve(assumptions=sorted(core)) is False


@settings(max_examples=150, deadline=None)
@given(st.lists(clauses, max_size=40), st.lists(calls, max_size=25))
def test_failed_assumptions_refute_on_their_own(base, script):
    """On every UNSAT answer of an interleaved script, the core is a subset
    of the assumptions and is UNSAT by itself."""
    solver = Solver()
    added = []
    for clause in base:
        solver.add_clause(clause)
        added.append(clause)
    for call in script:
        if call[0] == "add":
            solver.add_clause(call[1])
            added.append(call[1])
        elif call[0] == "solve":
            if solver.solve(assumptions=call[1], conflict_budget=call[2],
                            guards=call[3]) is False:
                assert_core_refutes(added, (call[3] or []) + call[1],
                                    solver.failed_assumptions())
        else:
            solver.simplify()
        assert_values_consistent(solver)


@pytest.mark.parametrize("seed", range(4))
def test_failed_assumptions_after_learning(seed):
    """Cores through learned-clause reasons: random 3-SAT under long,
    changing assumption lists that share prefixes."""
    rng = random.Random(seed)
    formula = random_3sat(rng, 60, 230)
    solver = Solver()
    for clause in formula:
        solver.add_clause(clause)
    prefix = [v if rng.random() < 0.5 else -v
              for v in rng.sample(range(1, 61), 6)]
    refuted = 0
    for _ in range(40):
        tail = [v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, 61), 4)]
        assumptions = prefix[:rng.randint(0, 6)] + tail
        if solver.solve(assumptions=assumptions) is False:
            refuted += 1
            assert_core_refutes(formula, assumptions,
                                solver.failed_assumptions())
    assert refuted and solver.conflicts


def test_core_keeps_only_the_cone_of_the_failed_assumption():
    solver = Solver()
    solver.add_clause([-1, 2])   # 1 -> 2
    solver.add_clause([-2, 3])   # 2 -> 3
    solver.ensure_vars(5)
    assert solver.solve(assumptions=[4, 1, 5, -3]) is False
    assert solver.failed_assumptions() == {1, -3}


def test_core_of_an_assumption_refuted_at_the_root():
    solver = Solver()
    solver.add_clause([-1])
    solver.add_clause([2, 3])
    assert solver.solve(assumptions=[2, 1]) is False
    assert solver.failed_assumptions() == {1}


def test_core_of_contradictory_assumptions():
    solver = Solver()
    solver.ensure_vars(2)
    assert solver.solve(assumptions=[2, 1, -2]) is False
    assert solver.failed_assumptions() == {2, -2}


def test_core_is_empty_when_the_base_formula_is_unsat():
    solver = Solver()
    solver.add_clause([1, 2])
    solver.add_clause([-1, 2])
    solver.add_clause([1, -2])
    solver.add_clause([-1, -2])
    assert solver.solve(assumptions=[1]) is False
    assert solver.failed_assumptions() == set()


def test_core_expires_with_the_answer_it_explains():
    solver = Solver()
    solver.add_clause([-1, 2])
    assert solver.solve(assumptions=[1, -2]) is False
    assert solver.failed_assumptions() == {1, -2}
    solver.add_clause([3, 4])
    with pytest.raises(SatError):
        solver.failed_assumptions()
    assert solver.solve(assumptions=[1]) is True
    with pytest.raises(SatError):
        solver.failed_assumptions()


# -- the guard level -----------------------------------------------------------


def guarded_3sat(rng, num_vars, num_clauses, guards):
    """Random 3-SAT in which about half the clauses carry one of
    ``guards`` as an activation literal."""
    formula = random_3sat(rng, num_vars, num_clauses)
    return [clause + [-rng.choice(guards)] if rng.random() < 0.5 else clause
            for clause in formula]


def assert_guarded_answer(solver, formula, guards, assumptions):
    """``solver`` has just answered ``solve(guards=..., assumptions=...)``;
    a fresh solver given ``guards + assumptions`` agrees, a model sets
    every guard, and a core refutes on its own."""
    verdict = solver.solve(assumptions=assumptions, guards=guards)
    fresh = Solver()
    for clause in formula:
        fresh.add_clause(clause)
    assert verdict == fresh.solve(assumptions=guards + assumptions)
    if verdict:
        assert all(solver.value(g) is True for g in guards)
    else:
        assert_core_refutes(formula, guards + assumptions,
                            solver.failed_assumptions())
    return verdict


@pytest.mark.parametrize("seed", range(4))
def test_guard_lists_that_change_or_vanish_match_fresh_solves(seed):
    """Queries under one guard list, the same list again, the list mutated
    in place, another list, and no list at all; both kernels agree on
    every call and each verdict is a fresh solver's."""
    rng = random.Random(seed)
    guards = list(range(41, 47))
    formula = guarded_3sat(rng, 40, 170, guards)
    kernel, reference = Solver(), ScanSolver()
    for clause in formula:
        assert_same(kernel, reference, lambda s: s.add_clause(clause))
    current = guards[:3]
    verdicts = []
    for step in range(24):
        if step % 6 == 2:
            current.append(guards[3 + step % 3])   # in place
        elif step % 6 == 4:
            current = rng.sample(guards, rng.randint(1, 6))
        elif step % 6 == 5:
            current = []
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, 41), 3)]
        verdicts.append(assert_same(
            kernel, reference,
            lambda s: assert_guarded_answer(s, formula, current,
                                            assumptions)))
    assert True in verdicts and False in verdicts


def test_restarts_place_the_guard_level_again():
    """Near the 3-SAT threshold under guards: restarts drop to level 0
    mid-query, and every answer must still hold the guards."""
    rng = random.Random(11)
    guards = [121, 122, 123]
    formula = guarded_3sat(rng, 120, 520, guards)
    kernel, reference = Solver(), ScanSolver()
    for solver in (kernel, reference):
        solver.max_learned = 40
    for clause in formula:
        assert_same(kernel, reference, lambda s: s.add_clause(clause))
    for _ in range(6):
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, 121), 2)]
        assert_same(kernel, reference, lambda s: assert_guarded_answer(
            s, formula, guards, assumptions))
    assert kernel.restarts > 0


def test_a_learned_unit_places_the_guard_level_again():
    """The first search decision, -1, refutes itself: the learned unit 1
    backjumps to level 0, below the guard level, and the guards must be
    placed again before the answer."""
    formula = [[1, 2], [1, -2], [-5, 3], [-6, -4]]
    for kernel in (Solver(), ScanSolver()):
        for clause in formula:
            kernel.add_clause(clause)
        assert kernel.solve(guards=[5, 6]) is True
        assert kernel.conflicts == 1 and kernel.level[0] == 0
        assert [kernel.value(v) for v in (1, 3, 4, 5, 6)] == [
            True, True, False, True, True]
        assert kernel.trail[kernel.trail_lim[0]:][:2] == [8, 10]


@pytest.mark.parametrize("formula, guards, core", [
    ([[-2], [1, 3]], [1, 2], {2}),
    ([[1, 3]], [1, 3, -1], {1, -1}),
    ([[-1, 3], [-2, -3], [4, 5]], [1, 4, 2], {1, 2}),
], ids=["false-at-the-root", "opposite-guards", "guard-level-conflict"])
def test_guards_that_refute_the_formula_answer_false(formula, guards, core):
    solver = Solver()
    for clause in formula:
        solver.add_clause(clause)
    for _ in range(2):   # the second call must not trust the failed level
        assert solver.solve(guards=guards, assumptions=[5]) is False
        assert solver.failed_assumptions() == core
        assert solver.ok
    assert solver.solve(assumptions=[5]) is True


def test_the_solver_keeps_fewer_than_30_attributes():
    """From 30 instance attributes on, CPython 3.11 and 3.12 stop keeping
    an object's attributes inline; ``bmc`` on ``delay_line_pair(200)`` ran
    8% slower with three more attributes than the 27 the solver had."""
    assert len(vars(Solver())) < 30


def test_a_zero_guard_is_rejected_and_the_solver_stays_usable():
    solver = Solver()
    solver.add_clause([-1, 2])
    with pytest.raises(SatError):
        solver.solve(guards=[1, 0])
    assert solver.solve(guards=[1], assumptions=[-2]) is False
    assert solver.failed_assumptions() == {1, -2}


def test_guards_refuted_only_after_search_answer_false():
    """Pigeonhole PHP(4, 3) switched on by guard 13: the refutation needs
    search above the guard level and ends in a conflict on it."""
    formula = []
    for pigeon in range(4):
        formula.append([3 * pigeon + hole + 1 for hole in range(3)] + [-13])
    for hole in range(3):
        for i in range(4):
            for j in range(i + 1, 4):
                formula.append([-(3 * i + hole + 1), -(3 * j + hole + 1)])
    for kernel in (Solver(), ScanSolver()):
        for clause in formula:
            kernel.add_clause(clause)
        kernel.ensure_vars(14)
        for _ in range(2):
            assert kernel.solve(guards=[14, 13]) is False
            assert kernel.failed_assumptions() == {13}
        assert kernel.conflicts > 1 and kernel.ok
        assert kernel.solve(guards=[14]) is True


# -- the engines' counts -------------------------------------------------------

#: job -> (sat_queries, conflicts, decisions, propagations) of
#: ``details["solver_stats"]``.
ENGINE_COUNTS = {
    "sat_sweep-s208": (466, 153, 435, 10967),
    "sat_sweep-s298": (508, 180, 350, 12243),
    "k_induction-onehot_chain16": (11, 63, 666, 4074),
    "fraig_sweep-s208": (1312, 176, 459, 37741),
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


def engine_counts(job):
    stats = ENGINE_JOBS[job]().details["solver_stats"]
    return (stats["sat_queries"], stats["conflicts"], stats["decisions"],
            stats["propagations"])


@pytest.mark.parametrize("job", sorted(ENGINE_COUNTS))
def test_engine_solver_counts(job):
    assert engine_counts(job) == ENGINE_COUNTS[job]


@pytest.mark.parametrize("job", sorted(ENGINE_COUNTS))
def test_engine_counts_are_the_scan_kernels(job):
    """Every engine, run on ``ScanSolver``, reproduces its pin."""
    built = []

    class Scan(ScanSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    # ``_Prover`` imports ``Solver`` from its module at construction.
    with mock.patch.object(solver_module, "Solver", Scan), \
            mock.patch.object(satbackend, "Solver", Scan), \
            mock.patch.object(bmc, "Solver", Scan), \
            mock.patch.object(induction_engine, "Solver", Scan):
        assert engine_counts(job) == ENGINE_COUNTS[job]
    assert built
