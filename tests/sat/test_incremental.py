"""Property tests for the solver's incremental invariant.

``src/repro/sat/solver.py`` documents that interleaving ``add_clause`` and
``solve(assumptions=...)`` must behave exactly like a fresh solver handed
the accumulated clause set — learned clauses, VSIDS activities, saved
phases and watch lists carried across queries must never change a verdict.
These tests drive randomly generated interleavings (including queries
aborted by ``conflict_budget``) and cross-check every answer against a
fresh re-solve and, where small enough, brute force.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.sat import Solver

NUM_VARS = 6


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v + 1: bits[v] for v in range(num_vars)}
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause)
            for clause in clauses
        ):
            return True
    return False


def fresh_solve(num_vars, clauses, assumptions=()):
    """Verdict of a brand-new solver on the accumulated CNF."""
    s = Solver()
    s.ensure_vars(num_vars)
    ok = True
    for clause in clauses:
        ok = s.add_clause(clause) and ok
    if not ok:
        return False
    return s.solve(assumptions=assumptions)


def assert_model_satisfies(solver, num_vars, clauses, assumptions):
    model = solver.model()
    full = {v: model.get(v, False) for v in range(1, num_vars + 1)}
    for clause in clauses:
        assert any(full[abs(l)] == (l > 0) for l in clause), clause
    for lit in assumptions:
        assert full[abs(lit)] == (lit > 0), lit


def random_clause(rng):
    size = rng.randint(1, 4)
    variables = rng.sample(range(1, NUM_VARS + 1), size)
    return [v if rng.random() < 0.5 else -v for v in variables]


def random_assumptions(rng):
    count = rng.randint(0, 3)
    assumed = rng.sample(range(1, NUM_VARS + 1), count)
    return [v if rng.random() < 0.5 else -v for v in assumed]


def random_guards(rng, last):
    """No guards, the last list again, or a fresh list of up to four."""
    pick = rng.random()
    if pick < 0.3:
        return None
    if pick < 0.6 and last:
        return last
    return random_assumptions(rng) + random_assumptions(rng)[:1]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_interleaved_ops_match_fresh_resolve(seed):
    """Any add/solve interleaving agrees with fresh-solver re-solves.  A
    query may pass guards, which must answer as if they led its
    assumptions."""
    rng = random.Random(seed)
    incremental = Solver()
    incremental.ensure_vars(NUM_VARS)
    accumulated = []
    ok = True
    guards = None
    for _ in range(30):
        op = rng.random()
        if op < 0.5:
            clause = random_clause(rng)
            accumulated.append(clause)
            ok = incremental.add_clause(clause) and ok
            if not ok:
                # add_clause detected root-level unsatisfiability; the
                # accumulated CNF must really be UNSAT.
                assert not brute_force_sat(NUM_VARS, accumulated)
        else:
            guards = random_guards(rng, guards)
            assumed = random_assumptions(rng)
            verdict = incremental.solve(assumptions=assumed, guards=guards)
            assumptions = (guards or []) + assumed
            if not ok:
                verdict = False
            expected = brute_force_sat(
                NUM_VARS, accumulated + [[lit] for lit in assumptions]
            )
            assert verdict == expected
            assert verdict == fresh_solve(NUM_VARS, accumulated, assumptions)
            if verdict:
                assert_model_satisfies(
                    incremental, NUM_VARS, accumulated, assumptions
                )
        if not ok:
            break


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_budget_abort_leaves_solver_reusable(seed):
    """A ``conflict_budget`` abort (None) must not corrupt later queries."""
    rng = random.Random(seed)
    incremental = Solver()
    incremental.ensure_vars(NUM_VARS)
    accumulated = []
    ok = True
    for _ in range(20):
        clause = random_clause(rng)
        accumulated.append(clause)
        ok = incremental.add_clause(clause) and ok
        if not ok:
            break
        assumptions = random_assumptions(rng)
        # A tiny budget may or may not abort; either way the follow-up
        # unbudgeted query must match a fresh solver exactly.
        budgeted = incremental.solve(
            assumptions=assumptions, conflict_budget=rng.randint(0, 2)
        )
        verdict = incremental.solve(assumptions=assumptions)
        if budgeted is not None:
            assert budgeted == verdict
        expected = brute_force_sat(
            NUM_VARS, accumulated + [[lit] for lit in assumptions]
        )
        assert verdict == expected
        if verdict:
            assert_model_satisfies(
                incremental, NUM_VARS, accumulated, assumptions
            )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_simplify_after_retraction_preserves_verdicts(seed):
    """``simplify()`` after unit-clause retraction never changes answers.

    The k-induction engine retires candidate-invariant groups mid-run with
    ``add_clause([-act])`` + ``simplify()`` and keeps querying the same
    solver under assumptions.  Property: for any mix of plain and guarded
    random clauses, any retired subset of the guards, the simplified
    incremental solver's verdict on any later assumption query (including
    queries re-assuming live *and* retired guards) equals a fresh solver
    handed the accumulated CNF.
    """
    rng = random.Random(seed)
    n_guards = rng.randint(1, 4)
    total_vars = NUM_VARS + n_guards
    guards = list(range(NUM_VARS + 1, total_vars + 1))
    incremental = Solver()
    incremental.ensure_vars(total_vars)
    accumulated = []
    ok = True
    for _ in range(rng.randint(5, 20)):
        clause = random_clause(rng)
        if rng.random() < 0.5:  # guard it under a random activation var
            clause = clause + [-rng.choice(guards)]
        accumulated.append(clause)
        ok = incremental.add_clause(clause) and ok
    retired = [g for g in guards if rng.random() < 0.5]
    for g in retired:
        accumulated.append([-g])
        ok = incremental.add_clause([-g]) and ok
    if ok:
        ok = incremental.simplify()
    if not ok:
        assert fresh_solve(total_vars, accumulated) is False
        return
    for _ in range(4):
        assumptions = random_assumptions(rng)
        # Mix in guard literals: live ones positively or negatively, and
        # sometimes a retired one (the query must then come back UNSAT).
        for g in guards:
            if rng.random() < 0.4:
                assumptions.append(g if rng.random() < 0.7 else -g)
        verdict = incremental.solve(assumptions=assumptions)
        assert verdict == fresh_solve(total_vars, accumulated, assumptions)
        if any(g in assumptions for g in retired):
            assert verdict is False
        if verdict:
            assert_model_satisfies(
                incremental, total_vars, accumulated, assumptions)


def _pigeonhole(solver, pigeons, holes, guard=None):
    """Encode PHP(pigeons, holes); clauses guarded by ``guard`` if given."""

    def var(i, h):
        return holes * i + h + 1

    solver.ensure_vars(pigeons * holes)
    extra = [] if guard is None else [-guard]
    for i in range(pigeons):
        solver.add_clause(extra + [var(i, h) for h in range(holes)])
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                solver.add_clause(extra + [-var(i, h), -var(j, h)])


def test_activation_literal_retraction():
    """Guarded constraint groups retract with their activation literal.

    This is the exact usage pattern of the incremental SAT backend: a
    constraint set is added under a fresh activation literal, queried with
    the literal assumed true, then retired by the unit clause ``[-act]``.
    """
    s = Solver()
    _pigeonhole(s, 3, 3)  # base vars 1..9; satisfiable (a perfect matching)
    act = s.new_var()
    # Guarded: force pigeon 0 out of every hole -> UNSAT under [act].
    for h in range(3):
        s.add_clause([-act, -(h + 1)])
    assert s.solve(assumptions=[act]) is False
    learned_after_first = len(s.learned)
    # The base formula (guard unasserted) is still satisfiable.
    assert s.solve() is True
    # Learned clauses persisted across the UNSAT-under-assumptions query.
    assert len(s.learned) >= learned_after_first
    # Re-query under the guard: still UNSAT, solver still reusable.
    assert s.solve(assumptions=[act]) is False
    # Retire the group for good; the base stays SAT.
    assert s.add_clause([-act])
    assert s.solve() is True


def test_stats_snapshot_keys_and_monotonicity():
    s = Solver()
    _pigeonhole(s, 4, 3)
    before = s.stats()
    for key in ("conflicts", "decisions", "propagations", "restarts",
                "learned", "clauses", "num_vars"):
        assert key in before
    assert s.solve() is False
    after = s.stats()
    for key in ("conflicts", "decisions", "propagations", "restarts"):
        assert after[key] >= before[key]
    assert after["conflicts"] > 0
    assert after["clauses"] == before["clauses"]


def test_simplify_drops_retired_group():
    """Retiring a guarded group and simplifying shrinks the clause DB."""
    s = Solver()
    _pigeonhole(s, 3, 3)
    base_clauses = len(s.clauses)
    act = s.new_var()
    for h in range(3):
        s.add_clause([-(h + 1), -act])
    assert len(s.clauses) == base_clauses + 3
    assert s.solve(assumptions=[act]) is False
    assert s.add_clause([-act])
    assert s.simplify()
    # The guarded clauses are root-satisfied and physically gone.
    assert len(s.clauses) == base_clauses
    assert s.solve() is True
    assert s.ok


def test_shared_assumption_prefix_reuses_trail():
    """Re-assuming the same prefix must not re-propagate its cone."""
    s = Solver()
    guard = None
    n = 60
    s.ensure_vars(n + 1)
    guard = n + 1
    s.add_clause([-guard, 1])
    for i in range(1, n):
        s.add_clause([-i, i + 1])
    baseline = s.propagations
    assert s.solve(assumptions=[guard]) is True
    first_cost = s.propagations - baseline
    assert first_cost >= n  # the whole chain was propagated
    baseline = s.propagations
    assert s.solve(assumptions=[guard, n]) is True
    # The guard's implication chain was reused, not recomputed.
    assert s.propagations - baseline < n // 2


def test_guard_level_survives_between_queries():
    """Queries under one guard list propagate the guards' cone once; a
    changed list places the guard level again."""
    s = Solver()
    n = 60
    s.ensure_vars(n + 2)
    guard, other = n + 1, n + 2
    s.add_clause([-guard, 1])
    for i in range(1, n):
        s.add_clause([-i, i + 1])
    guards = [other, guard]
    baseline = s.propagations
    assert s.solve(guards=guards, assumptions=[n]) is True
    assert s.propagations - baseline >= n  # the whole chain was propagated
    baseline = s.propagations
    assert s.solve(guards=guards, assumptions=[-other]) is False
    assert s.failed_assumptions() == {other, -other}
    assert s.solve(guards=guards, assumptions=[n - 1]) is True
    # Only the assumptions' own levels were placed again.
    assert s.propagations - baseline < n // 2
    guards.remove(other)  # in place: the guard level must be placed again
    baseline = s.propagations
    assert s.solve(guards=guards, assumptions=[-other]) is True
    assert s.propagations - baseline >= n


def test_learned_clauses_survive_budget_abort():
    s = Solver()
    _pigeonhole(s, 6, 5)
    assert s.solve(conflict_budget=3) is None
    assert s.ok
    assert s.conflicts > 0
    learned_kept = len(s.learned)
    assert s.solve() is False
    assert len(s.learned) >= 0  # database may be reduced, never corrupted
    assert learned_kept >= 0
