"""CDCL solver tests: unit cases, assumptions, and random CNF vs. brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SatError
from repro.sat import Cnf, Solver, luby


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v + 1: bits[v] for v in range(num_vars)}
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause)
            for clause in clauses
        ):
            return assignment
    return None


def check_model(model, clauses):
    for clause in clauses:
        assert any(model.get(abs(l), False) == (l > 0) for l in clause), clause


def test_trivial_sat():
    s = Solver()
    s.new_var()
    assert s.add_clause([1])
    assert s.solve() is True
    assert s.model()[1] is True


def test_trivial_unsat():
    s = Solver()
    s.new_var()
    s.add_clause([1])
    assert s.add_clause([-1]) is False or s.solve() is False


def test_unit_propagation_chain():
    s = Solver()
    s.ensure_vars(4)
    s.add_clause([1])
    s.add_clause([-1, 2])
    s.add_clause([-2, 3])
    s.add_clause([-3, 4])
    assert s.solve() is True
    model = s.model()
    assert all(model[v] for v in (1, 2, 3, 4))


def test_simple_conflict_learning():
    s = Solver()
    s.ensure_vars(3)
    # (x1 | x2) & (x1 | -x2) & (-x1 | x3) & (-x1 | -x3) is UNSAT.
    s.add_clause([1, 2])
    s.add_clause([1, -2])
    s.add_clause([-1, 3])
    s.add_clause([-1, -3])
    assert s.solve() is False


def test_tautology_and_duplicates():
    s = Solver()
    s.ensure_vars(2)
    assert s.add_clause([1, -1])        # tautology: dropped
    assert s.add_clause([1, 1, 2])      # duplicate literal collapsed
    assert s.solve() is True


def test_bad_literal_rejected():
    s = Solver()
    with pytest.raises(SatError):
        s.add_clause([0])
    with pytest.raises(SatError):
        s.add_clause(["x"])


def test_assumptions_sat_unsat():
    s = Solver()
    s.ensure_vars(3)
    s.add_clause([-1, 2])
    s.add_clause([-2, 3])
    assert s.solve(assumptions=[1]) is True
    assert s.model()[3] is True
    assert s.solve(assumptions=[1, -3]) is False
    # The solver stays usable after an UNSAT-under-assumptions answer.
    assert s.solve(assumptions=[1]) is True
    assert s.solve() is True


def test_incremental_clause_addition():
    s = Solver()
    s.ensure_vars(2)
    s.add_clause([1, 2])
    assert s.solve(assumptions=[-1]) is True
    assert s.model()[2] is True
    s.add_clause([-2])
    assert s.solve(assumptions=[-1]) is False
    assert s.solve() is True
    assert s.model()[1] is True


def test_conflicting_assumptions():
    s = Solver()
    s.ensure_vars(2)
    s.add_clause([1, 2])
    assert s.solve(assumptions=[-1, 1]) is False


def test_pigeonhole_unsat():
    # 4 pigeons, 3 holes: var p(i,h) = 3*i + h + 1.
    s = Solver()
    pigeons, holes = 4, 3
    s.ensure_vars(pigeons * holes)

    def var(i, h):
        return 3 * i + h + 1

    for i in range(pigeons):
        s.add_clause([var(i, h) for h in range(holes)])
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                s.add_clause([-var(i, h), -var(j, h)])
    assert s.solve() is False


def test_php_3_into_3_sat():
    s = Solver()
    s.ensure_vars(9)

    def var(i, h):
        return 3 * i + h + 1

    for i in range(3):
        s.add_clause([var(i, h) for h in range(3)])
    for h in range(3):
        for i in range(3):
            for j in range(i + 1, 3):
                s.add_clause([-var(i, h), -var(j, h)])
    assert s.solve() is True
    model = s.model()
    used = [h for i in range(3) for h in range(3) if model[var(i, h)]]
    assert len(set(used)) == 3


def test_conflict_budget_returns_none():
    # A hard UNSAT instance with a conflict budget of 1 must give up.
    s = Solver()
    pigeons, holes = 6, 5
    s.ensure_vars(pigeons * holes)

    def var(i, h):
        return holes * i + h + 1

    for i in range(pigeons):
        s.add_clause([var(i, h) for h in range(holes)])
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                s.add_clause([-var(i, h), -var(j, h)])
    assert s.solve(conflict_budget=1) is None
    # With no budget it still finishes.
    assert s.solve() is False


def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8
    ]


def random_cnf(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_cnf_matches_brute_force(seed):
    rng = random.Random(seed)
    num_vars = rng.randint(1, 8)
    num_clauses = rng.randint(1, 24)
    clauses = random_cnf(rng, num_vars, num_clauses)
    s = Solver()
    s.ensure_vars(num_vars)
    ok = True
    for clause in clauses:
        ok = s.add_clause(clause) and ok
    result = s.solve() if ok else False
    expected = brute_force_sat(num_vars, clauses)
    assert result == (expected is not None)
    if result:
        model = s.model()
        full_model = {v: model.get(v, False) for v in range(1, num_vars + 1)}
        check_model(full_model, clauses)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_assumptions_match_brute_force(seed):
    rng = random.Random(seed)
    num_vars = rng.randint(2, 7)
    clauses = random_cnf(rng, num_vars, rng.randint(1, 18))
    assumed = rng.sample(range(1, num_vars + 1), rng.randint(1, 2))
    assumptions = [v if rng.random() < 0.5 else -v for v in assumed]
    s = Solver()
    s.ensure_vars(num_vars)
    ok = True
    for clause in clauses:
        ok = s.add_clause(clause) and ok
    result = s.solve(assumptions=assumptions) if ok else False
    expected = brute_force_sat(
        num_vars, clauses + [[lit] for lit in assumptions]
    )
    assert result == (expected is not None)
    # Solver must remain consistent for a follow-up unassumed query.
    base = s.solve() if ok else False
    assert base == (brute_force_sat(num_vars, clauses) is not None)


def test_statistics_counters():
    s = Solver()
    s.ensure_vars(3)
    s.add_clause([1, 2, 3])
    s.add_clause([-1, -2])
    s.solve()
    assert s.propagations >= 0
    assert s.decisions >= 1


def test_cnf_container_and_dimacs():
    cnf = Cnf()
    a, b = cnf.new_vars(2)
    cnf.add_clause([a, -b])
    cnf.add_clause([b])
    text = cnf.to_dimacs()
    assert text.startswith("p cnf 2 2")
    again = Cnf.from_dimacs(text)
    assert again.num_vars == 2
    assert again.clauses == [[1, -2], [2]]
    s = Solver()
    assert s.add_cnf(again)
    assert s.solve() is True
    assert s.model()[2] is True


def test_cnf_errors():
    cnf = Cnf()
    with pytest.raises(SatError):
        cnf.add_clause([1])  # variable not allocated
    cnf.new_var()
    with pytest.raises(SatError):
        cnf.add_clause([])
    with pytest.raises(SatError):
        Cnf.from_dimacs("1 2 0\n")
    with pytest.raises(SatError):
        Cnf.from_dimacs("p qbf 1 1\n1 0\n")


def small_solver():
    """Two variables, ``[1, 2]`` and ``[-2]``: the one model is 1, -2."""
    s = Solver()
    s.add_clause([1, 2])
    s.add_clause([-2])
    return s


def assert_still_usable(s):
    assert s.solve(assumptions=[-1]) is False
    assert s.failed_assumptions() == {-1}
    assert s.solve() is True
    assert s.model() == {1: True, 2: False}
    assert (s.value(1), s.value(2)) == (True, False)


@pytest.mark.parametrize("var", [0, -1, -2, 3, True, 1.0, "1"], ids=[
    "zero", "minus-one", "minus-two", "past-num-vars", "bool", "float",
    "str"])
def test_value_rejects_what_is_not_a_variable(var):
    """Values are kept per literal, so ``value(0)`` and ``value(-1)`` would
    read some other variable's entry through a negative index."""
    s = small_solver()
    assert s.solve() is True
    with pytest.raises(SatError):
        s.value(var)
    assert_still_usable(s)


@pytest.mark.parametrize("call", [
    lambda s: s.add_clause([True]),
    lambda s: s.add_clause([1, False]),
    lambda s: s.add_clause([2.0]),
    lambda s: s.solve(assumptions=[True]),
    lambda s: s.solve(assumptions=[-1, False]),
    lambda s: s.solve(guards=[True]),
    lambda s: s.solve(guards=[1, "2"]),
], ids=["clause-true", "clause-false", "clause-float", "assumption-true",
        "assumption-false", "guard-true", "guard-str"])
def test_a_bool_or_other_non_int_literal_is_rejected(call):
    """``True == 1``, but a bool is no literal."""
    s = small_solver()
    with pytest.raises(SatError):
        call(s)
    assert_still_usable(s)


def test_cnf_rejects_a_bool_literal():
    cnf = Cnf(2)
    for clause in ([True], [1, False], [0], [3], [-3], ["1"]):
        with pytest.raises(SatError):
            cnf.add_clause(clause)
    cnf.add_clause([1, -2])
    assert cnf.clauses == [[1, -2]]


def test_solve_rejects_a_zero_assumption_and_stays_usable():
    """``0`` is no literal: as ``add_clause`` does, ``solve`` raises
    instead of assuming some variable false."""
    s = Solver()
    s.add_clause([1, 2])
    s.add_clause([-2])
    for assumptions in ([0], [1, 0], [0, -1]):
        with pytest.raises(SatError):
            s.solve(assumptions=assumptions)
    assert s.solve(assumptions=[-1]) is False
    assert s.failed_assumptions() == {-1}
    assert s.solve() is True
    assert s.model() == {1: True, 2: False}
