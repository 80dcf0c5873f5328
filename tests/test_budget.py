"""One ``Budget`` per run: ``repro.verify`` stops every method at its time
limit or on cancellation, down to single SAT and BDD operations.

The two rows are the paper's unfinished Table-1 entries (s3384, s6669),
whose engines spend seconds inside single ``Solver.solve`` and
``BddManager`` calls.  Each run is interrupted by ``SIGALRM`` at its bound,
so a run that ignores its budget fails the test instead of hanging it.
"""

import itertools
import multiprocessing
import signal
import time
from unittest import mock

import pytest

import repro
from repro.bdd import BddManager, reorder, sift
from repro.budget import Budget
from repro.circuits import row_by_name
from repro.errors import ResourceBudgetExceeded, VerificationError
from repro.sat.solver import Solver

ROWS = ("s3384", "s6669")

#: The engine budget of ``test_time_limit_stops_every_method``.  It is
#: short enough that no method decides either row inside it: ``sat_sweep``
#: and ``sweep_induct`` prove both rows, in about 2-5 s.
TIME_LIMIT = 0.5

#: Wall-clock seconds a ``TIME_LIMIT`` call may take in all: the limit
#: plus the longest stretch between two polls, which coverage tracing
#: widens.
BOUND = 1.5


# ------------------------------------------------------------------ Budget


def test_unlimited_budget_never_runs_out():
    Budget().check()


def test_time_budget_raises():
    with pytest.raises(ResourceBudgetExceeded, match="time budget exhausted"):
        Budget(0.0).check()


def test_cancel_check_raises():
    calls = []

    def cancel():
        calls.append(1)
        return len(calls) >= 3

    budget = Budget(time_limit=60, cancel_check=cancel)
    budget.check()
    budget.check()
    with pytest.raises(ResourceBudgetExceeded, match="cancelled"):
        budget.check()


# --------------------------------------------------- inside the long calls


def pigeonhole(holes):
    """``holes + 1`` pigeons in ``holes`` holes: UNSAT, and hard for CDCL."""

    def var(pigeon, hole):
        return pigeon * holes + hole + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(holes + 1)]
    for h in range(holes):
        for p, q in itertools.combinations(range(holes + 1), 2):
            clauses.append([-var(p, h), -var(q, h)])
    return clauses


def test_solver_raises_from_the_root_and_stays_reusable():
    stop = [True]
    solver = Solver(Budget(cancel_check=lambda: stop[0]))
    fresh = Solver()
    for clause in pigeonhole(6):
        solver.add_clause(clause)
        fresh.add_clause(clause)
    # A spent budget must raise: a ``None`` verdict would read as "not
    # distinguished" to the correspondence engines.
    with pytest.raises(ResourceBudgetExceeded, match="cancelled"):
        solver.solve()
    assert solver.conflicts + solver.decisions > 0  # it was mid-search
    assert solver.trail_lim == []  # back at decision level 0
    stop[0] = False
    assert solver.solve() is fresh.solve() is False


def test_bdd_manager_raises_inside_one_operation():
    """``x0 y0 + ... + x13 y13`` with every x above every y needs 2^14
    nodes; its two halves need 2^7 each, so the one OR that joins them
    creates far more nodes than the manager's poll interval."""
    stop = [False]
    mgr = BddManager(budget=Budget(cancel_check=lambda: stop[0]))
    xs = [mgr.add_var("x{}".format(i)) for i in range(14)]
    ys = [mgr.add_var("y{}".format(i)) for i in range(14)]
    terms = [mgr.apply_and(x, y) for x, y in zip(xs, ys)]
    low, high = mgr.or_many(terms[:7]), mgr.or_many(terms[7:])
    before = mgr.created_nodes
    stop[0] = True
    with pytest.raises(ResourceBudgetExceeded, match="cancelled"):
        mgr.apply_or(low, high)
    assert mgr.created_nodes - before <= 4096
    stop[0] = False  # the manager stays usable and finishes the job
    assert mgr.apply_or(low, high) == mgr.or_many(terms)
    assert mgr.created_nodes - before > 4096


def test_sift_polls_before_every_swap():
    """One variable's walk through every level can take seconds, so a
    cancel between two swaps must stop ``sift`` at the next one.  The
    interleaved worst case ``x0 y0 + ... + x3 y3`` (every x above every y)
    makes sifting move variables."""
    swaps = []
    cancel_after = [1]
    mgr = BddManager(budget=Budget(
        cancel_check=lambda: len(swaps) >= cancel_after[0]))
    xs = mgr.add_vars(["x{}".format(i) for i in range(4)])
    ys = mgr.add_vars(["y{}".format(i) for i in range(4)])
    f = mgr.or_many(mgr.apply_and(x, y) for x, y in zip(xs, ys))
    roots = [f] + xs + ys
    for edge in roots:
        mgr.register_root(edge)
    envs = [{var: bool(bits >> var & 1) for var in range(8)}
            for bits in range(256)]
    before = [[mgr.evaluate(edge, env) for env in envs] for edge in roots]
    swap = reorder._Sifter.swap

    def counted(sifter, level):
        swap(sifter, level)
        swaps.append(level)

    with mock.patch.object(reorder._Sifter, "swap", counted):
        with pytest.raises(ResourceBudgetExceeded, match="cancelled"):
            sift(mgr)
        assert len(swaps) <= 2  # the cancel plus at most one more swap
        mgr.check_invariants()
        assert [[mgr.evaluate(edge, env) for env in envs]
                for edge in roots] == before
        cancel_after[0] = float("inf")
        size, after = sift(mgr)
    assert after < size
    assert len(swaps) > 2
    mgr.check_invariants()
    assert [[mgr.evaluate(edge, env) for env in envs]
            for edge in roots] == before


# ------------------------------------------------------ every method, end to end


@pytest.fixture(scope="module")
def pairs():
    return {row: row_by_name(row).pair() for row in ROWS}


class _Overran(BaseException):
    """Raised into a run still going at its bound; not an ``Exception``, so
    no engine handler can swallow it."""


def verify_within(bound, spec, impl, **options):
    """``repro.verify``, failing the test if it runs past ``bound`` s."""

    def overran(signum, frame):
        raise _Overran()

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, bound)
    try:
        return repro.verify(spec, impl, **options)
    except _Overran:
        pass  # fail below, without the interrupted engine's deep traceback
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pytest.fail("still running {} s into the call".format(bound))


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("method", repro.METHODS)
def test_time_limit_stops_every_method(pairs, method, row):
    spec, impl = pairs[row]
    if method == "explicit":
        with pytest.raises(VerificationError, match="limited to 12 inputs"):
            verify_within(BOUND, spec, impl, method=method,
                          time_limit=TIME_LIMIT)
    else:
        result = verify_within(BOUND, spec, impl, method=method,
                               time_limit=TIME_LIMIT)
        assert result.inconclusive
        assert result.details["aborted"] == "time budget exhausted"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "method", [m for m in repro.METHODS if m != "explicit"])
def test_cancel_stops_every_method(pairs, method):
    spec, impl = pairs["s6669"]
    start = time.monotonic()
    result = verify_within(
        1.5, spec, impl, method=method,
        cancel_check=lambda: time.monotonic() - start > 0.5)
    assert result.inconclusive
    assert result.details["aborted"] == "cancelled"
