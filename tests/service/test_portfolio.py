"""Portfolio racing: first conclusive engine wins, losers are cancelled."""

import multiprocessing
import time

import pytest

from repro.service import (EventBus, register_method, run_portfolio,
                           unregister_method)
from repro.service import events as ev

from .helpers import magic_pair, stubborn, tiny_pair


def _assert_no_orphans():
    """Every worker process must be joined when run_portfolio returns."""
    assert multiprocessing.active_children() == []


def test_bmc_wins_race_with_counterexample():
    spec, impl = magic_pair()
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    result = run_portfolio(spec, impl, methods=("van_eijk", "bmc"),
                           time_limit=120, bus=bus)
    _assert_no_orphans()
    assert result.refuted
    assert result.method == "bmc"
    assert result.details["portfolio"]["winner"] == "bmc"
    assert result.counterexample is not None
    # The bug triggers when all inputs are 1 in the first frame; outputs
    # (registered) differ one frame later — a depth-2 trace.
    assert result.counterexample.length == 2
    assert all(result.counterexample.inputs[0].values())
    types = [event.type for event in seen]
    assert types[0] == ev.PORTFOLIO_STARTED
    assert ev.ENGINE_WON in types
    won = next(e for e in seen if e.type == ev.ENGINE_WON)
    assert won.data["method"] == "bmc"


def test_prover_wins_race_and_falsifier_is_cancelled():
    spec, impl = tiny_pair()
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    # A falsifier lane with an effectively unbounded budget: it can never
    # prove, so it must lose the race and be cancelled.
    result = run_portfolio(
        spec, impl, methods=("van_eijk", "bmc"),
        per_method_options={"bmc": {"max_depth": 100000}},
        time_limit=120, bus=bus)
    _assert_no_orphans()
    assert result.proved
    assert result.method == "van_eijk"
    lanes = result.details["portfolio"]["lanes"]
    assert lanes["van_eijk"] == "won"
    assert lanes["bmc"] in ("cancelled", "finished")
    assert any(event.type == ev.ENGINE_CANCELLED for event in seen) or \
        lanes["bmc"] == "finished"


def test_all_lanes_inconclusive_returns_preferred_lane():
    spec, impl = magic_pair()
    # Only bounded falsifiers, both too shallow to reach the depth-2 bug?
    # No — use depth 1 so neither can refute (the mismatch needs 2 frames).
    result = run_portfolio(
        spec, impl, methods=("bmc",),
        per_method_options={"bmc": {"max_depth": 1}},
        time_limit=60)
    _assert_no_orphans()
    assert result.inconclusive
    assert result.method == "bmc"
    assert result.details["portfolio"]["winner"] is None


def test_crashed_lane_does_not_win(monkeypatch):
    from repro.service import register_method, unregister_method

    def crash(job, progress, cancel_check):
        import os

        os._exit(9)

    register_method("crash_lane", crash)
    try:
        spec, impl = tiny_pair()
        result = run_portfolio(spec, impl,
                               methods=("crash_lane", "van_eijk"),
                               time_limit=60)
    finally:
        unregister_method("crash_lane")
    _assert_no_orphans()
    assert result.proved
    assert result.details["portfolio"]["winner"] == "van_eijk"
    assert result.details["portfolio"]["lanes"]["crash_lane"] in (
        "crashed", "cancelled")


def test_bogus_refutation_is_demoted_to_lane_error():
    """A refuting lane whose trace fails replay must not win the race."""
    from repro.reach.result import CexTrace, SecResult
    from repro.service import register_method, unregister_method

    def bogus_refuter(job, progress, cancel_check):
        # tiny_pair is equivalent, so no trace can be valid: the all-zero
        # input frame keeps both outputs at 0.
        trace = CexTrace(inputs=[], final_input={"a": False, "b": False})
        return SecResult(False, "bogus_refuter", counterexample=trace)

    register_method("bogus_refuter", bogus_refuter)
    try:
        spec, impl = tiny_pair()
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        result = run_portfolio(spec, impl,
                               methods=("bogus_refuter", "van_eijk"),
                               time_limit=60, bus=bus)
    finally:
        unregister_method("bogus_refuter")
    _assert_no_orphans()
    assert result.proved
    assert result.method == "van_eijk"
    lanes = result.details["portfolio"]["lanes"]
    assert lanes["van_eijk"] == "won"
    assert lanes["bogus_refuter"] == "error"
    rejected = [e for e in seen if e.type == ev.ENGINE_CEX_REJECTED]
    assert len(rejected) == 1
    assert rejected[0].data["method"] == "bogus_refuter"


def test_bogus_refutation_is_never_returned_even_as_last_resort():
    """With no other conclusive lane, the rejected refutation still loses."""
    from repro.reach.result import CexTrace, SecResult
    from repro.service import register_method, unregister_method

    def bogus_refuter(job, progress, cancel_check):
        trace = CexTrace(inputs=[], final_input={"a": True, "b": False})
        return SecResult(False, "bogus_refuter", counterexample=trace)

    register_method("bogus_refuter", bogus_refuter)
    try:
        spec, impl = tiny_pair()
        result = run_portfolio(spec, impl, methods=("bogus_refuter",),
                               time_limit=60)
    finally:
        unregister_method("bogus_refuter")
    _assert_no_orphans()
    assert not result.refuted
    assert result.details["portfolio"]["winner"] is None
    assert result.details["portfolio"]["lanes"]["bogus_refuter"] == "error"
    assert "replay" in result.details


def test_validate_refutations_off_keeps_old_behaviour():
    from repro.reach.result import CexTrace, SecResult
    from repro.service import register_method, unregister_method

    def bogus_refuter(job, progress, cancel_check):
        trace = CexTrace(inputs=[], final_input={"a": False, "b": False})
        return SecResult(False, "bogus_refuter", counterexample=trace)

    register_method("bogus_refuter", bogus_refuter)
    try:
        spec, impl = tiny_pair()
        result = run_portfolio(spec, impl, methods=("bogus_refuter",),
                               time_limit=60, validate_refutations=False)
    finally:
        unregister_method("bogus_refuter")
    _assert_no_orphans()
    assert result.refuted
    assert result.details["portfolio"]["winner"] == "bogus_refuter"


def test_valid_refutation_carries_replay_report():
    spec, impl = magic_pair()
    result = run_portfolio(spec, impl, methods=("bmc",), time_limit=120)
    _assert_no_orphans()
    assert result.refuted
    replay = result.details["replay"]
    assert replay["valid"] is True
    assert replay["mismatch_frame"] is not None


def test_stuck_losing_lane_is_killed():
    """A losing lane that never polls its cancel hook gets SIGKILL."""
    register_method("stubborn", stubborn)
    try:
        spec, impl = tiny_pair()
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        result = run_portfolio(spec, impl, methods=("stubborn", "van_eijk"),
                               grace=0.3, bus=bus)
    finally:
        unregister_method("stubborn")
    _assert_no_orphans()
    assert result.proved
    assert result.details["portfolio"] == {
        "winner": "van_eijk",
        "lanes": {"stubborn": "cancelled", "van_eijk": "won"}}
    cancelled = [e for e in seen if e.type == ev.ENGINE_CANCELLED]
    assert len(cancelled) == 1
    assert cancelled[0].data == {"method": "stubborn", "escalated": True}
    assert not any(e.type == ev.JOB_STARTED for e in seen)


def test_race_deadline_bounds_a_stuck_lane():
    register_method("stubborn", stubborn)
    try:
        spec, impl = tiny_pair()
        t0 = time.monotonic()
        result = run_portfolio(spec, impl, methods=("stubborn",),
                               time_limit=0.5, grace=0.3)
        elapsed = time.monotonic() - t0
    finally:
        unregister_method("stubborn")
    _assert_no_orphans()
    assert elapsed < 5
    assert result.method == "portfolio"
    assert result.details["aborted"] == "portfolio time budget exhausted"
    assert result.details["portfolio"]["lanes"] == {"stubborn": "cancelled"}


def test_portfolio_requires_methods():
    spec, impl = tiny_pair()
    with pytest.raises(ValueError):
        run_portfolio(spec, impl, methods=())
