"""Event bus, JSONL log, and engine progress-event plumbing."""

import json

from repro.service import (
    Event,
    EventBus,
    JobSpec,
    JsonlEventWriter,
    read_event_log,
    run_job,
)
from repro.service import events as ev

from .helpers import tiny_pair


def test_bus_emit_and_subscribe():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    event = bus.emit(ev.JOB_STARTED, job="j1", method="van_eijk")
    assert seen == [event]
    assert event.type == ev.JOB_STARTED
    assert event.job == "j1"
    assert event.data["method"] == "van_eijk"
    assert event.ts > 0


def test_bus_survives_bad_subscriber():
    bus = EventBus()
    seen = []

    def explode(event):
        raise RuntimeError("subscriber bug")

    bus.subscribe(explode)
    bus.subscribe(seen.append)
    bus.emit(ev.JOB_FINISHED, job="j1")
    assert len(seen) == 1
    assert bus.subscriber_errors == 1


def test_unsubscribe():
    bus = EventBus()
    seen = []
    token = bus.subscribe(seen.append)
    bus.unsubscribe(token)
    bus.emit(ev.JOB_STARTED, job="j1")
    assert seen == []


def test_event_dict_roundtrip():
    event = Event(ev.JOB_PROGRESS, job="row", data={"kind": "iteration",
                                                    "iteration": 3})
    clone = Event.from_dict(event.as_dict())
    assert clone.type == event.type
    assert clone.job == event.job
    assert clone.data == event.data
    assert clone.ts == event.ts


def test_jsonl_writer_and_reader(tmp_path):
    path = tmp_path / "run.jsonl"
    bus = EventBus()
    with JsonlEventWriter(path) as writer:
        bus.subscribe(writer)
        bus.emit(ev.BATCH_STARTED, jobs=2)
        bus.emit(ev.JOB_FINISHED, job="a", verdict=True)
        assert writer.events_written == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [entry["type"] for entry in lines] == [ev.BATCH_STARTED,
                                                  ev.JOB_FINISHED]
    events = read_event_log(path)
    assert events[1].job == "a"
    assert events[1].data["verdict"] is True


def test_run_job_emits_iteration_progress():
    spec, impl = tiny_pair()
    events = []
    result = run_job(JobSpec("tiny", spec, impl), emit=events.append)
    assert result.proved
    kinds = [event.data.get("kind") for event in events]
    assert "iteration" in kinds
    iteration_events = [e for e in events if e.data.get("kind") == "iteration"]
    assert all(e.type == ev.JOB_PROGRESS for e in iteration_events)
    assert all(e.job == "tiny" for e in iteration_events)
    first = iteration_events[0].data
    assert first["iteration"] == 1
    assert first["classes"] >= 1
    assert first["nodes"] >= 1


def test_run_job_bmc_progress_and_trace():
    spec, impl = tiny_pair()
    events = []
    result = run_job(
        JobSpec("tiny", spec, impl, method="bmc",
                options={"max_depth": 3}),
        emit=events.append,
    )
    assert result.inconclusive  # equivalent pair: BMC can never prove
    depths = [e.data["depth"] for e in events
              if e.data.get("kind") == "depth"]
    assert depths == [1, 2, 3]


def test_run_job_cancelled_before_start():
    spec, impl = tiny_pair()
    result = run_job(JobSpec("tiny", spec, impl),
                     cancel_check=lambda: True)
    assert result.inconclusive
    assert result.details["aborted"] == "cancelled"


def test_engine_cancel_check_aborts_mid_run():
    from repro.budget import Budget
    from repro.core import VanEijkVerifier

    spec, impl = tiny_pair()
    polls = []

    def cancel(polled=polls):
        polled.append(1)
        return True

    result = VanEijkVerifier(budget=Budget(cancel_check=cancel)).verify(
        spec, impl, match_outputs="order")
    assert polls  # the engine reached its first cancellation point
    assert result.inconclusive
    assert result.details["aborted"] == "cancelled"
