"""Job-level parallelism: identity with in-process serial runs.

Refinement inside one job is serial; parallelism lives one level up, in
the service layer's worker processes (:class:`~repro.service.BatchScheduler`
behind ``batch --workers`` and the daemon's pool).  Running a job in a
forked worker, next to other jobs, must change nothing observable but
wall-clock time: same verdicts, same class counts, same final partition as
running it in the calling process — on random pairs, the Table-1 suite and
the persisted fuzz corpus.  The worker's per-round refinement telemetry
must reach the parent's event bus intact and in order.
"""

import os

from hypothesis import given, settings, strategies as st
import pytest

from repro.circuits import row_by_name
from repro.core.satbackend import SatCorrespondence
from repro.fuzz.corpus import discover
from repro.fuzz.generate import build_pair
from repro.netlist import build_product
from repro.reach import SecResult
from repro.service import (
    BatchScheduler,
    EventBus,
    JobSpec,
    register_method,
    run_job,
    unregister_method,
)
from repro.service.events import JOB_PROGRESS
from repro.transform import optimize

from ..netlist.helpers import random_sequential_circuit

CORPUS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "corpus")

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="worker processes require fork")


def pair_for(seed):
    spec = random_sequential_circuit(seed, n_inputs=2, n_regs=3, n_gates=8)
    return spec, optimize(spec, level=2, seed=seed + 1)


def netsets(classes):
    return {
        frozenset((net, bool(complemented)) for net, complemented in cls)
        for cls in classes
    }


def partition_of(spec, impl):
    product = build_product(spec, impl, match_outputs="order")
    classes, _ = SatCorrespondence(product, sim_frames=2,
                                   sim_width=1).compute()
    return [[(sig.net, sig.complemented) for sig in cls] for cls in classes]


def partition_runner(job, progress, cancel_check):
    """A job whose result carries the whole final partition."""
    return SecResult(True, "partition",
                     details={"partition": partition_of(job.spec, job.impl)})


def run_in_workers(jobs, bus=None):
    """Run ``jobs`` two at a time in forked workers; results in order."""
    scheduler = BatchScheduler(workers=2, bus=bus, retries=0)
    results = scheduler.run(jobs)
    for result in results:
        assert result.error is None, result.error
        assert not result.cached
    return results


def sat_sweep_job(name, spec, impl):
    return JobSpec(name, spec, impl, method="sat_sweep",
                   match_outputs="order")


def assert_workers_match_serial(spec, impl):
    """Two concurrent worker runs of one job == the in-process run."""
    serial = run_job(sat_sweep_job("serial", spec, impl))
    for job_result in run_in_workers([sat_sweep_job("a", spec, impl),
                                      sat_sweep_job("b", spec, impl)]):
        assert job_result.result.equivalent == serial.equivalent
        assert job_result.result.details["classes"] == serial.details[
            "classes"]
        assert job_result.result.details["functions"] == serial.details[
            "functions"]


# ---------------------------------------------------------- identity checks


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_parallel_and_serial_partitions_identical(seed):
    """The greatest fixed point is unique; the process it is computed in,
    and the jobs running beside it, cannot move it."""
    spec, impl = pair_for(seed)
    register_method("partition", partition_runner)
    try:
        results = run_in_workers([
            JobSpec("p{}".format(i), spec, impl, method="partition",
                    match_outputs="order")
            for i in range(2)
        ])
    finally:
        unregister_method("partition")
    expected = netsets(partition_of(spec, impl))
    for job_result in results:
        assert netsets(job_result.result.details["partition"]) == expected


@pytest.mark.parametrize("name", ["s298", "s386"])
def test_suite_verdicts_and_class_counts_agree(name):
    spec, impl = row_by_name(name).pair()
    assert_workers_match_serial(spec, impl)


@pytest.mark.parametrize("entry", discover(CORPUS_DIR), ids=lambda e: e.id)
def test_corpus_verdicts_agree(entry):
    spec, impl = build_pair(entry.recipe)
    assert_workers_match_serial(spec, impl)


# ---------------------------------------------------------------- telemetry


def test_refinement_rounds_carry_worker_telemetry():
    """Each worker's refinement_round events reach the parent's bus tagged
    with their job, in round order, with the same counts and solver effort
    an in-process run reports."""
    spec, impl = row_by_name("s298").pair()
    events = []
    run_job(sat_sweep_job("serial", spec, impl), emit=events.append)
    bus = EventBus()
    bus.subscribe(events.append)
    run_in_workers([sat_sweep_job("a", spec, impl),
                    sat_sweep_job("b", spec, impl)], bus=bus)

    def rounds_of(name):
        return [
            event.data for event in events
            if event.type == JOB_PROGRESS and event.job == name
            and event.data.get("kind") == "refinement_round"
        ]

    serial_rounds = rounds_of("serial")
    assert serial_rounds
    for name in ("a", "b"):
        rounds = rounds_of(name)
        assert [data["round"] for data in rounds] == list(
            range(1, len(rounds) + 1))
        assert rounds[-1]["changed"] is False
        for data, expected in zip(rounds, serial_rounds):
            assert data["classes"] == expected["classes"]
            assert data["sat_queries"] == expected["sat_queries"]
            assert data["cex_patterns"] == expected["cex_patterns"]
            assert data["solver_constructions"] == 1
        assert len(rounds) == len(serial_rounds)
