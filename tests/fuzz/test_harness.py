"""The differential loop end to end, including the injected-bug pipeline."""

from repro.fuzz import (
    CROSS_ENGINE,
    FALSE_PROOF,
    INVALID_CEX,
    DifferentialFuzzer,
    discover,
    make_recipe,
    run_fuzz,
    verify_entry,
)
from repro.reach.result import CexTrace, SecResult
from repro.service import EventBus
from repro.service import events as ev

FAST_ENGINES = (("van_eijk", {}), ("bmc", {"max_depth": 12}))


def test_clean_fuzz_run_reports_no_findings(tmp_path):
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    report = run_fuzz(iterations=6, seed=1, engines=FAST_ENGINES,
                      corpus_dir=str(tmp_path), bus=bus)
    assert report.clean
    assert report.cases_run + report.cases_skipped == 6
    assert report.cases_run > 0
    assert not list(tmp_path.glob("*.json"))
    # Every refuting verdict must have gone through the replay oracle.
    refuted = sum(t["refuted"] for t in report.verdicts.values())
    assert report.refutations_validated == refuted
    types = [event.type for event in seen]
    assert types[0] == ev.FUZZ_STARTED
    assert types[-1] == ev.FUZZ_FINISHED
    assert types.count(ev.FUZZ_CASE_FINISHED) == report.cases_run
    data = report.as_dict()
    assert data["clean"] is True
    assert data["stopped"] == "iterations"


def test_zero_time_budget_stops_before_any_case():
    report = run_fuzz(iterations=50, seed=0, engines=FAST_ENGINES,
                      time_budget=0)
    assert report.cases_run == 0
    assert report.stopped == "time_budget"


def test_check_recipe_is_clean_on_a_known_good_recipe():
    fuzzer = DifferentialFuzzer(engines=FAST_ENGINES)
    recipe = {"base": {"name": "hk", "n_regs": 4, "n_inputs": 2, "seed": 2},
              "transforms": [{"kind": "retime", "moves": 2, "seed": 0}]}
    assert fuzzer.check_recipe(recipe) == []


def test_injected_false_proof_is_shrunk_and_persisted(tmp_path):
    """The acceptance pipeline: doctored verdict → finding → shrink → corpus
    → the corpus entry re-runs red with the bug and green without it."""

    def lie_about_inequivalence(case, method, result):
        if method == "van_eijk" and not case.expected_equivalent:
            return SecResult(True, "van_eijk")
        return result

    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    fuzzer = DifferentialFuzzer(
        seed=3, engines=FAST_ENGINES, corpus_dir=str(tmp_path), bus=bus,
        fault_probability=1.0, result_hook=lie_about_inequivalence,
        shrink_evaluations=24)
    report = fuzzer.run(iterations=2)
    assert not report.clean
    kinds = {f.kind for f in report.findings}
    assert FALSE_PROOF in kinds
    # bmc still (correctly) refutes, so the lie is also a cross-engine split.
    assert CROSS_ENGINE in kinds
    assert report.corpus_paths
    types = [event.type for event in seen]
    assert ev.FUZZ_DISAGREEMENT in types
    assert ev.FUZZ_SHRUNK in types
    assert ev.FUZZ_CORPUS_SAVED in types

    entries = discover(tmp_path)
    assert entries
    for entry in entries:
        assert entry.expected == "inequivalent"
        assert entry.finding["kind"] in (FALSE_PROOF, CROSS_ENGINE)
        assert entry.meta["fuzzer_seed"] == 3
        # The shrunk recipe must still trip the injected bug...
        assert fuzzer.check_recipe(entry.recipe, case_id=entry.id)
        # ...and be clean under the real engines (the regression contract).
        assert verify_entry(entry, engines=FAST_ENGINES) == []


def test_injected_invalid_cex_is_detected(tmp_path):
    """A refutation whose trace does not replay is a finding even when no
    engine disagrees about the verdict."""

    def fabricate_trace(case, method, result):
        if method == "bmc":
            return SecResult(False, "bmc",
                             counterexample=CexTrace(inputs=[],
                                                     final_input={}))
        return result

    fuzzer = DifferentialFuzzer(
        seed=5, engines=FAST_ENGINES, corpus_dir=str(tmp_path),
        fault_probability=0.0, result_hook=fabricate_trace,
        shrink_evaluations=8)
    report = fuzzer.run(iterations=1)
    kinds = {f.kind for f in report.findings}
    assert INVALID_CEX in kinds
    invalid = next(f for f in report.findings if f.kind == INVALID_CEX)
    assert invalid.methods == ["bmc"]
    assert invalid.detail["replay"]["valid"] is False


def test_same_seed_reruns_identically():
    a = run_fuzz(iterations=4, seed=9, engines=FAST_ENGINES)
    b = run_fuzz(iterations=4, seed=9, engines=FAST_ENGINES)
    assert a.clean and b.clean
    assert a.verdicts == b.verdicts
    assert a.cases_run == b.cases_run


def test_engine_list_shorthand_uses_default_budgets():
    fuzzer = DifferentialFuzzer(engines=["bmc"])
    assert fuzzer.engines == [("bmc", "bmc", {"max_depth": 12})]


def test_engine_method_shorthand_selects_all_default_lanes():
    fuzzer = DifferentialFuzzer(engines=["sat_sweep", "fraig_sweep"])
    lanes = {label: (method, options)
             for label, method, options in fuzzer.engines}
    assert sorted(lanes) == ["fraig_sweep", "sat_sweep"]
    # The FRAIG lane runs the plain lane's sweep on the reduced pair.
    assert lanes["fraig_sweep"] == ("fraig_sweep", lanes["sat_sweep"][1])


def test_duplicate_engine_labels_rejected():
    import pytest

    with pytest.raises(ValueError, match="duplicate"):
        DifferentialFuzzer(engines=[("bmc", {}), ("bmc", "bmc", {})])


def test_a_supplied_scheduler_gets_the_job_time_limit():
    """A scheduler handed in, such as the daemon client behind
    ``fuzz --server``, has no budget of its own: every job carries it."""
    from repro.service import BatchScheduler

    jobs = []

    class Recording(BatchScheduler):
        def run(self, batch):
            jobs.extend(batch)
            return super().run(batch)

    report = run_fuzz(iterations=6, seed=1, engines=FAST_ENGINES,
                      job_time_limit=30, scheduler=Recording(workers=0))
    assert report.cases_run > 0
    assert jobs and all(job.options["time_limit"] == 30 for job in jobs)
    assert {job.options.get("max_depth") for job in jobs} == {None, 12}


def test_forked_workers_soak_the_service_stack(tmp_path):
    report = run_fuzz(iterations=2, seed=2, engines=FAST_ENGINES,
                      workers=2, corpus_dir=str(tmp_path))
    assert report.clean
    assert report.cases_run + report.cases_skipped == 2


def test_recipe_seeds_are_decorrelated_across_run_seeds():
    # Run seeds k and k+1 must not fuzz overlapping case seeds.
    from repro.fuzz.harness import _SEED_STRIDE

    span = 100
    first = {0 * _SEED_STRIDE + i for i in range(span)}
    second = {1 * _SEED_STRIDE + i for i in range(span)}
    assert not first & second
    assert make_recipe(_SEED_STRIDE) != make_recipe(_SEED_STRIDE + 1)
