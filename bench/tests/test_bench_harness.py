"""Harness tests: run with ``PYTHONPATH=src python -m pytest bench/tests -q``."""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

import report
import run
import spans
import workloads
from repro.circuits import fig2_pair

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def bench_cmd(*args):
    return [sys.executable, os.path.join(BENCH, "run.py")] + list(args)


def contract_result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# -- percentile rule ---------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))
    assert report.percentile(values, 50) == pytest.approx(50.5)
    assert report.percentile(values, 90) == pytest.approx(90.1)
    assert report.percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)
    assert report.percentile([7], 90) == 7


def test_samples_beyond_a_percentile():
    assert report.samples_beyond(100, 90) == 10
    assert report.samples_beyond(99, 90) == 9
    assert report.samples_beyond(22, 50) == 11


def test_host_slowdown_scales_with_the_probes_low_quantile():
    ref = report.REFERENCE_PROBE_S
    assert report.host_slowdown([ref] * 20) == pytest.approx(1.0)
    slow = [1.5 * ref] * 18 + [9 * ref, 9 * ref]
    assert report.host_slowdown(slow) == pytest.approx(1.5)
    assert report.reference_probe() > 0


def test_best_times_keep_each_jobs_fastest_repetition():
    records = [{"name": "a", "seconds": 0.3}, {"name": "b", "seconds": 2.0},
               {"name": "a", "seconds": 0.1}, {"name": "b", "seconds": 1.5}]
    assert report.best_times(records) == [0.1, 1.5]


def test_quartiles_match_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    assert report.quartiles(values) == tuple(
        statistics.quantiles(values, n=4))
    q1, med, q3 = report.quartiles(values)
    assert report.spread(values) == pytest.approx((q3 - q1) / med)


# -- span self time ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # job [0,10] > A [1,4] > B [2,3]; job > A [5,9]
    recorded = [
        (2, "A", 1.0, 4.0, 1, "j"),
        (3, "B", 2.0, 3.0, 2, "j"),
        (4, "A", 5.0, 9.0, 1, "j"),
        (1, spans.JOB, 0.0, 10.0, None, "j"),
    ]
    own = spans.self_times(recorded)
    assert own == pytest.approx({spans.JOB: 3.0, "A": 6.0, "B": 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_nested_same_layer_is_not_counted_twice():
    recorded = [(1, spans.JOB, 0.0, 5.0, None, "j"),
                (2, "sat.clause", 1.0, 4.0, 1, "j"),
                (3, "sat.clause", 1.5, 3.5, 2, "j")]
    assert spans.self_times(recorded)["sat.clause"] == pytest.approx(3.0)


def test_chrome_trace_gives_each_job_its_own_track():
    recorded = [(1, spans.JOB, 0.0, 1.0, None, "0/a"),
                (2, "sat.solve", 0.2, 0.4, 1, "0/a"),
                (3, spans.JOB, 1.0, 2.0, None, "0/b")]
    events = spans.chrome_trace(recorded)["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["args"]["job"]: e["tid"] for e in complete} == {"0/a": 1,
                                                              "0/b": 2}
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert names == {"0/a", "0/b"}
    solve = [e for e in complete if e["name"] == "sat.solve"][0]
    assert solve["ts"] == pytest.approx(2e5)
    assert solve["dur"] == pytest.approx(2e5)


def test_tracer_attributes_a_job_and_restores_the_program(tmp_path):
    import repro.core.cexsplit as cexsplit
    from repro.sat.solver import Solver

    original_split = cexsplit.partition_by_value
    original_solve = Solver.__dict__["solve"]
    spec, impl = fig2_pair()
    job = workloads.Job("fig2", "sat_sweep", spec, impl, expected=True)
    workloads.write_inputs([job], str(tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cexsplit.partition_by_value is not original_split
        _, records, layers = workloads.run_inproc_pass([job], 0, tracer)
    finally:
        tracer.uninstall()
    assert cexsplit.partition_by_value is original_split
    assert Solver.__dict__["solve"] is original_solve
    assert records[0]["outcome"] == workloads.OK
    assert layers["interop.load_s"] > 0
    assert layers["sat.queries"] > 0
    total = sum(layers[name] for name in workloads.LAYER_METRICS.values())
    assert total == pytest.approx(layers["job.traced_s"])


# -- verdict checking and exit status ----------------------------------------------


def planted_summary(tmp_path):
    """A one-job run whose label is deliberately wrong."""
    spec, impl = fig2_pair()
    job = workloads.Job("planted", "van_eijk", spec, impl, expected=False)
    workloads.write_inputs([job], str(tmp_path))
    wall, records, _ = workloads.run_inproc_pass([job], 0)
    raw = {"workload": "table1-bdd", "seed": 0, "setup_s": 0.5,
           "setup_samples": [0.5], "passes": 1, "walls": [wall],
           "records": records, "traced_passes": [], "layer_passes": [],
           "peak_rss_mb": 50.0, "clients": 1, "probes": [0.002],
           "unstable": workloads.deterministic_counts(records)}
    return run.summarize(raw, run.load_spec(), trace=False)


def test_planted_wrong_verdict_fails_the_run(tmp_path, monkeypatch, capsys):
    summary = planted_summary(tmp_path)
    assert summary["metrics"]["failed_frac"] == 1.0
    assert not summary["correct"]
    monkeypatch.setattr(run, "run_workload",
                        lambda *args, **kwargs: summary)
    status = run.main(["--workload", "table1-bdd", "--seconds", "1"])
    assert status != 0
    result = contract_result(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["failed"] == 1


def test_determinism_guard_flags_counts_that_change_between_passes():
    records = [
        {"name": "a", "outcome": "ok", "counts": {"sat.queries": 3}},
        {"name": "a", "outcome": "ok", "counts": {"sat.queries": 3}},
        {"name": "b", "outcome": "ok", "counts": {"sat.queries": 3}},
        {"name": "b", "outcome": "ok", "counts": {"sat.queries": 4}},
    ]
    assert workloads.deterministic_counts(records) == ["b"]


# -- --compare ------------------------------------------------------------------------


def test_compare_labels():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert report.judge(base, [12.0, 12.1, 11.9, 12.0, 12.05], "lower",
                        0.1)[0] == "regressed"
    assert report.judge(base, [8.0, 8.1, 7.9, 8.0, 8.05], "lower",
                        0.1)[0] == "improved"
    assert report.judge(base, [10.02, 10.0, 9.95, 10.1, 10.0], "lower",
                        0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert report.judge(base, noisy, "lower", 0.1)[0] == "unresolved"


def test_compare_warns_on_host_differences():
    spec = run.load_spec()
    metrics = {m["name"]: 1.0 for m in spec["end_to_end"]}
    doc = {"host": {"usable_cores": 2, "numpy": "2.0"},
           "workloads": {"table1-bdd": {"runs": [{"metrics": metrics}]}}}
    other = dict(doc, host={"usable_cores": 1, "numpy": "2.0"})
    rows, warnings = report.compare(doc, other, spec)
    assert {row[1] for row in rows} == set(metrics)
    assert all(row[-1] == "unchanged" for row in rows)
    assert any("usable_cores" in w for w in warnings)


# -- daemon peak memory ---------------------------------------------------------------


def test_peakrss_reports_the_child_not_the_process_that_started_it(tmp_path):
    ballast = b"x" * (96 << 20)  # held while the launcher is forked
    rss_file = tmp_path / "rss"
    proc = subprocess.run([sys.executable, workloads.PEAKRSS, str(rss_file),
                           sys.executable, "-c", "import sys; sys.exit(3)"],
                          timeout=60)
    assert len(ballast) and proc.returncode == 3
    assert 0 < int(rss_file.read_text()) < 64 << 10  # KiB


def test_peakrss_passes_sigterm_on(tmp_path):
    marker, rss_file = tmp_path / "started", tmp_path / "rss"
    child = ("import os, time; open({!r}, 'w').write(str(os.getpid())); "
             "time.sleep(60)".format(str(marker)))
    proc = subprocess.Popen([sys.executable, workloads.PEAKRSS,
                             str(rss_file), sys.executable, "-c", child])
    try:
        while not marker.exists() or not marker.read_text():
            assert proc.poll() is None
            time.sleep(0.01)
        proc.terminate()
        assert proc.wait(timeout=20) != 0
        assert int(rss_file.read_text()) > 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if marker.exists() and marker.read_text():
            try:
                os.kill(int(marker.read_text()), signal.SIGKILL)
            except ProcessLookupError:
                pass


# -- end to end -----------------------------------------------------------------------


def test_smoke_prints_every_end_to_end_metric_with_its_unit():
    spec = run.load_spec()
    proc = subprocess.run(bench_cmd("--smoke", "--workload", "table1-bdd"),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = contract_result(proc.stdout)
    assert result["correct"] and result["attempted"] == 3
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    lines = proc.stdout.splitlines()
    for name, unit in dict(declared, failed_frac="ratio").items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                   for line in lines), name


def test_traced_smoke_prints_every_layer_metric_and_a_chrome_trace(tmp_path):
    spec = run.load_spec()
    trace_file = tmp_path / "trace.json"
    proc = subprocess.run(bench_cmd("--smoke", "--workload", "table1-sat",
                                    "--trace", str(trace_file)),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = contract_result(proc.stdout)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["sat.solve_s"]["value"] > 0
    events = json.loads(trace_file.read_text())["traceEvents"]
    jobs = {e["args"]["job"] for e in events if e["ph"] == "X"}
    assert len(jobs) == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, str(tmp_path / "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "table1-bdd", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                          cwd=str(tmp_path), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
