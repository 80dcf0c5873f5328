"""Command-line interface tests."""

import json

import pytest

from repro.cli import main
from repro.circuits import generate_benchmark
from repro.netlist import bench, blif
from repro.transform import inject_distinguishable_fault, synthesize


@pytest.fixture(scope="module")
def circuit_files(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    spec = generate_benchmark("cli_demo", n_regs=8, n_inputs=3, seed=11)
    impl = synthesize(spec, retime_moves=2, optimize_level=2, seed=12)
    buggy, _ = inject_distinguishable_fault(impl, seed=13)
    paths = {
        "spec": workdir / "spec.bench",
        "impl": workdir / "impl.bench",
        "buggy": workdir / "buggy.bench",
        "blif": workdir / "spec.blif",
    }
    bench.dump(spec, paths["spec"])
    bench.dump(impl, paths["impl"])
    bench.dump(buggy, paths["buggy"])
    blif.dump(spec, paths["blif"])
    return paths


def test_verify_equivalent(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["impl"])])
    out = capsys.readouterr().out
    assert code == 0
    assert "EQUIVALENT" in out
    assert "eqs_percent" in out


def test_verify_inequivalent_prints_cex(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["buggy"])])
    out = capsys.readouterr().out
    assert code == 2
    assert "INEQUIVALENT" in out
    assert "counterexample" in out
    assert "t=0" in out


def test_verify_traversal_method(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["impl"]), "--method", "traversal",
                 "--time-limit", "60"])
    assert code == 0
    assert "traversal" in capsys.readouterr().out


def test_verify_sat_sweep_method(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["impl"]), "--method", "sat_sweep"])
    assert code == 0


@pytest.mark.parametrize("command", [
    ["verify", "spec.bench", "impl.bench", "--method", "sat_sweep"],
    ["batch", "--rows", "s386", "--method", "sat_sweep"],
    ["remote", "verify", "--server", "http://127.0.0.1:1", "--suite",
     "s386", "--method", "sat_sweep"],
], ids=["verify", "batch", "remote-verify"])
@pytest.mark.parametrize("flag", [
    ["--refine-workers", "2"],
    ["--refine-batch", "3"],
    ["--sim-backend", "compiled"],
    ["--fraig-race", "2"],
], ids=lambda flag: flag[0].lstrip("-"))
def test_removed_refinement_flags_are_rejected(command, flag, capsys):
    """Refinement is serial with one sim kernel; the old knobs are usage
    errors, not silently ignored."""
    with pytest.raises(SystemExit) as excinfo:
        main(command + flag)
    assert excinfo.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    (["verify", "spec.bench", "impl.bench", "--method", "sat_sweep"],
     ["--preprocess", "fraig"]),
    (["batch", "--rows", "s386", "--method", "sat_sweep"],
     ["--preprocess", "fraig"]),
    (["remote", "verify", "--server", "http://127.0.0.1:1", "--suite",
      "s386", "--method", "sat_sweep"], ["--preprocess", "fraig"]),
    (["verify", "spec.bench", "impl.bench", "--method", "bmc"],
     ["--fraig-frames"]),
], ids=["preprocess-verify", "preprocess-batch", "preprocess-remote-verify",
        "fraig-frames-verify"])
def test_removed_fraig_flags_are_rejected(command, flag, capsys):
    """FRAIG runs only as the fraig_sweep method; the flags that put it in
    front of other engines are usage errors, not silently ignored."""
    with pytest.raises(SystemExit) as excinfo:
        main(command + flag)
    assert excinfo.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_serve_rejects_removed_refine_workers_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--refine-workers", "2"])
    assert excinfo.value.code == 2
    assert "--refine-workers" in capsys.readouterr().err


def test_batch_rejects_removed_no_fallback_flag(capsys):
    """Leaving out ``--fallback`` already keeps inconclusive verdicts."""
    with pytest.raises(SystemExit) as excinfo:
        main(["batch", "--rows", "s386", "--no-fallback"])
    assert excinfo.value.code == 2
    assert "--no-fallback" in capsys.readouterr().err


def test_verify_profile_flag_writes_stats(circuit_files, tmp_path, capsys):
    profile = tmp_path / "verify.prof"
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["impl"]), "--method", "sat_sweep",
                 "--profile", str(profile)])
    assert code == 0
    import pstats

    stats = pstats.Stats(str(profile))
    assert stats.total_calls > 0


def test_verify_blif_input(circuit_files, capsys):
    code = main(["verify", str(circuit_files["blif"]),
                 str(circuit_files["impl"])])
    assert code == 0


def test_verify_flags(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["impl"]), "--no-simulation",
                 "--no-fundeps", "--no-retiming"])
    assert code == 0


def test_verify_engine_k_induction(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["impl"]), "--engine", "k-induction",
                 "--max-depth", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "k_induction" in out


def test_verify_engine_sweep_induction_alias(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["impl"]), "--engine",
                 "sat_sweep+induction"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sweep_induct" in out


def test_verify_engine_refutes(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["buggy"]), "--engine", "k-induction"])
    out = capsys.readouterr().out
    assert code == 2
    assert "INEQUIVALENT" in out


def test_verify_unknown_engine_lists_valid_names(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["impl"]), "--engine", "warp"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown engine 'warp'" in captured.err
    for name in ("van_eijk", "k_induction", "sweep_induct", "traversal"):
        assert name in captured.err


def test_info(circuit_files, capsys):
    code = main(["info", str(circuit_files["spec"])])
    out = capsys.readouterr().out
    assert code == 0
    assert "registers: 8" in out


def test_table1_quick(capsys):
    code = main(["table1", "--scales", "small", "--traversal-time-limit",
                 "5", "--proposed-time-limit", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "circuit" in out
    assert "s838" in out
    # E1: the proposed method proves every small row; its ``res`` column
    # is the last field of the third ``|``-separated section.
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("circuit"))
    rows = lines[start + 2:]
    assert len(rows) == 20
    for line in rows:
        assert line.split("|")[2].split()[-1] == "eq", line


def test_verify_json_output(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["impl"]), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "equivalent"
    assert payload["equivalent"] is True
    assert payload["method"] == "van_eijk"
    assert payload["seconds"] >= 0
    assert payload["counterexample"] is None
    assert payload["details"]["eqs_percent"] is not None
    assert payload["spec"] == str(circuit_files["spec"])


def test_verify_json_counterexample(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["buggy"]), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["verdict"] == "inequivalent"
    assert payload["counterexample"]["final_input"]


def test_verify_portfolio(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["impl"]), "--portfolio",
                 "--time-limit", "120"])
    out = capsys.readouterr().out
    assert code == 0
    assert "EQUIVALENT" in out
    assert "portfolio" in out


def test_verify_portfolio_json(circuit_files, capsys):
    code = main(["verify", str(circuit_files["spec"]),
                 str(circuit_files["impl"]), "--portfolio", "--json",
                 "--time-limit", "120"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["equivalent"] is True
    assert payload["details"]["portfolio"]["winner"] is not None


def test_batch_two_rows_with_cache_and_events(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    events = str(tmp_path / "events.jsonl")
    argv = ["batch", "--rows", "s386", "s510", "--workers", "2",
            "--cache-dir", cache_dir, "--events", events,
            "--time-limit", "120"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "batch: 2 jobs" in out
    assert "proved" in out
    lines = [json.loads(line)
             for line in open(events).read().splitlines()]
    assert lines[0]["type"] == "batch_started"
    assert lines[-1]["type"] == "batch_finished"
    # Second run must be served from the cache.
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "cached" in out


def test_batch_json_mode(tmp_path, capsys):
    code = main(["batch", "--rows", "s386", "--workers", "0",
                 "--cache-dir", str(tmp_path / "cache"), "--json",
                 "--time-limit", "120"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload) == 1
    assert payload[0]["name"] == "s386"
    assert payload[0]["result"]["equivalent"] is True


def test_table1_workers_flag(capsys):
    code = main(["table1", "--scales", "small", "--workers", "2",
                 "--traversal-time-limit", "5",
                 "--proposed-time-limit", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "s838" in out


def test_fuzz_clean_run(tmp_path, capsys):
    events = str(tmp_path / "fuzz.jsonl")
    code = main(["fuzz", "--iterations", "8", "--seed", "1",
                 "--corpus-dir", str(tmp_path / "corpus"),
                 "--engines", "van_eijk", "bmc",
                 "--events", events, "--verbose"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no disagreements" in out
    assert "replay-validated" in out
    lines = [json.loads(line) for line in open(events).read().splitlines()]
    assert lines[0]["type"] == "fuzz_started"
    assert lines[-1]["type"] == "fuzz_finished"
    assert not list((tmp_path / "corpus").glob("*.json"))


def test_fuzz_json_report(tmp_path, capsys):
    code = main(["fuzz", "--iterations", "4", "--seed", "2",
                 "--corpus-dir", "",
                 "--engines", "van_eijk", "bmc", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["clean"] is True
    assert payload["cases_run"] + payload["cases_skipped"] == 4
    assert payload["stopped"] == "iterations"


def test_fuzz_time_budget_soak_mode(capsys):
    code = main(["fuzz", "--iterations", "1000", "--time-budget", "0",
                 "--corpus-dir", "", "--engines", "van_eijk", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["stopped"] == "time_budget"


def test_bad_method_rejected(circuit_files):
    with pytest.raises(SystemExit):
        main(["verify", str(circuit_files["spec"]),
              str(circuit_files["impl"]), "--method", "bogus"])
