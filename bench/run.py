#!/usr/bin/env python3
"""Outside-in benchmark of the repro engines and the ``repro-sec serve`` daemon.

Run from the repository root (the benchmark finds ``src/`` itself)::

    python3 bench/run.py                      # all workloads -> .bench_out/latest.json
    python3 bench/run.py --workload table1-sat --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload table1-bdd --trace 1          # per-layer split
    python3 bench/run.py --workload table1-bdd --trace out.json   # + Chrome trace
    python3 bench/run.py --smoke                                  # seconds-long check
    python3 bench/run.py --compare BASE.json NEW.json

Each run starts fresh Python processes: two set-up probes and one measuring
process (one probe under ``--smoke``).  ``setup_s`` is the median of their
set-up times.  The measuring process runs as many passes over its
workload's job list as fill ``--seconds`` on the reference host, then
reports; each job's time is the fastest of its repetitions (see README).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The end-to-end metrics come from untraced runs; ``--trace``
reports the per-layer metrics instead.  A wrong verdict, a refutation that
does not replay, or per-job counts that differ between passes make the run
exit 1.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("table1-bdd", "table1-sat", "portfolio-lanes", "daemon-mix")

#: Set-up measurements per run (fresh processes each).
SETUP_REPEATS = 3

#: Hard cap on one workload run, children included.
RUN_BUDGET_S = 170.0


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def host_facts(root=ROOT):
    """Provenance recorded with every result file."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        numpy = version("numpy")
    except (ImportError, PackageNotFoundError):
        numpy = None
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
    }


def git_commit(root):
    """HEAD's commit read from ``.git`` directly (None outside a clone)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


# -- child processes ------------------------------------------------------------


def spawn(role, workload, seed, seconds, trace, smoke, workdir, deadline):
    """Run one fresh measuring or set-up process; returns its raw record."""
    os.makedirs(workdir)
    result_file = os.path.join(workdir, "result.json")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    log_path = os.path.join(workdir, "child.log")
    with open(log_path, "w") as log:
        spawned_at = time.monotonic()
        cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", workdir, "--result-file", result_file,
               "--spawned-at", repr(spawned_at)]
        if smoke:
            cmd.append("--smoke")
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                # The whole session: the child and any daemon it started.
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0 or not os.path.exists(result_file):
        with open(log_path) as fh:
            tail = fh.read()[-4000:]
        raise RuntimeError("{} process for {} exited {}:\n{}".format(
            role, workload, proc.returncode, tail))
    with open(result_file) as fh:
        return json.load(fh)


def child_main(args):
    """Entry point of a spawned process (``--role``)."""
    import workloads

    raw = workloads.measure(ROOT, args.workload, args.seed, args.seconds,
                            args.trace != "0", args.workdir, args.spawned_at,
                            smoke=args.smoke, setup_only=args.role == "setup")
    spans = raw.pop("spans", None)
    if spans is not None and args.trace not in ("0", "1"):
        import spans as span_mod

        span_mod.write_chrome_trace(spans, args.trace)
    with open(args.result_file, "w") as fh:
        json.dump(raw, fh)
    return 0


# -- one workload run ------------------------------------------------------------


def summarize(raw, spec, trace):
    """Metrics of one run from the measuring process's raw record."""
    records = raw["records"]
    attempted = len(records)
    outcomes = [r["outcome"] for r in records]
    wrong = [r for r in records if r["outcome"] == "wrong"]
    failed = sum(1 for o in outcomes if o in ("failed", "wrong"))
    unstable = list(raw["unstable"])
    for name in report.DETERMINISTIC_COUNTS:
        values = {p.get(name) for p in raw["layer_passes"]}
        if len(values) > 1:
            unstable.append("{} per pass: {}".format(name, sorted(values)))
    summary = {
        "workload": raw["workload"], "seed": raw["seed"],
        "attempted": attempted, "failed": failed,
        "correct": not wrong and not unstable,
        "passes": raw["passes"], "wrong": wrong, "unstable": unstable,
        "failures": [r for r in records if r["outcome"] == "failed"],
    }
    if trace:
        layers = {}
        for name in {k for p in raw["layer_passes"] for k in p}:
            layers[name] = statistics.mean(p.get(name, 0.0)
                                           for p in raw["layer_passes"])
        traced = set(raw["traced_passes"])
        layers["trace.overhead"] = (
            sum(report.best_times([r for r in records if r["pass"] in traced]))
            / sum(report.best_times([r for r in records
                                     if r["pass"] not in traced])))
        summary["layers"] = layers
        summary["metrics"] = {m["name"]: layers.get(m["name"], 0.0)
                              for m in spec["per_layer"]}
        return summary
    slowdown = report.host_slowdown(raw["probes"])
    best = [t / slowdown for t in report.best_times(records)]
    decided = sum(1 for o in outcomes if o in ("ok", "wrong"))
    summary["metrics"] = {
        "setup_s": statistics.median(raw["setup_samples"]),
        # Little's law for a closed loop: throughput = clients / latency.
        "jobs_per_s": raw["clients"] * len(best) / sum(best),
        "job_p50_s": report.percentile(best, 50),
        "job_p90_s": report.percentile(best, 90),
        "decided_frac": decided / attempted,
        "failed_frac": failed / attempted,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    latencies = [r["seconds"] for r in records]
    summary["all_samples"] = {
        "slowdown": slowdown,
        "p50_s": report.percentile(latencies, 50),
        "p90_s": report.percentile(latencies, 90),
        "beyond_p90": report.samples_beyond(attempted, 90),
        "wall_jobs_per_s": attempted / sum(raw["walls"]),
    }
    return summary


def run_workload(workload, seed, seconds, trace, smoke, spec, tag=""):
    """Set-up probes plus one measuring process; returns the summary."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = os.path.join(ROOT, ".bench_work", "{}-{}{}".format(
        workload, os.getpid(), tag))
    try:
        repeats = 1 if smoke else SETUP_REPEATS
        samples = [spawn("setup", workload, seed, seconds, "0", smoke,
                         os.path.join(base, "setup{}".format(i)),
                         deadline)["setup_s"]
                   for i in range(repeats - 1)]
        raw = spawn("measure", workload, seed, seconds, trace, smoke,
                    os.path.join(base, "measure"), deadline)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass
    raw["setup_samples"] = samples + [raw["setup_s"]]
    return summarize(raw, spec, trace != "0")


def unit_of(spec, name):
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    return "ratio" if name.endswith("_frac") else "s"


def print_summary(summary, spec):
    print("# {workload} seed {seed}: {passes} passes, {attempted} jobs, "
          "{failed} failed".format(**summary))
    for name, value in sorted(summary["metrics"].items()):
        print("  {:<24} {:>14.6g} {}".format(name, value, unit_of(spec, name)))
    samples = summary.get("all_samples")
    if samples:
        print("  host slowdown {:.4g}; all {} samples unscaled: p50 {:.6g} s, "
              "p90 {:.6g} s ({} beyond), {:.6g} jobs/s by wall clock".format(
                  samples["slowdown"], summary["attempted"],
                  samples["p50_s"], samples["p90_s"], samples["beyond_p90"],
                  samples["wall_jobs_per_s"]))
    for record in summary["wrong"] + summary["failures"]:
        print("  {} job {}: {}".format(record["outcome"].upper(),
                                      record["name"], record["reason"]))
    for item in summary["unstable"]:
        print("  NONDETERMINISTIC counts: {}".format(item))


def contract_line(summary, spec):
    """The one-line JSON result (end-to-end or per-layer metrics)."""
    declared = spec["per_layer"] if "layers" in summary else spec["end_to_end"]
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": summary["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    })


# -- entry point -----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", default="0", metavar="0|1|FILE",
                        help="1 or a file: report per-layer metrics from a "
                             "traced run; a file also receives the spans as "
                             "Chrome trace-event JSON (FILE.<workload>.json "
                             "when several workloads run)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload (for --compare inputs)")
    parser.add_argument("--out", help="write all summaries and host facts "
                                      "here (default with no --workload: "
                                      ".bench_out/latest.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of three jobs per workload")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--role", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--result-file", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM unwinds through the finally blocks that stop child processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.role:
        return child_main(args)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("bench/run.py: no src/repro under {}; run from a full "
              "checkout".format(ROOT), file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        with open(args.compare[0]) as fh:
            base = json.load(fh)
        with open(args.compare[1]) as fh:
            new = json.load(fh)
        rows, warnings = report.compare(base, new, spec)
        print(report.format_compare(rows, warnings))
        return 1 if any(row[-1] == "regressed" for row in rows) else 0
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = args.trace
    if trace not in ("0", "1"):
        trace = os.path.abspath(trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    out = args.out
    if out is None and not args.workload:
        out = os.path.join(ROOT, ".bench_out", "latest.json")
    host = host_facts()
    print("# host: {usable_cores} usable cores of {cpu_count}, python "
          "{python}, numpy {numpy}, commit {git_commit}".format(**host))
    results = {"schema": 1, "host": host, "seed": args.seed,
               "seconds": seconds, "smoke": args.smoke, "trace": trace != "0",
               "workloads": {}}
    summaries = []
    for name in names:
        runs = []
        run_trace = trace
        if trace not in ("0", "1") and len(names) > 1:
            stem, ext = os.path.splitext(trace)
            run_trace = "{}.{}{}".format(stem, name, ext)
        for index in range(args.runs):
            summary = run_workload(name, args.seed, seconds, run_trace,
                                   args.smoke, spec, tag="-{}".format(index))
            print_summary(summary, spec)
            runs.append({key: summary[key] for key in
                         ("metrics", "attempted", "failed", "correct",
                          "passes")})
            if "layers" in summary:
                runs[-1]["layers"] = summary["layers"]
            summaries.append(summary)
        results["workloads"][name] = {"runs": runs}
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        print("# wrote {}".format(out))
    correct = all(s["correct"] for s in summaries)
    if len(summaries) == 1:
        print(contract_line(summaries[0], spec))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": {},
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
