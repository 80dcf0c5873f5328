"""The four benchmark workloads: seeded inputs, timed passes, verdict checks.

Every workload is a closed loop over a fixed job list.  A *pass* runs the
whole list once; a run makes as many passes as fill its measuring time on
the reference host.  Every pass does identical work, so the per-job counts
of one pass must repeat exactly in the next (the determinism guard).

Every seed runs the exact Table-1 rows.  A seed other than 0 shuffles the
job order, and on ``daemon-mix`` it also re-draws the fault seeds and the
jobs that repeat.  Re-synthesizing the implementations per seed was
measured and rejected: over seeds 1-10 it spread ``job_p50_s`` on
``table1-bdd`` by 17% (interquartile range over median), left a pair
inconclusive for ``sat_sweep`` on four of five seeds, and moved s5378 alone
between 1.4 s and 6.0 s when the specifications were re-drawn too.  No
run-to-run bound can absorb that, so held-out circuits are not part of
this benchmark (see README "Known gaps").
"""

import gc
import http.client
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib

import repro
from repro import interop
from repro.circuits import (
    delay_line_pair,
    fig2_pair,
    onehot_chain_pair,
    onehot_ring_pair,
    row_by_name,
    table1_suite,
)
from repro.client import ServerClient, ServerError, job_payload, remote_job_result
from repro.fuzz.generate import build_pair
from repro.fuzz.replay import validate_refutation
from repro.transform import inject_distinguishable_fault

from report import reference_probe
from spans import JOB, Tracer, self_times

WORKLOADS = ("table1-bdd", "table1-sat", "portfolio-lanes", "daemon-mix")

#: Per-job engine budget; a job that hits it counts as failed.
TIME_LIMIT = 60

#: Closed-loop client threads driving the daemon.
DAEMON_CLIENTS = 2

#: Host-speed probes after each daemon pass.
DAEMON_PROBES = 25

#: Launcher that reports a daemon's own peak memory (see its docstring).
PEAKRSS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "peakrss.py")

#: Wall seconds of one pass on the reference host (2-core x86_64, Python
#: 3.11, numpy present), daemon restart included.
PASS_SECONDS = {"table1-bdd": 2.9, "table1-sat": 8.0, "portfolio-lanes": 4.5,
                "daemon-mix": 3.3}

#: The 20 small rows plus one medium and one large row that both engines
#: finish.  s3384 and s6669 are left out: both engines overrun any budget
#: on their multiplier mixers (see README "Known gaps").
TABLE1_ROWS = tuple(row.name for row in table1_suite()) + ("s1423", "s5378")

#: k-induction pairs pinned by benchmarks/bench_induction.py, copied here as
#: data so the benchmark does not import the legacy scripts.
INDUCTION_RECIPES = (
    {"base": {"name": "ih6", "n_regs": 6, "n_inputs": 2, "n_outputs": 1,
              "seed": 5875, "deep_counter_bits": 0, "mixer_width": 0},
     "transforms": [{"kind": "xor_reencode", "pairs": 2, "seed": 107},
                    {"kind": "retime", "moves": 2, "seed": 329}]},
    {"base": {"name": "ih15", "n_regs": 7, "n_inputs": 2, "n_outputs": 1,
              "seed": 14668, "deep_counter_bits": 0, "mixer_width": 0},
     "transforms": [{"kind": "xor_reencode", "pairs": 2, "seed": 260},
                    {"kind": "retime", "moves": 2, "seed": 806}]},
    {"base": {"name": "ih33", "n_regs": 5, "n_inputs": 2, "n_outputs": 1,
              "seed": 32254, "deep_counter_bits": 0, "mixer_width": 0},
     "transforms": [{"kind": "xor_reencode", "pairs": 2, "seed": 566},
                    {"kind": "retime", "moves": 2, "seed": 1760}]},
    {"base": {"name": "ih41", "n_regs": 5, "n_inputs": 4, "n_outputs": 1,
              "seed": 40070, "deep_counter_bits": 0, "mixer_width": 0},
     "transforms": [{"kind": "retime", "moves": 4, "seed": 1278}]},
    {"base": {"name": "ih117", "n_regs": 5, "n_inputs": 2, "n_outputs": 1,
              "seed": 114322, "deep_counter_bits": 0, "mixer_width": 0},
     "transforms": [{"kind": "retime", "moves": 2, "seed": 3634}]},
)

BMC_DEPTHS = (100, 200, 300, 400)
FRAIG_ROWS = ("s208", "s298", "s953")

#: Jobs kept by ``--smoke``: three cheap ones per workload.
SMOKE_JOBS = {
    "table1-bdd": ("s386", "s510", "s832"),
    "table1-sat": ("s386", "s510", "s832"),
    "portfolio-lanes": ("bmc-100", "onehot_ring", "s208"),
    "daemon-mix": ("s386",),
}

#: Methods whose ``iterations`` count fixed-point rounds.
FIXPOINT_METHODS = ("van_eijk", "sat_sweep", "fraig_sweep")

#: Outcome of one job.
OK, UNDECIDED, FAILED, WRONG = "ok", "undecided", "failed", "wrong"


def mixed_seed(name, seed):
    """A per-input seed derived from the workload seed (stable across
    Python versions, unlike ``hash``)."""
    return zlib.crc32("{}:{}".format(name, seed).encode()) % (2 ** 31)


class Job:
    """One timed unit of work with a label known by construction."""

    def __init__(self, name, method, spec, impl, expected, options=None,
                 cex_depth=None):
        self.name = name
        self.method = method
        self.spec = spec
        self.impl = impl
        self.expected = expected
        self.options = dict(options or {}, time_limit=TIME_LIMIT)
        self.cex_depth = cex_depth
        self.spec_path = self.impl_path = None
        self.payload = None
        self.expect_cached = False


def screened_fault(spec, impl, name, seed):
    """An injected fault the default engine refutes with a valid trace.

    ``inject_distinguishable_fault`` guarantees inequivalence by
    simulation; the screen only keeps the workload free of undecided jobs.
    """
    for attempt in range(20):
        bad, _ = inject_distinguishable_fault(
            impl, seed=mixed_seed(name + ":fault", seed) + 1000 * attempt)
        result = repro.verify(spec, bad, time_limit=TIME_LIMIT)
        if (result.equivalent is False
                and validate_refutation(spec, bad, result).valid):
            bad.name = name + "_fault"
            return bad
    raise RuntimeError("no refutable fault found for {}".format(name))


def build_jobs(workload, seed, smoke=False):
    """The job list of one pass, in run order (``smoke``: three cheap jobs)."""
    keep = SMOKE_JOBS[workload] if smoke else None

    def wanted(names):
        return [n for n in names if keep is None or n in keep]

    if workload in ("table1-bdd", "table1-sat"):
        method = "van_eijk" if workload == "table1-bdd" else "sat_sweep"
        jobs = [Job(name, method, *row_by_name(name).pair(), expected=True)
                for name in wanted(TABLE1_ROWS)]
    elif workload == "portfolio-lanes":
        jobs = [Job("bmc-{}".format(d), "bmc", *delay_line_pair(d),
                    expected=False, options={"max_depth": d}, cex_depth=d)
                for d in BMC_DEPTHS if wanted(["bmc-{}".format(d)])]
        induction = {
            "onehot_ring": onehot_ring_pair,
            "onehot_ring_en": lambda: onehot_ring_pair(enable=True),
            "onehot_chain6": lambda: onehot_chain_pair(6),
        }
        for recipe in INDUCTION_RECIPES:
            induction[recipe["base"]["name"]] = (
                lambda recipe=recipe: build_pair(recipe))
        for m in (16, 24):
            induction["onehot_chain{}".format(m)] = (
                lambda m=m: onehot_chain_pair(m))
        jobs += [Job(name, "k_induction", *induction[name](), expected=True,
                     options={"max_depth": 32})
                 for name in wanted(induction)]
        jobs += [Job(name, "fraig_sweep", *row_by_name(name).pair(),
                     expected=True) for name in wanted(FRAIG_ROWS)]
    elif workload == "daemon-mix":
        return daemon_jobs(seed, wanted([r.name for r in table1_suite()]))
    else:
        raise ValueError("unknown workload {!r}".format(workload))
    if seed:
        random.Random(mixed_seed(workload, seed)).shuffle(jobs)
    return jobs


def daemon_jobs(seed, rows):
    """Each row equivalent and with a screened fault, then a seeded half of
    those jobs again as cache hits."""
    originals = []
    for name in rows:
        spec, impl = row_by_name(name).pair()
        originals.append(Job(name, "van_eijk", spec, impl, expected=True))
        originals.append(Job(name + "-fault", "van_eijk", spec,
                             screened_fault(spec, impl, name, seed),
                             expected=False))
    rng = random.Random(mixed_seed("daemon-mix", seed))
    if seed:
        rng.shuffle(originals)
    repeats = []
    for job in rng.sample(originals, len(originals) // 2):
        repeat = Job(job.name + "-repeat", job.method, job.spec, job.impl,
                     job.expected)
        repeat.expect_cached = True
        repeats.append(repeat)
    for job in originals + repeats:
        job.payload = job_payload(job.spec, job.impl, name=job.name,
                                  method=job.method, options=job.options)
    return originals + repeats


def warmup_jobs(workload):
    """One untimed job per engine the workload runs."""
    spec, impl = fig2_pair()
    if workload == "table1-bdd":
        return [Job("warmup", "van_eijk", spec, impl, True)]
    if workload == "table1-sat":
        return [Job("warmup", "sat_sweep", spec, impl, True)]
    if workload == "portfolio-lanes":
        return [Job("warmup-bmc", "bmc", *delay_line_pair(4), expected=False,
                    options={"max_depth": 4}, cex_depth=4),
                Job("warmup-kind", "k_induction", *onehot_ring_pair(),
                    expected=True, options={"max_depth": 32}),
                Job("warmup-fraig", "fraig_sweep", spec, impl, True)]
    job = Job("warmup", "van_eijk", spec, impl, True)
    job.payload = job_payload(spec, impl, name="warmup",
                              options=job.options)
    return [job]


def write_inputs(jobs, workdir):
    """Save each pair as ``.bench`` files; in-process jobs load from them."""
    for index, job in enumerate(jobs):
        stem = os.path.join(workdir, "{:02d}-{}".format(index, job.name))
        job.spec_path, job.impl_path = stem + ".spec.bench", stem + ".impl.bench"
        interop.save_circuit(job.spec, job.spec_path)
        interop.save_circuit(job.impl, job.impl_path)


# -- checking -------------------------------------------------------------------


def judge(job, result, spec=None, impl=None):
    """``(outcome, reason)`` of one finished job against its label."""
    verdict = result.equivalent
    if verdict is None:
        aborted = result.details.get("aborted")
        if aborted:
            return FAILED, "aborted: {}".format(aborted)
        return UNDECIDED, "inconclusive"
    if verdict is not job.expected:
        return WRONG, "verdict {} but the pair is {}".format(
            verdict, "equivalent" if job.expected else "inequivalent")
    if verdict is False:
        report = validate_refutation(spec or job.spec, impl or job.impl,
                                     result)
        if not report.valid:
            return WRONG, "refutation does not replay: {}".format(
                report.reason)
        if (job.cex_depth is not None
                and len(result.counterexample.full_sequence())
                != job.cex_depth):
            return WRONG, "counterexample depth {} != {}".format(
                len(result.counterexample.full_sequence()), job.cex_depth)
    return OK, None


def result_counts(method, result):
    """Per-job counts the engines report themselves."""
    stats = result.details.get("solver_stats") or {}
    return {
        "fixpoint.iterations": (result.iterations or 0)
        if method in FIXPOINT_METHODS else 0,
        "bdd.peak_nodes": result.peak_nodes or 0,
        "sat.queries": stats.get("sat_queries", 0),
        "retime.rounds": result.details.get("retime_rounds", 0) or 0,
    }


def job_record(job, pass_index, seconds, outcome, reason, counts=None,
               **extra):
    record = {"name": job.name, "method": job.method, "pass": pass_index,
              "seconds": seconds, "outcome": outcome, "reason": reason,
              "counts": counts or {}}
    record.update(extra)
    return record


# -- in-process workloads --------------------------------------------------------


def run_inproc_job(job, pass_index, tracer=None):
    """Load both circuits and verify them; returns ``(record, result)``."""
    if tracer is not None:
        tracer.begin_job("{}/{}".format(pass_index, job.name))
    try:
        started = time.perf_counter()
        # Looked up on the package at call time, so --trace's wrapper sees it.
        spec = interop.load_circuit(job.spec_path)
        impl = interop.load_circuit(job.impl_path)
        result = repro.verify(spec, impl, method=job.method, **job.options)
        seconds = time.perf_counter() - started
    except Exception as exc:  # a raising engine is a failed job, not a crash
        seconds = time.perf_counter() - started
        return job_record(job, pass_index, seconds, FAILED,
                          "raised {!r}".format(exc)), None
    finally:
        if tracer is not None:
            tracer.end_job()
    outcome, reason = judge(job, result, spec, impl)
    return job_record(job, pass_index, seconds, outcome, reason,
                      result_counts(job.method, result)), result


def run_inproc_pass(jobs, pass_index, tracer=None, probes=None):
    """One pass; returns ``(wall_seconds, records, layers)``.

    A host-speed probe runs before each job and is appended to ``probes``.
    """
    records = []
    wall = 0.0
    for job in jobs:
        # Each job starts on a collected heap, as a fresh ``repro-sec
        # verify`` process would; otherwise the previous jobs' garbage makes
        # peak memory and collection pauses depend on the job order.
        gc.collect()
        if probes is not None:
            probes.append(reference_probe())
        record, _ = run_inproc_job(job, pass_index, tracer)
        wall += record["seconds"]
        records.append(record)
    layers = None
    if tracer is not None:
        spans, counts = tracer.take()
        layers = inproc_layers(spans, counts, records)
        layers["_spans"] = spans
    return wall, records, layers


#: Span name -> per-layer metric name.
LAYER_METRICS = {
    "interop.load": "interop.load_s", "netlist.product": "netlist.product_s",
    "sim.compile": "sim.compile_s", "sim.seed": "sim.seed_s",
    "bdd.build": "bdd.build_s", "bdd.fixpoint": "bdd.fixpoint_s",
    "bdd.reorder": "bdd.reorder_s", "retime.augment": "retime.augment_s",
    "sat.solve": "sat.solve_s", "sat.simplify": "sat.simplify_s",
    "sat.clause": "sat.clause_s", "sat.encode": "sat.encode_s",
    "cex.replay": "cex.replay_s", "cex.split": "cex.split_s",
    "sweep.reduce": "sweep.reduce_s", JOB: "job.other_s",
}


def inproc_layers(spans, counts, records):
    """Per-layer metrics of one traced in-process pass."""
    own = self_times(spans)
    layers = {metric: own.get(name, 0.0)
              for name, metric in LAYER_METRICS.items()}
    job_total = sum(end - start for _, name, start, end, _, _ in spans
                    if name == JOB)
    layers["job.traced_s"] = job_total
    layers["job.other_frac"] = (layers["job.other_s"] / job_total
                                if job_total else 0.0)
    queries = counts.get("sat.queries", 0)
    layers["sat.queries"] = queries
    layers["sat.sat_frac"] = (counts.get("sat.sat_answers", 0) / queries
                              if queries else 0.0)
    layers["sat.conflicts"] = counts.get("sat.conflicts", 0)
    layers["sat.propagations"] = counts.get("sat.propagations", 0)
    layers["sat.props_per_s"] = (layers["sat.propagations"]
                                 / layers["sat.solve_s"]
                                 if layers["sat.solve_s"] else 0.0)
    layers["cex.replays"] = counts.get("cex.replays", 0)
    layers.update(engine_layers(records))
    return layers


def engine_layers(records):
    """The counts engines report per job, over one pass."""
    return {
        "bdd.peak_nodes": max(
            [r["counts"].get("bdd.peak_nodes", 0) for r in records] or [0]),
        "fixpoint.iterations": sum(r["counts"].get("fixpoint.iterations", 0)
                                   for r in records),
        "retime.rounds": sum(r["counts"].get("retime.rounds", 0)
                             for r in records),
    }


# -- the daemon workload ---------------------------------------------------------


class Daemon:
    """A ``repro-sec serve`` subprocess with its own store and cache.

    It runs under ``bench/peakrss.py``, which reports the peak memory of
    the daemon and its workers (``peak_rss_kb``) once the daemon has
    stopped.
    """

    def __init__(self, root, workdir, tag):
        self.root = root
        self.dir = os.path.join(workdir, "daemon-{}".format(tag))
        self.proc = None
        self.pid = None
        self.client = None
        self.peak_rss_kb = None

    def start(self, timeout=60.0):
        os.makedirs(self.dir)
        ready = os.path.join(self.dir, "ready.json")
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        with open(os.path.join(self.dir, "daemon.log"), "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, PEAKRSS, os.path.join(self.dir, "rss"),
                 sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--workers", "2", "--rate", "100000", "--burst", "100000",
                 "--queue-limit", "100000", "--quiet",
                 "--store-dir", os.path.join(self.dir, "store"),
                 "--cache-dir", os.path.join(self.dir, "cache"),
                 "--ready-file", ready],
                cwd=self.dir, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + timeout
        while not os.path.exists(ready):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon did not start; see {}".format(
                    os.path.join(self.dir, "daemon.log")))
            time.sleep(0.005)
        with open(ready) as fh:
            info = json.load(fh)
        self.pid = info["pid"]
        self.client = ServerClient(info["url"], timeout=120.0)

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            # peakrss.py passes SIGTERM on to the daemon and waits for it.
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                if self.pid is not None:
                    try:
                        os.kill(self.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        try:
            with open(os.path.join(self.dir, "rss")) as fh:
                self.peak_rss_kb = int(fh.read())
        except (OSError, ValueError):
            pass


def run_daemon_job(client, job, pass_index):
    """Submit one job and wait for its SSE terminal frame.

    The record's ``timeline`` places each phase on the wall clock the
    daemon stamps its job records with: the client's POST, the wait in the
    daemon queue (up to the cache lookup for a hit), the engine run, the
    fork/IPC/poll time around it, and the SSE notification.
    """
    started_wall = time.time()
    started = time.perf_counter()
    try:
        job_id = client.submit_payload(job.payload)
        submitted_wall = time.time()
        record = None
        for event in client.events(job_id, timeout=120.0):
            if event.get("type") == "done":
                record = event["record"]
        seconds = time.perf_counter() - started
        done_wall = time.time()
    except (ServerError, OSError, ValueError, http.client.HTTPException) as exc:
        # Refused, dropped or malformed: the job failed, the run goes on.
        return job_record(job, pass_index, time.perf_counter() - started,
                          FAILED, "server error: {!r}".format(exc))
    if record is None or record.get("state") != "done":
        return job_record(job, pass_index, seconds, FAILED,
                          "job ended {}: {}".format(
                              None if record is None else record.get("state"),
                              None if record is None else record.get("error")))
    outcome = remote_job_result(record)
    if outcome.result is None:
        return job_record(job, pass_index, seconds, FAILED,
                          "no result: {}".format(outcome.error))
    status, reason = judge(job, outcome.result)
    finished = record["finished_at"]
    timeline = {
        "http.submit": (started_wall, submitted_wall),
        "service.queue_wait": (record["submitted_at"],
                               record["started_at"] or finished),
        "sse.notify": (finished, done_wall),
    }
    if not outcome.cached:
        engine_end = record["started_at"] + (outcome.result.seconds or 0.0)
        timeline["engine.run"] = (record["started_at"], engine_end)
        timeline["service.pool_overhead"] = (engine_end, finished)
    counts = result_counts(job.method, outcome.result)
    counts["cache.hit"] = int(bool(outcome.cached))
    return job_record(job, pass_index, seconds, status, reason, counts,
                      cached=bool(outcome.cached),
                      span=(started_wall, done_wall), timeline=timeline)


def run_daemon_pass(daemon, jobs, pass_index, clients=DAEMON_CLIENTS):
    """One pass with ``clients`` closed-loop client threads.

    First-time jobs run before the repeats (a barrier between the two
    phases), so every repeat finds its original in the cache and the hit
    count is the same in every pass.
    """
    records = []
    lock = threading.Lock()
    wall = 0.0
    for phase in ([j for j in jobs if not j.expect_cached],
                  [j for j in jobs if j.expect_cached]):
        pending = list(phase)

        def worker():
            while True:
                with lock:
                    if not pending:
                        return
                    job = pending.pop(0)
                record = run_daemon_job(daemon.client, job, pass_index)
                with lock:
                    records.append(record)

        started = time.perf_counter()
        threads = [threading.Thread(target=worker) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall += time.perf_counter() - started
    stats = daemon.client.stats()
    return wall, records, daemon_layers(records, stats)


DAEMON_PHASES = ("http.submit", "service.queue_wait", "engine.run",
                 "service.pool_overhead", "sse.notify")


def daemon_spans(records):
    """A daemon pass as spans: one ``job`` root per job, its phases as
    children (phases may overlap: the daemon stamps ``submitted_at`` while
    the client's POST is still open)."""
    spans = []
    for record in records:
        if "timeline" not in record:
            continue
        root = len(spans) + 1
        job_id = "{}/{}".format(record["pass"], record["name"])
        spans.append((root, JOB, record["span"][0], record["span"][1], None,
                      job_id))
        for name, (start, end) in record["timeline"].items():
            spans.append((len(spans) + 1, name, start, end, root, job_id))
    return spans


def daemon_layers(records, stats):
    """Per-layer metrics of one daemon pass, from client timings and job
    records."""
    layers = {name + "_s": 0.0 for name in DAEMON_PHASES}
    for record in records:
        for name, (start, end) in (record.get("timeline") or {}).items():
            layers[name + "_s"] += end - start
    hits = [r["seconds"] for r in records if r.get("cached")]
    layers["cache.hit_frac"] = len(hits) / len(records) if records else 0.0
    layers["cache.hit_latency_s"] = (sorted(hits)[len(hits) // 2]
                                     if hits else 0.0)
    layers["service.events_dropped"] = stats["events"]["dropped"]
    layers.update(engine_layers(records))
    return layers


# -- one measured run ------------------------------------------------------------


def pass_count(workload, seconds, smoke=False, trace=False):
    """Passes in one run: enough to fill ``seconds`` on the reference host.

    The count depends on ``seconds`` only, never on how fast this run goes,
    so every run of a workload repeats each job equally often and the
    best-of-repetitions times of two runs stay comparable.  A traced run
    alternates untraced and traced passes and needs at least one of each.
    """
    passes = 1 if smoke else max(1, math.ceil(seconds / PASS_SECONDS[workload]))
    return max(passes, 2) if trace else passes


def deterministic_counts(records):
    """Job names whose engine counts differ between passes."""
    seen = {}
    unstable = set()
    for record in records:
        if record["outcome"] == FAILED:
            continue
        key = tuple(sorted(record["counts"].items()))
        if seen.setdefault(record["name"], key) != key:
            unstable.add(record["name"])
    return sorted(unstable)


def measure(root, workload, seed, seconds, trace, workdir, spawned_at,
            smoke=False, setup_only=False):
    """Set up, then run timed passes; returns the raw run record.

    ``spawned_at`` is the parent's ``time.monotonic()`` just before this
    process was started, so ``setup_s`` covers interpreter start and
    imports.  With ``setup_only`` the run stops at the first timed job.
    """
    jobs = build_jobs(workload, seed, smoke)
    warm = warmup_jobs(workload)
    daemon = None
    try:
        if workload == "daemon-mix":
            daemon = Daemon(root, workdir, "setup")
            daemon.start()
            for job in warm:
                run_daemon_job(daemon.client, job, -1)
        else:
            write_inputs(warm + jobs, workdir)
            for job in warm:
                run_inproc_job(job, -1)
        setup_s = time.monotonic() - spawned_at
        raw = {"workload": workload, "seed": seed, "setup_s": setup_s,
               "clients": DAEMON_CLIENTS if workload == "daemon-mix" else 1}
        if setup_only:
            return raw
        records, walls, probes, spans = [], [], [], None
        traced_passes, layer_passes, daemon_rss_kb = [], [], []
        tracer = Tracer() if trace and workload != "daemon-mix" else None
        for pass_index in range(pass_count(workload, seconds, smoke, trace)):
            # Traced and untraced passes alternate, so both see the same
            # host conditions and their best-of times give the overhead.
            traced = bool(trace) and pass_index % 2 == 1
            if workload == "daemon-mix":
                if daemon is None:
                    daemon = Daemon(root, workdir, pass_index)
                    daemon.start()
                    for job in warm:
                        run_daemon_job(daemon.client, job, -1)
                wall, recs, layers = run_daemon_pass(daemon, jobs, pass_index)
                daemon.stop()
                if daemon.peak_rss_kb is None:
                    raise RuntimeError("daemon reported no peak memory")
                daemon_rss_kb.append(daemon.peak_rss_kb)
                daemon = None
                # Probed between passes: during one, the daemon's own
                # workers would load the probe.
                probes.extend(reference_probe() for _ in range(DAEMON_PROBES))
                if traced and spans is None:
                    spans = daemon_spans(recs)
            else:
                if traced:
                    tracer.install()
                try:
                    wall, recs, layers = run_inproc_pass(
                        jobs, pass_index, tracer if traced else None, probes)
                finally:
                    if traced:
                        tracer.uninstall()
                if traced:
                    pass_spans = layers.pop("_spans")
                    if spans is None:
                        spans = pass_spans
            records.extend(recs)
            walls.append(wall)
            if traced:
                traced_passes.append(pass_index)
                layer_passes.append(layers)
        if workload == "daemon-mix":
            # Every pass runs a fresh daemon: the median of their peaks.
            rss_kb = statistics.median(daemon_rss_kb)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        raw.update({
            "passes": len(walls), "walls": walls, "records": records,
            "traced_passes": traced_passes, "layer_passes": layer_passes,
            "peak_rss_mb": rss_kb / 1024.0, "probes": probes,
            "unstable": deterministic_counts(records),
            "spans": spans,
        })
        return raw
    finally:
        if daemon is not None:
            daemon.stop()
