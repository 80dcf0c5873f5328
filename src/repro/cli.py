"""Command-line interface: ``repro-sec`` / ``python -m repro``.

Subcommands::

    repro-sec verify spec.bench impl.bench [--method van_eijk] [--json]
    repro-sec verify spec.bench impl.bench --portfolio
    repro-sec batch [--rows s386 s510 | --scales small] [--workers 4]
    repro-sec fuzz [--iterations 200] [--seed 0] [--corpus-dir tests/corpus]
    repro-sec table1 [--scales small medium] [--optimize-level 2]
    repro-sec info circuit.bench
    repro-sec serve [--host 127.0.0.1] [--port 8439] [--workers 2]
    repro-sec serve --coordinator [--dead-after 6]
    repro-sec serve --join http://coordinator:8440 [--node-id w1]
    repro-sec remote {verify,status,cancel,watch,stats} --server URL ...
    repro-sec cache [--stats | --prune | --clear] [--cache-dir DIR]

``batch``, ``fuzz`` and ``table1`` accept ``--server URL`` to route their
jobs through a running ``repro-sec serve`` daemon instead of a local
scheduler (see ``docs/SERVER.md``); ``URL`` may be a comma-separated
endpoint list, and a fleet coordinator endpoint (``serve --coordinator``,
see ``docs/FLEET.md``) is preferred automatically.

Circuit files are ``.bench``, BLIF (``.blif``), AIGER ascii (``.aag``) or
AIGER binary (``.aig``), dispatched by extension; anything else is
rejected with the supported list.  ``--json`` prints the shared
machine-readable serialization (:meth:`repro.reach.SecResult.as_dict`)
used by the service cache and event stream.  ``verify`` and ``fuzz``
accept ``--cross-check`` to compare verdicts against ABC/yosys when those
binaries are installed (skipped with a logged reason when not — see
``docs/FORMATS.md``).
"""

import argparse
import json
import sys

from . import METHODS, verify


def _load_circuit(path):
    """Load any supported circuit format, dispatched by extension.

    Unknown extensions and malformed files exit with status 2 and a
    message naming the supported extensions, instead of a traceback.
    """
    from .errors import ParseError
    from .interop.formats import load_circuit

    try:
        return load_circuit(path)
    except ParseError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        raise SystemExit(2)
    except FileNotFoundError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        raise SystemExit(2)


def _print_result_text(result):
    print(result)
    if result.refuted and result.counterexample is not None:
        print("counterexample ({} frames):".format(
            result.counterexample.length))
        for i, frame in enumerate(result.counterexample.full_sequence()):
            assignment = " ".join(
                "{}={}".format(net, int(value))
                for net, value in sorted(frame.items())
            )
            print("  t={}: {}".format(i, assignment))
    if result.details:
        for key, value in sorted(result.details.items()):
            print("  {}: {}".format(key, value))


def _result_exit_code(result):
    return 0 if result.proved else (2 if result.refuted else 1)


#: CLI spellings accepted by ``--engine`` beyond the canonical METHODS names.
_ENGINE_ALIASES = {
    "induction": "k_induction",
    "sat_sweep+induction": "sweep_induct",
    "sat_sweep_induction": "sweep_induct",
}


def _resolve_engine(name):
    """Map an ``--engine`` spelling to a METHODS entry, or raise ValueError
    with a message listing every valid engine name."""
    normalized = name.strip().lower().replace("-", "_")
    normalized = _ENGINE_ALIASES.get(normalized, normalized)
    if normalized in METHODS:
        return normalized
    raise ValueError(
        "unknown engine {!r}; valid engines: {}".format(
            name, ", ".join(METHODS)))


def _cmd_verify(args):
    from .service import EventBus, JsonlEventWriter, LiveRenderer
    from .service.events import JOB_PROGRESS

    if args.engine:
        try:
            args.method = _resolve_engine(args.engine)
        except ValueError as exc:
            print("error: {}".format(exc), file=sys.stderr)
            return 2
    spec = _load_circuit(args.spec)
    impl = _load_circuit(args.impl)
    bus = EventBus()
    if not args.json:
        bus.subscribe(LiveRenderer(verbose=args.verbose))
    writer = None
    if args.events:
        writer = JsonlEventWriter(args.events)
        bus.subscribe(writer)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if args.portfolio:
            from .service import run_portfolio

            result = run_portfolio(
                spec, impl,
                time_limit=args.time_limit,
                match_inputs=args.match_inputs,
                match_outputs=args.match_outputs,
                bus=bus,
            )
        else:
            options = {"time_limit": args.time_limit or None}
            if args.node_limit and args.method in ("van_eijk", "traversal"):
                options["node_limit"] = args.node_limit
            if args.method == "van_eijk":
                options.update(
                    use_simulation=not args.no_simulation,
                    use_fundeps=not args.no_fundeps,
                    use_retiming=not args.no_retiming,
                )
                if args.reach_bound:
                    options["reach_bound"] = args.reach_bound
            elif args.method == "bmc":
                options["max_depth"] = args.max_depth
            elif args.method in ("k_induction", "sweep_induct"):
                options["max_depth"] = args.max_depth
                options["strengthen"] = not args.no_strengthen
                if args.method == "sweep_induct":
                    options["fallback"] = not args.no_fallback
            if args.verbose or args.events:
                job_name = spec.name or "verify"

                def progress(kind, **data):
                    data["kind"] = kind
                    bus.emit(JOB_PROGRESS, job=job_name, **data)

                options["progress"] = progress
            result = verify(spec, impl, method=args.method,
                            match_inputs=args.match_inputs,
                            match_outputs=args.match_outputs, **options)
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
            print("profile: pstats dumped to {}".format(args.profile),
                  file=sys.stderr)
        if writer is not None:
            writer.close()
    cross = None
    if args.cross_check:
        from .interop.oracle import cross_check

        cross = cross_check(spec, impl, result.equivalent)
    if args.json:
        payload = result.as_dict()
        payload["spec"] = str(args.spec)
        payload["impl"] = str(args.impl)
        if cross is not None:
            payload["cross_check"] = {
                "ran": cross["ran"],
                "skipped_reason": cross["skipped_reason"],
                "verdicts": [v.to_dict() for v in cross["verdicts"]],
                "agreements": cross["agreements"],
                "disagreements": cross["disagreements"],
            }
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_result_text(result)
        if cross is not None:
            _print_cross_check(cross)
    return _result_exit_code(result)


def _print_cross_check(cross):
    if not cross["ran"]:
        print("cross-check: skipped ({})".format(cross["skipped_reason"]))
        return
    for verdict in cross["verdicts"]:
        state = {True: "equivalent", False: "NOT equivalent",
                 None: "inconclusive"}[verdict.verdict]
        marker = ""
        if verdict.tool in cross["disagreements"]:
            marker = "  << DISAGREES with our verdict"
        elif verdict.tool in cross["agreements"]:
            marker = "  (agrees)"
        print("cross-check: {} -> {} [{:.2f}s] {}{}".format(
            verdict.tool, state, verdict.elapsed, verdict.reason, marker))


def _cmd_batch(args):
    from .circuits import row_by_name, table1_suite
    from .service import (BatchScheduler, EventBus, JobSpec,
                          JsonlEventWriter, LiveRenderer, ResultCache)

    if args.rows:
        try:
            rows = [row_by_name(name) for name in args.rows]
        except KeyError as exc:
            known = ", ".join(row.name for row in table1_suite())
            print("error: unknown suite row {} (choices: {})".format(
                exc, known), file=sys.stderr)
            return 1
    else:
        rows = table1_suite(scales=tuple(args.scales))
    jobs = []
    for row in rows:
        spec, impl = row.pair(optimize_level=args.optimize_level)
        jobs.append(JobSpec(row.name, spec, impl, method=args.method,
                            tags={"scale": row.scale}))
    bus = EventBus()
    if not args.json:
        bus.subscribe(LiveRenderer(verbose=args.verbose))
    writer = None
    if args.events:
        writer = JsonlEventWriter(args.events)
        bus.subscribe(writer)
    if args.server:
        from .client import RemoteScheduler

        scheduler = RemoteScheduler(args.server, bus=bus)
    else:
        cache = None if args.no_cache else ResultCache(args.cache_dir)
        scheduler = BatchScheduler(
            workers=args.workers,
            cache=cache,
            bus=bus,
            retries=args.retries,
            fallback_method=args.fallback,
            job_time_limit=args.time_limit,
            total_time_limit=args.total_time_limit,
            node_limit=args.node_limit,
        )
    try:
        results = scheduler.run(jobs)
    except KeyboardInterrupt:
        # Workers are already terminated by the scheduler's cleanup path.
        print("\nbatch: interrupted", file=sys.stderr)
        return 130
    finally:
        if writer is not None:
            writer.close()
    if getattr(scheduler, "interrupted", None):
        # The scheduler's signal handlers already cancelled the workers
        # gracefully and flushed the event stream.
        print("\nbatch: interrupted ({})".format(scheduler.interrupted),
              file=sys.stderr)
        return 130
    if args.json:
        print(json.dumps([r.as_dict() for r in results], sort_keys=True))
    if any(r.verdict is False for r in results):
        return 2
    if any(r.verdict is None for r in results):
        return 1
    return 0


def _cmd_fuzz(args):
    from .fuzz import DifferentialFuzzer
    from .service import EventBus, JsonlEventWriter, ResultCache

    bus = EventBus()
    if not args.json:
        bus.subscribe(_FuzzNarrator(verbose=args.verbose))
    writer = None
    if args.events:
        writer = JsonlEventWriter(args.events)
        bus.subscribe(writer)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    scheduler = None
    if args.server:
        from .client import RemoteScheduler

        scheduler = RemoteScheduler(args.server, bus=bus)
    fuzzer = DifferentialFuzzer(
        seed=args.seed,
        engines=args.engines,
        workers=args.workers,
        corpus_dir=args.corpus_dir or None,
        bus=bus,
        cache=cache,
        job_time_limit=args.time_limit,
        scheduler=scheduler,
        cross_check=args.cross_check,
        datapath_probability=args.datapath_probability,
    )
    try:
        report = fuzzer.run(iterations=args.iterations,
                            time_budget=args.time_budget)
    except KeyboardInterrupt:
        print("\nfuzz: interrupted", file=sys.stderr)
        return 130
    finally:
        if writer is not None:
            writer.close()
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        _print_fuzz_summary(report)
    return 0 if report.clean else 2


class _FuzzNarrator:
    """Terse per-event progress lines for interactive fuzz runs."""

    def __init__(self, verbose=False):
        self.verbose = verbose

    def __call__(self, event):
        data = event.data
        if event.type == "fuzz_started":
            print("fuzz: seed={} iterations={} engines={}".format(
                data["seed"], data["iterations"],
                ",".join(data["engines"])))
        elif event.type == "fuzz_case_finished" and self.verbose:
            verdicts = " ".join(
                "{}={}".format(m, {True: "eq", False: "neq", None: "?"}[v])
                for m, v in sorted(data["verdicts"].items()))
            print("  {} expected={} {} ({:.2f}s)".format(
                event.job, data["expected"], verdicts, data["seconds"]))
        elif event.type == "fuzz_disagreement":
            print("  DISAGREEMENT {} {} methods={}".format(
                event.job, data["kind"], ",".join(data["methods"])))
        elif event.type == "fuzz_shrunk":
            print("  shrunk {}: size {} -> {} ({} evaluations)".format(
                event.job, data["size_from"], data["size_to"],
                data["evaluations"]))
        elif event.type == "fuzz_corpus_saved":
            print("  corpus {} {} ({})".format(
                data["entry"], data["path"],
                "new" if data["new"] else "duplicate"))
        elif event.type == "fuzz_cross_check_skipped":
            print("  cross-check skipped: {}".format(data["reason"]))
        elif event.type == "fuzz_cross_check" and self.verbose:
            verdicts = " ".join(
                "{}={}".format(v["tool"],
                               {True: "eq", False: "neq", None: "?"}[
                                   v["verdict"]])
                for v in data["verdicts"])
            print("  {} cross-check ours={} {}".format(
                event.job, data["ours"], verdicts))


def _print_fuzz_summary(report):
    data = report.as_dict()
    print("fuzz: {} cases in {:.1f}s ({} skipped, stopped by {})".format(
        data["cases_run"], data["seconds"], data["cases_skipped"],
        data["stopped"]))
    for method, tally in sorted(data["verdicts"].items()):
        print("  {}: proved={} refuted={} undecided={}".format(
            method, tally["proved"], tally["refuted"], tally["undecided"]))
    print("  refutations replay-validated: {}".format(
        data["refutations_validated"]))
    if report.clean:
        print("  no disagreements")
    else:
        print("  FINDINGS: {}".format(len(data["findings"])))
        for finding in data["findings"]:
            print("    {} case={} methods={}".format(
                finding["kind"], finding["case"],
                ",".join(finding["methods"])))
        if data["corpus_written"]:
            print("  corpus entries written: {}".format(
                len(data["corpus_written"])))


def _cmd_table1(args):
    from .circuits import table1_suite
    from .eval import render_table1, run_table

    scheduler = None
    if args.server:
        from .client import RemoteScheduler

        scheduler = RemoteScheduler(args.server)
    rows = table1_suite(scales=tuple(args.scales))
    results = run_table(
        rows,
        workers=args.workers,
        scheduler=scheduler,
        optimize_level=args.optimize_level,
        traversal_time_limit=args.traversal_time_limit,
        proposed_time_limit=args.proposed_time_limit,
    )
    print(render_table1(results))
    return 0


def _cmd_serve(args):
    from .server import serve
    from .service import EventBus, JsonlEventWriter, LiveRenderer

    if args.coordinator and args.join:
        print("serve: --coordinator and --join are mutually exclusive",
              file=sys.stderr)
        return 2
    bus = EventBus()
    if not args.quiet:
        bus.subscribe(LiveRenderer(verbose=args.verbose))
    writer = None
    if args.events:
        writer = JsonlEventWriter(args.events)
        bus.subscribe(writer)
    try:
        if args.coordinator:
            from .fleet import serve_coordinator

            return serve_coordinator(
                host=args.host,
                port=args.port,
                store_dir=args.store_dir,
                cache_dir=None if args.no_cache else args.cache_dir,
                cache_max_entries=args.cache_max_entries,
                cache_max_bytes=args.cache_max_bytes,
                queue_limit=args.queue_limit,
                rate=args.rate,
                burst=args.burst,
                dead_after=args.dead_after,
                heartbeat_interval=args.heartbeat,
                ready_file=args.ready_file,
                bus=bus,
            )
        trusted = list(args.trusted_proxy or ())
        remote_cache_url = args.cache_url
        if args.join:
            import urllib.parse

            joined = urllib.parse.urlsplit(args.join)
            if joined.hostname and joined.hostname not in trusted:
                # The coordinator proxies client traffic to this node:
                # trust its X-Forwarded-For so rate limiting buckets by
                # the real downstream client.
                trusted.append(joined.hostname)
            if remote_cache_url is None and not args.no_remote_cache:
                remote_cache_url = args.join
        return serve(
            host=args.host,
            port=args.port,
            workers=args.workers,
            store_dir=args.store_dir,
            cache_dir=None if args.no_cache else args.cache_dir,
            cache_max_entries=args.cache_max_entries,
            cache_max_bytes=args.cache_max_bytes,
            queue_limit=args.queue_limit,
            job_time_limit=args.time_limit,
            rate=args.rate,
            burst=args.burst,
            ready_file=args.ready_file,
            node_id=args.node_id,
            join_url=args.join,
            advertise_host=args.advertise_host,
            heartbeat_interval=args.heartbeat,
            trusted_proxies=trusted,
            remote_cache_url=remote_cache_url,
            bus=bus,
        )
    finally:
        if writer is not None:
            writer.close()


def _remote_client(args):
    from .client import ServerClient

    return ServerClient(args.server)


def _watch_events(client, job_id, json_mode):
    """Stream a job's SSE events to completion; returns the final record."""
    from .service import LiveRenderer
    from .service.events import Event

    renderer = None if json_mode else LiveRenderer(verbose=True)
    for payload in client.events(job_id):
        if payload.get("type") == "done":
            return payload["record"]
        if renderer is not None:
            renderer(Event.from_dict(payload))
        elif json_mode == "events":
            print(json.dumps(payload, sort_keys=True))
    # Stream ended without a terminal event (daemon shut down mid-job).
    return client.job(job_id)


def _remote_record_exit(record, json_mode):
    from .client import remote_job_result

    job_result = remote_job_result(record)
    if json_mode:
        print(json.dumps(record, sort_keys=True))
    else:
        print("job {}: {} ({}{})".format(
            record["id"], record["state"],
            {True: "proved", False: "REFUTED", None: "undecided"}[
                job_result.verdict],
            ", cached" if job_result.cached else ""))
        if job_result.result is not None:
            _print_result_text(job_result.result)
        elif record.get("error"):
            print("  error: {}".format(record["error"]))
    if record["state"] == "cancelled":
        return 3
    if record["state"] == "error":
        return 1
    result = job_result.result
    return _result_exit_code(result) if result is not None else 1


def _cmd_remote(args):
    from .client import ServerError

    try:
        return args.remote_func(args)
    except ServerError as exc:
        print("remote: {}".format(exc), file=sys.stderr)
        return 1


def _remote_verify(args):
    client = _remote_client(args)
    options = {}
    if args.time_limit:
        options["time_limit"] = args.time_limit
    if args.max_depth is not None:
        options["max_depth"] = args.max_depth
    if args.suite:
        job_id = client.submit_suite(
            args.suite, method=args.method, options=options,
            optimize_level=args.optimize_level)
    else:
        if not (args.spec and args.impl):
            print("error: give SPEC and IMPL files or --suite ROW",
                  file=sys.stderr)
            return 2
        spec = _load_circuit(args.spec)
        impl = _load_circuit(args.impl)
        job_id = client.submit(
            spec, impl, method=args.method, options=options,
            match_inputs=args.match_inputs,
            match_outputs=args.match_outputs)
    if not args.json:
        print("submitted {}".format(job_id))
    if args.no_watch:
        record = client.wait(job_id)
    else:
        record = _watch_events(client, job_id, "json" if args.json else None)
    return _remote_record_exit(record, args.json)


def _remote_status(args):
    client = _remote_client(args)
    if args.job_id:
        record = client.job(args.job_id)
        print(json.dumps(record, sort_keys=True, indent=2))
        return 0
    for summary in client.jobs():
        print("{id}  {state:<9}  {name}  ({method})".format(**summary))
    return 0


def _remote_cancel(args):
    client = _remote_client(args)
    response = client.cancel(args.job_id)
    print(json.dumps(response, sort_keys=True))
    return 0


def _remote_watch(args):
    client = _remote_client(args)
    record = _watch_events(client, args.job_id,
                           "events" if args.json else None)
    return _remote_record_exit(record, args.json)


def _remote_stats(args):
    client = _remote_client(args)
    print(json.dumps(client.stats(), sort_keys=True, indent=2))
    return 0


def _cmd_cache(args):
    from .service import ResultCache

    cache = ResultCache(args.cache_dir, max_entries=args.max_entries,
                        max_bytes=args.max_bytes)
    if args.clear:
        before = len(cache)
        cache.clear()
        print("cache: cleared {} entries".format(before))
        return 0
    if args.prune:
        if args.max_entries is None and args.max_bytes is None:
            print("error: --prune needs --max-entries and/or --max-bytes",
                  file=sys.stderr)
            return 2
        evicted = cache.prune()
        print("cache: evicted {} entries ({} left, {} bytes)".format(
            evicted, len(cache), cache.total_bytes()))
        return 0
    for key, value in sorted(cache.stats().items()):
        print("{}: {}".format(key, value))
    return 0


def _cmd_info(args):
    from .errors import ParseError
    from .interop.formats import format_info

    try:
        info = format_info(args.circuit)
    except (ParseError, FileNotFoundError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    print("format: {}".format(info["format"]))
    for key, value in info["circuit"].stats().items():
        print("{}: {}".format(key, value))
    header = info["aiger"]
    print("aiger: M={M} I={I} L={L} O={O} A={A}".format(**header))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-sec",
        description="Sequential equivalence checking without state space "
                    "traversal (van Eijk, DATE 1998).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check two circuits")
    p_verify.add_argument("spec")
    p_verify.add_argument("impl")
    p_verify.add_argument("--method", choices=METHODS, default="van_eijk")
    p_verify.add_argument("--engine", metavar="NAME",
                          help="engine to run (accepts spellings like "
                               "'k-induction'); overrides --method and "
                               "rejects unknown names with the valid list")
    p_verify.add_argument("--portfolio", action="store_true",
                          help="race van_eijk/fraig_sweep/k_induction/bmc/"
                               "traversal in parallel; first conclusive "
                               "verdict wins")
    p_verify.add_argument("--json", action="store_true",
                          help="print the machine-readable verdict/stats "
                               "dict instead of text")
    p_verify.add_argument("--verbose", action="store_true")
    p_verify.add_argument("--match-inputs", choices=["name", "order"],
                          default="name")
    p_verify.add_argument("--match-outputs", choices=["name", "order"],
                          default="order")
    p_verify.add_argument("--events", metavar="FILE",
                          help="append the JSONL progress event stream "
                               "(refinement rounds, solver stats) to FILE")
    p_verify.add_argument("--no-simulation", action="store_true")
    p_verify.add_argument("--no-fundeps", action="store_true")
    p_verify.add_argument("--no-retiming", action="store_true")
    p_verify.add_argument("--profile", metavar="FILE",
                          help="profile the verification with cProfile and "
                               "dump pstats data to FILE")
    p_verify.add_argument("--no-strengthen", action="store_true",
                          help="k_induction/sweep_induct only: plain "
                               "k-induction without partition invariants")
    p_verify.add_argument("--no-fallback", action="store_true",
                          help="sweep_induct only: fail fast on an "
                               "inconclusive fixed point instead of "
                               "handing its partition to induction")
    p_verify.add_argument("--reach-bound", choices=["approx", "exact"])
    p_verify.add_argument("--time-limit", type=float)
    p_verify.add_argument("--node-limit", type=int)
    p_verify.add_argument("--max-depth", type=int, default=32,
                          help="BMC unrolling bound / maximum induction "
                               "depth")
    p_verify.add_argument("--cross-check", action="store_true",
                          help="also run ABC (dsec/cec) and yosys "
                               "(equiv_induct) on the pair and compare "
                               "verdicts; skips with a logged reason when "
                               "the binaries are not installed")
    p_verify.set_defaults(func=_cmd_verify)

    p_batch = sub.add_parser(
        "batch", help="verify many suite pairs on the batch scheduler")
    p_batch.add_argument("--rows", nargs="+",
                         help="suite row names (e.g. s386 s510); default: "
                              "all rows of the selected scales")
    p_batch.add_argument("--scales", nargs="+", default=["small"],
                         choices=["small", "medium", "large"])
    p_batch.add_argument("--method", choices=METHODS, default="van_eijk")
    p_batch.add_argument("--workers", type=int, default=2,
                         help="parallel worker processes (0 = inline)")
    p_batch.add_argument("--optimize-level", type=int, default=2)
    p_batch.add_argument("--time-limit", type=float, default=300.0,
                         help="per-job engine time budget (seconds)")
    p_batch.add_argument("--total-time-limit", type=float,
                         help="whole-batch wall-clock budget (seconds)")
    p_batch.add_argument("--node-limit", type=int,
                         help="per-job BDD node budget")
    p_batch.add_argument("--retries", type=int, default=1,
                         help="retries per job after a worker crash")
    p_batch.add_argument("--fallback", choices=METHODS,
                         help="method to rerun inconclusive jobs with "
                              "(e.g. k_induction or bmc)")
    p_batch.add_argument("--cache-dir", default=".repro-cache")
    p_batch.add_argument("--no-cache", action="store_true")
    p_batch.add_argument("--events", metavar="FILE",
                         help="append the JSONL event stream to FILE")
    p_batch.add_argument("--json", action="store_true",
                         help="print per-job results as JSON")
    p_batch.add_argument("--verbose", action="store_true",
                         help="also print per-iteration progress events")
    p_batch.add_argument("--server", metavar="URL",
                         help="route jobs through a repro-sec serve daemon "
                              "instead of a local scheduler")
    p_batch.set_defaults(func=_cmd_batch)

    p_fuzz = sub.add_parser(
        "fuzz", help="differentially fuzz the engines on seeded pairs "
                     "with known verdicts")
    p_fuzz.add_argument("--iterations", type=int, default=100)
    p_fuzz.add_argument("--time-budget", type=float,
                        help="stop after this many seconds (soak mode)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="run seed; distinct seeds fuzz disjoint cases")
    p_fuzz.add_argument("--corpus-dir", default="tests/corpus",
                        help="where shrunk findings are persisted "
                             "(use '' to disable)")
    p_fuzz.add_argument("--workers", type=int, default=0,
                        help="scheduler worker processes (0 = inline)")
    p_fuzz.add_argument("--engines", nargs="+", choices=METHODS,
                        help="engine battery (default: van_eijk sat_sweep "
                             "fraig_sweep bmc k_induction traversal)")
    p_fuzz.add_argument("--time-limit", type=float,
                        help="per-engine-job time budget (seconds)")
    p_fuzz.add_argument("--cache-dir",
                        help="optional ResultCache directory")
    p_fuzz.add_argument("--events", metavar="FILE",
                        help="append the JSONL event stream to FILE")
    p_fuzz.add_argument("--json", action="store_true",
                        help="print the full fuzz report as JSON")
    p_fuzz.add_argument("--verbose", action="store_true",
                        help="print one line per fuzz case")
    p_fuzz.add_argument("--server", metavar="URL",
                        help="run the engine battery on a repro-sec serve "
                             "daemon (shrinking stays local)")
    p_fuzz.add_argument("--cross-check", action="store_true",
                        help="also judge every case with ABC/yosys when "
                             "installed; conclusive disagreements become "
                             "findings (skips gracefully when absent)")
    p_fuzz.add_argument("--datapath-probability", type=float, default=0.2,
                        metavar="P",
                        help="fraction of cases built from the arithmetic "
                             "datapath generators instead of random motif "
                             "benchmarks (1.0 = datapath only)")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_table = sub.add_parser("table1", help="run the Table-1 experiment")
    p_table.add_argument("--scales", nargs="+", default=["small"],
                         choices=["small", "medium", "large"])
    p_table.add_argument("--workers", type=int, default=0,
                         help="parallelize rows across worker processes")
    p_table.add_argument("--optimize-level", type=int, default=2)
    p_table.add_argument("--traversal-time-limit", type=float, default=60.0)
    p_table.add_argument("--proposed-time-limit", type=float, default=300.0)
    p_table.add_argument("--server", metavar="URL",
                         help="run the table's jobs on a repro-sec serve "
                              "daemon")
    p_table.set_defaults(func=_cmd_table1)

    p_info = sub.add_parser("info", help="print circuit statistics")
    p_info.add_argument("circuit")
    p_info.set_defaults(func=_cmd_info)

    p_serve = sub.add_parser(
        "serve", help="run the network verification daemon")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8439,
                         help="TCP port (0 = pick an ephemeral port)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="parallel worker processes")
    p_serve.add_argument("--store-dir", default=".repro-server",
                         help="persistent job store (queue survives "
                              "restarts)")
    p_serve.add_argument("--cache-dir", default=".repro-cache")
    p_serve.add_argument("--no-cache", action="store_true")
    p_serve.add_argument("--cache-max-entries", type=int)
    p_serve.add_argument("--cache-max-bytes", type=int)
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="max queued+running jobs before submissions "
                              "get 429 backpressure")
    p_serve.add_argument("--time-limit", type=float,
                         help="per-job engine time budget (seconds)")
    p_serve.add_argument("--rate", type=float, default=20.0,
                         help="per-client request rate (requests/second)")
    p_serve.add_argument("--burst", type=int, default=40,
                         help="per-client burst allowance")
    p_serve.add_argument("--ready-file", metavar="FILE",
                         help="write {host, port, pid, url} JSON once "
                              "listening (for scripts and tests)")
    p_serve.add_argument("--coordinator", action="store_true",
                         help="run the fleet coordinator instead of a "
                              "worker daemon: shard submitted jobs across "
                              "nodes that --join this URL")
    p_serve.add_argument("--join", metavar="URL",
                         help="join the fleet behind the coordinator at "
                              "URL (register, heartbeat, share its "
                              "result cache)")
    p_serve.add_argument("--node-id", metavar="NAME",
                         help="stable node name within the fleet "
                              "(default: generated per process)")
    p_serve.add_argument("--advertise-host", metavar="HOST",
                         help="host the coordinator should dial back on "
                              "(default: the bind host)")
    p_serve.add_argument("--heartbeat", type=float, default=2.0,
                         metavar="SECONDS",
                         help="worker heartbeat interval / coordinator "
                              "heartbeat expectation")
    p_serve.add_argument("--dead-after", type=float, default=6.0,
                         metavar="SECONDS",
                         help="coordinator only: declare a node dead and "
                              "requeue its jobs after this much heartbeat "
                              "silence")
    p_serve.add_argument("--trusted-proxy", action="append", metavar="IP",
                         help="honor X-Forwarded-For from this peer for "
                              "rate limiting (repeatable; --join adds the "
                              "coordinator host automatically)")
    p_serve.add_argument("--cache-url", metavar="URL",
                         help="remote result-cache base URL (default: the "
                              "--join coordinator)")
    p_serve.add_argument("--no-remote-cache", action="store_true",
                         help="do not share the coordinator's result "
                              "cache when joining a fleet")
    p_serve.add_argument("--events", metavar="FILE",
                         help="append the JSONL event stream to FILE")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress the live event log")
    p_serve.add_argument("--verbose", action="store_true",
                         help="also log per-iteration progress events")
    p_serve.set_defaults(func=_cmd_serve)

    p_remote = sub.add_parser(
        "remote", help="talk to a repro-sec serve daemon")
    remote_sub = p_remote.add_subparsers(dest="remote_command", required=True)

    def add_server_arg(p):
        p.add_argument("--server", required=True, metavar="URL",
                       help="daemon base URL, e.g. http://127.0.0.1:8439")

    pr_verify = remote_sub.add_parser(
        "verify", help="submit a job and stream it to completion")
    pr_verify.add_argument("spec", nargs="?")
    pr_verify.add_argument("impl", nargs="?")
    add_server_arg(pr_verify)
    pr_verify.add_argument("--suite", metavar="ROW",
                           help="verify a named Table-1 suite pair built "
                                "server-side (instead of SPEC IMPL files)")
    pr_verify.add_argument("--method", choices=METHODS, default="van_eijk")
    pr_verify.add_argument("--optimize-level", type=int, default=2)
    pr_verify.add_argument("--match-inputs", choices=["name", "order"],
                           default="name")
    pr_verify.add_argument("--match-outputs", choices=["name", "order"],
                           default="order")
    pr_verify.add_argument("--time-limit", type=float)
    pr_verify.add_argument("--max-depth", type=int,
                           help="BMC unrolling bound")
    pr_verify.add_argument("--no-watch", action="store_true",
                           help="poll for the verdict instead of streaming "
                                "the SSE progress events")
    pr_verify.add_argument("--json", action="store_true")
    pr_verify.set_defaults(func=_cmd_remote, remote_func=_remote_verify)

    pr_status = remote_sub.add_parser(
        "status", help="show one job (or list all jobs)")
    pr_status.add_argument("job_id", nargs="?")
    add_server_arg(pr_status)
    pr_status.set_defaults(func=_cmd_remote, remote_func=_remote_status)

    pr_cancel = remote_sub.add_parser("cancel", help="cancel a job")
    pr_cancel.add_argument("job_id")
    add_server_arg(pr_cancel)
    pr_cancel.set_defaults(func=_cmd_remote, remote_func=_remote_cancel)

    pr_watch = remote_sub.add_parser(
        "watch", help="stream a job's SSE events to completion")
    pr_watch.add_argument("job_id")
    add_server_arg(pr_watch)
    pr_watch.add_argument("--json", action="store_true",
                          help="print raw event JSON lines")
    pr_watch.set_defaults(func=_cmd_remote, remote_func=_remote_watch)

    pr_stats = remote_sub.add_parser("stats", help="print daemon stats")
    add_server_arg(pr_stats)
    pr_stats.set_defaults(func=_cmd_remote, remote_func=_remote_stats)

    p_cache = sub.add_parser(
        "cache", help="inspect or trim the result cache")
    p_cache.add_argument("--cache-dir", default=".repro-cache")
    p_cache.add_argument("--stats", action="store_true",
                         help="print cache statistics (default action)")
    p_cache.add_argument("--clear", action="store_true",
                         help="delete every entry")
    p_cache.add_argument("--prune", action="store_true",
                         help="evict least-recently-used entries past the "
                              "caps")
    p_cache.add_argument("--max-entries", type=int,
                         help="entry-count cap for --prune")
    p_cache.add_argument("--max-bytes", type=int,
                         help="byte-size cap for --prune")
    p_cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
