"""Percentiles, the host-speed probe, run-to-run spread and ``--compare``."""

import math
import statistics
import time

#: Host facts whose difference makes two result files incomparable.
HOST_KEYS = ("usable_cores", "cpu_count", "python", "numpy", "machine")

#: Per-layer counts that must repeat exactly at a fixed seed.
DETERMINISTIC_COUNTS = ("sat.queries", "bdd.peak_nodes", "fixpoint.iterations",
                        "cex.replays")


def percentile(values, q):
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks; ``values`` need not be sorted."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of ``n`` samples lie above the ``q``-th percentile; a tail
    percentile is worth reporting from raw samples when this is 10 or more."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


#: Seconds :func:`reference_probe` takes on the reference host (2-core
#: x86_64, Python 3.11): the 10th percentile of its probes in ordinary runs.
REFERENCE_PROBE_S = 0.0017


def reference_probe():
    """Time a fixed pure-Python loop that runs no repository code."""
    started = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    return time.perf_counter() - started


def host_slowdown(probes):
    """How much slower than the reference host this run's host was.

    The shared host has slow spells lasting minutes, in which the probe and
    every job slow down alike (both about 1.5x in one measured spell); best
    of a few repetitions cannot escape a spell that covers the whole run.
    Job times are best-of-repetitions, i.e. they come from the host's faster
    moments, so they are compared with an equally low quantile of the
    probes.
    """
    return percentile(probes, 10) / REFERENCE_PROBE_S


def best_times(records):
    """Each job's fastest repetition, in first-seen job order.

    Other tenants of a shared host slow a repetition down, never speed it
    up, so the fastest repetition is the one that measures the program
    (the ``timeit`` convention).
    """
    best = {}
    for record in records:
        name = record["name"]
        best[name] = min(best.get(name, math.inf), record["seconds"])
    return list(best.values())


def quartiles(values):
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def judge(base, new, better, bound):
    """Label one metric from two lists of per-run values.

    ``unresolved`` when either side's spread exceeds ``bound`` (unless every
    new run beats every base run), ``regressed`` when the new median is
    worse by more than ``bound``, ``improved`` when it is better by more
    than the base spread and wins at least nine tenths of the index-paired
    runs, ``unchanged`` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    base_med = statistics.median(base)
    new_med = statistics.median(new)
    delta = sign * (new_med - base_med) / abs(base_med) if base_med else 0.0
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    noise = max(spread(base), spread(new))
    if noise > bound:
        return ("improved" if all_better else "unresolved"), delta, noise
    if delta < -bound:
        return "regressed", delta, noise
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if pairs and delta > spread(base) and wins >= 0.9 * len(pairs):
        return "improved", delta, noise
    return "unchanged", delta, noise


def host_differences(base_host, new_host):
    return [
        "{}: {!r} vs {!r}".format(key, base_host.get(key), new_host.get(key))
        for key in HOST_KEYS if base_host.get(key) != new_host.get(key)
    ]


def compare(base, new, spec):
    """Compare two result files; returns ``(rows, warnings)``.

    Each row is ``(workload, metric, unit, base_q, new_q, delta, spread,
    label)`` where ``*_q`` are (Q1, median, Q3).  ``spec`` is the parsed
    ``BENCHMARK.json``.
    """
    warnings = ["host differs: " + diff
                for diff in host_differences(base.get("host", {}),
                                             new.get("host", {}))]
    rows = []
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        base_runs = base["workloads"][workload]["runs"]
        new_runs = new["workloads"][workload]["runs"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [run["metrics"][name] for run in base_runs
                 if name in run["metrics"]]
            n = [run["metrics"][name] for run in new_runs
                 if name in run["metrics"]]
            if not b or not n:
                continue
            label, delta, noise = judge(b, n, metric["better"],
                                        metric["bound"])
            rows.append((workload, name, metric["unit"], quartiles(b),
                         quartiles(n), delta, noise, label))
        for name in DETERMINISTIC_COUNTS:
            b = {run["layers"].get(name) for run in base_runs
                 if run.get("layers")}
            n = {run["layers"].get(name) for run in new_runs
                 if run.get("layers")}
            if b and n and b != n:
                warnings.append("{}: count {} differs: {} vs {}".format(
                    workload, name, sorted(b), sorted(n)))
    return rows, warnings


def format_compare(rows, warnings):
    lines = ["{:<16} {:<14} {:>12} {:>12} {:>8} {:>7}  {}".format(
        "workload", "metric", "base p50", "new p50", "delta", "spread",
        "verdict")]
    for workload, name, unit, bq, nq, delta, noise, label in rows:
        lines.append("{:<16} {:<14} {:>12.5g} {:>12.5g} {:>+7.1%} {:>7.1%}  "
                     "{} ({})".format(workload, name, bq[1], nq[1], delta,
                                      noise, label, unit))
    lines.extend("WARNING: " + warning for warning in warnings)
    return "\n".join(lines)
