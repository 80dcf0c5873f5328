"""Ablation experiments (the paper's §3/§4 design choices, isolated).

Each function returns a list of row dicts; ``tests/eval/test_eval.py``
pins their counts:

* E3/E6 — retiming augmentation: provability of retimed pairs and of
  Fig. 3 (Fig. 4).
* E4 — simulation seeding: iteration counts with/without (§4).
* E5 — functional dependencies: substitution counts, nodes, time (§4);
  plus the traversal baseline with/without register correspondence
  ("performs considerably worse" without, §5).
* E7 — optimization level vs. %eqs (the 85% vs 54% footnote, §5).
* E9 — reachability-strengthened correspondence condition (§3).

All verification calls go through the batch scheduler: every ablation
accepts ``workers`` (0 = inline/sequential, N = parallel worker
processes), ``cache`` and ``bus`` and forwards them to
:class:`repro.service.BatchScheduler`, so ablation sweeps parallelize and
reuse cached verdicts exactly like the Table-1 reproduction.
"""

from ..circuits.paper_example import fig3_pair, onehot_ring_pair
from ..service import BatchScheduler, JobSpec
from ..transform import retime

_TRAVERSAL_BUDGET = dict(time_limit=60, node_limit=200000,
                         max_iterations=600)


def _schedule(jobs, workers=0, cache=None, bus=None):
    """Run job specs through the scheduler; returns their SecResults."""
    scheduler = BatchScheduler(workers=workers, cache=cache, bus=bus)
    return [outcome.result for outcome in scheduler.run(jobs)]


def _job(name, spec, impl, method="van_eijk", **options):
    return JobSpec(name, spec, impl, method=method, options=options,
                   match_outputs="order")


def ablation_simulation(rows, optimize_level=2, workers=0, cache=None,
                        bus=None):
    """E4: fixpoint iterations and time with/without simulation seeding."""
    jobs = []
    for row in rows:
        spec, impl = row.pair(optimize_level=optimize_level)
        jobs.append(_job(row.name, spec, impl, use_simulation=True))
        jobs.append(_job(row.name, spec, impl, use_simulation=False))
    outcomes = _schedule(jobs, workers=workers, cache=cache, bus=bus)
    results = []
    for i, row in enumerate(rows):
        with_sim, without_sim = outcomes[2 * i], outcomes[2 * i + 1]
        results.append({
            "circuit": row.name,
            "its_sim": with_sim.iterations,
            "its_nosim": without_sim.iterations,
            "time_sim": with_sim.seconds,
            "time_nosim": without_sim.seconds,
            "both_proved": with_sim.proved and without_sim.proved,
        })
    return results


def ablation_fundep(rows, optimize_level=2, workers=0, cache=None, bus=None):
    """E5: functional-dependency substitution on/off, both engines."""
    jobs = []
    for row in rows:
        spec, impl = row.pair(optimize_level=optimize_level)
        jobs.append(_job(row.name, spec, impl, use_fundeps=True))
        jobs.append(_job(row.name, spec, impl, use_fundeps=False))
        jobs.append(_job(row.name, spec, impl, method="traversal",
                         use_register_correspondence=True,
                         **_TRAVERSAL_BUDGET))
        jobs.append(_job(row.name, spec, impl, method="traversal",
                         use_register_correspondence=False,
                         **_TRAVERSAL_BUDGET))
    outcomes = _schedule(jobs, workers=workers, cache=cache, bus=bus)
    results = []
    for i, row in enumerate(rows):
        with_fd, without_fd, trav_fd, trav_plain = outcomes[4 * i:4 * i + 4]
        results.append({
            "circuit": row.name,
            "subs": with_fd.details.get("substitutions"),
            "nodes_fd": with_fd.peak_nodes,
            "nodes_nofd": without_fd.peak_nodes,
            "trav_fd_time": trav_fd.seconds if trav_fd.proved else None,
            "trav_plain_time": trav_plain.seconds if trav_plain.proved else None,
            "both_proved": with_fd.proved and without_fd.proved,
        })
    return results


def ablation_retiming(rows=None, retime_moves=4, workers=0, cache=None,
                      bus=None):
    """E6/E3: retimed pairs with augmentation on/off (plus Fig. 3)."""
    pairs = [("fig3",) + fig3_pair()]
    for row in rows or []:
        spec = row.spec()
        impl = retime(spec, moves=retime_moves, seed=row._seed() + 5)
        pairs.append((row.name, spec, impl))
    jobs = []
    for name, spec, impl in pairs:
        jobs.append(_job(name, spec, impl, use_retiming=True))
        jobs.append(_job(name, spec, impl, use_retiming=False))
    outcomes = _schedule(jobs, workers=workers, cache=cache, bus=bus)
    results = []
    for i, (name, _, _) in enumerate(pairs):
        on, off = outcomes[2 * i], outcomes[2 * i + 1]
        results.append({
            "circuit": name,
            "proved_on": on.proved,
            "proved_off": off.proved,
            "rounds": on.details.get("retime_rounds"),
            "augmented": on.details.get("augmented_signals"),
        })
    return results


def ablation_opt_level(rows, workers=0, cache=None, bus=None):
    """E7: %eqs after retiming only vs. after aggressive optimization.

    Reproduces the footnote: 85% of signals correspond without
    ``script.rugged``, 54% with it (our pipeline's absolute numbers differ;
    the monotone drop is the reproduced effect).
    """
    jobs = []
    for row in rows:
        jobs.append(_job(row.name, *row.pair(optimize_level=0)))
        jobs.append(_job(row.name, *row.pair(optimize_level=2)))
    outcomes = _schedule(jobs, workers=workers, cache=cache, bus=bus)
    results = []
    for i, row in enumerate(rows):
        light, heavy = outcomes[2 * i], outcomes[2 * i + 1]
        results.append({
            "circuit": row.name,
            "eqs_retime_only": light.details.get("eqs_percent"),
            "eqs_optimized": heavy.details.get("eqs_percent"),
            "both_proved": light.proved and heavy.proved,
        })
    return results


def ablation_reach_bound(workers=0, cache=None, bus=None):
    """E9: sequential don't cares rescue the incomplete cases (§3)."""
    configs = [("onehot", False), ("onehot_en", True)]
    jobs = []
    for label, enable in configs:
        spec, impl = onehot_ring_pair(enable=enable)
        jobs.append(_job(label, spec, impl, use_retiming=False))
        jobs.append(_job(label, spec, impl, use_retiming=True,
                         max_retiming_rounds=4))
        jobs.append(_job(label, spec, impl, use_retiming=False,
                         reach_bound="exact"))
    outcomes = _schedule(jobs, workers=workers, cache=cache, bus=bus)
    results = []
    for i, (label, _) in enumerate(configs):
        plain, retimed, exact = outcomes[3 * i:3 * i + 3]
        results.append({
            "circuit": label,
            "plain": plain.equivalent,
            "with_retiming": retimed.equivalent,
            "with_reach": exact.equivalent,
        })
    return results
