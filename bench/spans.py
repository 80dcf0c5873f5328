"""Layer spans recorded from outside the program.

``--trace`` wraps the public functions of each layer (the table in
``LAYERS``) with timing wrappers.  Nothing under ``src/`` is edited: a
module-level function is replaced in every loaded ``repro`` module that
holds a reference to it, because ``from .x import f`` copies the name into
the importing module and the call site looks it up there; a method is
replaced on its class.

Each wrapped call records a span ``(id, name, start, end, parent, job)``.
A layer's *self time* is its span's duration minus the time covered by its
direct children, so nested layers (``add_cnf`` calling ``add_clause``,
``TimeFrame.__init__`` calling ``resimulate``) are never counted twice.
The root span of every job is named ``job``; its self time is the job time
no layer accounts for.
"""

import functools
import importlib
import json
import sys
import time

#: (layer, module, attribute path) for every timed public call.
LAYERS = (
    ("interop.load", "repro.interop.formats", "load_circuit"),
    ("netlist.product", "repro.netlist.product", "build_product"),
    ("sim.compile", "repro.netlist.simulate", "make_sim"),
    ("sim.seed", "repro.netlist.simulate", "SequentialSimulator.run"),
    ("sim.seed", "repro.core.timeframe", "TimeFrame.resimulate"),
    ("bdd.build", "repro.core.timeframe", "TimeFrame.__init__"),
    ("bdd.fixpoint", "repro.core.correspondence", "compute_fixpoint"),
    ("bdd.reorder", "repro.bdd.reorder", "maybe_sift"),
    ("retime.augment", "repro.core.retiming_aug",
     "CircuitAugmenter.augment_round"),
    ("retime.augment", "repro.core.retiming_aug",
     "RetimingAugmenter.augment_round"),
    ("sat.solve", "repro.sat.solver", "Solver.solve"),
    ("sat.simplify", "repro.sat.solver", "Solver.simplify"),
    ("sat.clause", "repro.sat.solver", "Solver.add_clause"),
    ("sat.clause", "repro.sat.solver", "Solver.add_cnf"),
    ("sat.encode", "repro.sat.tseitin", "TseitinEncoder.encode_frame"),
    ("sat.encode", "repro.netlist.unroll", "unroll"),
    ("cex.replay", "repro.core.cexsplit", "replay_pattern"),
    ("cex.replay", "repro.core.cexsplit", "replay_packed"),
    ("cex.split", "repro.core.cexsplit", "partition_by_value"),
    ("sweep.reduce", "repro.sweep.reduce", "fraig_reduce"),
)

JOB = "job"


class Tracer:
    """Span recorder; wrappers call :meth:`call` while a job is open."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._job = None
        self._next_id = 0
        self._installed = []

    # -- recording ----------------------------------------------------------

    def begin_job(self, job_id):
        self._job = job_id
        self._stack = [self._open(JOB)]

    def end_job(self):
        self._close(self._stack.pop())
        self._job = None

    def _open(self, name):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        return (self._next_id, name, parent, time.perf_counter())

    def _close(self, frame):
        span_id, name, parent, start = frame
        self.spans.append((span_id, name, start, time.perf_counter(), parent,
                           self._job))

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, layer, fn, args, kwargs):
        if self._job is None:
            return fn(*args, **kwargs)
        frame = self._open(layer)
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self._close(frame)

    def take(self):
        """Hand over the recorded spans and counts, and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer in :data:`LAYERS`; idempotent per tracer."""
        if self._installed:
            return
        for layer, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(layer, original))
                self._installed.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "") or ""
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []

    def _wrap(self, layer, fn):
        tracer = self
        if layer == "sat.solve":
            def wrapper(solver, *args, **kwargs):
                conflicts, props = solver.conflicts, solver.propagations
                verdict = tracer.call(layer, fn, (solver,) + args, kwargs)
                if tracer._job is not None:
                    tracer.count("sat.queries")
                    tracer.count("sat.sat_answers", int(verdict is True))
                    tracer.count("sat.conflicts",
                                 solver.conflicts - conflicts)
                    tracer.count("sat.propagations",
                                 solver.propagations - props)
                return verdict
        elif layer == "cex.replay":
            def wrapper(*args, **kwargs):
                if tracer._job is not None:
                    tracer.count("cex.replays")
                return tracer.call(layer, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(layer, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)


def self_times(spans):
    """``{name: seconds}`` of self time over ``spans``.

    A span's self time is its duration minus the durations of its direct
    children; the children's own self times are attributed to them.
    """
    child_time = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals = {}
    for span_id, name, start, end, _, _ in spans:
        own = (end - start) - child_time.get(span_id, 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def chrome_trace(spans):
    """Spans as Chrome trace-event JSON, one track (``tid``) per job."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(span[2] for span in spans)
    tracks = {}
    events = []
    for span_id, name, start, end, parent, job in sorted(
            spans, key=lambda s: (s[2], -s[3])):
        tid = tracks.setdefault(job, len(tracks) + 1)
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": tid,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"job": job, "id": span_id, "parent": parent},
        })
    for job, tid in tracks.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": str(job)}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans, path):
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans), fh)
