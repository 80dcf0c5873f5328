"""The differential fuzzing loop.

Each iteration manufactures a seeded :class:`~repro.fuzz.generate.FuzzCase`
— a circuit pair whose equivalence is known from its construction recipe —
and runs the full engine battery on it through the existing
:class:`~repro.service.scheduler.BatchScheduler` (so a long fuzz run doubles
as a soak test of the scheduler/worker/cache stack).  The verdicts are then
cross-checked three ways:

1. **against the oracle label** — an engine may be inconclusive, but a
   *proof* on a known-inequivalent pair or a *refutation* on a
   known-equivalent pair is a finding;
2. **against each other** — two conclusive engines that disagree are a
   finding even if the oracle label itself were wrong;
3. **against reality** — every refutation's :class:`~repro.reach.CexTrace`
   is replayed concretely on both circuits
   (:func:`~repro.fuzz.replay.validate_refutation`); a trace that does not
   produce a real output mismatch is a finding regardless of the verdict
   being "right".

Findings are delta-debugged down to a minimal recipe
(:func:`~repro.fuzz.shrink.shrink_recipe`) and persisted to the regression
corpus (:mod:`repro.fuzz.corpus`), which the tier-1 suite re-runs.

``result_hook`` is the test seam: it sees every (case, lane-label, result)
triple before analysis and may return a doctored result, letting the test
suite prove the detect→shrink→persist pipeline end to end without needing a
live engine bug.
"""

import time

from ..service.events import (
    EventBus,
    FUZZ_CASE_FINISHED,
    FUZZ_CORPUS_SAVED,
    FUZZ_CROSS_CHECK,
    FUZZ_CROSS_CHECK_SKIPPED,
    FUZZ_DISAGREEMENT,
    FUZZ_FINISHED,
    FUZZ_SHRUNK,
    FUZZ_STARTED,
)
from ..service.job import JobSpec
from ..service.scheduler import BatchScheduler
from ..errors import TransformError
from .corpus import CorpusEntry, save_entry
from .generate import FuzzCase, make_recipe
from .replay import validate_refutation
from .shrink import recipe_size, shrink_recipe

#: The default battery as ``(label, method, options)`` lanes: the paper's
#: prover (both refinement backends — the BDD fixed point and the
#: incremental SAT sweep must agree pair for pair), the complete falsifier,
#: and the complete-but-expensive baseline.  Labels are unique so one method
#: can run under several option sets; budgets are sized for the small
#: circuits the fuzzer generates.
DEFAULT_FUZZ_ENGINES = (
    ("van_eijk", "van_eijk", {}),
    ("sat_sweep", "sat_sweep", {"sim_frames": 16, "sim_width": 16}),
    # The same engine behind the FRAIG preprocessor: every fuzz case
    # cross-checks the reducer's verdict-preservation against the plain
    # sat_sweep lane above.
    ("sat_sweep_fraig", "sat_sweep",
     {"sim_frames": 16, "sim_width": 16, "preprocess": "fraig"}),
    ("bmc", "bmc", {"max_depth": 12}),
    ("bmc_fraig", "bmc", {"max_depth": 12, "fraig_frames": True}),
    ("k_induction", "k_induction",
     {"max_depth": 10, "sim_frames": 16, "sim_width": 16}),
    ("traversal", "traversal", {"max_iterations": 256}),
)

#: Multiplier decorrelating fuzzer seeds: run seed k, iteration i fuzzes
#: case seed k * _SEED_STRIDE + i, so different --seed runs explore
#: disjoint case ranges while staying reproducible.
_SEED_STRIDE = 1000003

FALSE_PROOF = "false_proof"
FALSE_REFUTATION = "false_refutation"
INVALID_CEX = "invalid_cex"
CROSS_ENGINE = "cross_engine"
# An installed external tool (ABC/yosys) conclusively decided the opposite
# of our battery's verdict — demoted to a finding, not trusted blindly.
EXTERNAL_DISAGREEMENT = "external_disagreement"


class FuzzFinding:
    """One detected disagreement on one case."""

    def __init__(self, kind, case_id, methods, detail=None):
        self.kind = kind
        self.case_id = case_id
        self.methods = list(methods)
        self.detail = dict(detail or {})

    def as_dict(self):
        return {
            "kind": self.kind,
            "case": self.case_id,
            "methods": self.methods,
            "detail": self.detail,
        }

    def __repr__(self):
        return "FuzzFinding({}, case={!r}, methods={})".format(
            self.kind, self.case_id, self.methods)


class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    def __init__(self):
        self.cases_run = 0
        self.cases_skipped = 0
        self.findings = []
        self.corpus_paths = []
        self.refutations_validated = 0
        self.verdicts = {}  # method -> {"proved"/"refuted"/"undecided": n}
        self.seconds = 0.0
        self.stopped = "iterations"

    @property
    def clean(self):
        return not self.findings

    def record_verdict(self, method, verdict):
        tally = self.verdicts.setdefault(
            method, {"proved": 0, "refuted": 0, "undecided": 0})
        key = {True: "proved", False: "refuted", None: "undecided"}[verdict]
        tally[key] += 1

    def as_dict(self):
        return {
            "cases_run": self.cases_run,
            "cases_skipped": self.cases_skipped,
            "findings": [f.as_dict() for f in self.findings],
            "corpus_written": list(self.corpus_paths),
            "refutations_validated": self.refutations_validated,
            "verdicts": {m: dict(t) for m, t in self.verdicts.items()},
            "seconds": self.seconds,
            "stopped": self.stopped,
            "clean": self.clean,
        }


def _normalize_engines(engines):
    """Normalize to ``(label, method, options)`` lanes.

    Accepts a dict (``{method: options}``), a list of method names (each
    selecting *every* default lane of that method — ``"sat_sweep"`` brings
    the plain and the FRAIG-preprocessed lane), ``(method, options)``
    pairs (label = method, the historical form) or full ``(label, method,
    options)`` triples.  Duplicate labels are rejected: the results dict is
    keyed by label.
    """
    if engines is None:
        normalized = [(lbl, m, dict(o)) for lbl, m, o in DEFAULT_FUZZ_ENGINES]
    elif isinstance(engines, dict):
        normalized = [(m, m, dict(o or {})) for m, o in engines.items()]
    else:
        normalized = []
        for item in engines:
            if isinstance(item, str):
                matched = [(lbl, m, dict(o))
                           for lbl, m, o in DEFAULT_FUZZ_ENGINES if m == item]
                normalized.extend(matched or [(item, item, {})])
            elif len(item) == 2:
                method, options = item
                normalized.append((method, method, dict(options or {})))
            else:
                label, method, options = item
                normalized.append((label, method, dict(options or {})))
    labels = [label for label, _, _ in normalized]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate engine lane labels: {}".format(labels))
    return normalized


class DifferentialFuzzer:
    """Drives fuzz iterations; see the module docstring.

    ``workers`` selects the scheduler mode (0 = inline, the deterministic
    default; >0 forks the worker pool and soaks the full service stack);
    ``cache`` optionally plugs a :class:`~repro.service.ResultCache` into
    the battery; ``corpus_dir=None`` disables persistence (findings are
    still reported).
    """

    def __init__(self, seed=0, engines=None, workers=0, corpus_dir=None,
                 bus=None, cache=None, job_time_limit=None, retries=1,
                 shrink_evaluations=48, result_hook=None,
                 min_regs=4, max_regs=9, fault_probability=0.45,
                 datapath_probability=0.2,
                 scheduler=None, cross_check=False, cross_check_tools=None,
                 cross_check_timeout=None, oracle=None):
        self.seed = seed
        self.engines = _normalize_engines(engines)
        self.workers = workers
        self.corpus_dir = corpus_dir
        self.bus = bus or EventBus()
        self.cache = cache
        self.job_time_limit = job_time_limit
        self.retries = retries
        self.shrink_evaluations = shrink_evaluations
        self.result_hook = result_hook
        self.min_regs = min_regs
        self.max_regs = max_regs
        self.fault_probability = fault_probability
        self.datapath_probability = datapath_probability
        # ``scheduler`` overrides the battery's executor with anything
        # exposing BatchScheduler's ``run(jobs)`` — e.g. a
        # :class:`repro.client.RemoteScheduler` targeting a daemon
        # (``repro-sec fuzz --server URL``).  Shrinking stays local either
        # way: delta-debugging probes are latency-bound, not compute-bound.
        self._scheduler = scheduler or BatchScheduler(
            workers=workers, cache=cache, bus=self.bus, retries=retries,
            job_time_limit=job_time_limit)
        # Shrink re-runs are always inline and quiet: forking a pool per
        # delta-debugging probe would dominate the shrink budget.
        self._inline_scheduler = BatchScheduler(
            workers=0, cache=cache, bus=EventBus(), retries=0,
            job_time_limit=job_time_limit)
        # Opt-in external cross-check (ABC/yosys).  ``oracle`` is the test
        # seam: inject anything exposing ExternalOracle's interface.
        self.cross_check = bool(cross_check) or oracle is not None
        self._oracle = oracle
        if self.cross_check and self._oracle is None:
            from ..interop.oracle import DEFAULT_TIMEOUT, ExternalOracle
            self._oracle = ExternalOracle(
                tools=cross_check_tools,
                timeout=cross_check_timeout or DEFAULT_TIMEOUT)

    # -- public API ---------------------------------------------------------

    def run(self, iterations=100, time_budget=None):
        """Fuzz for ``iterations`` cases or until ``time_budget`` seconds."""
        start = time.monotonic()
        deadline = None if time_budget is None else start + time_budget
        report = FuzzReport()
        self.bus.emit(FUZZ_STARTED, seed=self.seed, iterations=iterations,
                      engines=[label for label, _, _ in self.engines],
                      workers=self.workers, time_budget=time_budget,
                      cross_check=self.cross_check)
        if self.cross_check:
            reason = self._oracle.skip_reason()
            if reason:
                # Graceful skip, never a failure: the run proceeds with the
                # internal oracles only, and the log says why.
                self.bus.emit(FUZZ_CROSS_CHECK_SKIPPED, reason=reason)
        for iteration in range(iterations):
            if deadline is not None and time.monotonic() > deadline:
                report.stopped = "time_budget"
                break
            case_seed = self.seed * _SEED_STRIDE + iteration
            case = FuzzCase(
                "fz-{:08d}".format(case_seed),
                make_recipe(case_seed, min_regs=self.min_regs,
                            max_regs=self.max_regs,
                            fault_probability=self.fault_probability,
                            datapath_probability=self.datapath_probability))
            self._fuzz_one(case, iteration, report)
        report.seconds = time.monotonic() - start
        self.bus.emit(FUZZ_FINISHED, cases=report.cases_run,
                      skipped=report.cases_skipped,
                      findings=len(report.findings),
                      corpus_written=len(report.corpus_paths),
                      seconds=report.seconds, stopped=report.stopped)
        return report

    def check_recipe(self, recipe, case_id="check", scheduler=None,
                     report=None, cross_check=False):
        """Run the battery on one recipe; returns the findings list.

        Used by the main loop, by the shrinker's predicate, and by
        :func:`repro.fuzz.corpus.verify_entry`.  ``cross_check=True``
        additionally consults the external oracle (when one is configured
        and available), so the shrinker can reproduce
        ``external_disagreement`` findings.  Raises
        :class:`~repro.errors.TransformError` when the recipe's pair
        cannot be built (e.g. a fault step with no distinguishable
        mutation on a shrunk base).
        """
        case = FuzzCase(case_id, recipe)
        spec, impl = case.pair()
        results = self._run_engines(case, spec, impl,
                                    scheduler or self._inline_scheduler)
        findings = self._analyze(case, spec, impl, results, report)
        if cross_check and self._can_cross_check():
            findings.extend(
                self._cross_check_case(case, spec, impl, results, emit=False))
        return findings

    # -- one iteration ------------------------------------------------------

    def _fuzz_one(self, case, iteration, report):
        t0 = time.monotonic()
        try:
            spec, impl = case.pair()
        except TransformError:
            # No simulation-distinguishable fault on this base: the recipe
            # is unusable, not a finding.
            report.cases_skipped += 1
            return
        results = self._run_engines(case, spec, impl, self._scheduler)
        findings = self._analyze(case, spec, impl, results, report)
        if self._can_cross_check():
            findings.extend(self._cross_check_case(case, spec, impl, results))
        report.cases_run += 1
        for method, result in results.items():
            report.record_verdict(method, result.equivalent)
        self.bus.emit(
            FUZZ_CASE_FINISHED, job=case.case_id, iteration=iteration,
            expected=case.expected,
            verdicts={m: r.equivalent for m, r in results.items()},
            findings=len(findings), seconds=time.monotonic() - t0)
        for finding in findings:
            self.bus.emit(FUZZ_DISAGREEMENT, job=case.case_id,
                          kind=finding.kind, methods=finding.methods,
                          detail=finding.detail)
        if findings:
            report.findings.extend(findings)
            self._shrink_and_persist(case, findings, iteration, report)

    def _run_engines(self, case, spec, impl, scheduler):
        jobs = [
            JobSpec("{}:{}".format(case.case_id, label), spec, impl,
                    method=method, options=options,
                    match_inputs="name", match_outputs="order",
                    tags={"fuzz": True, "expected": case.expected,
                          "lane": label})
            for label, method, options in self.engines
        ]
        job_results = scheduler.run(jobs)
        results = {}
        for (label, _, _), job_result in zip(self.engines, job_results):
            result = job_result.result
            if self.result_hook is not None:
                result = self.result_hook(case, label, result) or result
            results[label] = result
        return results

    # -- cross-checking -----------------------------------------------------

    def _analyze(self, case, spec, impl, results, report=None):
        findings = []
        conclusive = {}
        for method, result in results.items():
            if result is None or result.equivalent is None:
                continue
            conclusive[method] = result.equivalent
            if result.equivalent is False:
                replay = validate_refutation(
                    spec, impl, result,
                    match_inputs="name", match_outputs="order")
                if report is not None:
                    report.refutations_validated += 1
                if not replay.valid:
                    findings.append(FuzzFinding(
                        INVALID_CEX, case.case_id, [method],
                        {"replay": replay.as_dict(),
                         "expected": case.expected}))
                    continue
                if case.expected_equivalent:
                    findings.append(FuzzFinding(
                        FALSE_REFUTATION, case.case_id, [method],
                        {"replay": replay.as_dict(),
                         "expected": case.expected}))
            elif not case.expected_equivalent:
                findings.append(FuzzFinding(
                    FALSE_PROOF, case.case_id, [method],
                    {"expected": case.expected}))
        verdicts = set(conclusive.values())
        if True in verdicts and False in verdicts:
            findings.append(FuzzFinding(
                CROSS_ENGINE, case.case_id, sorted(conclusive),
                {"verdicts": {m: v for m, v in conclusive.items()},
                 "expected": case.expected}))
        return findings

    # -- external oracle ----------------------------------------------------

    def _can_cross_check(self):
        return (self.cross_check and self._oracle is not None
                and not self._oracle.skip_reason())

    def _cross_check_case(self, case, spec, impl, results, emit=True):
        """Run ABC/yosys on the pair and demote disagreements to findings.

        "Our" verdict is the battery's conclusive consensus when one
        exists, else the construction-known label; an external tool only
        *disagrees* when it conclusively decides the opposite —
        inconclusive answers (timeouts, induction giving up) are logged
        but are not findings.
        """
        conclusive = {
            label: result.equivalent for label, result in results.items()
            if result is not None and result.equivalent is not None
        }
        verdict_set = set(conclusive.values())
        if len(verdict_set) == 1:
            ours = verdict_set.pop()
        else:
            ours = case.expected_equivalent
        oracle_verdicts = self._oracle.check(spec, impl)
        if emit:
            self.bus.emit(
                FUZZ_CROSS_CHECK, job=case.case_id, ours=ours,
                expected=case.expected,
                verdicts=[v.to_dict() for v in oracle_verdicts])
        disagreeing = [v for v in oracle_verdicts
                       if v.agrees_with(ours) is False]
        if not disagreeing:
            return []
        return [FuzzFinding(
            EXTERNAL_DISAGREEMENT, case.case_id,
            [v.tool for v in disagreeing],
            {"ours": ours, "expected": case.expected,
             "external": [v.to_dict() for v in disagreeing]})]

    # -- shrinking & persistence --------------------------------------------

    def _shrink_and_persist(self, case, findings, iteration, report):
        kinds = {finding.kind for finding in findings}
        # External findings must be reproduced by the shrink predicate too,
        # or delta debugging would "shrink" them to nothing.
        recheck_external = EXTERNAL_DISAGREEMENT in kinds

        def still_fails(candidate):
            try:
                candidate_findings = self.check_recipe(
                    candidate, case_id=case.case_id + ":shrink",
                    cross_check=recheck_external)
            except Exception:
                return False
            return any(f.kind in kinds for f in candidate_findings)

        shrunk, evaluations = shrink_recipe(
            case.recipe, still_fails,
            max_evaluations=self.shrink_evaluations)
        self.bus.emit(FUZZ_SHRUNK, job=case.case_id,
                      evaluations=evaluations,
                      size_from=recipe_size(case.recipe),
                      size_to=recipe_size(shrunk))
        if self.corpus_dir is None:
            return
        entry = CorpusEntry(
            shrunk,
            finding={
                "kind": findings[0].kind,
                "findings": [f.as_dict() for f in findings],
            },
            meta={
                "fuzzer_seed": self.seed,
                "iteration": iteration,
                "case": case.case_id,
                "engines": [label for label, _, _ in self.engines],
            })
        path, written = save_entry(self.corpus_dir, entry)
        report.corpus_paths.append(path)
        self.bus.emit(FUZZ_CORPUS_SAVED, job=case.case_id, path=path,
                      entry=entry.id, new=written)


def run_fuzz(iterations=100, seed=0, **options):
    """One-call convenience wrapper: build a fuzzer and run it."""
    time_budget = options.pop("time_budget", None)
    fuzzer = DifferentialFuzzer(seed=seed, **options)
    return fuzzer.run(iterations=iterations, time_budget=time_budget)
