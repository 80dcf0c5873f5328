"""k-induction over the product miter: a complete-leaning third engine.

The correspondence fixed point (BDD or SAT backend) is sound but
incomplete; until now its only complete fallback was state-space traversal.
This engine closes inconclusive instances without traversal by temporal
induction on the product machine:

* **base case** — bounded model checking from the initial state: the
  property P ("all corresponding output pairs agree") must hold on frames
  ``0..k``;
* **inductive step** — ``k+1`` frames from an *arbitrary* state: if P (and
  the strengthening candidates C) hold on frames ``0..k-1`` and all ``k+1``
  states are pairwise distinct (the simple-path/uniqueness constraints that
  make the method complete on finite systems), then P∧C must hold on frame
  ``k``.  UNSAT proves P invariant.

Both cases run on **one** incremental solver per run — frames,
output-difference selectors, uniqueness clauses and strengthening clauses
are appended monotonically; everything retractable is guarded by activation
literals and assumed per query, exactly the ``core/satbackend.py`` idiom.

Strengthening: a (possibly partial) correspondence partition is converted
into register-level candidate invariants (:mod:`repro.induction.invariant`).
Candidates are *obligations*, never axioms — each is base-checked on every
frame from the initial state and its consecution is part of the step
target, so wrong candidates are dropped (CEGAR on replayed counterexamples)
rather than trusted, and the proof stays sound for arbitrary partitions.

Soundness sketch: suppose the base holds on ``0..k``, the step is UNSAT at
depth ``k``, yet P fails somewhere reachable.  Take a *shortest* initial
path to a P∧C violation.  Its length exceeds ``k`` (base), its states are
pairwise distinct (a repeated state would shortcut a shorter path), and
P∧C holds on every proper prefix frame (else a shorter violation) — so its
last ``k+1`` states satisfy the step query, contradiction.  Hence P∧C — and
in particular P — holds in every reachable state.
"""

import time

from ..budget import Budget
from ..errors import ResourceBudgetExceeded, VerificationError
from ..netlist.product import build_product
from ..netlist.simulate import CompiledSim, bit_parallel_eval
from ..netlist.unroll import unroll
from ..reach.result import CexTrace, SecResult
from ..sat.solver import Solver
from ..sat.tseitin import TseitinEncoder
from ..core.cexsplit import replay_pattern
from ..core.satbackend import _SOLVER_COUNTERS, _outputs_proved_sat, SatCorrespondence
from .invariant import (
    InvariantSet,
    candidates_from_classes,
    candidates_from_simulation,
)

#: Event emitted by the combined mode when an inconclusive fixed point
#: hands its partition to induction instead of traversal.
INDUCTION_FALLBACK = "induction_fallback"

#: Event kind emitted once per completed induction depth.
PROGRESS_INDUCTION_ROUND = "induction_round"


class KInductionEngine:
    """Configurable k-induction SEC engine (``core/engine.py`` protocol).

    ``strengthen`` selects the candidate source: an explicit ``partition``
    (correspondence classes), else random-simulation register signatures;
    ``strengthen=False`` runs plain k-induction.  Depths ``1..max_depth``
    are tried in turn, one ``induction_round`` event each.  Every query
    first checks ``budget`` (a :class:`~repro.budget.Budget`, which the
    solver also polls) and ``clause_limit``, the incremental CNF's analogue
    of the BDD engines' node budgets.
    """

    def __init__(self, max_depth=16, strengthen=True, partition=None,
                 seed=2024, sim_frames=24, sim_width=32,
                 clause_limit=None, progress=None, budget=None):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.strengthen = strengthen
        self.partition = partition
        self.seed = seed
        self.sim_frames = sim_frames
        self.sim_width = sim_width
        self.clause_limit = clause_limit
        self.progress = progress
        self.budget = budget or Budget()

    # -- public API ---------------------------------------------------------

    def verify(self, spec, impl, match_inputs="name", match_outputs="order"):
        """Check two sequential circuits; returns a :class:`SecResult`."""
        product = build_product(spec, impl, match_inputs=match_inputs,
                                match_outputs=match_outputs)
        return self.verify_product(product)

    def verify_product(self, product):
        start = time.monotonic()
        try:
            self._reset(product)
            return self._run(start)
        except ResourceBudgetExceeded as exc:
            return self._result(None, start, {"aborted": str(exc)})

    # -- per-run state ------------------------------------------------------

    def _reset(self, product):
        self.product = product
        self.circuit = product.circuit.copy()
        self.circuit.validate()
        self.rounds = 0
        self.stats = {
            "solver_constructions": 0,
            "frame_encodings": 0,
            "sat_queries": 0,
            "base_queries": 0,
            "step_queries": 0,
            "cex_patterns": 0,
        }
        for key in _SOLVER_COUNTERS:
            self.stats[key] = 0
        self._candidate_source = self._source_label()
        self._enc = None
        self._solver = None
        self._frames = []
        self._diff = []
        self._init_act = None
        self._uniq_act = None
        self._clause_mark = 0
        self._last_depth = 0
        # The budget is polled between the long set-up steps; a run that
        # stops here reports no candidates.
        self.invariants = InvariantSet(())
        self._csim = CompiledSim(self.circuit)
        self.budget.check()
        self.invariants = InvariantSet(self._candidates())
        self.budget.check()

    def _candidates(self):
        if not self.strengthen:
            return []
        if self.partition is not None:
            return candidates_from_classes(self.partition, self.circuit)
        return candidates_from_simulation(
            self.circuit, seed=self.seed, sim_frames=self.sim_frames,
            sim_width=self.sim_width, compiled=self._csim)

    def _source_label(self):
        if not self.strengthen:
            return "none"
        return "partition" if self.partition is not None else "simulation"

    # -- incremental CNF plumbing -------------------------------------------

    def _flush(self):
        """Mirror newly encoded clauses into the one live solver."""
        clauses = self._enc.cnf.clauses
        self._solver.ensure_vars(self._enc.cnf.num_vars)
        ok = True
        while self._clause_mark < len(clauses):
            ok = self._solver.add_clause(clauses[self._clause_mark]) and ok
            self._clause_mark += 1
        if not ok:
            raise VerificationError(
                "k-induction CNF became unsatisfiable at root level")

    def _query(self, assumptions):
        self.budget.check()
        clauses = len(self._enc.cnf.clauses)
        if self.clause_limit is not None and clauses > self.clause_limit:
            raise ResourceBudgetExceeded(
                "induction clause budget exhausted ({} > {})".format(
                    clauses, self.clause_limit))
        self.stats["sat_queries"] += 1
        return self._solver.solve(assumptions=assumptions)

    def _retire(self, candidates):
        """Retire dropped candidates' activation groups, satbackend-style."""
        for cand in candidates:
            self._enc.add_clause([-cand.act])
        self._flush()
        self._solver.simplify()

    def _lit_value(self, var):
        return bool(self._solver.value(var))

    # -- frame construction -------------------------------------------------

    def _setup(self):
        self._enc = TseitinEncoder()
        self._solver = Solver(self.budget)
        self.stats["solver_constructions"] += 1
        self.invariants.bind(self._enc)
        frame0 = self._enc.encode_frame(self.circuit)
        self.stats["frame_encodings"] += 1
        self._frames.append(frame0)
        # Initial-state units, guarded so only base-case queries see them.
        self._init_act = self._enc.new_var()
        for net, reg in self.circuit.registers.items():
            var = frame0[net]
            self._enc.add_clause([var if reg.init else -var, -self._init_act])
        if self.circuit.registers:
            self._uniq_act = self._enc.new_var()
        self._diff.append(self._diff_selector(frame0))
        self._flush()

    def _diff_selector(self, frame_vars):
        """A variable equivalent to "some output pair differs" (both
        directions, so it can be assumed positively in base queries and
        negatively as the step's per-frame P assumption)."""
        enc = self._enc
        diff_lits = [-enc.equal_var(frame_vars[s_out], frame_vars[i_out])
                     for s_out, i_out in self.product.output_pairs]
        any_diff = enc.new_var()
        for lit in diff_lits:
            enc.add_clause([-lit, any_diff])
        enc.add_clause([-any_diff] + diff_lits)
        return any_diff

    def _encode_next_frame(self):
        """Encode one more frame; the previous frame becomes an assumed
        (LHS) frame: strengthening clauses and uniqueness constraints are
        appended for it before the new frame's diff selector."""
        prev = self._frames[-1]
        self.invariants.assert_frame(prev)
        leaves = {net: prev[reg.data_in]
                  for net, reg in self.circuit.registers.items()}
        frame = self._enc.encode_frame(self.circuit, leaves=leaves)
        self.stats["frame_encodings"] += 1
        self._frames.append(frame)
        self._add_uniqueness(len(self._frames) - 1)
        self._diff.append(self._diff_selector(frame))
        self._flush()

    def _add_uniqueness(self, f):
        """Simple-path constraints: frame ``f`` differs from every earlier
        frame in at least one register (skipped for register-free products,
        where an all-states pass at depth 0 is already decisive)."""
        if self._uniq_act is None:
            return
        enc = self._enc
        regs = list(self.circuit.registers)
        for i in range(f):
            d_lits = [-enc.equal_var(self._frames[i][r], self._frames[f][r])
                      for r in regs]
            enc.add_clause(d_lits + [-self._uniq_act])

    # -- model replay --------------------------------------------------------

    def _replay_model(self, n_frames):
        """Replay the current model's frame-0 state and inputs through the
        compiled simulator; returns one ``{net: 0/1}`` valuation per frame.
        Replay agreeing with the model is the replay-oracle cross-check —
        candidates are only ever dropped on *replayed* refutations."""
        frame0 = self._frames[0]
        state = {net: int(self._lit_value(frame0[net]))
                 for net in self.circuit.registers}
        input_frames = [
            {net: int(self._lit_value(self._frames[j][net]))
             for net in self.circuit.inputs}
            for j in range(n_frames)
        ]
        self.stats["cex_patterns"] += 1
        return replay_pattern(self.circuit, state, input_frames,
                              sim=self._csim)

    def _model_trace(self, depth):
        inputs = [
            {net: self._lit_value(self._frames[j][net])
             for net in self.circuit.inputs}
            for j in range(depth + 1)
        ]
        return CexTrace(inputs=inputs[:-1], final_input=inputs[-1])

    def _confirm_refutation(self, trace, depth):
        """Re-evaluate a base-case counterexample on the time-frame-expanded
        netlist (``netlist/unroll.py``) — an independent check that the
        incremental encoding and the unrolled semantics agree."""
        unrolled, net_at = unroll(self.circuit, depth + 1, initial="state")
        env = {}
        for t, frame in enumerate(trace.full_sequence()):
            for net, value in frame.items():
                env[net_at(net, t)] = int(bool(value))
        values = bit_parallel_eval(unrolled, env, 1)
        for s_out, i_out in self.product.output_pairs:
            if values[net_at(s_out, depth)] != values[net_at(i_out, depth)]:
                return
        raise VerificationError(
            "k-induction counterexample failed the unrolled-netlist check")

    # -- the induction loop --------------------------------------------------

    def _run(self, start):
        self._setup()
        refutation = self._base_check(0, start)
        if refutation is not None:
            return refutation
        for depth in range(1, self.max_depth + 1):
            self._last_depth = depth
            while len(self._frames) <= depth:
                self._encode_next_frame()
                frame = len(self._frames) - 1
                refutation = self._base_check(frame, start)
                if refutation is not None:
                    return refutation
            proved = self._step_check(depth)
            self.rounds += 1
            if self.progress is not None:
                self.progress(
                    PROGRESS_INDUCTION_ROUND, depth=depth, round=self.rounds,
                    proved=proved, cnf_clauses=len(self._enc.cnf.clauses),
                    **self.invariants.counts(), **self.solver_stats())
            if proved:
                return self._result(True, start, {"depth": depth})
        return self._result(None, start,
                            {"bound_reached": self.max_depth})

    def _base_check(self, frame, start):
        """BMC at one frame: first P, then the candidate obligations."""
        self.stats["base_queries"] += 1
        if self._query([self._init_act, self._diff[frame]]):
            trace = self._model_trace(frame)
            self._confirm_refutation(trace, frame)
            return self._result(False, start, {"cex_depth": frame},
                                counterexample=trace)
        self._base_invariant_check(frame)
        return None

    def _base_invariant_check(self, frame):
        """CEGAR: drop candidates refuted on an initial path to ``frame``."""
        while self.invariants.active:
            viols = self.invariants.violation_literals(
                frame, self._frames[frame])
            cbad = self._enc.new_var()
            self._enc.add_clause(viols + [-cbad])
            self._flush()
            self.stats["base_queries"] += 1
            if not self._query([self._init_act, cbad]):
                return
            replayed = self._replay_model(frame + 1)
            dropped = []
            for values in replayed:
                dropped.extend(self.invariants.drop_refuted(values))
            if not dropped:
                raise VerificationError(
                    "base model refutes no candidate on replay")
            self._retire(dropped)

    def _step_check(self, depth):
        """Consecution at ``depth``; CEGAR-drops non-inductive candidates.

        SAT models either refute a candidate's consecution at the last
        frame (drop it, re-query — converging on the largest self-inductive
        subset) or violate P itself from an unreachable prefix, in which
        case the depth is advanced with the candidate set intact.
        """
        path = [-d for d in self._diff[:depth]]
        while True:
            viols = self.invariants.violation_literals(
                depth, self._frames[depth])
            target = self._enc.new_var()
            self._enc.add_clause([self._diff[depth]] + viols + [-target])
            self._flush()
            assumptions = list(path)
            assumptions.extend(self.invariants.assumptions())
            if self._uniq_act is not None:
                assumptions.append(self._uniq_act)
            assumptions.append(target)
            self.stats["step_queries"] += 1
            if not self._query(assumptions):
                return True
            replayed = self._replay_model(depth + 1)
            dropped = self.invariants.drop_refuted(replayed[depth])
            if not dropped:
                return False
            self._retire(dropped)

    # -- results -------------------------------------------------------------

    def solver_stats(self):
        """Engine counters with the live solver's effort folded in."""
        stats = dict(self.stats)
        if self._solver is not None:
            live = self._solver.stats()
            for key in _SOLVER_COUNTERS:
                stats[key] += live[key]
            stats["learned"] = live["learned"]
            stats["clauses"] = live["clauses"]
        return stats

    def _result(self, equivalent, start, extra, counterexample=None):
        details = {
            "max_depth": self.max_depth,
            "strengthen": self.strengthen,
            "candidate_source": self._candidate_source,
            "rounds": self.rounds,
            "solver_stats": self.solver_stats(),
        }
        details.update(self.invariants.counts())
        details.update(extra)
        return SecResult(
            equivalent=equivalent,
            method="k_induction",
            iterations=self._last_depth,
            seconds=time.monotonic() - start,
            counterexample=counterexample,
            details=details,
        )


def check_equivalence_k_induction(spec, impl, match_inputs="name",
                                  match_outputs="order", **options):
    """SEC by k-induction; returns a :class:`SecResult`.

    Complete up to ``max_depth``: proofs come from the inductive step,
    refutations from the base case (shortest counterexamples), and an
    exhausted depth bound or budget yields an inconclusive result.
    """
    engine = KInductionEngine(**options)
    return engine.verify(spec, impl, match_inputs=match_inputs,
                         match_outputs=match_outputs)


def check_equivalence_sweep_induction(spec, impl, match_inputs="name",
                                      match_outputs="order", seed=2024,
                                      sim_frames=24, sim_width=32,
                                      max_iterations=None,
                                      max_depth=16, strengthen=True,
                                      clause_limit=None, progress=None,
                                      budget=None):
    """Combined mode: SAT signal correspondence, then induction fallback.

    Runs the paper's fixed point first; a conclusive partition returns
    immediately.  An inconclusive fixed point hands its partition to
    :class:`KInductionEngine` as the strengthening invariant (event
    ``induction_fallback``) instead of falling back to state-space
    traversal.  Both phases share one ``budget``.
    """
    start = time.monotonic()
    budget = budget or Budget()
    product = build_product(spec, impl, match_inputs=match_inputs,
                            match_outputs=match_outputs)
    sweep = SatCorrespondence(
        product, seed=seed, sim_frames=sim_frames, sim_width=sim_width,
        progress=progress, budget=budget)
    classes = None
    iterations = 0
    sweep_aborted = None
    try:
        classes, iterations = sweep.compute(max_iterations=max_iterations)
    except ResourceBudgetExceeded as exc:
        sweep_aborted = str(exc)
    sweep_details = {
        "iterations": iterations,
        "classes": None if classes is None else len(classes),
        "solver_stats": sweep.solver_stats(),
    }
    if sweep_aborted is not None:
        sweep_details["aborted"] = sweep_aborted
    if classes is not None and _outputs_proved_sat(product, classes):
        return SecResult(
            equivalent=True, method="sweep_induct", iterations=iterations,
            seconds=time.monotonic() - start,
            details={"phase": "correspondence", "sweep": sweep_details})
    reason = sweep_aborted or "correspondence inconclusive"
    if progress is not None:
        progress(INDUCTION_FALLBACK, reason=reason,
                 classes=sweep_details["classes"] or 0,
                 iterations=iterations)
    engine = KInductionEngine(
        max_depth=max_depth, strengthen=strengthen,
        partition=classes if strengthen else None,
        seed=seed, sim_frames=sim_frames, sim_width=sim_width,
        clause_limit=clause_limit, progress=progress, budget=budget)
    result = engine.verify_product(product)
    details = dict(result.details)
    details.update({"phase": "induction", "sweep": sweep_details,
                    "fallback_reason": reason})
    return SecResult(
        equivalent=result.equivalent, method="sweep_induct",
        iterations=iterations + result.iterations,
        seconds=time.monotonic() - start,
        counterexample=result.counterexample, details=details)


__all__ = [
    "INDUCTION_FALLBACK",
    "KInductionEngine",
    "PROGRESS_INDUCTION_ROUND",
    "check_equivalence_k_induction",
    "check_equivalence_sweep_induction",
]
