"""SAT-based signal correspondence (the §6 "intermediate variables" route).

The paper predicts that "techniques based on the introduction of extra
variables representing intermediate signals" would scale the method to
larger circuits; Tseitin-encoded CDCL queries are precisely that.  The fixed
point is identical (T0 seeded by simulation, Eq. 3 refinement); only the
combinational check changes:

* two time frames of the product machine are Tseitin-encoded, the second
  frame reading the first frame's register data inputs;
* the correspondence condition Q becomes equivalence clauses over frame-0
  literals;
* a candidate pair splits when SAT finds a Q-state/input pair under which
  the frame-1 literals differ.

The result is bit-for-bit the same partition the BDD backend computes, a
property the test suite checks.

Incremental refinement
----------------------

Rebuilding a fresh solver and re-encoding both unrolled frames on every
refinement round would discard all learned clauses.  The engine instead
keeps **one solver and one encoding per** :meth:`SatCorrespondence.compute`
call:

* the ``k + 1`` unrolled frames are Tseitin-encoded exactly once, into an
  incremental :class:`~repro.sat.solver.Solver` whose learned clauses,
  VSIDS activities and watch lists persist across every round (see the
  incremental invariant documented in ``sat/solver.py``);
* the initial-state constraint of the base case is guarded by an
  *activation literal* and only assumed by base-case queries, so base and
  inductive queries share the single encoding;
* the correspondence condition Q is added as equivalence clauses, each
  class's group guarded by its own activation literal; queries assume
  every live literal, in creation order, then the pair's two literals.
  A class whose member set survives a round keeps its literal, its
  clauses and the learned clauses that mention it.  A class that splits
  has its literal retired by the unit ``-act`` and its clauses dropped by
  ``simplify()``; each piece of two or more members gets a fresh literal;
* **proof reuse**: an UNSAT pair records the class literals named by the
  assumption cores (:meth:`~repro.sat.solver.Solver.failed_assumptions`)
  of its two polarity queries.  While all of them are live, the proof
  used only Q clauses that are still present verbatim, so the pair is
  verified again without a query.  The maximum correspondence is unique,
  so the final partition does not change, only the work to reach it;
* **counterexample-guided splitting**: every satisfying model is a concrete
  unrolled-trace witness; it is replayed through bit-parallel simulation
  (:mod:`repro.core.cexsplit`) and used to split *all* current classes at
  once, so one SAT query can refine many classes before the next query.

``SatCorrespondence.stats`` counts solver constructions, frame encodings,
queries, reused proofs (``proofs_reused``) and counterexample splits;
``solver_stats()`` folds in the live solver's conflict/propagation
counters.  Both are threaded through the ``progress`` callback as
``refinement_round`` events for the service layer.
"""

import time

from ..budget import Budget
from ..errors import ResourceBudgetExceeded
from ..netlist.simulate import SequentialSimulator, make_sim
from ..reach.result import SecResult
from ..sat.solver import Solver
from ..sat.tseitin import TseitinEncoder
from .cexsplit import partition_by_value, replay_pattern


CONST_NET = "@const"

#: Solver-effort counters copied from :meth:`Solver.stats` snapshots.
_SOLVER_COUNTERS = ("conflicts", "decisions", "propagations", "restarts")


class _SatSignal:
    __slots__ = ("net", "complemented", "signature", "is_register")

    def __init__(self, net, complemented, signature, is_register):
        self.net = net
        self.complemented = complemented
        self.signature = signature
        self.is_register = is_register


class SatCorrespondence:
    """Signal correspondence over Tseitin-encoded time frames.

    ``k`` generalizes the paper's one-frame induction to k-induction: the
    base case requires class members to agree on the first k frames from
    the initial state, and the inductive step assumes Q on k consecutive
    frames before checking frame k.  ``k=1`` is exactly the paper's
    iteration; larger k strictly increases proving power.

    One solver and one encoding serve the whole fixed point.
    ``progress(kind, **data)`` is called with ``refinement_round`` events
    carrying class counts and solver statistics; ``budget`` (a
    :class:`~repro.budget.Budget`) is checked before every query and
    polled inside it.
    """

    def __init__(self, product, seed=2024, sim_frames=24, sim_width=32,
                 k=1, progress=None, budget=None):
        if k < 1:
            raise ValueError("induction depth k must be >= 1")
        self.product = product
        self.circuit = product.circuit.copy()
        self.circuit.validate()
        self.seed = seed
        self.sim_frames = sim_frames
        self.sim_width = sim_width
        self.k = k
        self.progress = progress
        self.budget = budget or Budget()
        self.stats = {
            "solver_constructions": 0,
            "frame_encodings": 0,
            "rounds": 0,
            "sat_queries": 0,
            "cex_patterns": 0,
            "cex_class_splits": 0,
            "proofs_reused": 0,
        }
        for key in _SOLVER_COUNTERS:
            self.stats[key] = 0
        self._solver = None
        self._frames = None
        self._true_var = None
        self._init_act = None
        # Refinement rounds: class member set (a frozenset of nets) -> the
        # activation literal guarding its Q clauses, in creation order; and
        # (leader net, member net) -> the guards the pair's last UNSAT
        # proof rested on.
        self._guards = {}
        self._proofs = {}
        # One sim kernel per compute(): partition seeding and every
        # counterexample replay share it (and its single topo sort).
        self._csim = make_sim(self.circuit)
        self._simulate()
        self._signals = self._build_signals()

    # -- setup ---------------------------------------------------------------

    def _simulate(self):
        sim = SequentialSimulator(self.circuit, width=self.sim_width,
                                  seed=self.seed, compiled=self._csim)
        sim.run(self.sim_frames)
        self.signatures = sim.signatures
        # Reference = (s0, first random input vector): bit 0 of frame 0 is
        # the last chunk appended... signatures concatenate frames by
        # left-shifting, so frame 0 occupies the *top* chunk.
        self.total_bits = self.sim_frames * self.sim_width
        self.ref_bit = self.total_bits - self.sim_width  # frame 0, pattern 0

    def _ref_value(self, net):
        return bool((self.signatures[net] >> self.ref_bit) & 1)

    def _build_signals(self):
        full = (1 << self.total_bits) - 1
        # The constant-1 sentinel: signals stuck at a constant in every
        # reachable state join its class, and the resulting Q clauses pin
        # them to true — without it Q is weaker than the BDD backend's.
        signals = [_SatSignal(CONST_NET, False, full, False)]
        for net in self.circuit.signals():
            complemented = not self._ref_value(net)
            signature = self.signatures[net]
            if complemented:
                signature ^= full
            signals.append(
                _SatSignal(net, complemented, signature,
                           net in self.circuit.registers)
            )
        return signals

    # -- the fixed point -------------------------------------------------------

    def compute(self, max_iterations=None):
        """Returns ``(classes, iterations)``.

        ``classes`` is a list of lists of ``(net, complemented)`` pairs, the
        same shape the BDD backend exposes through its partition.
        """
        # T0: group by normalized simulation signature, then confirm with
        # exact frame-0-at-s0 checks (condition 1 of Definition 2).
        buckets = {}
        for sig in self._signals:
            buckets.setdefault(sig.signature, []).append(sig)
        classes = list(buckets.values())
        self.budget.check()  # seeding done; the encoding is the next long step
        self._setup_solver()
        classes = self._split_at_initial(classes, self.budget)
        self._emit("initial_split", classes=len(classes),
                   **self.solver_stats())
        iterations = 0
        while True:
            iterations += 1
            if max_iterations is not None and iterations > max_iterations:
                raise ResourceBudgetExceeded("SAT fixpoint budget exhausted")
            classes, changed = self._refine_round(classes, self.budget)
            self.stats["rounds"] = iterations
            self._emit("refinement_round", round=iterations,
                       classes=len(classes), changed=changed,
                       **self.solver_stats())
            if not changed:
                return classes, iterations

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

    def _emit(self, kind, **data):
        if self.progress is not None:
            self.progress(kind, **data)

    def _check_budget(self, budget):
        budget.check()

    def _encode_unrolled(self, enc, n_frames):
        """Encode ``n_frames`` consecutive frames; returns their var maps.

        Frame j > 0 reads frame j-1's register data inputs; frame 0 is a
        free symbolic state (base-case callers pin it with unit or guarded
        clauses).
        """
        self.stats["frame_encodings"] += 1
        frames = []
        leaves = None
        for _ in range(n_frames):
            frame_vars = enc.encode_frame(self.circuit, leaves=leaves)
            frames.append(frame_vars)
            leaves = {
                net: frame_vars[reg.data_in]
                for net, reg in self.circuit.registers.items()
            }
        return frames

    def _new_solver(self):
        self.stats["solver_constructions"] += 1
        return Solver(self.budget)

    # -- the shared solver -----------------------------------------------------

    def _setup_solver(self):
        """One encoding, one solver, both shared by base case and rounds."""
        enc = TseitinEncoder()
        self._frames = self._encode_unrolled(enc, self.k + 1)
        self._true_var = enc.new_var()
        solver = self._new_solver()
        solver.add_cnf(enc.cnf)
        solver.add_clause([self._true_var])
        # Initial-state constraint, guarded: only base-case queries assume
        # the activation literal, so the same frames serve the free-state
        # inductive queries.
        self._init_act = solver.new_var()
        for net, reg in self.circuit.registers.items():
            var = self._frames[0][net]
            solver.add_clause([var if reg.init else -var, -self._init_act])
        self._solver = solver

    def _lit(self, sig, frame_vars):
        var = self._true_var if sig.net == CONST_NET else frame_vars[sig.net]
        return -var if sig.complemented else var

    def _query(self, assumptions, budget):
        self._check_budget(budget)
        self.stats["sat_queries"] += 1
        return self._solver.solve(assumptions=assumptions)

    def _replay_model(self, n_frames):
        """Replay the current model's trace; per-frame net valuations."""
        solver = self._solver
        state = {
            net: solver.value(self._frames[0][net])
            for net in self.circuit.registers
        }
        input_frames = [
            {net: solver.value(self._frames[j][net])
             for net in self.circuit.inputs}
            for j in range(n_frames)
        ]
        self.stats["cex_patterns"] += 1
        return replay_pattern(self.circuit, state, input_frames,
                              sim=self._csim)

    def _value_key(self, frame_values):
        """Pack the replayed per-frame bits of a signal into one word."""
        n = len(frame_values)
        full = (1 << n) - 1

        def value_of(sig):
            if sig.net == CONST_NET:
                word = full
            else:
                word = 0
                for values in frame_values:
                    word = (word << 1) | (values[sig.net] & 1)
            return word ^ (full if sig.complemented else 0)

        return value_of

    def _split_items(self, items, value_of):
        """Split every pending ``(verified, rest)`` item by replayed values.

        Verified members are equal to their leader in *every* state the
        current queries range over — the witness included — so only the
        unprocessed ``rest`` can leave; leftover groups become new items.
        """
        out = []
        for verified, rest in items:
            groups = partition_by_value([verified[0]] + rest, value_of)
            if len(groups) > 1:
                self.stats["cex_class_splits"] += 1
            out.append((verified, groups[0][1:]))
            for group in groups[1:]:
                out.append(([group[0]], group[1:]))
        return out

    def _split_at_initial(self, classes, budget):
        """Base case on the shared encoding: members agree on the first k
        frames from s0 (Eq. 2 for k = 1, its k-induction generalization
        otherwise), with counterexample inputs replayed against all
        classes."""
        base_frames = self._frames[:self.k]
        done = [cls for cls in classes if len(cls) == 1]
        items = [([cls[0]], cls[1:]) for cls in classes if len(cls) > 1]
        while items:
            verified, rest = items.pop()
            if not rest:
                done.append(verified)
                continue
            member = rest.pop(0)
            leader = verified[0]
            model_frames = None
            for frame_vars in base_frames:
                la = self._lit(leader, frame_vars)
                lb = self._lit(member, frame_vars)
                for assumptions in ([self._init_act, la, -lb],
                                    [self._init_act, -la, lb]):
                    if self._query(assumptions, budget):
                        model_frames = self._replay_model(self.k)
                        break
                if model_frames is not None:
                    break
            if model_frames is None:
                verified.append(member)
                items.append((verified, rest))
                continue
            # The witness inputs distinguish leader and member somewhere in
            # the base window; split everything still pending by the full
            # k-frame value words.
            items.append((verified, [member] + rest))
            items = self._split_items(items, self._value_key(model_frames))
        # The base case is settled for good; retire its guard so the
        # initial-state clauses don't tax the inductive rounds.
        self._solver.add_clause([-self._init_act])
        self._solver.simplify()
        return done

    def _guard_classes(self, classes):
        """Guard each class's Q clauses by its own activation literal;
        returns the live literals in creation order.

        A class whose member set survived the last round keeps its literal,
        its clauses and the learned clauses that mention it.  A class that
        split has its literal retired by unit, and simplify() drops its
        clauses, learned ones included, so propagation cost tracks the live
        formula.  Each new class gets a fresh literal and fresh clauses.
        """
        solver = self._solver
        keyed = [(frozenset(sig.net for sig in cls), cls)
                 for cls in classes if len(cls) > 1]
        current = {key for key, _ in keyed}
        guards = {}
        retired = False
        for key, act in self._guards.items():
            if key in current:
                guards[key] = act
            else:
                solver.add_clause([-act])
                retired = True
        if retired:
            solver.simplify()
        for key, cls in keyed:
            if key in guards:
                continue
            act = guards[key] = solver.new_var()
            for frame_vars in self._frames[:-1]:
                rep = self._lit(cls[0], frame_vars)
                for member in cls[1:]:
                    m = self._lit(member, frame_vars)
                    # Guard literal last: the solver watches the first two
                    # literals, so assuming ``act`` does not walk the
                    # class's clause group on every single query.
                    solver.add_clause([-rep, m, -act])
                    solver.add_clause([rep, -m, -act])
        self._guards = guards
        return list(guards.values())

    def _refine_round(self, classes, budget):
        """One Eq. 3 round: Q guarded per class, proofs whose guards all
        survived reused, models replayed into mass splits."""
        solver = self._solver
        live = self._guard_classes(classes)
        live_set = set(live)
        proofs = self._proofs
        check_frame = self._frames[-1]
        done = [cls for cls in classes if len(cls) == 1]
        items = [([cls[0]], list(cls[1:])) for cls in classes if len(cls) > 1]
        while items:
            verified, rest = items.pop()
            if not rest:
                done.append(verified)
                continue
            member = rest.pop(0)
            pair = (verified[0].net, member.net)
            core = proofs.get(pair)
            if core is not None and core <= live_set:
                # The last proof used only Q clauses that are still present
                # verbatim, so it still holds.
                self.stats["proofs_reused"] += 1
                verified.append(member)
                items.append((verified, rest))
                continue
            la = self._lit(verified[0], check_frame)
            lb = self._lit(member, check_frame)
            core = set()
            distinguished = False
            for polarity in ([la, -lb], [-la, lb]):
                if self._query(live + polarity, budget):
                    distinguished = True
                    break
                core |= solver.failed_assumptions()
            if not distinguished:
                proofs[pair] = frozenset(core & live_set)
                verified.append(member)
                items.append((verified, rest))
                continue
            # The model satisfies Q on the first k frames, so the replayed
            # check-frame valuation is a legitimate Eq. 3 splitter for
            # every class, not just this pair.
            check_values = self._replay_model(self.k + 1)[-1]
            items.append((verified, [member] + rest))
            items = self._split_items(items, self._value_key([check_values]))
        return done, len(done) > len(classes)


class _AugmentedProduct:
    """Product view over an augmented working copy of the circuit."""

    def __init__(self, product, circuit):
        self.circuit = circuit
        self.output_pairs = product.output_pairs


def check_equivalence_sat_sweep(spec, impl, match_inputs="name",
                                match_outputs="order", seed=2024,
                                sim_frames=24, sim_width=32,
                                max_iterations=None, k=1,
                                use_retiming=False, max_retiming_rounds=3,
                                progress=None, budget=None):
    """SEC by SAT-based signal correspondence; returns a :class:`SecResult`.

    Sound and incomplete exactly like the BDD engine.  ``k > 1`` runs
    k-induction; ``use_retiming`` runs the Fig. 4 loop (lag-1 signal
    augmentation between fixed points), both strictly increasing proving
    power.  ``progress`` and the one ``budget`` every retiming round
    shares are the service-layer hooks of the BDD engine.
    """
    from ..netlist.product import build_product
    from .retiming_aug import CircuitAugmenter

    start = time.monotonic()
    product = build_product(spec, impl, match_inputs=match_inputs,
                            match_outputs=match_outputs)
    working = product.circuit.copy()
    augmenter = CircuitAugmenter(working)
    total_iterations = 0
    retime_rounds = 0
    classes = []
    totals = None
    while True:
        engine = SatCorrespondence(
            _AugmentedProduct(product, working), seed=seed,
            sim_frames=sim_frames, sim_width=sim_width, k=k,
            progress=progress, budget=budget,
        )
        try:
            classes, iterations = engine.compute(
                max_iterations=max_iterations
            )
        except ResourceBudgetExceeded as exc:
            details = {"aborted": str(exc)}
            details["solver_stats"] = _merge_stats(
                totals, engine.solver_stats())
            return SecResult(equivalent=None, method="sat_sweep",
                             seconds=time.monotonic() - start,
                             details=details)
        total_iterations += iterations
        totals = _merge_stats(totals, engine.solver_stats())
        if _outputs_proved_sat(product, classes):
            return SecResult(
                equivalent=True,
                method="sat_sweep",
                iterations=total_iterations,
                seconds=time.monotonic() - start,
                details=_sat_details(classes, engine.k, retime_rounds, totals),
            )
        if not use_retiming or retime_rounds >= max_retiming_rounds:
            break
        if not augmenter.augment_round():
            break
        retime_rounds += 1
        if progress is not None:
            progress("retiming_round", round=retime_rounds)
    return SecResult(
        equivalent=None,
        method="sat_sweep",
        iterations=total_iterations,
        seconds=time.monotonic() - start,
        details=_sat_details(classes, k, retime_rounds, totals),
    )


def _merge_stats(totals, stats):
    """Sum engine stats across Fig. 4 retiming rounds (snapshots override)."""
    if totals is None:
        return dict(stats)
    merged = dict(totals)
    for key, value in stats.items():
        if key in ("learned", "clauses"):
            merged[key] = value  # database-size snapshots, not counters
        else:
            merged[key] = merged.get(key, 0) + value
    return merged


def _outputs_proved_sat(product, classes):
    index = {}
    polarity = {}
    for idx, cls in enumerate(classes):
        for sig in cls:
            index[sig.net] = idx
            polarity[sig.net] = sig.complemented
    for s_out, i_out in product.output_pairs:
        if index[s_out] != index[i_out]:
            return False
        if polarity[s_out] != polarity[i_out]:
            return False
    return True


def _sat_details(classes, k, retime_rounds, solver_stats=None):
    details = {
        "classes": len(classes),
        "functions": sum(len(c) for c in classes),
        "k": k,
        "retime_rounds": retime_rounds,
    }
    if solver_stats is not None:
        details["solver_stats"] = dict(solver_stats)
    return details
