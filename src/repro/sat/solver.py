"""A CDCL SAT solver: two-watched literals, first-UIP learning, VSIDS,
phase saving, Luby restarts and activity-based learned-clause reduction.

The solver supports incremental solving under assumptions, which is what the
SAT refinement backend of the signal-correspondence engine needs: frame-0
equivalence assumptions are added as (retractable) assumption literals, and
each candidate pair becomes one ``solve(assumptions=...)`` query.

The incremental invariant
-------------------------

``add_clause``/``add_cnf`` and ``solve(assumptions=...)`` may be interleaved
freely, and the sequence must behave exactly like a fresh solver given the
accumulated clause set:

* **learned clauses, VSIDS activities, saved phases and watch lists are
  preserved across ``solve`` calls** — assumptions enter the search as
  decisions, so conflict analysis only ever resolves over problem and
  learned clauses, which makes every learned clause a logical consequence
  of the *base* formula alone (never of the assumptions).  Keeping them is
  therefore sound for any later query, including queries under different
  assumptions;
* a query that is UNSAT *under its assumptions* leaves the base formula
  intact and reusable (``ok`` stays true); only a top-level conflict marks
  the base formula itself unsatisfiable;
* a ``solve`` aborted by ``conflict_budget`` (returning ``None``) backtracks
  to the root and leaves the solver fully reusable — clauses learned before
  the abort are kept.  A spent run :class:`~repro.budget.Budget` aborts the
  same way but raises :class:`~repro.errors.ResourceBudgetExceeded`
  instead of returning, so no caller can mistake it for a verdict;
* ``add_clause`` backtracks to the root first, so a previous model is
  invalidated by any mutation (re-``solve`` to get a fresh one);
* consecutive queries sharing an assumption *prefix* reuse the trail: the
  matching decision levels and their propagation cones survive between
  ``solve`` calls (including after an UNSAT-under-assumptions answer), which
  is invisible semantically but makes activation-literal query batches cheap;
* :meth:`Solver.simplify` physically deletes root-satisfied clauses — the
  retirement step for activation-literal-guarded clause groups.

``tests/sat/test_incremental.py`` property-checks this invariant against
fresh re-solves of the accumulated CNF.

Decisions and propagation
-------------------------

A decision takes the unassigned variable of highest VSIDS activity, the
lowest index among equals, from a binary heap of ``(-activity, var)``
entries in O(log n).  Entries are invalidated lazily rather than updated
in place: a bump leaves the old entry stale, and an entry whose key is
stale or whose variable is assigned is discarded when it surfaces.
``_propagate`` tests and assigns literals on the solver's arrays directly,
with no call per literal.  Neither changes the search: decisions,
propagation order, conflicts, learned clauses and models are those of a
linear decision scan and a method-call propagation loop, which
``tests/sat/test_kernel.py`` keeps as its reference.

Internal literal encoding: variable ``v`` (0-based) has literals ``2v``
(positive) and ``2v + 1`` (negative); the public API speaks DIMACS integers.
"""

from heapq import heapify, heappop, heappush

from ..errors import ResourceBudgetExceeded, SatError

TRUE = 1
FALSE = 0
UNASSIGNED = -1

#: ``solve`` polls its budget once every this many conflicts, and again
#: every this many decisions (a run of propagations without conflicts
#: reaches a poll only through its decisions).
_POLL_EVERY = 256

#: The decision heap is rebuilt once it holds this many entries per
#: variable; stale entries are otherwise dropped only when they surface.
_HEAP_SLACK = 4


def _to_internal(dimacs_lit):
    var = abs(dimacs_lit) - 1
    return 2 * var + (1 if dimacs_lit < 0 else 0)


def luby(i):
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 1-based index."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    if i == (1 << k) - 1:
        return 1 << (k - 1)
    return luby(i - ((1 << k) - 1))


class Solver:
    """CDCL solver over 0-based internal variables, DIMACS at the API;
    ``solve`` polls ``budget`` (a :class:`~repro.budget.Budget`) if given."""

    def __init__(self, budget=None):
        self.budget = budget
        self.num_vars = 0
        self.clauses = []          # list of lists of internal literals
        self.learned = []
        self.watches = []          # internal lit -> list of clause refs
        self.assign = []           # var -> TRUE/FALSE/UNASSIGNED
        self.level = []            # var -> decision level
        self.reason = []           # var -> implying clause or None
        self.trail = []
        self.trail_lim = []
        self.activity = []
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        self.saved_phase = []
        # Decision order: a binary heap of ``(-activity, var)`` entries, so
        # popping gives the highest activity, the lowest index on ties.  An
        # entry is live while its key equals the variable's activity;
        # ``_queued[var]`` is true only if ``var`` has a live entry, and
        # every unassigned variable has one (see ``_pick_branch``).
        self._heap = []
        self._queued = []
        self._qhead = 0
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.max_learned = 4000

    # -- public API ------------------------------------------------------

    def new_var(self):
        """Allocate a variable; returns its DIMACS index."""
        self.num_vars += 1
        self.assign.append(UNASSIGNED)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.saved_phase.append(False)
        self.watches.append([])
        self.watches.append([])
        self._queued.append(True)
        heappush(self._heap, (-0.0, self.num_vars - 1))
        return self.num_vars

    def ensure_vars(self, count):
        while self.num_vars < count:
            self.new_var()

    def add_clause(self, dimacs_literals):
        """Add a problem clause; returns False if the formula became UNSAT."""
        if not self.ok:
            return False
        # Incremental use: clauses are always added at the root level (the
        # trail may still hold the previous solve's model).
        self._backtrack(0)
        literals = []
        seen = set()
        for lit in dimacs_literals:
            if lit == 0 or not isinstance(lit, int):
                raise SatError("bad literal: {!r}".format(lit))
            self.ensure_vars(abs(lit))
            internal = _to_internal(lit)
            if internal ^ 1 in seen:
                return True  # tautology
            if internal in seen:
                continue
            seen.add(internal)
            # Top-level simplification.
            value = self._lit_value(internal)
            if value == TRUE and self.level[internal >> 1] == 0:
                return True
            if value == FALSE and self.level[internal >> 1] == 0:
                continue
            literals.append(internal)
        if not literals:
            self.ok = False
            return False
        if len(literals) == 1:
            if not self._enqueue(literals[0], None):
                self.ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                return False
            return True
        clause = literals
        self.clauses.append(clause)
        self._watch_clause(clause)
        return True

    def add_cnf(self, cnf):
        """Add every clause of a :class:`~repro.sat.cnf.Cnf`."""
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            if not self.add_clause(clause):
                return False
        return self.ok

    def solve(self, assumptions=(), conflict_budget=None):
        """Solve under assumptions; True/False, or None on conflict budget
        exhaustion (a spent run budget raises, see the module docstring).

        Assumptions occupy the first decision levels.  A conflict whose
        analysis backtracks past an assumption makes that assumption evaluate
        to false when it is re-placed, at which point the query is UNSAT
        under the assumptions (the base formula stays intact and reusable).
        """
        if not self.ok:
            return False
        conflict_count_start = self.conflicts
        conflicts_at_restart = self.conflicts
        restart_idx = 1
        limit = luby(restart_idx) * 64
        assumption_lits = [_to_internal(lit) for lit in assumptions]
        for lit in assumption_lits:
            self.ensure_vars((lit >> 1) + 1)
        # Trail reuse: keep the longest decision-level prefix whose decision
        # literals re-place these assumptions in order, so the propagation
        # cone of a shared assumption prefix (e.g. an activation literal
        # enabling a large constraint group) is not recomputed per query.
        keep = 0
        while keep < self._decision_level() and keep < len(assumption_lits):
            start = self.trail_lim[keep]
            end = (self.trail_lim[keep + 1]
                   if keep + 1 < len(self.trail_lim) else len(self.trail))
            if start < end and self.trail[start] == assumption_lits[keep]:
                keep += 1
            else:
                break
        self._backtrack(keep)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if self._decision_level() == 0:
                    # Conflict from top-level facts alone: base formula UNSAT.
                    self.ok = False
                    return False
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                self._record_learnt(learnt)
                self._decay_activities()
                if conflict_budget is not None and (
                    self.conflicts - conflict_count_start
                ) >= conflict_budget:
                    self._backtrack(0)
                    return None
                if not self.conflicts % _POLL_EVERY:
                    self._poll_budget()
                if self.conflicts - conflicts_at_restart >= limit:
                    restart_idx += 1
                    limit = luby(restart_idx) * 64
                    conflicts_at_restart = self.conflicts
                    self.restarts += 1
                    self._backtrack(0)
                if len(self.learned) > self.max_learned:
                    self._reduce_learned()
            else:
                # Place pending assumptions as decisions.
                if self._decision_level() < len(assumption_lits):
                    lit = assumption_lits[self._decision_level()]
                    value = self._lit_value(lit)
                    if value == TRUE:
                        # Already implied: open an empty decision level so the
                        # level/assumption-index correspondence is kept.
                        self.trail_lim.append(len(self.trail))
                        continue
                    if value == FALSE:
                        # UNSAT under the assumptions.  The trail is left at
                        # the already-placed prefix so the next query can
                        # reuse it (solve() re-validates the prefix anyway).
                        return False
                    self.trail_lim.append(len(self.trail))
                    self._enqueue(lit, None)
                    continue
                lit = self._pick_branch()
                if lit is None:
                    return True
                self.decisions += 1
                if not self.decisions % _POLL_EVERY:
                    self._poll_budget()
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)

    def model(self):
        """Assignment dict {dimacs_var: bool} after a satisfiable solve."""
        return {
            v + 1: self.assign[v] == TRUE
            for v in range(self.num_vars)
            if self.assign[v] != UNASSIGNED
        }

    def value(self, dimacs_var):
        v = self.assign[dimacs_var - 1]
        return None if v == UNASSIGNED else v == TRUE

    def simplify(self):
        """Physically remove clauses satisfied at the root level.

        The incremental engine retires an activation-literal-guarded clause
        group by adding the unit ``[-act]``; the group's clauses are then
        permanently satisfied but still sit in the watch lists, taxing every
        later propagation.  ``simplify`` (MiniSat's ``Simplify``) drops
        satisfied problem and learned clauses, strips permanently false
        literals from the survivors, and rebuilds the watch lists — all of
        which preserves the incremental invariant because root facts never
        change again.  Returns ``False`` iff the formula is UNSAT.
        """
        if not self.ok:
            return False
        self._backtrack(0)
        if self._propagate() is not None:
            self.ok = False
            return False
        for lit in self.trail:
            # Root facts are never resolved over again (conflict analysis
            # skips level-0 literals), so their reasons can be dropped.
            self.reason[lit >> 1] = None
        for store in (self.clauses, self.learned):
            kept = []
            for clause in store:
                if any(self._lit_value(lit) == TRUE for lit in clause):
                    continue
                # Propagation ran to fixpoint, so a surviving clause keeps
                # at least two non-false literals.
                clause[:] = [l for l in clause
                             if self._lit_value(l) != FALSE]
                kept.append(clause)
            store[:] = kept
        for lit in range(2 * self.num_vars):
            self.watches[lit] = []
        for clause in self.clauses:
            self._watch_clause(clause)
        for clause in self.learned:
            self._watch_clause(clause)
        return True

    def stats(self):
        """Snapshot of search-effort counters and database sizes.

        Counters (``conflicts``, ``decisions``, ``propagations``,
        ``restarts``) accumulate over the solver's lifetime — across
        incremental ``solve`` calls — which is what lets callers attribute
        effort to individual refinement rounds by differencing snapshots.
        """
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned": len(self.learned),
            "clauses": len(self.clauses),
            "num_vars": self.num_vars,
        }

    # -- internals ---------------------------------------------------------

    def _poll_budget(self):
        if self.budget is None:
            return
        try:
            self.budget.check()
        except ResourceBudgetExceeded:
            self._backtrack(0)
            raise

    def _lit_value(self, lit):
        v = self.assign[lit >> 1]
        if v == UNASSIGNED:
            return UNASSIGNED
        return v ^ (lit & 1)

    def _watch_clause(self, clause):
        self.watches[clause[0] ^ 1].append(clause)
        self.watches[clause[1] ^ 1].append(clause)

    def _enqueue(self, lit, reason):
        value = self._lit_value(lit)
        if value != UNASSIGNED:
            return value == TRUE
        var = lit >> 1
        self.assign[var] = TRUE if (lit & 1) == 0 else FALSE
        self.level[var] = self._decision_level()
        self.reason[var] = reason
        self.saved_phase[var] = (lit & 1) == 0
        self.trail.append(lit)
        return True

    def _decision_level(self):
        return len(self.trail_lim)

    def _propagate(self):
        """Propagate the trail from the queue head to fixpoint; returns a
        falsified clause on conflict, else None.

        ``_lit_value`` and ``_enqueue`` are inlined: literal ``l`` is false
        iff ``assign[l >> 1] == l & 1`` and true iff it equals
        ``(l & 1) ^ 1`` (``UNASSIGNED`` matches neither).
        """
        trail = self.trail
        assign, watches = self.assign, self.watches
        level, reason, saved_phase = self.level, self.reason, self.saved_phase
        current_level = len(self.trail_lim)
        start = head = self._qhead
        while head < len(trail):
            lit = trail[head]
            head += 1
            false_lit = lit ^ 1
            watching = watches[lit]
            kept = watches[lit] = []
            i = 0
            end = len(watching)
            while i < end:
                clause = watching[i]
                i += 1
                # Make sure the false literal is at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if assign[first >> 1] == (first & 1) ^ 1:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if assign[other >> 1] != other & 1:
                        clause[1], clause[k] = other, clause[1]
                        watches[other ^ 1].append(clause)
                        break
                else:
                    kept.append(clause)
                    var = first >> 1
                    if assign[var] != UNASSIGNED:
                        # Conflict: restore remaining watchers and report.
                        kept.extend(watching[i:])
                        self._qhead = len(trail)
                        self.propagations += head - start
                        return clause
                    assign[var] = (first & 1) ^ 1
                    level[var] = current_level
                    reason[var] = clause
                    saved_phase[var] = not first & 1
                    trail.append(first)
        self._qhead = head
        self.propagations += head - start
        return None

    def _analyze(self, conflict):
        """First-UIP conflict analysis; returns (learnt_clause, back_level)."""
        learnt = []
        seen = [False] * self.num_vars
        counter = 0
        lit = None
        clause = conflict
        trail_idx = len(self.trail) - 1
        current_level = self._decision_level()
        while True:
            for q in clause:
                if lit is not None and q == lit:
                    continue
                var = q >> 1
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self.level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[trail_idx] >> 1]:
                trail_idx -= 1
            lit = self.trail[trail_idx]
            var = lit >> 1
            seen[var] = False
            trail_idx -= 1
            counter -= 1
            if counter == 0:
                break
            clause = self.reason[var]
        learnt.insert(0, lit ^ 1)
        # Minimize: drop literals implied by the rest (MiniSat basic mode).
        learnt = self._minimize(learnt)
        if len(learnt) == 1:
            back_level = 0
        else:
            # Find the second-highest level in the clause.
            max_i = 1
            for i in range(2, len(learnt)):
                if self.level[learnt[i] >> 1] > self.level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = self.level[learnt[1] >> 1]
        return learnt, back_level

    def _minimize(self, learnt):
        seen = {q >> 1 for q in learnt}
        result = [learnt[0]]
        for q in learnt[1:]:
            reason = self.reason[q >> 1]
            if reason is None:
                result.append(q)
                continue
            redundant = all(
                (r >> 1) in seen or self.level[r >> 1] == 0
                for r in reason
                if r != (q ^ 1)
            )
            if not redundant:
                result.append(q)
        return result

    def _record_learnt(self, learnt):
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        self.learned.append(learnt)
        self._watch_clause(learnt)
        self._enqueue(learnt[0], learnt)

    def _backtrack(self, target_level):
        if self._decision_level() <= target_level:
            return
        boundary = self.trail_lim[target_level]
        assign, reason = self.assign, self.reason
        heap, queued, activity = self._heap, self._queued, self.activity
        for lit in reversed(self.trail[boundary:]):
            var = lit >> 1
            assign[var] = UNASSIGNED
            reason[var] = None
            if not queued[var]:
                queued[var] = True
                heappush(heap, (-activity[var], var))
        del self.trail[boundary:]
        del self.trail_lim[target_level:]
        self._qhead = len(self.trail)
        if len(heap) > _HEAP_SLACK * self.num_vars:
            self._rebuild_heap()

    def _rebuild_heap(self):
        """One live entry per unassigned variable and nothing else."""
        assign, activity = self.assign, self.activity
        self._queued = [value == UNASSIGNED for value in assign]
        self._heap = [(-activity[var], var)
                      for var in range(self.num_vars)
                      if assign[var] == UNASSIGNED]
        heapify(self._heap)

    def _pick_branch(self):
        """The unassigned variable of highest activity (lowest index on
        ties), as a literal in its saved phase; None if all are assigned.

        Entries above it that are stale or name an assigned variable are
        discarded.  Its own entry stays: once the decision assigns it, the
        next call discards it, so a budget poll raising between this call
        and the assignment cannot lose the variable.
        """
        heap, assign, activity = self._heap, self.assign, self.activity
        while heap:
            key, var = heap[0]
            if -key == activity[var]:
                if assign[var] == UNASSIGNED:
                    return 2 * var + (0 if self.saved_phase[var] else 1)
                self._queued[var] = False
            heappop(heap)
        return None

    def _bump_var(self, var):
        activity = self.activity
        activity[var] += self.var_inc
        if activity[var] > 1e100:
            for v in range(self.num_vars):
                activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()
        elif self.assign[var] == UNASSIGNED:
            heappush(self._heap, (-activity[var], var))
            self._queued[var] = True
        else:
            # The key went stale; backtracking past ``var`` re-queues it.
            self._queued[var] = False

    def _decay_activities(self):
        self.var_inc /= self.var_decay

    def _reduce_learned(self):
        """Drop half the learned clauses, keeping short ones and reasons."""
        locked = {id(self.reason[lit >> 1]) for lit in self.trail
                  if self.reason[lit >> 1] is not None}
        self.learned.sort(key=len)
        keep, drop = [], set()
        half = len(self.learned) // 2
        for i, clause in enumerate(self.learned):
            if i < half or len(clause) <= 2 or id(clause) in locked:
                keep.append(clause)
            else:
                drop.add(id(clause))
        if not drop:
            return
        self.learned = keep
        for lit in range(2 * self.num_vars):
            self.watches[lit] = [
                c for c in self.watches[lit] if id(c) not in drop
            ]
