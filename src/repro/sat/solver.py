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
* after an UNSAT answer, :meth:`Solver.failed_assumptions` names the
  assumptions it rests on (an assumption core: the base formula is UNSAT
  under those alone).  It is computed from the trail that answer left, so
  it is valid only until the next ``add_clause``, ``solve`` or
  ``simplify``;
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
  is invisible semantically but makes activation-literal query batches cheap.
  The shared prefix is found by comparing the new assumption list with the
  one placed last, in C rather than level by level, so a query that assumes
  dozens of activation literals pays for the ones that changed only;
* ``solve(guards=G, assumptions=A)`` answers like ``solve(assumptions=G +
  A)``, but places every guard of ``G`` at once, as decisions on level 1,
  and the assumptions of ``A`` on the levels above it.  The guard level is
  placed whenever the decision level is 0 (at the start, after a restart,
  after a learned unit) and survives every backjump that stays above
  level 0, so a query pays for its guards only when ``G`` changed, which
  ``solve`` notices by comparing ``G`` with the last list by value.  Level
  1 holds many decisions, so first-UIP analysis does not apply to a
  conflict there: the query answers False, and its core is the guard
  decisions the conflict clause is implied from.  Cores name every guard
  decision they reach, so a caller can tell which guarded groups an
  answer used;
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
(positive) and ``2v + 1`` (negative); the public API speaks DIMACS integers,
and rejects with :class:`~repro.errors.SatError` a literal that is 0 or not
an ``int`` (a ``bool`` included).  The truth value lives per literal:
``vals[l]`` is ``TRUE``, ``FALSE`` or ``UNASSIGNED``, so a test is one
index, and assigning a variable sets both of its literals.
"""

from heapq import heapify, heappop, heappush
from itertools import compress, count
from operator import ne

from ..errors import ResourceBudgetExceeded, SatError

TRUE = 1
FALSE = 0
UNASSIGNED = -1

#: ``solve`` polls its budget once every this many conflicts, and again
#: every this many decisions (a run of propagations without conflicts
#: reaches a poll only through its decisions).
_POLL_EVERY = 64

#: The decision heap is rebuilt once it holds this many entries per
#: variable; stale entries are otherwise dropped only when they surface.
_HEAP_SLACK = 4


def _internal_literals(dimacs_literals, what):
    """Internal literals of a list of DIMACS ones; raises SatError unless
    each is a nonzero ``int``."""
    literals = []
    for lit in dimacs_literals:
        if type(lit) is not int or not lit:
            raise SatError("bad {} literal: {!r}".format(what, lit))
        # DIMACS v > 0 is 2v - 2 and -v is 2v - 1.
        literals.append(2 * lit - 2 if lit > 0 else -2 * lit - 1)
    return literals


def _to_dimacs(internal_lit):
    var = (internal_lit >> 1) + 1
    return -var if internal_lit & 1 else var


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
        self.vals = []             # internal lit -> TRUE/FALSE/UNASSIGNED
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
        # The assumption found false by the last UNSAT-under-assumptions
        # answer, or the clause a conflict on the guard level falsified,
        # while its trail stands; see ``failed_assumptions``.
        self._failed = None
        # The last query's assumptions, as placed on the trail's first
        # decision levels; ``solve`` keeps the levels a new query shares.
        self._placed = []
        # The last guard list (a copy), its internal literals, and the
        # negative marker that stands for its guard level in ``_placed``;
        # a new list gets a new marker.  One attribute, not three: from 30
        # instance attributes on, CPython 3.11 and 3.12 stop keeping them
        # inline and every attribute access slows (bmc by 8% on 3.11);
        # ``tests/sat/test_kernel.py`` holds the count below 30.
        self._guard_level = (None, [], -1)

    # -- public API ------------------------------------------------------

    def new_var(self):
        """Allocate a variable; returns its DIMACS index."""
        self.ensure_vars(self.num_vars + 1)
        return self.num_vars

    def ensure_vars(self, count):
        """Allocate variables until there are ``count``."""
        first = self.num_vars
        if count <= first:
            return
        added = count - first
        self.num_vars = count
        self.vals += [UNASSIGNED] * (2 * added)
        self.level += [0] * added
        self.reason += [None] * added
        self.activity += [0.0] * added
        self.saved_phase += [False] * added
        self.watches += [[] for _ in range(2 * added)]
        self._queued += [True] * added
        # The heap holds only older variables, whose keys are at most -0.0,
        # so each new entry would stay where heappush appends it.
        self._heap += [(-0.0, var) for var in range(first, count)]

    def add_clause(self, dimacs_literals):
        """Add a problem clause; returns False if the formula became UNSAT."""
        if not self.ok:
            return False
        self._failed = None
        # Incremental use: clauses are always added at the root level (the
        # trail may still hold the previous solve's model), so every
        # assigned literal below is a root fact.
        if self.trail_lim:
            self._backtrack(0)
        vals = self.vals
        literals = []
        pending = iter(dimacs_literals)
        for lit in pending:
            if type(lit) is not int:
                raise SatError("bad literal: {!r}".format(lit))
            # DIMACS v > 0 is 2v - 2 and -v is 2v - 1.
            if lit > 0:
                internal = 2 * lit - 2
            elif lit:
                internal = -2 * lit - 1
            else:
                raise SatError("bad literal: 0")
            if internal >= len(vals):
                self.ensure_vars((internal >> 1) + 1)
            value = vals[internal]
            if value == TRUE:
                # Satisfied at the root; the rest is only checked.
                _internal_literals(pending, "clause")
                return True
            if value == UNASSIGNED:
                # A literal seen before is unassigned too, so ``literals``
                # holds it: a repeat is dropped, and its negation makes the
                # clause a tautology.  A literal false at the root is
                # dropped.
                if internal in literals:
                    continue
                if internal ^ 1 in literals:
                    _internal_literals(pending, "clause")
                    return True
                literals.append(internal)
        if not literals:
            self.ok = False
            return False
        if len(literals) == 1:
            self._enqueue(literals[0], None)
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        self.clauses.append(literals)
        self._watch_clause(literals)
        return True

    def add_cnf(self, cnf):
        """Add every clause of a :class:`~repro.sat.cnf.Cnf`."""
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            if not self.add_clause(clause):
                return False
        return self.ok

    def solve(self, assumptions=(), conflict_budget=None, guards=None):
        """Solve under assumptions; True/False, or None on conflict budget
        exhaustion (a spent run budget raises, see the module docstring).

        Assumptions occupy the first decision levels.  A conflict whose
        analysis backtracks past an assumption makes that assumption evaluate
        to false when it is re-placed, at which point the query is UNSAT
        under the assumptions (the base formula stays intact and reusable).

        ``guards``, a list of DIMACS literals, are assumed as well, all on
        decision level 1 below the assumptions (the guard level in the
        module docstring); an empty list or None places no guard level.
        A guard list is checked when it differs by value from the last
        one, so a ``bool`` equal to a literal checked before passes.
        """
        assumption_lits = _internal_literals(assumptions, "assumption")
        if guards:
            if guards != self._guard_level[0]:
                self._set_guards(guards)
            # The guard level is placed first, as the one item that no
            # literal can equal.
            assumption_lits.insert(0, self._guard_level[2])
            guard_level = 1
        else:
            guard_level = 0
        if not self.ok:
            return False
        self._failed = None
        conflict_count_start = self.conflicts
        conflicts_at_restart = self.conflicts
        restart_idx = 1
        limit = luby(restart_idx) * 64
        if assumption_lits:
            self.ensure_vars((max(assumption_lits) >> 1) + 1)
        # Trail reuse: level i + 1 of the trail, for i below both the
        # decision level and len(self._placed), is where item
        # self._placed[i] (an assumption, or the guard level's marker) was
        # placed.  Keep the levels up to the first place where the new list
        # differs from it, so the propagation cone of a shared prefix (e.g.
        # the activation literals enabling large constraint groups) is not
        # recomputed per query.
        trail, trail_lim, vals = self.trail, self.trail_lim, self.vals
        placed = self._placed[:len(trail_lim)]
        keep = next(compress(count(), map(ne, assumption_lits, placed)),
                    min(len(assumption_lits), len(placed)))
        self._placed = assumption_lits
        self._backtrack(keep)
        propagate, backtrack = self._propagate, self._backtrack
        while True:
            conflict = propagate()
            if conflict is not None:
                self.conflicts += 1
                level = len(trail_lim)
                if level <= guard_level:
                    if not level:
                        # Conflict from top-level facts alone: base formula
                        # UNSAT.
                        self.ok = False
                        return False
                    # A conflict on the guard level: UNSAT under the guards.
                    # The trail stands for failed_assumptions(), and the
                    # next query places the guard level anew.
                    self._failed = conflict
                    self._placed = []
                    return False
                learnt, back_level = self._analyze(conflict)
                backtrack(back_level)
                self._record_learnt(learnt)
                self.var_inc /= self.var_decay
                conflicts = self.conflicts
                if conflict_budget is not None and (
                    conflicts - conflict_count_start
                ) >= conflict_budget:
                    backtrack(0)
                    return None
                if not conflicts % _POLL_EVERY:
                    self._poll_budget()
                if conflicts - conflicts_at_restart >= limit:
                    restart_idx += 1
                    limit = luby(restart_idx) * 64
                    conflicts_at_restart = conflicts
                    self.restarts += 1
                    backtrack(0)
                if len(self.learned) > self.max_learned:
                    self._reduce_learned()
                continue
            level = len(trail_lim)
            if level < len(assumption_lits):
                # Place the next pending assumption as a decision.
                lit = assumption_lits[level]
                if lit < 0:
                    failed = self._place_guards()
                    if failed is not None:
                        # A guard is false at the root or opposes another.
                        self._failed = failed
                        self._placed = []
                        return False
                    continue
                value = vals[lit]
                if value == TRUE:
                    # Already implied: open an empty decision level so the
                    # level/assumption-index correspondence is kept.
                    trail_lim.append(len(trail))
                    continue
                if value == FALSE:
                    # UNSAT under the assumptions.  The trail is left at
                    # the already-placed prefix so the next query can
                    # reuse it (solve() re-validates the prefix anyway),
                    # and so that failed_assumptions() can walk it.
                    self._failed = lit
                    return False
                trail_lim.append(len(trail))
                self._enqueue(lit, None)
                continue
            lit = self._pick_branch()
            if lit is None:
                return True
            self.decisions += 1
            if not self.decisions % _POLL_EVERY:
                self._poll_budget()
            trail_lim.append(len(trail))
            self._enqueue(lit, None)

    def model(self):
        """Assignment dict {dimacs_var: bool} after a satisfiable solve."""
        return {var: value == TRUE
                for var, value in enumerate(self.vals[::2], 1)
                if value != UNASSIGNED}

    def value(self, dimacs_var):
        """True, False or None (unassigned) for a DIMACS variable index."""
        if type(dimacs_var) is not int or not 0 < dimacs_var <= self.num_vars:
            raise SatError("bad variable: {!r}".format(dimacs_var))
        value = self.vals[2 * dimacs_var - 2]
        return None if value == UNASSIGNED else value == TRUE

    def failed_assumptions(self):
        """The assumptions the last UNSAT answer rests on (MiniSat's
        ``analyzeFinal``), as a set of DIMACS literals.

        The set holds the assumption found false plus every assumption
        decision in its implication cone, so the base formula is UNSAT
        under these assumptions alone.  After a conflict on the guard
        level it holds the guard decisions in the conflict clause's cone.
        It is empty if the base formula itself is UNSAT.  Nothing is
        computed until a caller asks, and the answer is valid only until
        the next ``add_clause``, ``solve`` or ``simplify``.
        """
        if not self.ok:
            return set()
        failed = self._failed
        if failed is None:
            raise SatError("no UNSAT-under-assumptions answer to explain")
        level, reason, vals = self.level, self.reason, self.vals
        if isinstance(failed, list):
            # The clause a guard-level conflict falsified.
            core = set()
            stack = [q >> 1 for q in failed if level[q >> 1] > 0]
        else:
            core = {_to_dimacs(failed)}
            if level[failed >> 1] == 0:
                return core
            stack = [failed >> 1]
        # The level > 0 decisions that the failed literal's negation (or
        # the conflict clause) is implied from: the set analyzeFinal's
        # backward trail walk collects, found by following reasons from
        # there alone, so the work is the size of its cone, not of the
        # trail.  Every level > 0 decision is a guard or an assumption
        # while solve() is still placing them.
        marked = set(stack)
        while stack:
            var = stack.pop()
            clause = reason[var]
            if clause is None:
                core.add(var + 1 if vals[2 * var] == TRUE else -var - 1)
                continue
            for q in clause:
                other = q >> 1
                if other not in marked and level[other] > 0:
                    marked.add(other)
                    stack.append(other)
        return core

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
        self._failed = None
        self._backtrack(0)
        if self._propagate() is not None:
            self.ok = False
            return False
        for lit in self.trail:
            # Root facts are never resolved over again (conflict analysis
            # skips level-0 literals), so their reasons can be dropped.
            self.reason[lit >> 1] = None
        # At the root the trail holds exactly the true literals.
        true_lits = set(self.trail)
        false_lits = {lit ^ 1 for lit in true_lits}
        watches = self.watches = [[] for _ in range(2 * self.num_vars)]
        for store in (self.clauses, self.learned):
            kept = [clause for clause in store
                    if true_lits.isdisjoint(clause)]
            for clause in kept:
                # Propagation ran to fixpoint, so a surviving clause keeps
                # at least two non-false literals.
                if not false_lits.isdisjoint(clause):
                    clause[:] = [l for l in clause if l not in false_lits]
                watches[clause[0] ^ 1].append(clause)
                watches[clause[1] ^ 1].append(clause)
            store[:] = kept
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

    def _set_guards(self, guards):
        lits = _internal_literals(guards, "guard")
        self.ensure_vars((max(lits) >> 1) + 1)
        self._guard_level = (list(guards), lits, self._guard_level[2] - 1)

    def _place_guards(self):
        """Open the guard level and decide every guard on it; returns a
        guard found false, else None.  Nothing propagates in between, so a
        guard is false only by a root fact or by the opposite guard."""
        self.trail_lim.append(len(self.trail))
        vals = self.vals
        for lit in self._guard_level[1]:
            value = vals[lit]
            if value == FALSE:
                return lit
            if value == UNASSIGNED:
                self._enqueue(lit, None)
        return None

    def _poll_budget(self):
        if self.budget is None:
            return
        try:
            self.budget.check()
        except ResourceBudgetExceeded:
            self._backtrack(0)
            raise

    def _lit_value(self, lit):
        return self.vals[lit]

    def _watch_clause(self, clause):
        self.watches[clause[0] ^ 1].append(clause)
        self.watches[clause[1] ^ 1].append(clause)

    def _enqueue(self, lit, reason):
        vals = self.vals
        value = vals[lit]
        if value != UNASSIGNED:
            return value == TRUE
        vals[lit] = TRUE
        vals[lit ^ 1] = FALSE
        var = lit >> 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.saved_phase[var] = not lit & 1
        self.trail.append(lit)
        return True

    def _propagate(self):
        """Propagate the trail from the queue head to fixpoint; returns a
        falsified clause on conflict, else None.

        ``_lit_value`` and ``_enqueue`` are inlined over ``vals``, where a
        false literal reads ``FALSE``, which is 0, and a true one ``TRUE``.
        """
        trail = self.trail
        vals, watches = self.vals, self.watches
        level, reason, saved_phase = self.level, self.reason, self.saved_phase
        current_level = len(self.trail_lim)
        start = head = self._qhead
        while head < len(trail):
            lit = trail[head]
            head += 1
            false_lit = lit ^ 1
            watching = iter(watches[lit])
            kept = watches[lit] = []
            for clause in watching:
                # Make sure the false literal is at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                first = clause[0]
                if vals[first] == TRUE:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if vals[other]:   # not FALSE: watch it instead
                        clause[1], clause[k] = other, false_lit
                        watches[other ^ 1].append(clause)
                        break
                else:
                    kept.append(clause)
                    if not vals[first]:
                        # Conflict: keep the watchers not visited, in order,
                        # and report.
                        kept.extend(watching)
                        self._qhead = len(trail)
                        self.propagations += head - start
                        return clause
                    vals[first] = TRUE
                    vals[first ^ 1] = FALSE
                    var = first >> 1
                    level[var] = current_level
                    reason[var] = clause
                    saved_phase[var] = not first & 1
                    trail.append(first)
        self._qhead = head
        self.propagations += head - start
        return None

    def _analyze(self, conflict):
        """First-UIP conflict analysis; returns (learnt_clause, back_level)."""
        level, trail, reason = self.level, self.trail, self.reason
        bump_var = self._bump_var
        learnt = []
        seen = [False] * self.num_vars
        counter = 0
        lit = None
        clause = conflict
        trail_idx = len(trail) - 1
        current_level = len(self.trail_lim)
        while True:
            for q in clause:
                if q == lit:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    bump_var(var)
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[trail_idx] >> 1]:
                trail_idx -= 1
            lit = trail[trail_idx]
            var = lit >> 1
            seen[var] = False
            trail_idx -= 1
            counter -= 1
            if counter == 0:
                break
            clause = reason[var]
        learnt.insert(0, lit ^ 1)
        # Minimize: drop literals implied by the rest (MiniSat basic mode).
        learnt = self._minimize(learnt)
        if len(learnt) == 1:
            back_level = 0
        else:
            # Find the second-highest level in the clause.
            max_i = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = level[learnt[1] >> 1]
        return learnt, back_level

    def _minimize(self, learnt):
        level, reasons = self.level, self.reason
        seen = {q >> 1 for q in learnt}
        result = [learnt[0]]
        for q in learnt[1:]:
            reason = reasons[q >> 1]
            if reason is None:
                result.append(q)
                continue
            redundant = all(
                (r >> 1) in seen or level[r >> 1] == 0
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
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        trail = self.trail
        boundary = trail_lim[target_level]
        vals, reason = self.vals, self.reason
        heap, queued, activity = self._heap, self._queued, self.activity
        for lit in reversed(trail[boundary:]):
            vals[lit] = vals[lit ^ 1] = UNASSIGNED
            var = lit >> 1
            reason[var] = None
            if not queued[var]:
                queued[var] = True
                heappush(heap, (-activity[var], var))
        del trail[boundary:]
        del trail_lim[target_level:]
        self._qhead = len(trail)
        if len(heap) > _HEAP_SLACK * self.num_vars:
            self._rebuild_heap()

    def _rebuild_heap(self):
        """One live entry per unassigned variable and nothing else."""
        activity = self.activity
        queued = self._queued = [value == UNASSIGNED
                                 for value in self.vals[::2]]
        self._heap = [(-activity[var], var)
                      for var in range(self.num_vars) if queued[var]]
        heapify(self._heap)

    def _pick_branch(self):
        """The unassigned variable of highest activity (lowest index on
        ties), as a literal in its saved phase; None if all are assigned.

        Entries above it that are stale or name an assigned variable are
        discarded.  Its own entry stays: once the decision assigns it, the
        next call discards it, so a budget poll raising between this call
        and the assignment cannot lose the variable.
        """
        heap, vals, activity = self._heap, self.vals, self.activity
        while heap:
            key, var = heap[0]
            if -key == activity[var]:
                if vals[2 * var] == UNASSIGNED:
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
        elif self.vals[2 * var] == UNASSIGNED:
            heappush(self._heap, (-activity[var], var))
            self._queued[var] = True
        else:
            # The key went stale; backtracking past ``var`` re-queues it.
            self._queued[var] = False

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
