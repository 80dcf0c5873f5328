"""The greatest fixed-point iteration computing the maximum signal
correspondence relation (§3 of the paper).

Starting partition T0 (Eq. 2): functions grouped by their cofactor at the
initial state (equal for *all* inputs x) — pre-split by random sequential
simulation signatures, which is sound because any state visited by
simulation is reachable, and every valid correspondence condition holds in
every reachable state (§4).

Refinement step (Eq. 3): within each class, members whose next-state
functions differ on some state/input pair satisfying the current
correspondence condition Q are split off.  Q's functional dependencies are
exploited by *substituting* register variables away (the paper's
``v6 := v1 · v2`` example) with an acyclicity guard, instead of conjoining
the corresponding equivalences into Q.
"""

from ..errors import ResourceBudgetExceeded
from .cexsplit import partition_by_value
from .partition import Partition


class CorrespondenceResult:
    """Outcome of the fixed-point computation."""

    def __init__(self, partition, q_edge, iterations, substitutions=0):
        self.partition = partition
        self.q_edge = q_edge
        self.iterations = iterations
        self.substitutions = substitutions


def initial_partition(frame, functions, use_simulation=True):
    """T0 of Eq. 2, optionally pre-split by simulation signatures."""

    def key(fn):
        t0 = frame.restrict_to_initial(fn.edge)
        if use_simulation:
            return (t0, fn.signature)
        return t0

    return Partition.from_keys(functions, key)


def compute_fixpoint(frame, functions, use_simulation=True, use_fundeps=True,
                     reach_bound=None, max_iterations=None,
                     reorder_threshold=None, on_iteration=None,
                     budget=None):
    """Run the fixed point; returns a :class:`CorrespondenceResult`.

    ``reach_bound`` is an optional BDD over the frame's state variables — an
    inductive over-approximation of the reachable states used to strengthen
    the correspondence condition with sequential don't cares (§3).
    ``reorder_threshold`` enables dynamic variable reordering (sifting) at
    iteration boundaries once the manager grows past that many live nodes —
    the paper's "dynamic variable ordering is used to control the BDD
    variable ordering".

    ``on_iteration(iteration, partition)`` is called at the top of every
    refinement round (progress reporting); ``budget`` (a
    :class:`~repro.budget.Budget`) is checked at the same cadence, and the
    frame's manager polls it inside each round.
    """
    from ..bdd.reorder import maybe_sift

    mgr = frame.manager
    if reach_bound is not None:
        mgr.register_root(reach_bound)
    partition = initial_partition(frame, functions, use_simulation)
    iterations = 0
    total_substitutions = 0
    while True:
        iterations += 1
        if max_iterations is not None and iterations > max_iterations:
            raise ResourceBudgetExceeded("fixpoint iteration budget exhausted")
        if budget is not None:
            budget.check()
        if on_iteration is not None:
            on_iteration(iterations, partition)
        if reorder_threshold is not None:
            maybe_sift(mgr, reorder_threshold)
        substitution = {}
        if use_fundeps:
            substitution = _choose_substitution(frame, partition)
            total_substitutions += len(substitution)
        q_edge = _correspondence_condition(frame, partition, substitution)
        if reach_bound is not None:
            bound = mgr.vector_compose(reach_bound, substitution)
            q_edge = mgr.apply_and(q_edge, bound)
        q_token = mgr.register_root(q_edge)
        try:
            partition, changed = _refine_once(
                frame, partition, q_edge, substitution
            )
        finally:
            mgr.release_root(q_token)
        if not changed:
            return CorrespondenceResult(
                partition, q_edge, iterations, total_substitutions
            )


def _choose_substitution(frame, partition):
    """Greedy acyclic selection of register-variable substitutions (§4).

    A register variable in a class can be replaced by another member's
    function when that function neither depends on the variable itself nor
    on any variable already scheduled for substitution, and the variable is
    not load-bearing for an earlier replacement.
    """
    mgr = frame.manager
    substituted = set()
    protected = set()
    substitution = {}
    for cls in partition.nontrivial_classes():
        for fn in cls:
            for var, var_complemented in fn.register_vars:
                if var in substituted or var in protected:
                    continue
                replacement = _find_replacement(
                    mgr, cls, fn, var, var_complemented, substituted
                )
                if replacement is None:
                    continue
                edge, support = replacement
                substitution[var] = edge
                substituted.add(var)
                protected.update(support)
    return substitution


def _find_replacement(mgr, cls, owner_fn, var, var_complemented, substituted):
    """A member function expressing ``var`` over other, unsubstituted vars."""
    for fn in cls:
        # The normalized class functions are equal under Q; the raw register
        # value is norm ^ complemented, so the replacement for the *variable*
        # carries the owner's polarity.
        candidate = fn.edge ^ (1 if var_complemented else 0)
        support = mgr.support(candidate)
        if var in support:
            continue
        if support & substituted:
            continue
        return candidate, support
    return None


def _correspondence_condition(frame, partition, substitution):
    """Q of Definition 1, with substituted register variables (§4)."""
    mgr = frame.manager
    substitute = mgr.composer(substitution)
    conjuncts = []
    for cls in partition.nontrivial_classes():
        rep = substitute(cls[0].edge)
        for fn in cls[1:]:
            member = substitute(fn.edge)
            if member != rep:
                conjuncts.append(mgr.apply_xnor(member, rep))
    return mgr.and_many(conjuncts)


def _refine_once(frame, partition, q_edge, substitution):
    """One application of Eq. 3: split classes by next-state behaviour.

    Two members stay together while ``Q ∧ (ν_m ⊕ ν_n)`` has no satisfying
    assignment; the search builds no conjunction nodes.
    """
    mgr = frame.manager
    # Substituted frame shift: ν'_v = f_v[s := δ(σ(s), x), x := x'].  The
    # substitution σ only mentions state variables, so composing it into the
    # input targets (the x' literals) is the identity.
    if substitution:
        substitute = mgr.composer(substitution)
        shift = mgr.composer({
            var: substitute(target)
            for var, target in frame.shift_map.items()
        })
    else:
        shift = frame.shift
    nu_cache = {}

    def nu(edge):
        cached = nu_cache.get(edge)
        if cached is None:
            cached = shift(edge)
            nu_cache[edge] = cached
        return cached

    def split(members):
        # Counterexample-guided: when a member is distinguishable from the
        # class leader, the witness Q-state is evaluated against *every*
        # member and the whole class splits by value at once (the same
        # mass-refinement rule the SAT backend applies to its models); the
        # value groups are then refined recursively.
        if len(members) <= 1:
            return [members]
        leader_nu = nu(members[0].edge)
        for fn in members[1:]:
            fn_nu = nu(fn.edge)
            if fn_nu == leader_nu:
                continue
            witness = mgr.pick_one_and(
                q_edge, mgr.apply_xor(fn_nu, leader_nu))
            if witness is None:
                continue
            assignment = {
                var: witness.get(var, False)
                for var in range(mgr.num_vars)
            }
            # Build the missing ν in member order, which fixes the node
            # numbering, and evaluate them before the split groups values.
            value = {member: mgr.evaluate(nu(member.edge), assignment)
                     for member in members}
            groups = partition_by_value(members, value.__getitem__)
            return [sub for group in groups for sub in split(group)]
        return [members]

    return partition.refine(lambda cls: split(list(cls)))
