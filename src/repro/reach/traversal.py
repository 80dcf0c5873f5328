"""Symbolic forward traversal of the product machine — the conventional
sequential equivalence checking algorithm the paper compares against.

``check_equivalence_traversal`` implements the baseline of Table 1's
"symbolic traversal" columns: breadth-first symbolic reachability with a
partitioned transition relation, an output check on every frontier, optional
register-correspondence reduction (the functional-dependency exploitation of
[6]), and time/node budgets mirroring the paper's 3600 s / 100 MB limits.
"""

import time

from ..bdd import BddManager
from ..budget import Budget
from ..errors import NodeLimitExceeded, ResourceBudgetExceeded
from .transition import TransitionSystem
from .result import SecResult, CexTrace


def symbolic_reachability(ts, max_iterations=None, frontier_hook=None,
                          rings_out=None):
    """BFS fixpoint; returns (reached_bdd, rings, iterations).

    ``rings`` is the list of onion rings (new states per step, ring 0 being
    the initial state) needed for counterexample reconstruction.  When
    ``rings_out`` (a list) is given, rings are appended to it as they are
    discovered, so they survive an abort raised from ``frontier_hook``.
    """
    mgr = ts.manager
    reached = ts.initial_states()
    frontier = reached
    rings = rings_out if rings_out is not None else []
    rings.append(frontier)
    reached_token = mgr.register_root(reached)
    frontier_token = mgr.register_root(frontier)
    iterations = 0
    try:
        while frontier != mgr.false:
            if frontier_hook is not None:
                frontier_hook(frontier, iterations)
            if max_iterations is not None and iterations >= max_iterations:
                raise ResourceBudgetExceeded(
                    "reachability iteration budget exhausted"
                )
            image = ts.image(frontier)
            frontier = mgr.apply_and(image, mgr.apply_not(reached))
            reached = mgr.apply_or(reached, image)
            mgr.update_root(reached_token, reached)
            mgr.update_root(frontier_token, frontier)
            if frontier != mgr.false:
                rings.append(frontier)
                mgr.register_root(frontier)
            iterations += 1
        return reached, rings, iterations
    finally:
        mgr.release_root(reached_token)
        mgr.release_root(frontier_token)


def check_equivalence_traversal(product, use_register_correspondence=True,
                                node_limit=None, cluster_size=4,
                                max_iterations=None, progress=None,
                                budget=None):
    """Full SEC by product-machine state space traversal.

    Returns a :class:`SecResult`.  With ``use_register_correspondence`` the
    product machine is first reduced by substituting equivalent/antivalent
    registers ([5]/[9]/[6]); without it the traversal runs on the raw
    product (the paper notes this variant "performs considerably worse").

    ``progress(kind, **data)`` fires once per BFS ring; ``budget`` (a
    :class:`~repro.budget.Budget`) is checked at the same cadence and polled
    by the BDD managers of the reduction and the traversal, which share
    ``node_limit``; a spent budget ends the traversal inconclusive.
    """
    start = time.monotonic()
    budget = budget or Budget()
    circuit = product.circuit
    pairs = list(product.output_pairs)
    reduction_classes = 0
    try:
        if use_register_correspondence:
            from .fundep import reduce_by_register_correspondence

            circuit, reduction_classes, net_map = (
                reduce_by_register_correspondence(
                    product, BddManager(node_limit, budget)))
            pairs = [
                (net_map.get(s_out, s_out), net_map.get(i_out, i_out))
                for s_out, i_out in pairs
            ]
        ts = TransitionSystem(circuit,
                              manager=BddManager(node_limit, budget),
                              cluster_size=cluster_size)
        mgr = ts.manager
        diff = mgr.or_many(
            mgr.apply_xor(ts.net_bdd(s_out), ts.net_bdd(i_out))
            for s_out, i_out in pairs
        )
        mgr.register_root(diff)
        bad_states = mgr.exists(diff, ts.input_var_ids())
        mgr.register_root(bad_states)

        failure = {}
        rings_out = []

        def frontier_hook(frontier, iteration):
            budget.check()
            if progress is not None:
                progress("ring", iteration=iteration,
                         nodes=mgr.peak_live_nodes)
            hit = mgr.apply_and(frontier, bad_states)
            if hit != mgr.false:
                failure["state"] = hit
                failure["iteration"] = iteration
                failure["rings"] = rings_out[: iteration + 1]
                raise _BadStateFound()

        try:
            reached, rings, iterations = symbolic_reachability(
                ts,
                max_iterations=max_iterations,
                frontier_hook=frontier_hook,
                rings_out=rings_out,
            )
        except _BadStateFound:
            trace = _reconstruct_trace(ts, mgr, failure, diff)
            return SecResult(
                equivalent=False,
                method="traversal",
                iterations=failure["iteration"] + 1,
                peak_nodes=mgr.peak_live_nodes,
                seconds=time.monotonic() - start,
                counterexample=trace,
                details={"register_classes_merged": reduction_classes},
            )
        return SecResult(
            equivalent=True,
            method="traversal",
            iterations=iterations,
            peak_nodes=mgr.peak_live_nodes,
            seconds=time.monotonic() - start,
            details={
                "register_classes_merged": reduction_classes,
                "reached_states": mgr.sat_count(
                    mgr.exists(reached, ts.input_var_ids()),
                    nvars=mgr.num_vars,
                ) // (2 ** (mgr.num_vars - len(ts.cur_id)))
                if ts.cur_id else 1,
            },
        )
    except (NodeLimitExceeded, ResourceBudgetExceeded) as exc:
        return SecResult(
            equivalent=None,
            method="traversal",
            iterations=None,
            peak_nodes=None,
            seconds=time.monotonic() - start,
            details={"aborted": str(exc)},
        )


class _BadStateFound(Exception):
    pass


def _reconstruct_trace(ts, mgr, failure, diff):
    """Build an input trace from s0 to a distinguishing state + input."""
    # Choose one concrete failing state, preferring a distinguishing input.
    hit = failure["state"]
    model = mgr.pick_one(mgr.apply_and(hit, diff)) or mgr.pick_one(hit)
    state = ts.state_assignment_from_model(model)
    final_input = ts.input_assignment_from_model(model)
    # Walk the onion rings backwards.  failure["iteration"] gives the ring
    # index of the hit; rings for earlier indices are reachable via the
    # recorded frontier BDDs, which symbolic_reachability stored as roots.
    rings = failure.get("rings")
    inputs = []
    if rings:
        target = state
        for ring in reversed(rings[:-1]):
            constraint = ts.successor_constraint(target)
            model = mgr.pick_one(mgr.apply_and(ring, constraint))
            if model is None:
                break
            inputs.append(ts.input_assignment_from_model(model))
            target = ts.state_assignment_from_model(model)
        inputs.reverse()
    return CexTrace(inputs=inputs, final_input=final_input, state=state)
