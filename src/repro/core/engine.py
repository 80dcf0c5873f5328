"""The verification engine: Fig. 4's outer loop around the fixed point.

``VanEijkVerifier`` proves sequential equivalence by signal correspondence:

1. compute the maximum signal correspondence relation (fixed point);
2. if all corresponding output pairs are related — circuits are equivalent;
3. otherwise extend the signal set by forward retiming with lag 1 and
   repeat; when retiming adds nothing new, the method gives up
   (sound but incomplete — §6).

Engineering additions beyond the paper's flow, all clearly flagged:

* random simulation can outright *refute* equivalence (a simulation run that
  distinguishes an output pair yields a real counterexample trace);
* optional strengthening of Q with an (approximate or exact) reachable-state
  bound (§3's sequential don't cares);
* time and node budgets mirroring the paper's experimental limits.
"""

import time

from ..bdd import BddManager
from ..budget import Budget
from ..errors import NodeLimitExceeded, ResourceBudgetExceeded
from ..netlist.product import build_product
from ..reach.result import CexTrace, SecResult
from .correspondence import compute_fixpoint
from .retiming_aug import RetimingAugmenter, is_augmented
from .timeframe import TimeFrame


class VanEijkVerifier:
    """Configurable signal-correspondence SEC engine.

    Parameters mirror the paper's implementation notes: ``use_simulation``
    (§4 sequential simulation seeding), ``use_fundeps`` (§4 functional
    dependencies of the correspondence condition), ``use_retiming`` /
    ``max_retiming_rounds`` (§3 retiming with lag 1, Fig. 4),
    ``reach_bound`` (§3 sequential don't cares: ``None``, ``"approx"`` or
    ``"exact"``).
    """

    def __init__(self, use_simulation=True, use_fundeps=True,
                 use_retiming=True, max_retiming_rounds=3,
                 reach_bound=None, node_limit=None,
                 sim_frames=24, sim_width=32, seed=2024,
                 max_iterations=None, reorder_threshold=200000,
                 progress=None, budget=None):
        self.use_simulation = use_simulation
        self.use_fundeps = use_fundeps
        self.use_retiming = use_retiming
        self.max_retiming_rounds = max_retiming_rounds
        self.reach_bound = reach_bound
        self.node_limit = node_limit
        self.sim_frames = sim_frames
        self.sim_width = sim_width
        self.seed = seed
        self.max_iterations = max_iterations
        self.reorder_threshold = reorder_threshold
        # Service-layer hooks: ``progress(kind, **data)`` is called at
        # iteration and retiming-round boundaries; ``budget`` is checked at
        # the same points and polled by the BDD manager — a spent one ends
        # the run inconclusive instead of raising to the caller.
        self.progress = progress
        self.budget = budget or Budget()

    def _emit(self, kind, **data):
        if self.progress is not None:
            self.progress(kind, **data)

    # -- public API ---------------------------------------------------------

    def verify(self, spec, impl, match_inputs="name", match_outputs="order"):
        """Check two sequential circuits; returns a :class:`SecResult`."""
        product = build_product(spec, impl, match_inputs=match_inputs,
                                match_outputs=match_outputs)
        return self.verify_product(product)

    def verify_product(self, product):
        start = time.monotonic()
        try:
            return self._run(product, start)
        except (NodeLimitExceeded, ResourceBudgetExceeded) as exc:
            return SecResult(
                equivalent=None,
                method="van_eijk",
                seconds=time.monotonic() - start,
                details={"aborted": str(exc)},
            )

    # -- implementation -------------------------------------------------------

    def _run(self, product, start):
        circuit = product.circuit.copy()
        frame = TimeFrame(
            circuit,
            manager=BddManager(self.node_limit, self.budget),
            seed=self.seed,
            sim_frames=self.sim_frames,
            sim_width=self.sim_width,
        )
        # A simulation run that splits an output pair is a hard refutation.
        refutation = self._simulation_refutation(frame, product)
        if refutation is not None:
            return SecResult(
                equivalent=False,
                method="van_eijk",
                iterations=0,
                peak_nodes=frame.manager.peak_live_nodes,
                seconds=time.monotonic() - start,
                counterexample=refutation,
                details={"refuted_by": "simulation"},
            )
        reach_edge = self._reach_bound_edge(frame)
        augmenter = RetimingAugmenter(frame)
        total_iterations = 0
        retime_rounds = 0
        result = None
        base_iterations = 0

        def on_iteration(iteration, partition):
            self._emit(
                "iteration",
                iteration=base_iterations + iteration,
                classes=partition.num_classes,
                nodes=frame.manager.peak_live_nodes,
                retime_round=retime_rounds,
            )

        while True:
            functions = frame.build_signal_functions()
            fix = compute_fixpoint(
                frame,
                functions,
                use_simulation=self.use_simulation,
                use_fundeps=self.use_fundeps,
                reach_bound=reach_edge,
                max_iterations=self.max_iterations,
                reorder_threshold=self.reorder_threshold,
                on_iteration=on_iteration if self.progress else None,
                budget=self.budget,
            )
            total_iterations += fix.iterations
            base_iterations = total_iterations
            result = fix
            if self._outputs_proved(frame, product, fix.partition):
                return SecResult(
                    equivalent=True,
                    method="van_eijk",
                    iterations=total_iterations,
                    peak_nodes=frame.manager.peak_live_nodes,
                    seconds=time.monotonic() - start,
                    details=self._details(frame, product, fix, retime_rounds),
                )
            if not self.use_retiming or retime_rounds >= self.max_retiming_rounds:
                break
            self.budget.check()
            new_nets = augmenter.augment_round()
            if not new_nets:
                break
            retime_rounds += 1
            self._emit("retiming_round", round=retime_rounds,
                       new_signals=len(new_nets))
        return SecResult(
            equivalent=None,
            method="van_eijk",
            iterations=total_iterations,
            peak_nodes=frame.manager.peak_live_nodes,
            seconds=time.monotonic() - start,
            details=dict(
                self._details(frame, product, result, retime_rounds),
                inconclusive=True,
            ),
        )

    def _simulation_refutation(self, frame, product):
        """Rebuild a counterexample trace from the stored simulation frames."""
        frames = frame._sim_frames_data
        for frame_idx, values in enumerate(frames):
            for s_out, i_out in product.output_pairs:
                mismatch = values[s_out] ^ values[i_out]
                if mismatch:
                    pattern = (mismatch & -mismatch).bit_length() - 1
                    inputs = []
                    for step in range(frame_idx + 1):
                        step_values = frames[step]
                        inputs.append(
                            {
                                net: bool((step_values[net] >> pattern) & 1)
                                for net in frame.circuit.inputs
                            }
                        )
                    return CexTrace(
                        inputs=inputs[:-1],
                        final_input=inputs[-1],
                    )
        return None

    def _reach_bound_edge(self, frame):
        if self.reach_bound is None:
            return None
        from ..bdd.transfer import transfer
        from ..reach.approx import approximate_reachable
        from ..reach.transition import TransitionSystem
        from ..reach.traversal import symbolic_reachability

        ts = TransitionSystem(frame.circuit,
                              manager=BddManager(self.node_limit, self.budget))
        if self.reach_bound == "approx":
            bound = approximate_reachable(ts)
        elif self.reach_bound == "exact":
            bound, _, _ = symbolic_reachability(ts)
        else:
            raise ValueError(
                "reach_bound must be None, 'approx' or 'exact', got {!r}".format(
                    self.reach_bound
                )
            )
        var_map = {
            ts.cur_id[net]: frame.state_id[net] for net in ts.cur_id
        }
        edge = transfer(ts.manager, bound, frame.manager, var_map)
        frame.manager.register_root(edge)
        return edge

    def _outputs_proved(self, frame, product, partition):
        for s_out, i_out in product.output_pairs:
            if not self._pair_proved(frame, partition, s_out, i_out):
                return False
        return True

    def _pair_proved(self, frame, partition, s_out, i_out):
        f_s = frame.f(s_out)
        f_i = frame.f(i_out)
        if f_s == f_i:
            return True
        pol_s = not frame.ref_value(s_out)
        pol_i = not frame.ref_value(i_out)
        if pol_s != pol_i:
            # Different value at the reference point (s0, x0): outputs differ
            # in the initial state — never provable (and in fact refutable).
            return False
        norm_s = f_s ^ 1 if pol_s else f_s
        norm_i = f_i ^ 1 if pol_i else f_i
        return partition.same_class(norm_s, norm_i)

    def _details(self, frame, product, fix, retime_rounds):
        return {
            "retime_rounds": retime_rounds,
            "classes": fix.partition.num_classes,
            "functions": fix.partition.num_functions,
            "substitutions": fix.substitutions,
            "eqs_percent": equivalence_percentage(frame, product, fix.partition),
            "augmented_signals": sum(
                1 for net in frame.circuit.gates if is_augmented(net)
            ),
        }


def equivalence_percentage(frame, product, partition):
    """Percentage of specification signals with a corresponding
    implementation signal (the paper's ``eqs`` column)."""
    index = {}
    for cls_idx, cls in enumerate(partition.classes):
        for fn in cls:
            for net, _ in fn.members:
                index[net] = cls_idx
    shared_inputs = set(product.circuit.inputs)
    spec_nets = [
        net for net in product.spec_nets
        if not is_augmented(net) and net in index and net not in shared_inputs
    ]
    impl_classes = {
        index[net]
        for net in product.impl_nets
        if not is_augmented(net) and net in index and net not in shared_inputs
    }
    if not spec_nets:
        return 100.0
    matched = sum(1 for net in spec_nets if index[net] in impl_classes)
    return 100.0 * matched / len(spec_nets)


def check_equivalence_van_eijk(spec, impl, match_inputs="name",
                               match_outputs="order", **options):
    """Convenience wrapper: verify two circuits with default options."""
    verifier = VanEijkVerifier(**options)
    return verifier.verify(spec, impl, match_inputs=match_inputs,
                           match_outputs=match_outputs)
