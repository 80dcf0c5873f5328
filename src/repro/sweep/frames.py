"""FRAIG-BMC: functionally reduced unrolling of the product machine.

Plain BMC (:mod:`repro.core.bmc`) Tseitin-encodes one fresh copy of the
product circuit per frame; for an equivalent pair every spec cone has an
impl cone computing the same function of the *same* unrolled inputs, so
the encoding is dominated by logic the solver must re-discover as equal
at every depth.  :class:`FrameSweeper` unrolls into one structurally
hashed AIG instead — initial state substituted as constants, each frame
built in *swept space* — and after each frame runs the prover of
:mod:`repro.sweep.reduce` over the nodes the frame added (FRAIG-BMC: the
simulate/prove/merge loop once per unrolled frame), with one incremental
solver shared by every depth (sweep queries and difference checks alike,
the activation-literal idiom).

Merged cones vanish from all later frames, constants from the initial
state propagate through the unrolling, and for an equivalent pair the
output cones usually merge *structurally* — the per-depth difference
check then fails without a single solver call.  Verdicts are identical
to plain BMC by construction: every merge is certified by an UNSAT
answer over the same unrolled window the difference check ranges over,
so at each depth "some output pair differs" is satisfiable in the swept
encoding iff it is in the naive one, and a shortest counterexample
transfers verbatim (frame inputs keep their names).
"""

import random
import time

from ..netlist.aig import FALSE, TRUE, Aig, _gate_to_aig, lit_neg, lit_var
from ..reach.result import CexTrace, SecResult
from .reduce import _candidate_classes, _Prover


class FrameSweeper:
    """Incrementally unrolls ``circuit`` into a swept combinational AIG."""

    def __init__(self, circuit, seed=2024, sim_width=64,
                 conflict_budget=None):
        circuit.validate()
        self.circuit = circuit
        self.aig = Aig()
        self.rng = random.Random(seed)
        self.width = sim_width
        self.full = (1 << sim_width) - 1
        # Current symbolic state: register net -> literal (init constants).
        self.state = {net: (TRUE if reg.init else FALSE)
                      for net, reg in circuit.registers.items()}
        self.repr_map = {}  # merged lit -> representative lit
        self.frame_inputs = []  # per frame: {input net -> AIG var}
        # Incremental random signatures, extended as vars appear — never
        # a full re-simulation.
        self.signatures = {0: 0}
        self.stats = {
            "frames": 0,
            "ands_built": 0,
            "merges": 0,
            "sat_queries": 0,
            "sat_refuted": 0,
            "sat_budget": 0,
            "diff_queries": 0,
            "structural_diff_skips": 0,
            "solver_constructions": 0,
        }
        self.prover = _Prover(self.aig, conflict_budget, self.stats)

    # -- representatives ---------------------------------------------------

    def _rep(self, lit):
        while lit in self.repr_map:
            lit = self.repr_map[lit]
        return lit

    # -- unrolling ---------------------------------------------------------

    def add_frame(self):
        """Unroll one frame; returns ``{net -> literal}`` for the frame."""
        aig = self.aig
        t = self.stats["frames"]
        first_new = aig.num_vars + 1
        lit_of = dict(self.state)
        frame_vars = {}
        for net in self.circuit.inputs:
            lit = aig.add_input(name="{}@{}".format(net, t))
            lit_of[net] = lit
            var = lit_var(lit)
            frame_vars[net] = var
            self.signatures[var] = self.rng.getrandbits(self.width)
        self.frame_inputs.append(frame_vars)
        for name in self.circuit.topo_order():
            gate = self.circuit.gates[name]
            operands = [self._rep(lit_of[f]) for f in gate.fanins]
            lit_of[name] = self._rep(_gate_to_aig(aig, gate.gtype, operands))
        self.state = {net: self._rep(lit_of[reg.data_in])
                      for net, reg in self.circuit.registers.items()}
        self.stats["frames"] += 1
        new_ands = [v for v in range(first_new, aig.num_vars + 1)
                    if v in aig.ands]
        self.stats["ands_built"] += len(new_ands)
        for var in new_ands:
            rhs0, rhs1 = aig.ands[var]
            self.signatures[var] = self._word(rhs0) & self._word(rhs1)
        self.prover.encode(new_ands)
        self._sweep_new(new_ands)
        return lit_of

    def _word(self, lit):
        word = self.signatures[lit_var(lit)]
        return word ^ self.full if lit & 1 else word

    def _sweep_new(self, new_ands):
        """Merge this frame's nodes onto older equivalents."""
        if not new_ands:
            return
        live = [var for var in range(self.aig.num_vars + 1)
                if 2 * var not in self.repr_map]
        classes = _candidate_classes(live, self.signatures, self.full)
        for var, target in self.prover.sweep(classes,
                                             set(new_ands).__contains__):
            self.repr_map[2 * var] = target
            self.repr_map[2 * var + 1] = lit_neg(target)

    # -- queries -----------------------------------------------------------

    def outputs_differ(self, pairs, lit_of):
        """SAT-check "some pair differs this frame"; None or a model env.

        ``pairs`` are (spec net, impl net) names resolved through
        ``lit_of``; pairs whose literals merged are skipped outright —
        when all of them merged the check is free.
        """
        live = []
        for s_net, i_net in pairs:
            a = self._rep(lit_of[s_net])
            b = self._rep(lit_of[i_net])
            if a == b:
                continue
            live.append((a, b))
        if not live:
            self.stats["structural_diff_skips"] += 1
            return None
        solver, lit = self.prover.solver, self.prover.lit
        act = solver.new_var()
        diff_lits = []
        for a, b in live:
            d = solver.new_var()
            sa, sb = lit(a), lit(b)
            solver.add_clause([-d, sa, sb])
            solver.add_clause([-d, -sa, -sb])
            diff_lits.append(d)
        solver.add_clause([-act] + diff_lits)
        self.stats["diff_queries"] += 1
        verdict, model = self.prover.query(act)
        if verdict is None:
            raise _DiffBudgetExhausted()
        return model

    def extract_trace(self, env):
        """Turn a difference model into a :class:`CexTrace`."""
        frames = [
            {net: bool(env[var]) for net, var in frame_vars.items()}
            for frame_vars in self.frame_inputs
        ]
        return CexTrace(inputs=frames[:-1], final_input=frames[-1])


class _DiffBudgetExhausted(Exception):
    pass


def fraig_bmc_refute(product, max_depth=32, time_limit=None,
                     conflict_budget=None, seed=2024, sim_width=64,
                     progress=None, cancel_check=None):
    """Drop-in :func:`repro.core.bmc.bmc_refute` with swept unrolling.

    Same contract: refuted with a shortest trace, or inconclusive (BMC
    never proves).  ``details["fraig_frames"]`` records the sweeping
    telemetry next to the naive unrolled size for comparison.
    """
    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit
    circuit = product.circuit
    sweeper = FrameSweeper(circuit, seed=seed, sim_width=sim_width,
                           conflict_budget=conflict_budget)

    def finish(equivalent, depth, counterexample=None, **details):
        details["fraig_frames"] = dict(sweeper.stats)
        return SecResult(
            equivalent=equivalent, method="bmc", iterations=depth,
            seconds=time.monotonic() - start,
            counterexample=counterexample, details=details,
        )

    for depth in range(1, max_depth + 1):
        if deadline is not None and time.monotonic() > deadline:
            return finish(None, depth - 1,
                          aborted="time budget exhausted")
        if cancel_check is not None and cancel_check():
            return finish(None, depth - 1, aborted="cancelled")
        lit_of = sweeper.add_frame()
        if progress is not None:
            progress("depth", depth=depth, ands=sweeper.stats["ands_built"],
                     merges=sweeper.stats["merges"])
        try:
            env = sweeper.outputs_differ(product.output_pairs, lit_of)
        except _DiffBudgetExhausted:
            return finish(None, depth, aborted="conflict budget exhausted")
        if env is not None:
            trace = sweeper.extract_trace(env)
            return finish(False, depth, counterexample=trace,
                          cex_depth=depth)
    return finish(None, max_depth, bound_reached=max_depth)


def naive_unroll_ands(circuit, depth):
    """AND count of the plain (strash-only) unrolling — the bench baseline."""
    aig = Aig()
    state = {net: (TRUE if reg.init else FALSE)
             for net, reg in circuit.registers.items()}
    roots = []
    for t in range(depth):
        lit_of = dict(state)
        for net in circuit.inputs:
            lit_of[net] = aig.add_input(name="{}@{}".format(net, t))
        for name in circuit.topo_order():
            gate = circuit.gates[name]
            lit_of[name] = _gate_to_aig(
                aig, gate.gtype, [lit_of[f] for f in gate.fanins])
        roots.extend(lit_of[net] for net in circuit.outputs)
        state = {net: lit_of[reg.data_in]
                 for net, reg in circuit.registers.items()}
    for lit in roots:
        aig.add_output(lit)
    return aig.num_ands
