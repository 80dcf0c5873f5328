"""Sequential-safe FRAIG reduction of gate-level circuits.

:func:`fraig_reduce` shrinks a :class:`~repro.netlist.circuit.Circuit` by
SAT sweeping its *combinational cone*: registers become free pseudo-inputs
of the AIG, so every merge the solver certifies holds in **all** states,
not just the reachable ones.  The reduced circuit therefore has the same
per-frame transition and output functions as the original — it is
bit-identical under simulation from the same initial state, every engine
verdict transfers, and counterexample input traces are valid verbatim on
the original (inputs, registers and outputs keep their names, order and
initial values).

The sweep itself is the paper's signal correspondence collapsed to one
time frame, and this module holds the only copy of it: :class:`_Prover`
runs it with the incremental-solver idiom of :mod:`repro.core.satbackend`
— one solver, one CNF encoding of the AIG, and one activation-literal
query per candidate pair.  Refuting models feed distinguishing patterns
back into per-node counterexample signatures, a cheap filter that prunes
later queries in the same class.

Determinism: two genuinely equivalent nodes agree on *every* simulation
pattern, so they land in the same candidate class under any seed, every
candidate query runs to a verdict, and each node merges onto its
topologically first equivalent node.  The merge set — and hence the
reduced structure and its
:func:`~repro.interop.fingerprint.aig_fingerprint` — is therefore
independent of the simulation seed.
"""

import time

from ..budget import Budget
from ..errors import NetlistError
from ..netlist.aig import (
    FALSE,
    TRUE,
    Aig,
    _gate_to_aig,
    lit_neg,
    lit_sign,
    lit_var,
)
from ..netlist.circuit import Circuit, GateType

#: Periodically compact the solver: every this many retired activation
#: literals the learnt/retired clauses are simplified away.
_SIMPLIFY_EVERY = 64


class FraigReduction:
    """Outcome of one :func:`fraig_reduce` call.

    ``reduced`` is the shrunken circuit; ``net_map`` is the witness map
    sending every original net to its reduced counterpart::

        {"net": <reduced net or None>, "negated": bool, "const": 0|1|None}

    ``const`` is set when the original net proved constant; ``net`` is
    ``None`` for nets whose cone became unreachable from any output or
    register input (dead logic — no reduced counterpart exists).

    Because inputs, registers (names, order, initial values) and output
    names are preserved, counterexample traces need **no** rewriting:
    :meth:`translate_trace` is the identity, kept explicit so call sites
    document the direction of the translation and get the input-name
    sanity check for free.
    """

    def __init__(self, original, reduced, net_map, stats):
        self.original = original
        self.reduced = reduced
        self.net_map = net_map
        self.stats = stats

    def translate_trace(self, trace):
        """Map a counterexample on the reduced circuit back to the original.

        The reduction preserves input names, register names/initial values
        and output names, so the translation is the identity — but the
        frames are checked against the original input set, turning a
        contract violation into a loud error instead of a bogus replay.
        """
        if trace is None:
            return None
        known = set(self.original.inputs)
        for frame in list(trace.inputs) + [trace.final_input]:
            unknown = set(frame) - known
            if unknown:
                raise NetlistError(
                    "trace drives nets {} that are not inputs of {!r}".format(
                        sorted(unknown), self.original.name))
        return trace

    def __repr__(self):
        return "FraigReduction({!r}: {} -> {} ands, {} merges)".format(
            self.original.name, self.stats["ands_before"],
            self.stats["ands_after"], self.stats["merges"])


def fraig_reduce(circuit, sim_rounds=4, sim_width=64, seed=2024,
                 budget=None):
    """Sequential-safe FRAIG sweep; returns a :class:`FraigReduction`.

    ``sim_rounds * sim_width`` random patterns seed the candidate classes.
    The run's ``budget`` (a :class:`~repro.budget.Budget`) is checked
    before every SAT query and polled inside it.
    """
    started = time.perf_counter()
    circuit.validate()
    import random

    rng = random.Random(seed)
    aig, lit_of, roots = _embed(circuit)
    stats = {
        "ands_before": aig.num_ands,
        "gates_before": circuit.num_gates,
        "merges": 0,
        "sat_queries": 0,
        "sat_refuted": 0,
        "cex_patterns": 0,
        "solver_constructions": 0,
    }
    proven = _sweep(aig, rng, sim_rounds * sim_width, stats, budget)
    new_aig, lit_map = _rebuild(aig, proven)
    reduced, net_of_var = _to_named_circuit(circuit, new_aig, lit_of, lit_map)
    net_map = _witness_map(circuit, lit_of, lit_map, net_of_var)
    stats["ands_after"] = new_aig.num_ands
    stats["gates_after"] = reduced.num_gates
    stats["seconds"] = time.perf_counter() - started
    return FraigReduction(circuit, reduced, net_map, stats)


# --------------------------------------------------------------------------
# embedding: the combinational cone, registers as pseudo-inputs
# --------------------------------------------------------------------------


def _embed(circuit):
    """Build the combinational-cone AIG; returns (aig, lit_of, roots).

    Registers become AIG *inputs* (their names preserved); the roots —
    what must survive :meth:`Aig.cleanup` — are the output nets followed
    by every register's data input.
    """
    aig = Aig()
    lit_of = {}
    for net in circuit.inputs:
        lit_of[net] = aig.add_input(name=net)
    for net in circuit.registers:
        lit_of[net] = aig.add_input(name=net)
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        operands = [lit_of[f] for f in gate.fanins]
        lit_of[name] = _gate_to_aig(aig, gate.gtype, operands)
    roots = [lit_of[net] for net in circuit.outputs]
    roots.extend(lit_of[reg.data_in] for reg in circuit.registers.values())
    for lit in roots:
        aig.add_output(lit)
    return aig, lit_of, roots


# --------------------------------------------------------------------------
# the sweep: simulate, then prove with one incremental solver
# --------------------------------------------------------------------------


def _sweep(aig, rng, width, stats, budget):
    """Return ``{old var -> equivalent old literal}`` of certified merges."""
    if not aig.ands:
        return {}
    order = aig.topo_vars()
    full = (1 << width) - 1
    patterns = {var: rng.getrandbits(width) for var in aig.inputs}
    signatures, _ = aig.simulate(patterns, width=width)

    # Iteration order [const] + inputs + topo keeps leaders topologically
    # first, which both guarantees the rebuild can resolve a merge target
    # and makes the merge set canonical (see module docstring).
    candidates = _candidate_classes([0] + list(aig.inputs) + order,
                                    signatures, full)
    stats["classes"] = len(candidates)
    stats["candidates"] = sum(len(m) - 1 for m in candidates)
    if not candidates:
        return {}

    prover = _Prover(aig, order, stats, budget)
    proven = prover.sweep(candidates)
    stats["cex_patterns"] = prover.n_cex
    return proven


def _candidate_classes(variables, signatures, full):
    """Group ``variables`` by polarity-normalized simulation signature.

    ``signatures`` are words of the width ``full`` masks.  A member is
    the literal of its var whose signature has bit 0 clear (the var
    complemented when bit 0 is set), so antivalent nodes — and the
    constant — share a class.  Members keep the order of ``variables``;
    classes with one member are dropped.
    """
    classes = {}
    for var in variables:
        sig = signatures[var]
        key = sig ^ full if sig & 1 else sig
        classes.setdefault(key, []).append(2 * var + (sig & 1))
    return [members for members in classes.values() if len(members) > 1]


class _Prover:
    """The SAT-sweep prover: one incremental solver over one AIG.

    The constructor encodes the AIG once; :meth:`sweep` walks candidate
    classes and certifies each merge with one activation-literal query —
    ``act -> (a XOR b)`` solved under ``[act]``, retired with the unit
    ``[-act]`` — so a solver is built once however many candidates are
    examined.  Refuting models feed counterexample signatures, one bit
    per model on every node: equal functions agree on every pattern, so
    filtering on them never loses a true merge, it only skips doomed
    queries.  The run's ``budget`` is checked before every query and
    polled by the solver inside it.
    """

    def __init__(self, aig, order, stats, budget):
        from ..sat.solver import Solver

        self.aig = aig
        self.order = order  # AND vars, fanins first
        self.stats = stats
        self.budget = budget or Budget()
        stats["solver_constructions"] += 1
        solver = self.solver = Solver(self.budget)
        # Solver vars: the constant, the inputs, then the AND nodes in
        # ``order``.  The search, and so every refuting model, depends on
        # that numbering.
        sat_var = self.sat_var = {0: solver.new_var()}
        solver.add_clause([-sat_var[0]])
        for var in aig.inputs:
            sat_var[var] = solver.new_var()
        for var in order:
            y = sat_var[var] = solver.new_var()
            rhs0, rhs1 = aig.ands[var]
            a, b = self.lit(rhs0), self.lit(rhs1)
            solver.add_clause([-y, a])
            solver.add_clause([-y, b])
            solver.add_clause([y, -a, -b])
        self.cex_sig = {}  # var -> counterexample bits (absent: all 0)
        self.n_cex = 0
        self.retired = 0

    def lit(self, aig_lit):
        """Solver literal of an AIG literal."""
        sat = self.sat_var[lit_var(aig_lit)]
        return -sat if lit_sign(aig_lit) else sat

    def _lit_bits(self, lit):
        bits = self.cex_sig.get(lit_var(lit), 0)
        return bits ^ ((1 << self.n_cex) - 1) if lit_sign(lit) else bits

    def prove_equal(self, leader, member):
        """One activation-literal query: UNSAT under [act] == equivalent."""
        solver = self.solver
        la, lb = self.lit(leader), self.lit(member)
        act = solver.new_var()
        # act -> (la XOR lb): satisfiable only where the two cones differ.
        solver.add_clause([-act, la, lb])
        solver.add_clause([-act, -la, -lb])
        self.stats["sat_queries"] += 1
        self.budget.check()
        differ = solver.solve(assumptions=[act])
        if differ:
            # Read the refuting inputs before the retirement unit below
            # propagates at the root and wipes the model.
            values = {var: 1 if solver.value(self.sat_var[var]) else 0
                      for var in self.aig.inputs}
        solver.add_clause([-act])
        self.retired += 1
        if self.retired % _SIMPLIFY_EVERY == 0:
            solver.simplify()
        if differ:
            self.stats["sat_refuted"] += 1
            self._record_cex(values)
            return False
        # Certified equal: pin the equivalence so later queries in the
        # same cone propagate instead of re-deriving it.
        solver.add_clause([-la, lb])
        solver.add_clause([la, -lb])
        return True

    def _record_cex(self, values):
        """Append one refuting model as one signature bit on every node."""
        values[0] = 0
        ands = self.aig.ands
        for var in self.order:
            rhs0, rhs1 = ands[var]
            values[var] = ((values[lit_var(rhs0)] ^ lit_sign(rhs0))
                           & (values[lit_var(rhs1)] ^ lit_sign(rhs1)))
        bit = 1 << self.n_cex
        for var, value in values.items():
            if value:
                self.cex_sig[var] = self.cex_sig.get(var, 0) | bit
        self.n_cex += 1

    def sweep(self, classes):
        """Certify merges inside candidate classes.

        Each class is walked in order.  A member that is not an input (a
        free variable is never rewritten) is proved against the leaders
        with its counterexample bits and merges onto the first proved
        equal; every other member leads.  Returns ``{var -> literal of
        the leader it equals}``.
        """
        inputs = set(self.aig.inputs)
        merges = {}
        for members in classes:
            leaders = members[:1]
            for member in members[1:]:
                target = None
                if lit_var(member) not in inputs:
                    bits = self._lit_bits(member)
                    for leader in leaders:
                        if (self._lit_bits(leader) == bits
                                and self.prove_equal(leader, member)):
                            target = leader ^ lit_sign(member)
                            break
                if target is None:
                    leaders.append(member)
                else:
                    merges[lit_var(member)] = target
                    self.stats["merges"] += 1
        return merges


# --------------------------------------------------------------------------
# rebuild: new AIG under the merge map, then a name-preserving circuit
# --------------------------------------------------------------------------


def _rebuild(aig, proven):
    """Re-express the AIG with merges applied; returns (new_aig, lit_map)."""
    new_aig = Aig()
    lit_map = {FALSE: FALSE, TRUE: TRUE}
    for var in aig.inputs:
        lit_map[2 * var] = new_aig.add_input(name=aig.names.get(var))
        lit_map[2 * var + 1] = lit_neg(lit_map[2 * var])
    for var in aig.topo_vars():
        target = proven.get(var)
        if target is not None:
            # Leaders precede members topologically, so already mapped.
            new_lit = lit_map[target]
        else:
            rhs0, rhs1 = aig.ands[var]
            new_lit = new_aig.and2(lit_map[rhs0], lit_map[rhs1])
        lit_map[2 * var] = new_lit
        lit_map[2 * var + 1] = lit_neg(new_lit)
    for lit in aig.outputs:
        new_aig.add_output(lit_map[lit])
    new_aig.cleanup()
    return new_aig, lit_map


def _to_named_circuit(circuit, new_aig, lit_of, lit_map):
    """Reduced :class:`Circuit` with the original interface names.

    Inputs and registers keep their names/order/initial values; each
    original *output net* keeps its name — via a BUF/NOT/CONST alias gate
    when the reduced function lives on an internal node — so product
    construction, BMC output pairs and replay all keep working untouched.
    """
    reduced = Circuit(circuit.name)
    taken = (set(circuit.inputs) | set(circuit.registers)
             | set(circuit.outputs))
    counters = {}

    def fresh(stem):
        while True:
            counters[stem] = counters.get(stem, 0) + 1
            name = "{}_{}".format(stem, counters[stem])
            if name not in taken:
                taken.add(name)
                return name

    net_of_var = {}
    aig_inputs = iter(new_aig.inputs)
    for net in circuit.inputs:
        reduced.add_input(net)
        net_of_var[next(aig_inputs)] = net
    for net, reg in circuit.registers.items():
        reduced.add_register(net, "__pending", init=reg.init)
        net_of_var[next(aig_inputs)] = net

    const_nets = {}

    def const_net(value):
        if value not in const_nets:
            gtype = GateType.CONST1 if value else GateType.CONST0
            name = fresh("fr_c{}".format(int(value)))
            reduced.add_gate(name, gtype, [])
            const_nets[value] = name
        return const_nets[value]

    inverters = {}

    def net_of_lit(lit):
        var = lit_var(lit)
        if var == 0:
            return const_net(bool(lit_sign(lit)))
        base = net_of_var[var]
        if not lit_sign(lit):
            return base
        inv = inverters.get(base)
        if inv is None:
            inv = inverters[base] = fresh("fr_n")
            reduced.add_gate(inv, GateType.NOT, [base])
        return inv

    for var in new_aig.topo_vars():
        rhs0, rhs1 = new_aig.ands[var]
        net = fresh("fr_a")
        reduced.add_gate(net, GateType.AND,
                         [net_of_lit(rhs0), net_of_lit(rhs1)])
        net_of_var[var] = net

    for net, reg in circuit.registers.items():
        data_lit = lit_map[lit_of[reg.data_in]]
        reduced.set_register_input(net, net_of_lit(data_lit))

    aliased = set()
    for net in circuit.outputs:
        target = net_of_lit(lit_map[lit_of[net]])
        if target != net and net not in aliased:
            # The output net was a gate in the original; alias the reduced
            # function under the original name (strash collapses the BUF).
            reduced.add_gate(net, GateType.BUF, [target])
            aliased.add(net)
        reduced.add_output(net)
    reduced.validate()
    return reduced, net_of_var


def _witness_map(circuit, lit_of, lit_map, net_of_var):
    """Original net -> {"net", "negated", "const"} witness records."""
    net_map = {}
    all_nets = (list(circuit.inputs) + list(circuit.registers)
                + list(circuit.gates))
    for net in all_nets:
        new_lit = lit_map[lit_of[net]]
        var = lit_var(new_lit)
        record = {"net": None, "negated": bool(lit_sign(new_lit)),
                  "const": None}
        if var == 0:
            record["const"] = int(lit_sign(new_lit))
            record["negated"] = False
        elif var in net_of_var:
            record["net"] = net_of_var[var]
        # else: the cone died in cleanup — dead logic, no counterpart.
        net_map[net] = record
    return net_map
