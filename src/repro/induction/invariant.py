"""Strengthening invariants for the inductive step.

The correspondence fixed point produces equivalence classes of signals; the
induction engine turns the *register-level* part of that partition into
candidate invariants — ``reg_a == reg_b`` (up to polarity) and
``reg == const`` pins — and asserts them on every assumed frame of the
inductive step.  Candidates are proof obligations, not axioms: the engine
base-checks them at every frame from the initial state and includes their
consecution in the step target, so an unproven (or outright wrong) partition
can never make the proof unsound — a bad candidate either falls to a base
counterexample or keeps the step satisfiable until it is dropped.

Dropping is CEGAR-style: a step model violating a candidate at the last
frame is replayed through :func:`repro.core.cexsplit.replay_pattern`, every
candidate the replay refutes is retired with the unit clause ``[-act]``
(exactly how ``core/satbackend.py`` retires constraint groups), and the
step is re-queried with the surviving set.  The loop converges on the
largest self-inductive subset of the partition at the current depth.
"""

from ..core.satbackend import CONST_NET


class Candidate:
    """One candidate invariant: ``lit_a == lit_b``.

    ``lit_x`` is net ``x`` complemented by ``x_comp``.  ``b_net`` may be the
    :data:`~repro.core.satbackend.CONST_NET` sentinel, meaning ``lit_a`` is
    pinned to constant true.  ``act`` is the solver-side activation variable
    guarding every clause the candidate contributed.
    """

    __slots__ = ("a_net", "a_comp", "b_net", "b_comp", "index", "act")

    def __init__(self, a_net, a_comp, b_net, b_comp, index):
        self.a_net = a_net
        self.a_comp = bool(a_comp)
        self.b_net = b_net
        self.b_comp = bool(b_comp)
        self.index = index
        self.act = None

    @property
    def is_constant(self):
        return self.b_net == CONST_NET

    def violated_by(self, values):
        """True when a replayed frame valuation refutes this candidate."""
        va = int(values[self.a_net]) ^ self.a_comp
        if self.is_constant:
            vb = 1 ^ self.b_comp
        else:
            vb = int(values[self.b_net]) ^ self.b_comp
        return va != vb

    def describe(self):
        a = ("~" if self.a_comp else "") + self.a_net
        if self.is_constant:
            return "{} == {}".format(a, 0 if self.b_comp else 1)
        b = ("~" if self.b_comp else "") + self.b_net
        return "{} == {}".format(a, b)


def _member_pair(member):
    """Normalize a class member to ``(net, complemented)``."""
    net = getattr(member, "net", None)
    if net is not None:
        return net, bool(getattr(member, "complemented", False))
    net, complemented = member
    return net, bool(complemented)


def _pair_class(members, out, registers):
    """Emit candidates for one equivalence class.

    ``members`` are ``(net, complemented)`` pairs.  Only registers (and the
    constant sentinel) are kept: register equalities are what make a
    partition inductive-frame-transportable, and restricting to them keeps
    the candidate count at register scale rather than signal scale.
    """
    const = None
    regs = []
    for net, complemented in members:
        if net == CONST_NET:
            const = (net, complemented)
        elif net in registers:
            regs.append((net, complemented))
    if const is not None:
        for net, complemented in regs:
            out.append((net, complemented, CONST_NET, const[1]))
        return
    if len(regs) < 2:
        return
    leader = regs[0]
    for net, complemented in regs[1:]:
        out.append((net, complemented, leader[0], leader[1]))


def candidates_from_classes(classes, circuit):
    """Candidates from a (possibly partial) correspondence partition.

    ``classes`` is an iterable of iterables of members, each either a
    ``(net, complemented)`` pair or an object with ``net``/``complemented``
    attributes (the SAT backend's ``_SatSignal``).  Members naming nets that
    are not registers of ``circuit`` are ignored, so partitions computed on
    an augmented (retimed) working circuit degrade gracefully.
    """
    registers = set(circuit.registers)
    raw = []
    for cls in classes:
        _pair_class([_member_pair(m) for m in cls], raw, registers)
    return [Candidate(a, ac, b, bc, i)
            for i, (a, ac, b, bc) in enumerate(raw)]


def candidates_from_simulation(circuit, seed=2024, sim_frames=24,
                               sim_width=32, compiled=None):
    """Seed candidates from random simulation signatures.

    This is the standalone engine's substitute for a correspondence run: the
    simulation pre-partition (the fixed point's T0) restricted to registers
    plus the constant sentinel.  Everything it proposes is still base-checked
    and consecution-checked, so over-approximation is harmless.
    """
    from ..netlist.simulate import SequentialSimulator

    sim = SequentialSimulator(circuit, width=sim_width, seed=seed,
                              compiled=compiled)
    # ``sim.signatures`` builds a map of every net on each read.
    signatures = sim.run(sim_frames)
    total_bits = sim_frames * sim_width
    full = (1 << total_bits) - 1
    ref_bit = total_bits - sim_width
    buckets = {full: [(CONST_NET, False)]}
    for net in circuit.registers:
        signature = signatures[net]
        complemented = not ((signature >> ref_bit) & 1)
        if complemented:
            signature ^= full
        buckets.setdefault(signature, []).append((net, complemented))
    return candidates_from_classes(buckets.values(), circuit)


class InvariantSet:
    """The live candidate set and its solver-side bookkeeping.

    The engine binds the set to its encoder once, then asks it to (a) assert
    active candidates on each newly assumed frame, (b) produce per-frame
    violation literals for base checks and the step target, and (c) drop
    candidates refuted by a replayed counterexample frame.  All clauses are
    guarded by per-candidate activation variables (guard literal last, so
    the watch lists skip it — the ``satbackend`` idiom), and dropping is the
    standard retire-by-unit-clause.
    """

    def __init__(self, candidates):
        self.active = list(candidates)
        self.dropped = []
        self.initial_count = len(self.active)
        self._enc = None
        self._viol = {}

    def bind(self, enc):
        self._enc = enc
        for cand in self.active:
            cand.act = enc.new_var()

    def _lit(self, net, complemented, frame_vars):
        var = frame_vars[net]
        return -var if complemented else var

    def assert_frame(self, frame_vars):
        """Add guarded equality clauses for every active candidate."""
        add = self._enc.add_clause
        for cand in self.active:
            la = self._lit(cand.a_net, cand.a_comp, frame_vars)
            if cand.is_constant:
                if cand.b_comp:
                    la = -la
                add([la, -cand.act])
            else:
                lb = self._lit(cand.b_net, cand.b_comp, frame_vars)
                add([-la, lb, -cand.act])
                add([la, -lb, -cand.act])

    def violation_literals(self, frame_index, frame_vars):
        """One literal per active candidate, true iff it fails at the frame.

        Literals are memoized per (candidate, frame) so CEGAR re-queries at
        the same depth reuse the already-encoded XNOR cones.
        """
        lits = []
        for cand in self.active:
            key = (cand.index, frame_index)
            lit = self._viol.get(key)
            if lit is None:
                la = self._lit(cand.a_net, cand.a_comp, frame_vars)
                if cand.is_constant:
                    lit = -la if not cand.b_comp else la
                else:
                    lb = self._lit(cand.b_net, cand.b_comp, frame_vars)
                    lit = -self._enc.equal_var(la, lb)
                self._viol[key] = lit
            lits.append(lit)
        return lits

    def assumptions(self):
        return [cand.act for cand in self.active]

    def drop_refuted(self, frame_values):
        """Retire every active candidate a replayed frame refutes.

        Returns the dropped candidates; the caller retires their activation
        variables in the solver (unit clause + simplify).
        """
        doomed = [c for c in self.active if c.violated_by(frame_values)]
        if doomed:
            gone = set(id(c) for c in doomed)
            self.active = [c for c in self.active if id(c) not in gone]
            self.dropped.extend(doomed)
        return doomed

    def counts(self):
        return {"candidates_initial": self.initial_count,
                "candidates_active": len(self.active),
                "candidates_dropped": len(self.dropped)}


__all__ = [
    "Candidate",
    "InvariantSet",
    "candidates_from_classes",
    "candidates_from_simulation",
]
