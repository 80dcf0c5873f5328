"""And-Inverter Graphs with structural hashing and circuit conversion.

The AIG is the modern workhorse representation for equivalence checking.
Its AIGER codec is :mod:`repro.interop.aiger`; SAT sweeping over it —
the paper's signal correspondence collapsed to one time frame — is
:mod:`repro.sweep.reduce`.

Literal encoding follows AIGER: variable ``v`` has literals ``2v`` (positive)
and ``2v + 1`` (negated); variable 0 is constant FALSE, so literal 0 is
FALSE and literal 1 is TRUE.
"""

from ..errors import NetlistError
from .circuit import Circuit, GateType

FALSE = 0
TRUE = 1


def lit_neg(lit):
    return lit ^ 1


def lit_var(lit):
    return lit >> 1


def lit_sign(lit):
    return lit & 1


class Aig:
    """A combinational-plus-latches AIG."""

    def __init__(self):
        self.num_vars = 0           # variable 0 is the constant
        self.inputs = []            # list of variables
        self.latches = []           # list of (var, next_lit, init_bool)
        self.outputs = []           # list of literals
        self.ands = {}              # var -> (rhs0, rhs1), rhs0 >= rhs1
        self._strash = {}           # (rhs0, rhs1) -> var
        self.names = {}             # var -> name (optional)
        self.output_names = {}      # output position -> name (optional)
        self.comments = []          # AIGER trailing comment lines
        self._latch_pos = {}        # latch var -> index in self.latches

    # -- construction -------------------------------------------------------

    def _new_var(self):
        self.num_vars += 1
        return self.num_vars

    def add_input(self, name=None):
        var = self._new_var()
        self.inputs.append(var)
        if name:
            self.names[var] = name
        return 2 * var

    def add_latch(self, init=False, name=None):
        """Latch output literal; set its next-state with set_latch_next."""
        var = self._new_var()
        self.latches.append([var, FALSE, bool(init)])
        if name:
            self.names[var] = name
        return 2 * var

    def set_latch_next(self, latch_lit, next_lit):
        var = lit_var(latch_lit)
        latches = self.latches
        pos = self._latch_pos.get(var)
        if pos is None or pos >= len(latches) or latches[pos][0] != var:
            # The index is a cache: latches appended to ``self.latches``
            # directly (the AIGER readers do) are indexed on first lookup.
            self._latch_pos = {entry[0]: i for i, entry in enumerate(latches)}
            pos = self._latch_pos.get(var)
            if pos is None:
                raise NetlistError(
                    "literal {} is not a latch".format(latch_lit))
        latches[pos][1] = next_lit

    def add_output(self, lit, name=None):
        if name:
            self.output_names[len(self.outputs)] = name
        self.outputs.append(lit)
        return lit

    def and2(self, a, b):
        """Structurally hashed AND with constant/idempotence rules."""
        if a == FALSE or b == FALSE or a == lit_neg(b):
            return FALSE
        if a == TRUE or a == b:
            return b
        if b == TRUE:
            return a
        if a < b:
            a, b = b, a
        key = (a, b)
        var = self._strash.get(key)
        if var is None:
            var = self._new_var()
            self.ands[var] = key
            self._strash[key] = var
        return 2 * var

    def or2(self, a, b):
        return lit_neg(self.and2(lit_neg(a), lit_neg(b)))

    def xor2(self, a, b):
        return self.or2(self.and2(a, lit_neg(b)), self.and2(lit_neg(a), b))

    def mux(self, sel, then_lit, else_lit):
        return self.or2(self.and2(sel, then_lit),
                        self.and2(lit_neg(sel), else_lit))

    def and_many(self, literals):
        literals = list(literals)
        if not literals:
            return TRUE
        while len(literals) > 1:
            nxt = [
                self.and2(literals[i], literals[i + 1])
                for i in range(0, len(literals) - 1, 2)
            ]
            if len(literals) % 2:
                nxt.append(literals[-1])
            literals = nxt
        return literals[0]

    # -- queries --------------------------------------------------------------

    @property
    def num_ands(self):
        return len(self.ands)

    def topo_vars(self):
        """AND variables in topological order."""
        order = []
        state = {}
        for root in self.ands:
            if state.get(root):
                continue
            stack = [root]
            while stack:
                var = stack[-1]
                if state.get(var) == 2 or var not in self.ands:
                    stack.pop()
                    continue
                children = [
                    lit_var(l) for l in self.ands[var]
                    if lit_var(l) in self.ands and state.get(lit_var(l)) != 2
                ]
                if children:
                    for child in children:
                        if state.get(child) == 1:
                            raise NetlistError("cyclic AIG")
                    state[var] = 1
                    stack.extend(children)
                else:
                    state[var] = 2
                    order.append(var)
                    stack.pop()
        return order

    def simulate(self, env, width=1):
        """Bit-parallel evaluation; ``env`` maps input/latch vars to ints."""
        full = (1 << width) - 1
        values = {0: 0}
        for var in self.inputs:
            values[var] = env[var] & full
        for var, _, _ in self.latches:
            values[var] = env[var] & full

        def lit_value(lit):
            word = values[lit_var(lit)]
            return word ^ full if lit_sign(lit) else word

        for var in self.topo_vars():
            rhs0, rhs1 = self.ands[var]
            values[var] = lit_value(rhs0) & lit_value(rhs1)
        return values, lit_value

    def cleanup(self):
        """Drop AND nodes unreachable from outputs and latch next-states."""
        keep = set()
        stack = [lit_var(l) for l in self.outputs]
        stack.extend(lit_var(entry[1]) for entry in self.latches)
        while stack:
            var = stack.pop()
            if var in keep or var not in self.ands:
                continue
            keep.add(var)
            stack.extend(lit_var(l) for l in self.ands[var])
        dropped = [var for var in self.ands if var not in keep]
        for var in dropped:
            key = self.ands.pop(var)
            self._strash.pop(key, None)
        return len(dropped)

    def __repr__(self):
        return "Aig({} in, {} latches, {} out, {} ands)".format(
            len(self.inputs), len(self.latches), len(self.outputs),
            self.num_ands,
        )


# --------------------------------------------------------------------------
# Circuit conversion
# --------------------------------------------------------------------------


def from_circuit(circuit):
    """Convert a gate-level circuit into an AIG; returns (aig, lit_of).

    ``lit_of`` maps every net to its AIG literal.
    """
    circuit.validate()
    aig = Aig()
    lit_of = {}
    for net in circuit.inputs:
        lit_of[net] = aig.add_input(name=net)
    for net, reg in circuit.registers.items():
        lit_of[net] = aig.add_latch(init=reg.init, name=net)
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        operands = [lit_of[f] for f in gate.fanins]
        lit_of[name] = _gate_to_aig(aig, gate.gtype, operands)
    for net, reg in circuit.registers.items():
        aig.set_latch_next(lit_of[net], lit_of[reg.data_in])
    for net in circuit.outputs:
        aig.add_output(lit_of[net], name=net)
    return aig, lit_of


def _gate_to_aig(aig, gtype, operands):
    if gtype is GateType.AND:
        return aig.and_many(operands)
    if gtype is GateType.NAND:
        return lit_neg(aig.and_many(operands))
    if gtype is GateType.OR:
        return lit_neg(aig.and_many(lit_neg(o) for o in operands))
    if gtype is GateType.NOR:
        return aig.and_many(lit_neg(o) for o in operands)
    if gtype in (GateType.XOR, GateType.XNOR):
        acc = operands[0]
        for op in operands[1:]:
            acc = aig.xor2(acc, op)
        return acc if gtype is GateType.XOR else lit_neg(acc)
    if gtype is GateType.NOT:
        return lit_neg(operands[0])
    if gtype is GateType.BUF:
        return operands[0]
    if gtype is GateType.CONST0:
        return FALSE
    if gtype is GateType.CONST1:
        return TRUE
    raise NetlistError("unknown gate type: {!r}".format(gtype))


def to_circuit(aig, name="aig"):
    """Convert an AIG back to a gate-level circuit (AND/NOT gates)."""
    circuit = Circuit(name)
    net_of_var = {}
    for var in aig.inputs:
        net = aig.names.get(var, "pi{}".format(var))
        circuit.add_input(net)
        net_of_var[var] = net
    for var, _, init in aig.latches:
        net = aig.names.get(var, "lat{}".format(var))
        circuit.add_register(net, "__pending", init=init)
        net_of_var[var] = net
    const_nets = {}

    def ensure_const(value):
        # Emit CONST0/CONST1 gates directly (not NOT-of-CONST0): the
        # constant-fold pass in transform/optimize produces the same
        # shape, so either path strashes to identical node counts.
        if value not in const_nets:
            gtype = GateType.CONST1 if value else GateType.CONST0
            net = circuit.fresh_name("aig_const{}".format(int(value)))
            circuit.add_gate(net, gtype, [])
            const_nets[value] = net
        return const_nets[value]

    inverters = {}

    def net_of_lit(lit):
        var = lit_var(lit)
        if var == 0:
            return ensure_const(bool(lit_sign(lit)))
        base = net_of_var[var]
        if not lit_sign(lit):
            return base
        return net_of_lit_cached_not(base)

    def net_of_lit_cached_not(base):
        inv = inverters.get(base)
        if inv is None:
            inv = circuit.fresh_name("n_{}".format(base))
            circuit.add_gate(inv, GateType.NOT, [base])
            inverters[base] = inv
        return inv

    for var in aig.topo_vars():
        rhs0, rhs1 = aig.ands[var]
        net = circuit.fresh_name("a{}".format(var))
        circuit.add_gate(net, GateType.AND,
                         [net_of_lit(rhs0), net_of_lit(rhs1)])
        net_of_var[var] = net
    for var, next_lit, _ in aig.latches:
        circuit.set_register_input(net_of_var[var], net_of_lit(next_lit))
    for lit in aig.outputs:
        circuit.add_output(net_of_lit(lit))
    circuit.validate()
    return circuit
