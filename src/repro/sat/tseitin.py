"""Tseitin encoding of combinational circuit frames into CNF.

Every net gets a CNF variable (the paper's §6 "techniques based on the
introduction of extra variables representing intermediate signals" is exactly
this), and each gate contributes the standard defining clauses.
"""

from ..errors import NetlistError
from ..netlist.circuit import GateType
from .cnf import Cnf


class TseitinEncoder:
    """Encodes one combinational time frame of a circuit.

    ``leaves`` optionally pre-assigns CNF variables to input/register nets
    (needed when unrolling several frames that share variables).  The
    variable of each net is available in :attr:`var_of` afterwards.
    """

    def __init__(self, cnf=None):
        self.cnf = cnf if cnf is not None else Cnf()

    def encode_frame(self, circuit, leaves=None, nets=None):
        """Encode a frame; returns ``{net: dimacs_var}`` for every net.

        When ``nets`` is given, only the cones of those nets are encoded.
        """
        var_of = {}
        for net in list(circuit.inputs) + list(circuit.registers):
            if leaves and net in leaves:
                var_of[net] = leaves[net]
            else:
                var_of[net] = self.cnf.new_var()
        order = circuit.topo_order()
        if nets is not None:
            from ..netlist.cones import transitive_fanin

            cone = transitive_fanin(circuit, list(nets))
            order = [name for name in order if name in cone]
        for name in order:
            gate = circuit.gates[name]
            out = self.cnf.new_var()
            var_of[name] = out
            self._encode_gate(gate.gtype, out, [var_of[f] for f in gate.fanins])
        return var_of

    def _encode_gate(self, gtype, out, fanins):
        add = self.cnf.add_clause
        if gtype in (GateType.AND, GateType.NAND):
            y = out if gtype is GateType.AND else -out
            for f in fanins:
                add([-y, f])
            add([y] + [-f for f in fanins])
        elif gtype in (GateType.OR, GateType.NOR):
            y = out if gtype is GateType.OR else -out
            for f in fanins:
                add([y, -f])
            add([-y] + list(fanins))
        elif gtype in (GateType.XOR, GateType.XNOR):
            # Chain through intermediates for arity > 2.
            acc = fanins[0]
            for i, f in enumerate(fanins[1:]):
                is_last = i == len(fanins) - 2
                target = out if is_last else self.cnf.new_var()
                y = target
                if is_last and gtype is GateType.XNOR:
                    y = -target
                add([-y, acc, f])
                add([-y, -acc, -f])
                add([y, acc, -f])
                add([y, -acc, f])
                acc = target
            if len(fanins) == 1:  # degenerate, arity check prevents this
                raise NetlistError("XOR gate with single fanin")
        elif gtype is GateType.NOT:
            add([-out, -fanins[0]])
            add([out, fanins[0]])
        elif gtype is GateType.BUF:
            add([-out, fanins[0]])
            add([out, -fanins[0]])
        elif gtype is GateType.CONST0:
            add([-out])
        elif gtype is GateType.CONST1:
            add([out])
        else:
            raise NetlistError("unknown gate type: {!r}".format(gtype))

    def new_var(self):
        return self.cnf.new_var()

    def add_clause(self, literals):
        self.cnf.add_clause(literals)

    def equal_var(self, a, b):
        """A variable constrained to ``a == b`` (an XNOR output)."""
        y = self.cnf.new_var()
        self.cnf.add_clause([-y, a, -b])
        self.cnf.add_clause([-y, -a, b])
        self.cnf.add_clause([y, a, b])
        self.cnf.add_clause([y, -a, -b])
        return y
