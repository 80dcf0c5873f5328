"""Retiming transformations on netlists.

These are *real* retiming moves used to manufacture the benchmark pairs
(original vs. retimed implementation), mirroring the Stoffel/Kunz circuits
the paper verifies against.  They are distinct from the verification-side
"retiming with lag 1" augmentation (:mod:`repro.core.retiming_aug`), which
never moves latches and only adds combinational logic.

* Forward move: a gate whose fanins are all register outputs absorbs the
  registers — a new register is placed at the gate output, with its initial
  value computed by evaluating the gate on the old initial values (always
  well-defined; forward retiming never has an initial-state problem).
* Backward move: a register whose data input is a gate is pushed across it —
  new registers appear on the gate's fanins.  Initial values must be chosen
  such that the gate evaluates to the old initial value; when no such choice
  exists the move is illegal (the classic reversed-retiming obstruction,
  Stok et al. [13]).
"""

import itertools
import random

from ..errors import TransformError
from ..netlist.circuit import GateType, eval_gate

# Gates a forward move can cross (constants have no fanins to absorb).
_MOVABLE = (
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
)


def forward_movable_gates(circuit):
    """Gates eligible for a forward retiming move (all fanins are registers)."""
    return [
        name
        for name, gate in circuit.gates.items()
        if gate.gtype in _MOVABLE
        and gate.fanins
        and all(f in circuit.registers for f in gate.fanins)
    ]


def forward_retime_gate(circuit, gate_name):
    """Apply one forward move in place; returns the new register's net name.

    The original registers are left for other readers; a dead-logic sweep
    afterwards removes them when the moved gate was their only fanout.
    """
    gate = circuit.gates.get(gate_name)
    if gate is None:
        raise TransformError("no such gate: {!r}".format(gate_name))
    if gate.gtype not in _MOVABLE or not gate.fanins or not all(
        f in circuit.registers for f in gate.fanins
    ):
        raise TransformError(
            "gate {!r} is not forward-movable".format(gate_name)
        )
    regs = [circuit.registers[f] for f in gate.fanins]
    init_value = eval_gate(gate.gtype, [r.init for r in regs])
    new_gate = circuit.fresh_name("rt_{}".format(gate_name))
    circuit.add_gate(new_gate, gate.gtype, [r.data_in for r in regs])
    new_reg = circuit.fresh_name("rtr_{}".format(gate_name))
    circuit.add_register(new_reg, new_gate, init=init_value)
    circuit.replace_fanin(gate_name, new_reg)
    circuit.remove_gate(gate_name)
    return new_reg


def backward_movable_registers(circuit):
    """Registers eligible for a backward move (input is a movable gate)."""
    eligible = []
    for reg in circuit.registers.values():
        gate = circuit.gates.get(reg.data_in)
        if gate is None or gate.gtype not in _MOVABLE or not gate.fanins:
            continue
        if _pick_backward_inits(gate, reg.init) is None:
            continue
        eligible.append(reg.name)
    return eligible


def _pick_backward_inits(gate, target):
    """Fanin initial values making the gate produce ``target``, or None."""
    n = len(gate.fanins)
    for bits in itertools.product([False, True], repeat=min(n, 10)):
        values = list(bits) + [False] * (n - len(bits))
        if eval_gate(gate.gtype, values) == bool(target):
            return values
    return None


def backward_retime_register(circuit, reg_name):
    """Apply one backward move in place; returns the replacement gate net.

    The register disappears; new registers are placed on the driving gate's
    fanins, and a copy of the gate over the new registers replaces the old
    register output.
    """
    reg = circuit.registers.get(reg_name)
    if reg is None:
        raise TransformError("no such register: {!r}".format(reg_name))
    gate = circuit.gates.get(reg.data_in)
    if gate is None or gate.gtype not in _MOVABLE or not gate.fanins:
        raise TransformError(
            "register {!r} is not backward-movable".format(reg_name)
        )
    inits = _pick_backward_inits(gate, reg.init)
    if inits is None:
        raise TransformError(
            "no consistent initial state for backward move of {!r}".format(
                reg_name
            )
        )
    new_regs = []
    for fanin, init in zip(gate.fanins, inits):
        new_reg = circuit.fresh_name("btr_{}".format(fanin))
        circuit.add_register(new_reg, fanin, init=init)
        new_regs.append(new_reg)
    new_gate = circuit.fresh_name("btg_{}".format(reg_name))
    circuit.add_gate(new_gate, gate.gtype, new_regs)
    circuit.replace_fanin(reg_name, new_gate)
    del circuit.registers[reg_name]
    circuit._topo_cache = None
    return new_gate


def retime(circuit, moves=4, seed=0, direction="both"):
    """Apply a random sequence of legal retiming moves to a copy.

    ``direction`` is 'forward', 'backward' or 'both'.  Returns the retimed
    circuit (swept of dead logic).  The result is sequentially equivalent to
    the input by construction.
    """
    from .optimize import sweep

    result = circuit.copy()
    rng = random.Random(seed)
    applied = 0
    for _ in range(moves * 4):
        if applied >= moves:
            break
        options = []
        if direction in ("forward", "both"):
            options.extend(("f", g) for g in forward_movable_gates(result))
        if direction in ("backward", "both"):
            options.extend(("b", r) for r in backward_movable_registers(result))
        if not options:
            break
        kind, target = rng.choice(options)
        if kind == "f":
            forward_retime_gate(result, target)
        else:
            backward_retime_register(result, target)
        applied += 1
    result = sweep(result)
    result.validate()
    return result
