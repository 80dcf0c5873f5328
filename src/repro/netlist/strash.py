"""Structural hashing: merge structurally identical gates.

Two gates merge when they have the same type and the same (canonically
ordered, for commutative types) fanin representatives.  BUF gates collapse
into their fanin.  The pass is purely structural — semantic rewrites live in
:mod:`repro.transform.optimize`.
"""

from .circuit import Circuit, Gate, GateType, Register


def strash(circuit, merge_registers=False):
    """Return ``(new_circuit, net_map)`` with structural duplicates merged.

    ``net_map`` maps every original net to its representative in the new
    circuit.  With ``merge_registers=True``, registers with identical data
    inputs and initial values are merged too (a lightweight sequential
    optimization used by the benchmark synthesis pipeline).
    """
    out = Circuit(circuit.name)
    rep = {}
    for net in circuit.inputs:
        out.add_input(net)
        rep[net] = net
    # Registers keep their identity in the first pass; their (representative)
    # data inputs are wired up after the gates are processed.
    for reg in circuit.registers.values():
        out.add_register(reg.name, reg.data_in, reg.init)
        rep[reg.name] = reg.name
    gate_index = {}
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        fanins = [rep[f] for f in gate.fanins]
        if gate.gtype is GateType.BUF:
            rep[name] = fanins[0]
            continue
        key_fanins = tuple(sorted(fanins)) if gate.gtype.is_commutative else tuple(fanins)
        key = (gate.gtype, key_fanins)
        existing = gate_index.get(key)
        if existing is not None:
            rep[name] = existing
            continue
        out.add_gate(name, gate.gtype, fanins)
        gate_index[key] = name
        rep[name] = name
    for reg in out.registers.values():
        reg.data_in = rep[reg.data_in]
    out.outputs = [rep[o] for o in circuit.outputs]
    if merge_registers:
        out, reg_map = _merge_registers(out)
        rep = {net: reg_map.get(r, r) for net, r in rep.items()}
    out.validate()
    return out, rep


def _merge_registers(circuit):
    """Merge registers with identical (data_in, init); iterate to fixpoint."""
    mapping = {}
    current = circuit
    while True:
        index = {}
        merges = {}
        for reg in current.registers.values():
            key = (reg.data_in, reg.init)
            if key in index:
                merges[reg.name] = index[key]
            else:
                index[key] = reg.name
        if not merges:
            break
        rebuilt = Circuit(current.name)
        for net in current.inputs:
            rebuilt.add_input(net)

        def rn(net):
            return merges.get(net, net)

        for reg in current.registers.values():
            if reg.name in merges:
                continue
            rebuilt.add_register(reg.name, rn(reg.data_in), reg.init)
        for name in current.topo_order():
            gate = current.gates[name]
            rebuilt.add_gate(name, gate.gtype, [rn(f) for f in gate.fanins])
        rebuilt.outputs = [rn(o) for o in current.outputs]
        for old, new in merges.items():
            mapping[old] = new
        # Chase chains created by earlier rounds.
        for old in list(mapping):
            target = mapping[old]
            while target in merges:
                target = merges[target]
            mapping[old] = target
        current = rebuilt
    return current, mapping
