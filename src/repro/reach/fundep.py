"""Register correspondence and functional dependencies.

Two pieces of prior work the paper builds on and compares against:

* *Register correspondence* ([5] van Eijk & Jess, [9] Filkorn): the greatest
  fixed point over register state variables only — the specialization of the
  paper's signal correspondence to registers.  Used here to reduce the
  product machine before symbolic traversal (the functional-dependency
  baseline [6] of Table 1).
* *Functional dependency detection on a reached set* ([6]): a state variable
  is functionally determined by the others within a state set when no two
  states of the set differ only in that variable.
"""

from ..netlist.circuit import GateType
from .transition import TransitionSystem


def register_correspondence(circuit, manager=None):
    """Greatest fixed point of equivalent/antivalent registers.

    Returns ``{register: (representative, inverted)}`` for every register;
    representatives map to themselves with ``inverted=False``.  Registers are
    normalized by their initial values, so a register that always carries the
    complement of another is detected as antivalent (``inverted=True``).
    """
    ts = TransitionSystem(circuit, manager=manager)
    mgr = ts.manager
    regs = list(circuit.registers)
    if not regs:
        return {}, ts
    init = {r: circuit.registers[r].init for r in regs}
    # All registers start in one class: their polarity-normalized functions
    # are identically 1 in the initial state (T0 over constant functions).
    classes = [list(regs)]
    while True:
        # Substitution: every register variable is replaced by (possibly
        # complemented) representative literal.
        substitution = {}
        for cls in classes:
            rep = cls[0]
            rep_edge = mgr.var_edge(ts.cur_id[rep])
            for member in cls:
                edge = rep_edge
                if init[member] != init[rep]:
                    edge = mgr.apply_not(rep_edge)
                substitution[ts.cur_id[member]] = edge
        substitute = mgr.composer(substitution)
        new_classes = []
        changed = False
        for cls in classes:
            buckets = []
            for member in cls:
                delta = substitute(ts.delta[member])
                if not init[member]:
                    # Compare polarity-normalized next-state functions.
                    delta = mgr.apply_not(delta)
                placed = False
                for key, bucket in buckets:
                    if key == delta:
                        bucket.append(member)
                        placed = True
                        break
                if not placed:
                    buckets.append((delta, [member]))
            if len(buckets) > 1:
                changed = True
            new_classes.extend(bucket for _, bucket in buckets)
        classes = new_classes
        if not changed:
            break
    mapping = {}
    for cls in classes:
        rep = cls[0]
        for member in cls:
            mapping[member] = (rep, init[member] != init[rep])
    return mapping, ts


def reduce_by_register_correspondence(product, manager=None):
    """Substitute corresponding registers away in the product circuit.

    Returns ``(reduced_circuit, merged_count, net_map)``; ``net_map`` sends
    every merged register to its replacement net (identity for everything
    else), so callers can remap output pairs.  The fixed point runs on
    ``manager`` (a fresh one by default).  Sound: members of a
    correspondence class are sequentially equivalent (or antivalent), so
    every read of a non-representative register can be redirected to (the
    complement of) its representative, after which the register is dead.
    """
    circuit = product.circuit.copy()
    mapping, _ = register_correspondence(circuit, manager=manager)
    merged = 0
    net_map = {}
    for member, (rep, inverted) in mapping.items():
        if member == rep:
            continue
        if inverted:
            inv = circuit.fresh_name("rc_not_{}".format(rep))
            circuit.add_gate(inv, GateType.NOT, [rep])
            replacement = inv
        else:
            replacement = rep
        circuit.replace_fanin(member, replacement)
        del circuit.registers[member]
        net_map[member] = replacement
        merged += 1
    circuit._topo_cache = None
    from ..transform.optimize import sweep

    # Keep all original outputs alive; sweep only removes dead state.
    reduced = sweep(circuit)
    reduced.validate()
    return reduced, merged, net_map


def functional_dependencies(manager, state_set, var_ids):
    """Variables functionally determined by the others within ``state_set``.

    Returns ``{var_id: function_edge}`` where the function (over the other
    variables) agrees with the variable on every state of the set.  This is
    the dependency analysis of [6], used to shrink traversal state.
    """
    result = {}
    for var in var_ids:
        pos = manager.restrict(state_set, {var: True})
        neg = manager.restrict(state_set, {var: False})
        if manager.apply_and(pos, neg) == manager.false:
            result[var] = pos
    return result
