"""Exact FRAIG reduction counts on eight Table-1 rows.

Two places where the one SAT sweep plugs in, pinned at depth 8:

* the FRAIG-BMC unrolling (:class:`FrameSweeper`) against the plain
  strash-only unrolling of the same product machine: AND nodes built,
  merges, and exactly one solver for the whole unrolling;
* :func:`fraig_reduce` on each side of the pair: AND counts before and
  after.

Every count is deterministic (fixed sweep seed, fixed suite seeds).
"""

import pytest

from repro import verify
from repro.circuits import row_by_name
from repro.netlist import build_product
from repro.netlist.aig import FALSE, TRUE, Aig, _gate_to_aig
from repro.sweep import FrameSweeper, fraig_reduce

DEPTH = 8

#: row -> (plain unrolled ANDs, swept ANDs, merges,
#:         spec ANDs before/after, impl ANDs before/after)
COUNTS = {
    "s208": (365, 209, 50, (43, 43), (77, 77)),
    "s298": (602, 364, 130, (72, 72), (113, 108)),
    "s344": (173, 163, 57, (34, 33), (38, 38)),
    "s349": (773, 641, 119, (83, 79), (111, 109)),
    "s382": (284, 193, 72, (56, 56), (63, 63)),
    "s386": (57, 57, 4, (40, 40), (40, 40)),
    "s420": (142, 84, 12, (73, 70), (75, 74)),
    "s444": (602, 448, 112, (95, 83), (122, 112)),
}


def naive_unroll_ands(circuit, depth):
    """AND count of the plain (strash-only) unrolling: the baseline."""
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


def reduce_counts(circuit):
    stats = fraig_reduce(circuit).stats
    return stats["ands_before"], stats["ands_after"]


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_frame_sweep_counts(name):
    naive, swept, merges, _, _ = COUNTS[name]
    spec, impl = row_by_name(name).pair()
    product = build_product(spec, impl, match_outputs="order")
    assert naive_unroll_ands(product.circuit, DEPTH) == naive
    sweeper = FrameSweeper(product.circuit)
    for _ in range(DEPTH):
        lit_of = sweeper.add_frame()
        assert sweeper.outputs_differ(product.output_pairs, lit_of) is None
    assert sweeper.stats["ands_built"] == swept
    assert sweeper.stats["merges"] == merges
    assert sweeper.stats["solver_constructions"] == 1


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_fraig_reduce_counts(name):
    _, _, _, spec_ands, impl_ands = COUNTS[name]
    spec, impl = row_by_name(name).pair()
    assert reduce_counts(spec) == spec_ands
    assert reduce_counts(impl) == impl_ands
    # Preprocessing keeps the verdict: every row stays proved.
    assert verify(spec, impl, match_outputs="order",
                  preprocess="fraig").equivalent is True
