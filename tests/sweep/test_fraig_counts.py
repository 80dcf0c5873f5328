"""Exact FRAIG reduction counts on eight Table-1 rows.

Two inputs :func:`fraig_reduce` sweeps, pinned per row:

* the product machine unrolled to depth 8 from its initial state: AND
  nodes of the strash-only unrolling, AND nodes after the sweep, merges,
  and exactly one solver for the whole unrolling.  Every frame's output
  pairs of an equivalent row end on one witness record;
* each side of the pair: AND counts before and after.

Every count is deterministic (fixed sweep seed, fixed suite seeds).
"""

import pytest

from repro import verify
from repro.circuits import row_by_name
from repro.netlist import build_product
from repro.netlist.unroll import unroll
from repro.sweep import fraig_reduce

DEPTH = 8

#: row -> (unrolled ANDs, swept ANDs, merges,
#:         spec ANDs before/after, impl ANDs before/after)
COUNTS = {
    "s208": (365, 79, 206, (43, 43), (77, 77)),
    "s298": (602, 70, 368, (72, 72), (113, 108)),
    "s344": (173, 63, 67, (34, 33), (38, 38)),
    "s349": (773, 306, 251, (83, 79), (111, 109)),
    "s382": (284, 20, 163, (56, 56), (63, 63)),
    "s386": (57, 40, 4, (40, 40), (40, 40)),
    "s420": (142, 16, 70, (73, 70), (75, 74)),
    "s444": (602, 219, 266, (95, 83), (122, 112)),
}


def reduce_counts(circuit):
    stats = fraig_reduce(circuit).stats
    return stats["ands_before"], stats["ands_after"]


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_frame_sweep_counts(name):
    plain, swept, merges, _, _ = COUNTS[name]
    spec, impl = row_by_name(name).pair()
    product = build_product(spec, impl, match_outputs="order")
    unrolled, net_at = unroll(product.circuit, DEPTH)
    reduction = fraig_reduce(unrolled)
    stats = reduction.stats
    assert stats["ands_before"] == plain
    assert stats["ands_after"] == swept
    assert stats["merges"] == merges
    assert stats["solver_constructions"] == 1
    witness = reduction.net_map
    for t in range(DEPTH):
        for s_out, i_out in product.output_pairs:
            assert witness[net_at(s_out, t)] == witness[net_at(i_out, t)]


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_fraig_reduce_counts(name):
    _, _, _, spec_ands, impl_ands = COUNTS[name]
    spec, impl = row_by_name(name).pair()
    assert reduce_counts(spec) == spec_ands
    assert reduce_counts(impl) == impl_ands
    # The reduced pair keeps the verdict: every row stays proved.
    assert verify(spec, impl, match_outputs="order",
                  method="fraig_sweep").equivalent is True
