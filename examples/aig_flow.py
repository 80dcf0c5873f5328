"""AIG flow: AIGER export, SAT sweeping (fraig) and the modern-CEC view.

The paper's fixed point collapsed to one time frame *is* combinational SAT
sweeping — the kernel of today's fraig-based equivalence checkers.  This
example shows that lineage concretely: a combinational circuit and its
aggressively optimized version are combined into one product over shared
inputs, swept, and every output pair lands on one witness record.

Run:  python examples/aig_flow.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from repro.cec import check_comb_equivalence
from repro.circuits import generate_benchmark
from repro.interop.aiger import dumps_aiger_ascii, loads_aiger
from repro.netlist import build_product
from repro.netlist.aig import from_circuit
from repro.sweep import fraig_reduce
from repro.transform import optimize, sweep


def main():
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="repro_aig_")
    )
    workdir.mkdir(parents=True, exist_ok=True)

    # A combinational workload: a generated benchmark with registers cut
    # away (treat register outputs as free inputs).
    seq = generate_benchmark("aigdemo", n_regs=10, n_inputs=4, seed=31)
    comb = seq.copy()
    for name, reg in list(comb.registers.items()):
        comb.registers.pop(name)
        comb.inputs.append(name)
    comb._topo_cache = None
    comb = sweep(comb)
    comb.validate()
    impl = optimize(comb, level=2, seed=32)
    print("spec:", comb)
    print("impl:", impl)

    # 1. AIG conversion and AIGER round trip.
    aig, _ = from_circuit(comb)
    print("AIG:", aig)
    aag_path = workdir / "spec.aag"
    aag_path.write_text(dumps_aiger_ascii(aig))
    again = loads_aiger(aag_path.read_text())
    assert again.num_ands == aig.num_ands
    print("wrote and re-read", aag_path.name)

    # 2. Sweeping compresses redundancy (most visible on the product, where
    # every impl node has a spec twin to merge with).
    stats = fraig_reduce(comb).stats
    print("fraig on spec alone: {} -> {} AND nodes".format(
        stats["ands_before"], stats["ands_after"]))

    # 3. Sweeping the product as a CEC engine, against the BDD and SAT
    # backends: equal outputs end on one witness record.
    product = build_product(comb, impl, match_outputs="order")
    reduction = fraig_reduce(product.circuit)
    witness = reduction.net_map
    assert all(witness[s] == witness[i] for s, i in product.output_pairs)
    print("  fraig: every output pair on one node ({} -> {} AND nodes, "
          "{} merges)".format(reduction.stats["ands_before"],
                              reduction.stats["ands_after"],
                              reduction.stats["merges"]))
    for backend in ("bdd", "sat"):
        result = check_comb_equivalence(comb, impl, backend=backend)
        print("{:>7}: {}".format(backend, result))
        assert result.equivalent


if __name__ == "__main__":
    main()
