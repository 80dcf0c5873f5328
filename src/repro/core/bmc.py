"""Bounded model checking for inequivalence.

The signal-correspondence method refutes only what random simulation
happens to hit; BMC is the *complete* refuter up to a depth bound: unroll
the product machine ``k`` frames from the initial state, assert "some
output pair differs in the last frame", and ask the CDCL solver.  Searching
depths incrementally yields a **shortest** counterexample — a sharper
diagnostic than either simulation or traversal rings.
"""

import time

from ..budget import Budget
from ..errors import ResourceBudgetExceeded
from ..netlist.product import build_product
from ..reach.result import CexTrace, SecResult
from ..sat.solver import Solver
from ..sat.tseitin import TseitinEncoder


def bmc_refute(product, max_depth=32, progress=None, budget=None):
    """Search for a counterexample of length 1..max_depth.

    Returns a :class:`SecResult`: refuted (with a shortest-length trace),
    or inconclusive — BMC can never *prove* equivalence.

    ``progress(kind, **data)`` fires once per unrolled depth; ``budget``
    (a :class:`~repro.budget.Budget`) is checked at the same cadence and
    polled by the solver; a spent one ends the search inconclusive.

    Every result carries ``details["solver_stats"]``: one solver
    construction, one SAT query per solved depth, and the solver's
    counters and database sizes (``Solver.stats``).
    """
    budget = budget or Budget()
    start = time.monotonic()
    solver = Solver(budget)
    queries = 0

    def finish(equivalent, depth, counterexample=None, **details):
        effort = solver.stats()
        del effort["num_vars"]
        details["solver_stats"] = dict(
            solver_constructions=1, sat_queries=queries, **effort)
        return SecResult(
            equivalent=equivalent, method="bmc", iterations=depth,
            seconds=time.monotonic() - start,
            counterexample=counterexample, details=details,
        )

    circuit = product.circuit
    circuit.validate()
    enc = TseitinEncoder()
    frame_vars = []
    leaves = None
    try:
        for depth in range(1, max_depth + 1):
            budget.check()
            if progress is not None:
                progress("depth", depth=depth, clauses=len(enc.cnf.clauses))
            clause_mark = len(enc.cnf.clauses)
            current = enc.encode_frame(circuit, leaves=leaves)
            frame_vars.append(current)
            if depth == 1:
                for net, reg in circuit.registers.items():
                    enc.add_clause(
                        [current[net] if reg.init else -current[net]]
                    )
            leaves = {
                net: current[reg.data_in]
                for net, reg in circuit.registers.items()
            }
            # Difference selector for this frame, activated by assumption.
            diff_lits = []
            for s_out, i_out in product.output_pairs:
                diff_lits.append(
                    -enc.equal_var(current[s_out], current[i_out]))
            any_diff = enc.new_var()
            for lit in diff_lits:
                enc.add_clause([-lit, any_diff])
            enc.add_clause([-any_diff] + diff_lits)
            # Allocate the frame's variables at once, not clause by clause.
            solver.ensure_vars(enc.cnf.num_vars)
            for clause in enc.cnf.clauses[clause_mark:]:
                if not solver.add_clause(clause):
                    return finish(None, depth,
                                  note="unrolling became unsatisfiable")
            queries += 1
            if solver.solve(assumptions=[any_diff]):
                model = solver.model()
                inputs = [
                    {
                        net: model.get(frame[net], False)
                        for net in circuit.inputs
                    }
                    for frame in frame_vars
                ]
                trace = CexTrace(
                    inputs=inputs[:-1],
                    final_input=inputs[-1],
                )
                return finish(False, depth, counterexample=trace,
                              cex_depth=depth)
    except ResourceBudgetExceeded as exc:
        return finish(None, depth - 1, aborted=str(exc))
    return finish(None, max_depth, bound_reached=max_depth)


def check_inequivalence_bmc(spec, impl, match_inputs="name",
                            match_outputs="order", **options):
    """Convenience wrapper over :func:`bmc_refute`."""
    product = build_product(spec, impl, match_inputs=match_inputs,
                            match_outputs=match_outputs)
    return bmc_refute(product, **options)
