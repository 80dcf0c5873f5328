"""Explicit-state breadth-first reachability — the test oracle.

Feasible only for small circuits (the per-state input enumeration is
exhaustive), but completely independent of the BDD machinery, which is what
makes it a trustworthy oracle for the symbolic engines.
"""

from ..budget import Budget
from ..errors import ResourceBudgetExceeded, VerificationError
from ..netlist.simulate import bit_parallel_eval
from .result import CexTrace, SecResult


def _input_pattern_words(inputs):
    """Truth-table masks: input i toggles with period 2^i over all patterns."""
    width = 1 << len(inputs)
    words = {}
    for i, net in enumerate(inputs):
        word = 0
        for pattern in range(width):
            if (pattern >> i) & 1:
                word |= 1 << pattern
        words[net] = word
    return words, width


def explicit_reachable(circuit, max_states=1 << 16, max_inputs=12):
    """BFS enumeration of reachable states.

    Returns ``(states, depth)`` where ``states`` is a set of register-value
    tuples ordered like ``list(circuit.registers)``.
    """
    circuit.validate()
    if len(circuit.inputs) > max_inputs:
        raise VerificationError(
            "explicit oracle limited to {} inputs".format(max_inputs)
        )
    regs = list(circuit.registers)
    words, width = _input_pattern_words(circuit.inputs)
    full = (1 << width) - 1
    init = tuple(circuit.registers[r].init for r in regs)
    seen = {init}
    frontier = [init]
    depth = 0
    while frontier:
        next_frontier = []
        for state in frontier:
            env = dict(words)
            for name, value in zip(regs, state):
                env[name] = full if value else 0
            values = bit_parallel_eval(circuit, env, width)
            data = [values[circuit.registers[r].data_in] for r in regs]
            for pattern in range(width):
                succ = tuple(bool((d >> pattern) & 1) for d in data)
                if succ not in seen:
                    seen.add(succ)
                    if len(seen) > max_states:
                        raise ResourceBudgetExceeded(
                            "explicit state budget exceeded"
                        )
                    next_frontier.append(succ)
        frontier = next_frontier
        if frontier:
            depth += 1
    return seen, depth


def explicit_check_equivalence(product, max_states=1 << 16, max_inputs=12,
                               progress=None, budget=None):
    """Oracle SEC on a product machine; returns a :class:`SecResult`.

    ``progress(kind, **data)`` fires once per BFS ring; ``budget`` (a
    :class:`~repro.budget.Budget`) is checked once per expanded state.  A
    spent budget or more than ``max_states`` reached states ends the search
    inconclusive.
    """
    circuit = product.circuit
    circuit.validate()
    if len(circuit.inputs) > max_inputs:
        raise VerificationError(
            "explicit oracle limited to {} inputs".format(max_inputs)
        )
    budget = budget or Budget()
    regs = list(circuit.registers)
    words, width = _input_pattern_words(circuit.inputs)
    full = (1 << width) - 1
    init = tuple(circuit.registers[r].init for r in regs)
    parents = {init: None}  # state -> (predecessor, input_assignment)
    frontier = [init]
    iterations = 0
    try:
        while frontier:
            iterations += 1
            if progress is not None:
                progress("ring", iteration=iterations, states=len(parents))
            next_frontier = []
            for state in frontier:
                budget.check()
                env = dict(words)
                for name, value in zip(regs, state):
                    env[name] = full if value else 0
                values = bit_parallel_eval(circuit, env, width)
                # Output check under every input.
                for s_out, i_out in product.output_pairs:
                    mismatch = values[s_out] ^ values[i_out]
                    if mismatch:
                        pattern = (mismatch & -mismatch).bit_length() - 1
                        final_input = {
                            net: bool((pattern >> i) & 1)
                            for i, net in enumerate(circuit.inputs)
                        }
                        trace = _backtrace(parents, state, circuit.inputs)
                        return SecResult(
                            equivalent=False,
                            method="explicit",
                            iterations=iterations,
                            counterexample=CexTrace(
                                inputs=trace,
                                final_input=final_input,
                                state=dict(zip(regs, state)),
                            ),
                        )
                data = [values[circuit.registers[r].data_in] for r in regs]
                for pattern in range(width):
                    succ = tuple(bool((d >> pattern) & 1) for d in data)
                    if succ not in parents:
                        if len(parents) >= max_states:
                            raise ResourceBudgetExceeded(
                                "explicit state budget exceeded"
                            )
                        parents[succ] = (
                            state,
                            {
                                net: bool((pattern >> i) & 1)
                                for i, net in enumerate(circuit.inputs)
                            },
                        )
                        next_frontier.append(succ)
            frontier = next_frontier
    except ResourceBudgetExceeded as exc:
        return SecResult(equivalent=None, method="explicit",
                         iterations=iterations,
                         details={"aborted": str(exc)})
    return SecResult(
        equivalent=True,
        method="explicit",
        iterations=iterations,
        details={"reached_states": len(parents)},
    )


def _backtrace(parents, state, inputs):
    trace = []
    current = state
    while parents[current] is not None:
        predecessor, input_assignment = parents[current]
        trace.append(input_assignment)
        current = predecessor
    trace.reverse()
    return trace
