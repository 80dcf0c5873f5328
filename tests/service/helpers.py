"""Shared circuit fixtures and engine stand-ins for the service tests."""

import time

from repro.netlist import Circuit, GateType


def stubborn(job, progress, cancel_check):
    """A registered-runner stand-in for one long ``Solver.solve``: it never
    reads ``cancel_check``, so only SIGKILL stops it."""
    while True:
        time.sleep(0.05)


def tiny_pair():
    """A trivially equivalent (spec, impl) pair (impl has a spare buffer)."""
    spec = Circuit("tiny_spec")
    spec.add_input("a")
    spec.add_input("b")
    spec.add_gate("d", GateType.AND, ["a", "b"])
    spec.add_register("r", "d", init=False)
    spec.add_gate("o", GateType.BUF, ["r"])
    spec.add_output("o")

    impl = Circuit("tiny_impl")
    impl.add_input("a")
    impl.add_input("b")
    impl.add_gate("d0", GateType.AND, ["a", "b"])
    impl.add_gate("d", GateType.BUF, ["d0"])
    impl.add_register("r", "d", init=False)
    impl.add_gate("o", GateType.BUF, ["r"])
    impl.add_output("o")
    return spec, impl


def magic_pair(n_inputs=20):
    """A pair that differs only when *all* inputs are 1 simultaneously.

    Random simulation (a few hundred patterns) essentially never hits the
    all-ones vector (probability 2^-n per pattern), so the van Eijk engine
    cannot refute; BMC finds the depth-2 counterexample immediately.  This
    is the workload the portfolio's falsifier lane exists for.
    """
    names = ["x{}".format(i) for i in range(n_inputs)]

    spec = Circuit("magic_spec")
    for name in names:
        spec.add_input(name)
    spec.add_gate("d", GateType.OR, [names[0], names[1]])
    spec.add_register("r", "d", init=False)
    spec.add_gate("o", GateType.BUF, ["r"])
    spec.add_output("o")

    impl = Circuit("magic_impl")
    for name in names:
        impl.add_input(name)
    impl.add_gate("base", GateType.OR, [names[0], names[1]])
    impl.add_gate("magic", GateType.AND, list(names))
    impl.add_gate("not_magic", GateType.NOT, ["magic"])
    impl.add_gate("d", GateType.AND, ["base", "not_magic"])
    impl.add_register("r", "d", init=False)
    impl.add_gate("o", GateType.BUF, ["r"])
    impl.add_output("o")
    return spec, impl
