"""The two-time-frame model of the product machine (Fig. 1 of the paper).

For every signal v the model provides

* ``f_v : S × X → B`` — the current-state function, a BDD over the state
  variables and the current-frame input variables, and
* ``ν_v : S × X × X → B`` — the next-state function over state, current
  inputs and *next-frame* input variables, obtained with ``shift``, the
  simultaneous substitution ``ν_v = f_v[s := δ(s, x), x := x']``
  (Fig. 1's identity ``ν_v(s, x_t, x_{t+1}) = f_v(δ(s, x_t), x_{t+1})``).

The model also owns the reference point (s0, x0) used for polarity
normalization and the sequential random simulation that seeds the partition.
"""

import random

from ..bdd import BddManager
from ..netlist.bddnet import build_bdds, gate_bdd
from ..netlist.cones import static_variable_order
from ..netlist.simulate import make_sim
from .partition import SignalFunction


class TimeFrame:
    """BDD-level time-frame model of a (product) circuit.

    The circuit may grow (retiming augmentation adds gates); call
    :meth:`refresh` after adding gates to extend the function tables and
    simulation signatures.
    """

    def __init__(self, circuit, manager=None, node_limit=None, seed=2024,
                 sim_frames=24, sim_width=32):
        circuit.validate()
        self.circuit = circuit
        self.manager = manager if manager is not None else BddManager(node_limit)
        self.seed = seed
        self.sim_frames = sim_frames
        self.sim_width = sim_width
        mgr = self.manager
        self.state_id = {}
        self.in_id = {}
        self.next_in_id = {}
        leaves = {}
        # Primary inputs go to the top of the order: the ν functions of
        # wide observers (XORs over many registers) all depend on the shared
        # inputs, and keeping those common variables on top bounds the
        # cross-product of the per-module cofactors.
        order = static_variable_order(circuit)
        order = [n for n in order if n not in circuit.registers] + [
            n for n in order if n in circuit.registers
        ]
        for net in order:
            if net in circuit.registers:
                edge = mgr.add_var("s.{}".format(net))
                self.state_id[net] = mgr.var_of(edge)
                leaves[net] = edge
            else:
                edge = mgr.add_var("x.{}".format(net))
                self.in_id[net] = mgr.var_of(edge)
                next_edge = mgr.add_var("y.{}".format(net))
                self.next_in_id[net] = mgr.var_of(next_edge)
                leaves[net] = edge
        self.leaves = leaves
        self.values = build_bdds(circuit, mgr, leaves)
        for net in circuit.signals():
            mgr.register_root(self.values[net])
        self.delta = {
            name: self.values[reg.data_in]
            for name, reg in circuit.registers.items()
        }
        # The frame-shift substitution of Fig. 1.  The next-frame input
        # literals are not net functions, so they must be protected as roots
        # explicitly or reordering-time garbage collection would free them.
        self.shift_map = {}
        for net, var in self.state_id.items():
            self.shift_map[var] = self.delta[net]
        for net, var in self.in_id.items():
            y_edge = mgr.var_edge(self.next_in_id[net])
            mgr.register_root(y_edge)
            self.shift_map[var] = y_edge
        self.shift = mgr.composer(self.shift_map)
        # Reference point (s0, x0): initial state plus a random input vector.
        rng = random.Random(seed)
        self.ref_env = {}
        for net, var in self.state_id.items():
            self.ref_env[var] = circuit.registers[net].init
        for net, var in self.in_id.items():
            self.ref_env[var] = rng.random() < 0.5
        for net, var in self.next_in_id.items():
            self.ref_env[var] = False  # irrelevant: f_v never depends on y
        self._s0_assignment = {
            self.state_id[net]: circuit.registers[net].init
            for net in circuit.registers
        }
        self._to_initial = mgr.restrictor(self._s0_assignment)
        self._sim_frames_data = None
        self.resimulate()

    # -- simulation --------------------------------------------------------

    def resimulate(self):
        """(Re)run the sequential random simulation; fills ``signatures``.

        The first frame's first-pattern inputs replicate the reference input
        x0, so signatures and polarity normalization agree at the reference
        point.
        """
        circuit = self.circuit
        sim = make_sim(circuit)
        rng = random.Random(self.seed)
        width = self.sim_width
        full = (1 << width) - 1
        state = {
            net: (full if reg.init else 0)
            for net, reg in circuit.registers.items()
        }
        ref_inputs = {
            net: self.ref_env[self.in_id[net]] for net in circuit.inputs
        }
        signatures = {net: 0 for net in circuit.signals()}
        frames = []
        for frame in range(self.sim_frames):
            env = {}
            for net in circuit.inputs:
                word = rng.getrandbits(width)
                if frame == 0:
                    # Pin pattern bit 0 of frame 0 to the reference input x0.
                    word = (word & ~1) | int(ref_inputs[net])
                env[net] = word
            env.update(state)
            values = sim.eval(env, width)
            frames.append(values)
            for net, word in values.items():
                signatures[net] = (signatures[net] << width) | word
            state = {
                net: values[reg.data_in]
                for net, reg in circuit.registers.items()
            }
        self.signatures = signatures
        self._sim_frames_data = frames

    # -- function access ----------------------------------------------------

    def f(self, net):
        """Current-state function of a net."""
        return self.values[net]

    def ref_value(self, net):
        """Value of the net at the reference point (s0, x0)."""
        return self.manager.evaluate(self.values[net], self.ref_env)

    def restrict_to_initial(self, edge):
        """Cofactor a function by s := s0 (for the T0 comparison, Eq. 2)."""
        return self._to_initial(edge)

    def state_var_ids(self):
        return set(self.state_id.values())

    def input_var_ids(self):
        return set(self.in_id.values())

    # -- signal records -------------------------------------------------------

    def build_signal_functions(self, nets=None, include_constant=True):
        """Polarity-normalized :class:`SignalFunction` records.

        Nets with identical normalized functions share a record.  A constant
        record is always included (signals stuck at 0/1 in all reachable
        states then prove equal to it).
        """
        mgr = self.manager
        if nets is None:
            nets = self.circuit.signals()
        records = {}
        if include_constant:
            const = SignalFunction(mgr.true, signature=self._norm_signature(0, True))
            const.add_net("@const", False)
            records[mgr.true] = const
        for net in nets:
            raw = self.values[net]
            value = self.ref_value(net)
            complemented = not value
            norm = raw ^ 1 if complemented else raw
            record = records.get(norm)
            if record is None:
                record = SignalFunction(
                    norm,
                    signature=self._norm_signature(
                        self.signatures[net], complemented
                    ),
                )
                records[norm] = record
            register_var = self.state_id.get(net)
            record.add_net(net, complemented, register_var=register_var)
        return list(records.values())

    def _norm_signature(self, signature, complemented):
        total_bits = self.sim_frames * self.sim_width
        full = (1 << total_bits) - 1
        return (signature ^ full) if complemented else (signature & full)

    # -- growth (retiming augmentation) --------------------------------------

    def add_gate_signal(self, name, gtype, fanins):
        """Add a combinational gate to the circuit and compute its BDD."""
        self.circuit.add_gate(name, gtype, fanins)
        return self.attach_gate_signal(name)

    def attach_gate_signal(self, name):
        """Compute and register the BDD of an already-added gate."""
        gate = self.circuit.gates[name]
        edge = gate_bdd(
            self.manager, gate.gtype, [self.values[f] for f in gate.fanins]
        )
        self.values[name] = edge
        self.manager.register_root(edge)
        return edge
