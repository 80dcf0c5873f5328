"""Bit-parallel and three-valued simulation of sequential circuits.

Bit-parallel simulation packs ``width`` independent patterns into Python
integers (one bit per pattern), which is how the paper's implementation uses
"sequential simulation of the product machine with random input vectors" to
pre-partition the candidate equivalence classes cheaply.

Three-valued (0/1/X) simulation is provided for initialization analysis; a
value is a pair ``(ones, zeros)`` of bit masks — a bit set in neither mask is
unknown.
"""

import random

from .circuit import GateType
from ..errors import NetlistError


def _mask(width):
    return (1 << width) - 1


def _env_net_category(circuit, net):
    """Category of a net an evaluator expected in ``env``.

    Exhaustive on purpose: a net in *neither* set (possible when callers
    hand-build env keys) must not be mislabelled as an input or register.
    """
    if net in circuit.inputs:
        return "input"
    if net in circuit.registers:
        return "register"
    return "undefined"


def _missing_env_error(circuit, net):
    return NetlistError(
        "bit_parallel_eval: env is missing a value for {} net {!r}".format(
            _env_net_category(circuit, net), net
        )
    )


def bit_parallel_eval(circuit, env, width):
    """Evaluate all nets for one time frame.

    ``env`` maps every primary input and register-output net to an integer of
    ``width`` pattern bits.  Returns ``{net: int}`` covering every net.
    """
    values = {}
    full = _mask(width)
    try:
        for net in circuit.inputs:
            values[net] = env[net] & full
        for net in circuit.registers:
            values[net] = env[net] & full
    except KeyError as exc:
        raise _missing_env_error(circuit, exc.args[0]) from None
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        values[name] = _eval_words(gate.gtype, [values[f] for f in gate.fanins], full)
    return values


def _eval_words(gtype, words, full):
    if gtype is GateType.AND or gtype is GateType.NAND:
        acc = full
        for w in words:
            acc &= w
        return acc if gtype is GateType.AND else acc ^ full
    if gtype is GateType.OR or gtype is GateType.NOR:
        acc = 0
        for w in words:
            acc |= w
        return acc if gtype is GateType.OR else acc ^ full
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        acc = 0
        for w in words:
            acc ^= w
        return acc if gtype is GateType.XOR else acc ^ full
    if gtype is GateType.NOT:
        return words[0] ^ full
    if gtype is GateType.BUF:
        return words[0]
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return full
    raise NetlistError("unknown gate type: {!r}".format(gtype))


def single_eval(circuit, input_values, state_values):
    """Single-pattern convenience wrapper; booleans in, booleans out."""
    env = {net: int(bool(v)) for net, v in input_values.items()}
    env.update({net: int(bool(v)) for net, v in state_values.items()})
    words = bit_parallel_eval(circuit, env, 1)
    return {net: bool(v) for net, v in words.items()}


def next_state(circuit, values):
    """Next-state masks from the full net valuation of one frame."""
    return {name: values[reg.data_in] for name, reg in circuit.registers.items()}


class CompiledSim:
    """A compiled bit-parallel simulation kernel for one circuit.

    ``bit_parallel_eval`` walks ``topo_order()`` and the gate dicts on every
    frame; profiles of partition seeding and counterexample replay are
    dominated by those per-gate dict lookups.  ``CompiledSim`` flattens the
    structure once: the topological order and fanin lists are compiled into a
    single Python function (one expression per gate over local variables)
    that maps leaf words to the full frame valuation as a flat list.

    Slot layout (``net_order``): primary inputs, then register outputs (both
    in declaration order), then gates in topological order.  ``BUF`` and
    constant gates compile to aliases — zero per-frame cost.

    The kernel is semantics-identical to :func:`bit_parallel_eval` (pinned by
    property tests); three-valued simulation is deliberately not compiled.
    """

    def __init__(self, circuit):
        circuit.validate()
        self.circuit = circuit
        self.inputs = list(circuit.inputs)
        self.registers = list(circuit.registers)
        order = circuit.topo_order()
        self.net_order = self.inputs + self.registers + order
        self._index = {net: i for i, net in enumerate(self.net_order)}
        self.next_state_slots = [
            self._index[reg.data_in] for reg in circuit.registers.values()
        ]
        self._kernel = self._compile(order)

    def index(self, net):
        """Slot of ``net`` in the frame word list / ``net_order``."""
        return self._index[net]

    # -- code generation --------------------------------------------------

    _OPS = {
        GateType.AND: (" & ", ""),
        GateType.NAND: (" & ", " ^ F"),
        GateType.OR: (" | ", ""),
        GateType.NOR: (" | ", " ^ F"),
        GateType.XOR: (" ^ ", ""),
        GateType.XNOR: (" ^ ", " ^ F"),
    }

    def _compile(self, order):
        # One local name per leaf, one assignment per real gate; BUF/CONST
        # outputs alias their source expression instead of emitting code.
        names = {}
        for i, net in enumerate(self.inputs):
            names[net] = "i{}".format(i)
        for i, net in enumerate(self.registers):
            names[net] = "r{}".format(i)
        lines = []
        n_leaves = len(self.inputs) + len(self.registers)
        if n_leaves:
            leaf_names = [names[net] for net in self.inputs + self.registers]
            lines.append(" {}{} = E".format(
                ", ".join(leaf_names), "," if n_leaves == 1 else ""))
        gates = self.circuit.gates
        for j, net in enumerate(order):
            gate = gates[net]
            gtype = gate.gtype
            if gtype is GateType.CONST0:
                names[net] = "0"
                continue
            if gtype is GateType.CONST1:
                names[net] = "F"
                continue
            operands = [names[f] for f in gate.fanins]
            if gtype is GateType.BUF:
                names[net] = operands[0]
                continue
            if gtype is GateType.NOT:
                expr = "{} ^ F".format(operands[0])
            else:
                try:
                    joiner, suffix = self._OPS[gtype]
                except KeyError:
                    raise NetlistError(
                        "unknown gate type: {!r}".format(gtype)) from None
                expr = joiner.join(operands)
                if suffix:
                    expr = "({}){}".format(expr, suffix) if len(operands) > 1 \
                        else expr + suffix
            name = "g{}".format(j)
            names[net] = name
            lines.append(" {} = {}".format(name, expr))
        lines.append(" return [{}]".format(
            ", ".join(names[net] for net in self.net_order)))
        src = "def _kernel(E, F):\n" + "\n".join(lines or [" return []"])
        namespace = {}
        exec(compile(src, "<CompiledSim:{}>".format(self.circuit.name),
                     "exec"), namespace)
        return namespace["_kernel"]

    # -- evaluation -------------------------------------------------------

    def eval_words(self, leaves, full):
        """One frame from pre-masked leaf words (inputs then registers)."""
        return self._kernel(leaves, full)

    def eval(self, env, width):
        """Drop-in equivalent of ``bit_parallel_eval(circuit, env, width)``."""
        full = _mask(width)
        try:
            leaves = [env[net] & full for net in self.inputs]
            leaves += [env[net] & full for net in self.registers]
        except KeyError as exc:
            raise _missing_env_error(self.circuit, exc.args[0]) from None
        return dict(zip(self.net_order, self._kernel(leaves, full)))

    def next_state_words(self, words):
        """Register next-state words from a frame's full word list."""
        return [words[i] for i in self.next_state_slots]

    def replay(self, initial_state, input_frames):
        """Single-pattern replay; mirrors ``cexsplit.replay_pattern``.

        ``initial_state`` maps register nets to 0/1; ``input_frames`` is one
        ``{input: 0/1}`` dict per frame.  Returns the full 0/1 valuation dict
        of every frame.
        """
        state = [int(bool(initial_state[net])) for net in self.registers]
        frames = []
        for inputs in input_frames:
            leaves = [int(bool(inputs[net])) for net in self.inputs] + state
            words = self._kernel(leaves, 1)
            frames.append(dict(zip(self.net_order, words)))
            state = [words[i] for i in self.next_state_slots]
        return frames

    def replay_words(self, state_words, input_frame_words, width):
        """Multi-pattern replay over packed words.

        ``state_words`` packs one bit per pattern for each register (in
        ``self.registers`` order); ``input_frame_words`` is one word list per
        frame (in ``self.inputs`` order).  Returns the full word list of
        every frame (see :func:`repro.core.cexsplit.replay_packed`).
        """
        full = _mask(width)
        state = [w & full for w in state_words]
        frames = []
        for inputs in input_frame_words:
            leaves = [w & full for w in inputs] + state
            words = self._kernel(leaves, full)
            frames.append(words)
            state = [words[i] for i in self.next_state_slots]
        return frames


def make_sim(circuit):
    """Build the simulation kernel for ``circuit`` (a :class:`CompiledSim`).

    The one constructor partition seeding, counterexample replay and fuzz
    replay go through.
    """
    return CompiledSim(circuit)


class SequentialSimulator:
    """Runs a circuit from its initial state with random input patterns.

    All ``width`` parallel patterns start in the circuit's initial state and
    evolve independently under per-frame random inputs.  Per-net *signatures*
    (the concatenation of all frame masks) distinguish any two signals that
    differ in some simulated reachable state — a sound pre-filter for the
    signal correspondence partition (§4 of the paper).
    """

    def __init__(self, circuit, width=64, seed=2024, compiled=None):
        self.sim = compiled if compiled is not None else CompiledSim(circuit)
        self.circuit = circuit
        self.width = width
        self.rng = random.Random(seed)
        full = _mask(width)
        init = circuit.initial_state()
        self._state_words = [
            full if init[net] else 0 for net in self.sim.registers
        ]
        self._signature_words = [0] * len(self.sim.net_order)
        self.frames_run = 0
        self.first_frame_inputs = None

    @property
    def state(self):
        """Current register words (``{register: word}``)."""
        return dict(zip(self.sim.registers, self._state_words))

    @property
    def signatures(self):
        """Per-net signatures (``{net: int}``) accumulated so far."""
        return dict(zip(self.sim.net_order, self._signature_words))

    def step(self):
        """Advance one frame; returns the frame's full valuation."""
        width = self.width
        rng = self.rng
        inputs = [rng.getrandbits(width) for _ in self.sim.inputs]
        if self.first_frame_inputs is None:
            self.first_frame_inputs = dict(zip(self.sim.inputs, inputs))
        words = self.sim.eval_words(inputs + self._state_words, _mask(width))
        sigs = self._signature_words
        for i, word in enumerate(words):
            sigs[i] = (sigs[i] << width) | word
        self._state_words = self.sim.next_state_words(words)
        self.frames_run += 1
        return dict(zip(self.sim.net_order, words))

    def run(self, frames):
        """Run ``frames`` frames; returns the signature map."""
        for _ in range(frames):
            self.step()
        return self.signatures

    def signature_bits(self):
        """Total number of signature bits accumulated so far."""
        return self.frames_run * self.width


# ----------------------------------------------------------------------
# Three-valued simulation
# ----------------------------------------------------------------------

X = (0, 0)


def tv_const(value, width=1):
    """Ternary constant: True/False/None → (ones, zeros)."""
    full = _mask(width)
    if value is None:
        return (0, 0)
    return (full, 0) if value else (0, full)


def ternary_eval(circuit, env, width=1):
    """Three-valued evaluation of one frame.

    ``env`` maps inputs and register outputs to ``(ones, zeros)`` pairs.
    Returns the same encoding for every net.
    """
    values = {}
    for net in list(circuit.inputs) + list(circuit.registers):
        values[net] = env.get(net, X)
    full = _mask(width)
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        operands = [values[f] for f in gate.fanins]
        values[name] = _ternary_gate(gate.gtype, operands, full)
    return values


def _ternary_gate(gtype, operands, full):
    if gtype in (GateType.AND, GateType.NAND):
        ones, zeros = full, 0
        for o, z in operands:
            ones &= o
            zeros |= z
        if gtype is GateType.NAND:
            ones, zeros = zeros, ones
        return ones, zeros
    if gtype in (GateType.OR, GateType.NOR):
        ones, zeros = 0, full
        for o, z in operands:
            ones |= o
            zeros &= z
        if gtype is GateType.NOR:
            ones, zeros = zeros, ones
        return ones, zeros
    if gtype in (GateType.XOR, GateType.XNOR):
        ones, zeros = operands[0]
        for o, z in operands[1:]:
            ones, zeros = (ones & z) | (zeros & o), (ones & o) | (zeros & z)
        if gtype is GateType.XNOR:
            ones, zeros = zeros, ones
        return ones, zeros
    if gtype is GateType.NOT:
        ones, zeros = operands[0]
        return zeros, ones
    if gtype is GateType.BUF:
        return operands[0]
    if gtype is GateType.CONST0:
        return 0, full
    if gtype is GateType.CONST1:
        return full, 0
    raise NetlistError("unknown gate type: {!r}".format(gtype))


def x_initialized_fixpoint(circuit, max_frames=64):
    """Three-valued reachability of register values from the all-X state.

    Repeatedly simulates with X inputs until register knowledge stabilizes.
    Registers that settle to a known constant regardless of inputs are
    self-initializing; the rest stay X.  Returns ``{register: True/False/None}``.
    """
    state = {net: X for net in circuit.registers}
    for _ in range(max_frames):
        env = {net: X for net in circuit.inputs}
        env.update(state)
        values = ternary_eval(circuit, env)
        new_state = {
            name: values[reg.data_in] for name, reg in circuit.registers.items()
        }
        if new_state == state:
            break
        state = new_state
    result = {}
    for net, (ones, zeros) in state.items():
        if ones and not zeros:
            result[net] = True
        elif zeros and not ones:
            result[net] = False
        else:
            result[net] = None
    return result
