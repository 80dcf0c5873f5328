"""Parametric sequential circuit generators.

The ISCAS'89 netlists themselves are not redistributable here, so the
Table-1 suite is generated from the structural motifs the real circuits are
built from — counters and fraction counters (the s208/s420/s838 family),
shift chains and LFSRs, decoded control FSMs, and shared combinational
cones — with register counts matching the real benchmarks.  Supports are
kept local, which is the property of the real circuits that makes their
next-state BDDs tractable (and which the paper's method exploits).

Everything is deterministic in the seed.
"""

import random

from ..netlist.circuit import Circuit, GateType

_BINARY = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
           GateType.XOR, GateType.XNOR]


class _Builder:
    """Incremental construction context shared by the motifs."""

    def __init__(self, name, n_inputs, seed):
        self.circuit = Circuit(name)
        self.rng = random.Random(seed)
        for i in range(n_inputs):
            self.circuit.add_input("in{}".format(i))
        self.module_count = 0
        self.taps = list(self.circuit.inputs)  # observable signals so far
        self.observe = []  # one representative signal per motif

    def input_signal(self):
        return self.rng.choice(self.circuit.inputs)

    def local_tap(self, span=12):
        """A recently created signal (keeps supports local)."""
        window = self.taps[-span:] if span is not None else self.taps
        return self.rng.choice(window)

    def fresh(self, stem):
        self.module_count += 1
        return "{}_{}".format(stem, self.module_count)


def add_counter(builder, bits, enable=None):
    """Binary up-counter; the s208/s420/s838 fraction-counter motif."""
    c = builder.circuit
    prefix = builder.fresh("cnt")
    if enable is None:
        enable = builder.input_signal()
    regs = []
    for i in range(bits):
        regs.append(c.add_register("{}_q{}".format(prefix, i), "__pending",
                                   init=False))
    carry = enable
    for i, q in enumerate(regs):
        d = "{}_d{}".format(prefix, i)
        c.add_gate(d, GateType.XOR, [q, carry])
        c.set_register_input(q, d)
        if i < bits - 1:
            nxt = "{}_c{}".format(prefix, i)
            c.add_gate(nxt, GateType.AND, [q, carry])
            carry = nxt
    builder.taps.extend(regs)
    builder.observe.append(regs[-1])
    return regs


def add_shift_chain(builder, bits, data=None):
    """Serial shift register fed by an existing signal."""
    c = builder.circuit
    prefix = builder.fresh("sh")
    if data is None:
        data = builder.local_tap()
    regs = []
    src = data
    for i in range(bits):
        q = c.add_register("{}_q{}".format(prefix, i), src,
                           init=builder.rng.random() < 0.3)
        regs.append(q)
        src = q
    builder.taps.extend(regs)
    builder.observe.append(regs[-1])
    return regs


def add_lfsr(builder, bits):
    """Fibonacci LFSR with random taps (initialized non-zero)."""
    c = builder.circuit
    prefix = builder.fresh("lfsr")
    regs = []
    for i in range(bits):
        regs.append(c.add_register("{}_q{}".format(prefix, i), "__pending",
                                   init=(i == 0)))
    n_taps = builder.rng.randint(2, min(4, bits))
    taps = builder.rng.sample(regs, n_taps)
    feedback = "{}_fb".format(prefix)
    c.add_gate(feedback, GateType.XOR, taps)
    src = feedback
    for q in regs:
        c.set_register_input(q, src)
        src = q
    builder.taps.extend(regs)
    builder.observe.append(regs[-1])
    return regs


def add_control_fsm(builder, bits, n_inputs_used=2):
    """Random Moore-style control FSM: each state bit reloads from a small
    random cone over the state bits and a couple of inputs."""
    c = builder.circuit
    rng = builder.rng
    prefix = builder.fresh("fsm")
    regs = []
    for i in range(bits):
        regs.append(c.add_register("{}_q{}".format(prefix, i), "__pending",
                                   init=rng.random() < 0.4))
    controls = [builder.input_signal() for _ in range(n_inputs_used)]
    for i, q in enumerate(regs):
        sources = regs + controls
        depth = rng.randint(1, 2)
        current = rng.sample(sources, min(len(sources), rng.randint(2, 3)))
        net = None
        for level in range(depth):
            gtype = rng.choice(_BINARY)
            net = "{}_l{}_{}".format(prefix, level, i)
            c.add_gate(net, gtype, current)
            current = [net, rng.choice(sources)]
        c.set_register_input(q, net)
    builder.taps.extend(regs)
    # Random FSM bits are not guaranteed to feed one another, so every bit
    # is observed individually (counters/chains only need their last stage).
    builder.observe.extend(regs)
    return regs


def add_multiplier_mixer(builder, width):
    """Array multiplier over two register words; its middle product bits
    have exponential BDDs under every variable order — the motif that makes
    the s3384/s6669-class circuits defeat BDD-based engines."""
    c = builder.circuit
    rng = builder.rng
    prefix = builder.fresh("mul")
    a_regs = add_shift_chain(builder, width, data=builder.input_signal())
    b_regs = add_lfsr(builder, width)
    # Partial products.
    rows = []
    for i in range(width):
        row = []
        for j in range(width):
            pp = "{}_pp{}_{}".format(prefix, i, j)
            c.add_gate(pp, GateType.AND, [a_regs[i], b_regs[j]])
            row.append(pp)
        rows.append(row)
    # Carry-save reduction along anti-diagonals (ripple style).
    acc = rows[0]
    for i in range(1, width):
        nxt = []
        carry = None
        for j in range(width - i):
            s = "{}_s{}_{}".format(prefix, i, j)
            operands = [acc[j + 1] if j + 1 < len(acc) else rows[i][j],
                        rows[i][j]]
            if carry is not None:
                operands.append(carry)
            c.add_gate(s, GateType.XOR, operands)
            carry_net = "{}_c{}_{}".format(prefix, i, j)
            c.add_gate(carry_net, GateType.AND, operands[:2])
            carry = carry_net
            nxt.append(s)
        acc = nxt if nxt else acc
    out = acc[0] if acc else rows[0][0]
    builder.taps.append(out)
    builder.observe.append(out)
    return out


def add_output_cone(builder, depth=3, span=16):
    """A small random combinational cone; ``span=None`` samples globally."""
    c = builder.circuit
    rng = builder.rng
    prefix = builder.fresh("po")
    current = [builder.local_tap(span) for _ in range(rng.randint(2, 3))]
    net = current[0]
    for level in range(depth):
        gtype = rng.choice(_BINARY)
        net = "{}_l{}".format(prefix, level)
        c.add_gate(net, gtype, current)
        current = [net, builder.local_tap(span)]
    return net


def generate_benchmark(name, n_regs, n_inputs=4, n_outputs=None, seed=0,
                       deep_counter_bits=0, mixer_width=0):
    """Generate an ISCAS-like sequential benchmark.

    ``deep_counter_bits`` forces one large counter (the deep-state-space
    s838 shape); ``mixer_width`` adds a multiplier mixer (the BDD-hostile
    s3384/s6669 shape).  Remaining registers are spread over random motifs.
    """
    builder = _Builder(name, n_inputs, seed)
    remaining = n_regs
    if deep_counter_bits:
        used = min(deep_counter_bits, remaining)
        add_counter(builder, used)
        remaining -= used
    if mixer_width and remaining >= 2 * mixer_width:
        add_multiplier_mixer(builder, mixer_width)
        remaining -= 2 * mixer_width
    rng = builder.rng
    while remaining > 0:
        motif = rng.choice(["counter", "shift", "lfsr", "fsm"])
        size = min(remaining, rng.randint(3, 8))
        if motif == "counter":
            add_counter(builder, size)
        elif motif == "shift":
            add_shift_chain(builder, size)
        elif motif == "lfsr" and size >= 3:
            add_lfsr(builder, size)
        else:
            add_control_fsm(builder, size)
        remaining -= size
    circuit = builder.circuit
    if n_outputs is None:
        n_outputs = max(2, n_regs // 8)
    for _ in range(n_outputs):
        circuit.add_output(add_output_cone(builder, span=None))
    # Parity checksums over representative signals keep every module
    # observable (nothing is synthesized away as dead logic).  Chunked into
    # narrow XORs so no single output cone observes the whole register file.
    observe = builder.observe
    if len(observe) >= 2:
        for idx in range(0, len(observe), 8):
            chunk = observe[idx:idx + 8]
            if len(chunk) == 1:
                circuit.add_output(chunk[0])
                continue
            name = "po_checksum{}".format(idx // 8)
            circuit.add_gate(name, GateType.XOR, chunk)
            circuit.add_output(name)
    elif observe:
        circuit.add_output(observe[0])
    circuit.validate()
    return circuit


# --------------------------------------------------------------------------
# Datapath pairs: arithmetic circuits equivalent (or buggy) by construction
# --------------------------------------------------------------------------
#
# The word-level literature (arXiv:2308.00431, arXiv:2501.14740) stresses
# that arithmetic datapaths are where AIG-level sweeping behaves worst:
# internal equivalences are scarce, so the engines must reason through
# carry chains instead of merging nodes.  Each family below builds one
# function two structurally different ways — the pair is *equivalent by
# construction* — or, with ``bug`` set, plants one classic arithmetic bug
# so the pair is *inequivalent by construction* with a depth-1
# counterexample.  Operands are registered (loaded from primary inputs
# every cycle), which makes every pair genuinely sequential while keeping
# register counts small enough for the traversal baseline to discharge the
# label.

DATAPATH_FAMILIES = ("adder", "multiplier", "mux", "shifter")


def _registered_word(circuit, prefix, width):
    """``width`` primary inputs loaded into registers each cycle; the
    datapath computes on the registered copies."""
    regs = []
    for i in range(width):
        pin = circuit.add_input("{}{}".format(prefix, i))
        regs.append(circuit.add_register("{}_r{}".format(prefix, i), pin,
                                         init=False))
    return regs


def _full_adder(c, prefix, a, b, cin=None):
    """Returns (sum, carry) nets; half adder when ``cin`` is None."""
    t = c.add_gate("{}_t".format(prefix), GateType.XOR, [a, b])
    g = c.add_gate("{}_g".format(prefix), GateType.AND, [a, b])
    if cin is None:
        return t, g
    s = c.add_gate("{}_s".format(prefix), GateType.XOR, [t, cin])
    p = c.add_gate("{}_p".format(prefix), GateType.AND, [t, cin])
    cout = c.add_gate("{}_c".format(prefix), GateType.OR, [g, p])
    return s, cout


def _mux2(c, name, sel, then_net, else_net):
    ns = c.add_gate("{}_ns".format(name), GateType.NOT, [sel])
    hi = c.add_gate("{}_hi".format(name), GateType.AND, [sel, then_net])
    lo = c.add_gate("{}_lo".format(name), GateType.AND, [ns, else_net])
    return c.add_gate(name, GateType.OR, [hi, lo])


def _ripple_adder(c, a, b, cin, prefix, bug=None):
    """Sum bits plus carry-out.  ``bug="xor_carry"`` replaces the final
    stage's majority carry with a plain XOR (wrong when exactly two of the
    three operand bits are set)."""
    sums, carry = [], cin
    for i in range(len(a)):
        stem = "{}_fa{}".format(prefix, i)
        if bug == "xor_carry" and i == len(a) - 1:
            s = c.add_gate("{}_s".format(stem), GateType.XOR,
                           [a[i], b[i], carry])
            carry = c.add_gate("{}_c".format(stem), GateType.XOR,
                               [a[i], b[i]])
            sums.append(s)
            continue
        s, carry = _full_adder(c, stem, a[i], b[i], carry)
        sums.append(s)
    return sums, carry


def _carry_select_adder(c, a, b, cin, prefix):
    """Per-bit carry select: both carry polarities precomputed, the real
    carry picks.  Same function as the ripple adder, different structure."""
    sums, carry = [], cin
    for i in range(len(a)):
        stem = "{}_cs{}".format(prefix, i)
        t = c.add_gate("{}_t".format(stem), GateType.XOR, [a[i], b[i]])
        # carry-out with cin=0 is a&b; with cin=1 it is a|b.
        c0 = c.add_gate("{}_c0".format(stem), GateType.AND, [a[i], b[i]])
        c1 = c.add_gate("{}_c1".format(stem), GateType.OR, [a[i], b[i]])
        s = c.add_gate("{}_s".format(stem), GateType.XNOR,
                       [t, c.add_gate("{}_nc".format(stem), GateType.NOT,
                                      [carry])])
        sums.append(s)
        carry = _mux2(c, "{}_cmux".format(stem), carry, c1, c0)
    return sums, carry


def _adder_pair(width, bug):
    spec = Circuit("add{}_ripple".format(width))
    a = _registered_word(spec, "a", width)
    b = _registered_word(spec, "b", width)
    cin = spec.add_input("cin")
    cin_r = spec.add_register("cin_r", "cin", init=False)
    sums, cout = _ripple_adder(spec, a, b, cin_r, "add")
    for s in sums:
        spec.add_output(s)
    spec.add_output(cout)

    impl = Circuit("add{}_select".format(width))
    a = _registered_word(impl, "a", width)
    b = _registered_word(impl, "b", width)
    impl.add_input("cin")
    cin_r = impl.add_register("cin_r", "cin", init=False)
    if bug:
        sums, cout = _ripple_adder(impl, a, b, cin_r, "add",
                                   bug="xor_carry")
    else:
        sums, cout = _carry_select_adder(impl, a, b, cin_r, "add")
    for s in sums:
        impl.add_output(s)
    impl.add_output(cout)
    return spec, impl


def _compress_columns(c, columns, width, prefix, reverse=False):
    """Reduce per-column partial-product lists to one bit per column with
    full/half adders (modulo ``2**width``).  ``reverse`` picks operands
    from the back of each column — a different but function-preserving
    reduction order, so forward and reverse compressions are equivalent by
    construction."""
    counter = [0]
    for i in range(width):
        col = columns[i]
        while len(col) > 1:
            stem = "{}_m{}_{}".format(prefix, i, counter[0])
            counter[0] += 1
            if reverse:
                operands = [col.pop(), col.pop()]
            else:
                operands = [col.pop(0), col.pop(0)]
            cin = None
            if col:
                cin = col.pop() if reverse else col.pop(0)
            s, carry = _full_adder(c, stem, operands[0], operands[1],
                                   cin=cin)
            col.append(s)
            if i + 1 < width:
                columns[i + 1].append(carry)
    return [columns[i][0] for i in range(width)]


def _partial_products(c, a, b, width, prefix, bug=False):
    """AND partial products by column weight.  ``bug`` replaces the
    weight-0 product with an OR — the planted multiplier bug (wrong
    whenever exactly one of ``a0``/``b0`` is set), distinguishable at
    every width."""
    columns = [[] for _ in range(width)]
    for i in range(width):
        for j in range(width - i):
            gtype = GateType.OR if bug and i == 0 and j == 0 else GateType.AND
            pp = c.add_gate("{}_pp{}_{}".format(prefix, i, j), gtype,
                            [a[i], b[j]])
            columns[i + j].append(pp)
    return columns


def _multiplier_pair(width, bug):
    spec = Circuit("mul{}_fwd".format(width))
    a = _registered_word(spec, "a", width)
    b = _registered_word(spec, "b", width)
    for net in _compress_columns(spec, _partial_products(spec, a, b, width,
                                                         "mul"),
                                 width, "mul"):
        spec.add_output(net)

    impl = Circuit("mul{}_rev".format(width))
    a = _registered_word(impl, "a", width)
    b = _registered_word(impl, "b", width)
    for net in _compress_columns(impl, _partial_products(impl, a, b, width,
                                                         "mul",
                                                         bug=bool(bug)),
                                 width, "mul", reverse=True):
        impl.add_output(net)
    return spec, impl


def _mux_tree_pair(select_bits, bug):
    n_leaves = 1 << select_bits
    spec = Circuit("mux{}_tree".format(select_bits))
    d = _registered_word(spec, "d", n_leaves)
    s = _registered_word(spec, "s", select_bits)
    level = list(d)
    for bit in range(select_bits):
        level = [
            _mux2(spec, "mx_{}_{}".format(bit, k), s[bit],
                  level[2 * k + 1], level[2 * k])
            for k in range(len(level) // 2)
        ]
    spec.add_output(level[0])

    impl = Circuit("mux{}_onehot".format(select_bits))
    d = _registered_word(impl, "d", n_leaves)
    s = _registered_word(impl, "s", select_bits)
    inv = [impl.add_gate("ns{}".format(bit), GateType.NOT, [s[bit]])
           for bit in range(select_bits)]
    terms = []
    for leaf in range(n_leaves):
        # The classic decode bug: leaves 0 and 1 swapped.
        source = leaf
        if bug and leaf in (0, 1):
            source = 1 - leaf
        fanins = [d[source]]
        for bit in range(select_bits):
            fanins.append(s[bit] if (leaf >> bit) & 1 else inv[bit])
        terms.append(impl.add_gate("term{}".format(leaf), GateType.AND,
                                   fanins))
    impl.add_output(impl.add_gate("onehot_out", GateType.OR, terms))
    return spec, impl


def _rotate_stage(c, word, sel, amount, prefix):
    width = len(word)
    return [
        _mux2(c, "{}_b{}".format(prefix, i), sel,
              word[(i - amount) % width], word[i])
        for i in range(width)
    ]


def _shifter_pair(width, select_bits, bug):
    spec = Circuit("rot{}_lsb".format(width))
    d = _registered_word(spec, "d", width)
    s = _registered_word(spec, "s", select_bits)
    word = list(d)
    for bit in range(select_bits):
        word = _rotate_stage(spec, word, s[bit], 1 << bit,
                             "st{}".format(bit))
    for net in word:
        spec.add_output(net)

    # Rotations by fixed amounts commute, so msb-first stages compute the
    # same rotation.
    impl = Circuit("rot{}_msb".format(width))
    d = _registered_word(impl, "d", width)
    s = _registered_word(impl, "s", select_bits)
    word = list(d)
    for bit in reversed(range(select_bits)):
        if bug and bit == select_bits - 1:
            # Dropped stage: the top select bit is ignored.
            continue
        word = _rotate_stage(impl, word, s[bit], 1 << bit,
                             "st{}".format(bit))
    for net in word:
        impl.add_output(net)
    return spec, impl


def datapath_pair(family, width=3, bug=False, seed=0):
    """Build one datapath (spec, impl) pair.

    ``family`` is one of :data:`DATAPATH_FAMILIES`; ``width`` is the
    operand width (mux: select bits; shifter: word width).  With ``bug``
    False the pair is equivalent by construction; with ``bug`` True the
    implementation carries one planted arithmetic bug and the pair is
    inequivalent with a shallow counterexample.  ``seed`` is accepted for
    recipe-format uniformity (construction is deterministic).
    """
    del seed
    if family == "adder":
        spec, impl = _adder_pair(max(2, min(width, 4)), bug)
    elif family == "multiplier":
        spec, impl = _multiplier_pair(max(2, min(width, 3)), bug)
    elif family == "mux":
        spec, impl = _mux_tree_pair(max(1, min(width, 2)), bug)
    elif family == "shifter":
        # Width >= 3 keeps every stage's rotation non-trivial (a rotate-by-2
        # over 2 bits is the identity, which would unplant the bug).
        spec, impl = _shifter_pair(max(3, min(width, 4)), 2, bug)
    else:
        raise ValueError("unknown datapath family {!r}; known: {}".format(
            family, ", ".join(DATAPATH_FAMILIES)))
    spec.validate()
    impl.validate()
    return spec, impl


def delay_line_pair(delay, width=8):
    """A pair whose BMC refutation depth — and hence runtime — is dialable.

    The spec's single output is constantly 0.  The impl hides a one-hot
    token at the far end of a ``delay``-register shift line; the token
    reaches the output after exactly ``delay - 1`` cycles, so the pair is
    inequivalent with its first counterexample at a known depth.  A
    ``width``-input XOR mixing layer feeds parasitic registers to give
    every unrolled frame real solver work: at width 8, ``delay=1500`` is
    roughly 1.5 s of BMC and ``delay=2000`` roughly 2.2 s on one 2025-era
    core, about linear in the delay.  The fleet tests use it as a *finite* long-running job — long
    enough to SIGKILL a worker mid-solve, deterministic enough that the
    survivor's verdict must match a single daemon's.  Use matched-order
    outputs (the output names differ deliberately).
    """
    if delay < 1:
        raise ValueError("delay must be >= 1")
    spec = Circuit("delay{}_spec".format(delay))
    for w in range(width):
        spec.add_input("a{}".format(w))
    spec.add_register("z", "z", init=False)
    spec.add_gate("o", GateType.BUF, ["z"])
    spec.add_output("o")

    impl = Circuit("delay{}_impl".format(delay))
    for w in range(width):
        impl.add_input("a{}".format(w))
    impl.add_register("zero", "zero", init=False)
    prev = "a0"
    for w in range(1, width):
        impl.add_gate("mix{}".format(w), GateType.XOR,
                      [prev, "a{}".format(w)])
        prev = "mix{}".format(w)
    for w in range(width):
        impl.add_register("m{}".format(w), prev, init=False)
    # The mixing registers are anchored below the delay line (ANDed with
    # the constant-0 register) so optimization cannot drop them, yet the
    # token's arrival is unaffected.
    impl.add_gate("mz", GateType.AND, ["m0", "zero"])
    for i in range(delay):
        src = "r{}".format(i + 1) if i + 1 < delay else "mz"
        impl.add_register("r{}".format(i), src, init=(i == delay - 1))
    impl.add_gate("out", GateType.BUF, ["r0"])
    impl.add_output("out")
    return spec, impl
