"""Berkeley Logic Interchange Format (BLIF) reader and writer.

Supports the combinational + latch subset used for equivalence-checking
workloads: ``.model``, ``.inputs``, ``.outputs``, ``.names`` (PLA covers),
``.latch`` (with optional init value) and ``.end``.  Covers are converted to
AND/OR/NOT gate networks on input; on output every gate is serialized as a
single-cube or XOR-expanded cover.  A latch init value must be ``0`` or
``1`` (default ``0``): the don't-care and unknown values ``2`` and ``3``
are rejected, because equivalence from the initial state needs one.
"""

from .circuit import Circuit, GateType
from ..errors import ParseError


def loads(text, name=None):
    """Parse BLIF text into a validated :class:`Circuit`."""
    lines = _logical_lines(text)
    circuit = None
    i = 0
    while i < len(lines):
        lineno, tokens = lines[i]
        head = tokens[0]
        if head == ".model":
            model_name = tokens[1] if len(tokens) > 1 else "blif"
            circuit = Circuit(name or model_name)
            i += 1
        elif head == ".inputs":
            _require(circuit, lineno)
            for net in tokens[1:]:
                circuit.add_input(net)
            i += 1
        elif head == ".outputs":
            _require(circuit, lineno)
            for net in tokens[1:]:
                circuit.add_output(net)
            i += 1
        elif head == ".latch":
            _require(circuit, lineno)
            if len(tokens) < 3:
                raise ParseError(".latch needs input and output", lineno)
            if len(tokens) > 6:
                raise ParseError("too many .latch fields", lineno)
            # .latch <in> <out> [<type> <control>] [<init>]
            data_in, out = tokens[1], tokens[2]
            init = "0"
            if len(tokens) in (4, 6):
                init = tokens[-1]
            if init not in ("0", "1"):
                raise ParseError(
                    ".latch init must be 0 or 1, got {!r}".format(init),
                    lineno)
            circuit.add_register(out, data_in, init=init == "1")
            i += 1
        elif head == ".names":
            _require(circuit, lineno)
            nets = tokens[1:]
            if not nets:
                raise ParseError(".names needs at least an output", lineno)
            output, fanins = nets[-1], nets[:-1]
            cover = []
            i += 1
            while i < len(lines) and not lines[i][1][0].startswith("."):
                row_line, row = lines[i]
                if len(fanins) == 0:
                    if len(row) != 1:
                        raise ParseError("bad constant cover row", row_line)
                    cover.append(("", row[0]))
                else:
                    if len(row) != 2:
                        raise ParseError("bad cover row", row_line)
                    cover.append((row[0], row[1]))
                i += 1
            _build_cover(circuit, output, fanins, cover, lineno)
        elif head == ".end":
            i += 1
        else:
            raise ParseError("unsupported construct {!r}".format(head), lineno)
    if circuit is None:
        raise ParseError("no .model found")
    circuit.validate()
    return circuit


def _logical_lines(text):
    """Strip comments, join ``\\`` continuations, tokenize."""
    merged = []
    pending = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = pending + line
        pending = ""
        tokens = line.split()
        if tokens:
            merged.append((lineno, tokens))
    return merged


def _require(circuit, lineno):
    if circuit is None:
        raise ParseError("statement before .model", lineno)


def _build_cover(circuit, output, fanins, cover, lineno):
    """Expand a PLA cover into AND/OR/NOT gates with output net ``output``."""
    if not fanins:
        # Constant: a single row "1" means const 1; empty cover means const 0.
        value = bool(cover) and cover[0][1] == "1"
        circuit.add_gate(output, GateType.CONST1 if value else GateType.CONST0, [])
        return
    if not cover:
        circuit.add_gate(output, GateType.CONST0, [])
        return
    on_set = all(out_bit == "1" for _, out_bit in cover)
    off_set = all(out_bit == "0" for _, out_bit in cover)
    if not on_set and not off_set:
        raise ParseError("mixed on/off cover for {!r}".format(output), lineno)
    inverters = {}

    def literal(net, positive):
        if positive:
            return net
        inv = inverters.get(net)
        if inv is None:
            inv = circuit.fresh_name("{}_not".format(output))
            circuit.add_gate(inv, GateType.NOT, [net])
            inverters[net] = inv
        return inv

    terms = []
    for row, (in_bits, _) in enumerate(cover):
        if len(in_bits) != len(fanins):
            raise ParseError(
                "cover row width mismatch for {!r}".format(output), lineno
            )
        literals = []
        for bit, net in zip(in_bits, fanins):
            if bit == "1":
                literals.append(literal(net, True))
            elif bit == "0":
                literals.append(literal(net, False))
            elif bit != "-":
                raise ParseError("bad cover character {!r}".format(bit), lineno)
        if not literals:
            # A row of all don't-cares makes the function constant true.
            terms = [None]
            break
        if len(literals) == 1:
            terms.append(literals[0])
        else:
            term_net = circuit.fresh_name("{}_t{}".format(output, row))
            circuit.add_gate(term_net, GateType.AND, literals)
            terms.append(term_net)
    final_positive = on_set
    if terms == [None]:
        circuit.add_gate(
            output, GateType.CONST1 if final_positive else GateType.CONST0, []
        )
        return
    if len(terms) == 1:
        gtype = GateType.BUF if final_positive else GateType.NOT
        circuit.add_gate(output, gtype, [terms[0]])
        return
    gtype = GateType.OR if final_positive else GateType.NOR
    circuit.add_gate(output, gtype, terms)


def load(path, name=None):
    """Parse a BLIF file from disk."""
    with open(path) as handle:
        return loads(handle.read(), name=name)


_GATE_COVERS = {
    GateType.BUF: lambda n: [("1", "1")],
    GateType.NOT: lambda n: [("0", "1")],
    GateType.AND: lambda n: [("1" * n, "1")],
    GateType.NAND: lambda n: [("1" * n, "0")],
    GateType.OR: lambda n: [
        ("-" * i + "1" + "-" * (n - i - 1), "1") for i in range(n)
    ],
    GateType.NOR: lambda n: [("0" * n, "1")],
}


def dumps(circuit):
    """Serialize a circuit to BLIF text."""
    lines = [".model {}".format(circuit.name)]
    if circuit.inputs:
        lines.append(".inputs {}".format(" ".join(circuit.inputs)))
    if circuit.outputs:
        lines.append(".outputs {}".format(" ".join(circuit.outputs)))
    for reg in circuit.registers.values():
        lines.append(
            ".latch {} {} re clk {}".format(reg.data_in, reg.name, int(reg.init))
        )
    for gname in circuit.topo_order():
        gate = circuit.gates[gname]
        if gate.gtype is GateType.CONST0:
            lines.append(".names {}".format(gname))
        elif gate.gtype is GateType.CONST1:
            lines.append(".names {}".format(gname))
            lines.append("1")
        elif gate.gtype in (GateType.XOR, GateType.XNOR):
            lines.extend(_xor_cover(gate))
        else:
            cover = _GATE_COVERS[gate.gtype](len(gate.fanins))
            lines.append(".names {} {}".format(" ".join(gate.fanins), gname))
            for in_bits, out_bit in cover:
                lines.append("{} {}".format(in_bits, out_bit) if in_bits else out_bit)
    lines.append(".end")
    return "\n".join(lines) + "\n"


def _xor_cover(gate):
    """Enumerate the on-set of an XOR/XNOR gate (arity is small in practice)."""
    n = len(gate.fanins)
    want_odd = gate.gtype is GateType.XOR
    rows = []
    for bits in range(1 << n):
        ones = bin(bits).count("1")
        if (ones % 2 == 1) == want_odd:
            pattern = format(bits, "0{}b".format(n))
            rows.append("{} 1".format(pattern))
    header = ".names {} {}".format(" ".join(gate.fanins), gate.name)
    return [header] + rows


def dump(circuit, path):
    """Write a circuit to a BLIF file."""
    with open(path, "w") as handle:
        handle.write(dumps(circuit))
