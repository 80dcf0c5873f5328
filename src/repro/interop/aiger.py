"""Full AIGER reader/writer: ascii ``.aag`` and binary ``.aig``.

Implements the AIGER format (Biere, FMV TR 07/1, plus the 1.9 reset-value
extension) over the existing :class:`repro.netlist.aig.Aig` class:

* both the ascii (``aag``) and the binary delta-encoded (``aig``) variant;
* latches with explicit reset values ``0``/``1`` (the 1.9 "reset is the
  latch's own literal" spelling of an *uninitialized* latch is rejected
  with a clear error — the paper's model requires a known initial state);
* input/latch/output symbol tables and trailing comment sections;
* canonical re-encoding (:func:`reencode`): inputs ``1..I``, latches
  ``I+1..I+L``, AND nodes topologically ordered after them — the numbering
  the binary format requires, and the normal form the format-independent
  cache fingerprint hashes.

Circuit-level entry points (:func:`read_aiger_circuit`,
:func:`write_aiger_circuit`) convert losslessly to and from
:class:`repro.netlist.Circuit`: input and latch names survive via the
symbol table, initial values via reset values, and the per-frame output
functions exactly — so an AIGER-born circuit is verdict-identical to its
``.bench`` encoding under every engine.
"""

from ..errors import ParseError
from ..netlist.aig import (
    Aig,
    from_circuit,
    lit_neg,
    lit_sign,
    lit_var,
    to_circuit,
)

ASCII_MAGIC = b"aag"
BINARY_MAGIC = b"aig"


# --------------------------------------------------------------------------
# Canonical re-encoding
# --------------------------------------------------------------------------


def reencode(aig):
    """Renumber an AIG into the canonical AIGER variable order.

    Inputs become variables ``1..I`` (declaration order), latches
    ``I+1..I+L``, and AND nodes ``I+L+1..M`` in topological order — every
    node's fanins precede it, which is what the binary format's delta
    encoding requires.  Node structure is preserved verbatim (no
    simplification), as are names, output names and comments.  Returns a
    fresh :class:`Aig`.
    """
    out = Aig()
    mapping = {0: 0}
    for var in aig.inputs:
        lit = out.add_input(name=aig.names.get(var))
        mapping[var] = lit_var(lit)

    def map_lit(lit):
        var = lit_var(lit)
        if var not in mapping:
            raise ParseError("literal {} references undefined variable "
                             "{}".format(lit, var))
        return 2 * mapping[var] + lit_sign(lit)

    for var, _, init in aig.latches:
        lit = out.add_latch(init=init, name=aig.names.get(var))
        mapping[var] = lit_var(lit)
    for var in aig.topo_vars():
        rhs0, rhs1 = aig.ands[var]
        a, b = map_lit(rhs0), map_lit(rhs1)
        if a < b:
            a, b = b, a
        new_var = out._new_var()
        out.ands[new_var] = (a, b)
        out._strash[(a, b)] = new_var
        mapping[var] = new_var
    for (var, next_lit, init), entry in zip(aig.latches, out.latches):
        entry[1] = map_lit(next_lit)
    for idx, lit in enumerate(aig.outputs):
        out.add_output(map_lit(lit), name=aig.output_names.get(idx))
    out.comments = list(aig.comments)
    return out


def aiger_header_stats(aig):
    """The ``M I L O A`` header counts of an AIG's canonical encoding."""
    n_ands = len(aig.ands)
    n_in, n_latch = len(aig.inputs), len(aig.latches)
    return {
        "M": n_in + n_latch + n_ands,
        "I": n_in,
        "L": n_latch,
        "O": len(aig.outputs),
        "A": n_ands,
    }


# --------------------------------------------------------------------------
# Writers
# --------------------------------------------------------------------------


def _symbol_lines(aig):
    lines = []
    for idx, var in enumerate(aig.inputs):
        if var in aig.names:
            lines.append("i{} {}".format(idx, aig.names[var]))
    for idx, (var, _, _) in enumerate(aig.latches):
        if var in aig.names:
            lines.append("l{} {}".format(idx, aig.names[var]))
    for idx in range(len(aig.outputs)):
        if idx in aig.output_names:
            lines.append("o{} {}".format(idx, aig.output_names[idx]))
    return lines


def _latch_line(var, next_lit, init, ascii_form):
    head = "{} ".format(2 * var) if ascii_form else ""
    if init:
        return "{}{} 1".format(head, next_lit)
    return "{}{}".format(head, next_lit)


def dumps_aiger_ascii(aig, symbols=True, comments=True):
    """Serialize to the ascii ``aag`` variant (canonically renumbered)."""
    aig = reencode(aig)
    stats = aiger_header_stats(aig)
    lines = ["aag {M} {I} {L} {O} {A}".format(**stats)]
    for var in aig.inputs:
        lines.append(str(2 * var))
    for var, next_lit, init in aig.latches:
        lines.append(_latch_line(var, next_lit, init, ascii_form=True))
    for lit in aig.outputs:
        lines.append(str(lit))
    for var in sorted(aig.ands):
        rhs0, rhs1 = aig.ands[var]
        lines.append("{} {} {}".format(2 * var, rhs0, rhs1))
    if symbols:
        lines.extend(_symbol_lines(aig))
    if comments and aig.comments:
        lines.append("c")
        lines.extend(aig.comments)
    return "\n".join(lines) + "\n"


def _put_varint(value, buf):
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def dumps_aiger_binary(aig, symbols=True, comments=True):
    """Serialize to the binary ``aig`` variant (canonically renumbered).

    Returns ``bytes``.  AND nodes are delta-encoded per the AIGER spec:
    each node contributes ``lhs - rhs0`` and ``rhs0 - rhs1`` as 7-bit
    variable-length integers, with ``lhs > rhs0 >= rhs1`` guaranteed by
    the canonical numbering.
    """
    aig = reencode(aig)
    stats = aiger_header_stats(aig)
    lines = ["aig {M} {I} {L} {O} {A}".format(**stats)]
    for var, next_lit, init in aig.latches:
        lines.append(_latch_line(var, next_lit, init, ascii_form=False))
    for lit in aig.outputs:
        lines.append(str(lit))
    buf = bytearray(("\n".join(lines) + "\n").encode("ascii"))
    for var in sorted(aig.ands):
        rhs0, rhs1 = aig.ands[var]
        lhs = 2 * var
        _put_varint(lhs - rhs0, buf)
        _put_varint(rhs0 - rhs1, buf)
    tail = []
    if symbols:
        tail.extend(_symbol_lines(aig))
    if comments and aig.comments:
        tail.append("c")
        tail.extend(aig.comments)
    if tail:
        buf.extend(("\n".join(tail) + "\n").encode("utf-8"))
    return bytes(buf)


# --------------------------------------------------------------------------
# Readers
# --------------------------------------------------------------------------


def _parse_header(line, magic):
    parts = line.split()
    if not parts or parts[0] != magic:
        raise ParseError("not an AIGER {} header: {!r}".format(magic, line))
    if len(parts) < 6:
        raise ParseError("AIGER header needs M I L O A: {!r}".format(line))
    try:
        counts = [int(p) for p in parts[1:]]
    except ValueError:
        raise ParseError("non-numeric AIGER header field: {!r}".format(line))
    if any(c < 0 for c in counts):
        raise ParseError("negative AIGER header field: {!r}".format(line))
    m, i, l, o, a = counts[:5]
    extensions = counts[5:]
    if any(extensions):
        raise ParseError(
            "AIGER extension sections (B/C/J/F) are not supported; this "
            "reader handles the plain M I L O A subset")
    if m < i + l + a:
        raise ParseError(
            "inconsistent AIGER header: M={} < I+L+A={}".format(m, i + l + a))
    return m, i, l, o, a


def _int_field(parts, pos, what, lineno=None):
    """Field ``pos`` of a split body line as an int, else ParseError."""
    if pos >= len(parts):
        raise ParseError("missing {} literal".format(what), lineno)
    try:
        return int(parts[pos])
    except ValueError:
        raise ParseError("non-numeric {} literal {!r}".format(
            what, parts[pos]), lineno)


def _check_lit(lit, max_var, context):
    if lit < 0 or lit_var(lit) > max_var:
        raise ParseError("{} literal {} out of range (max var {})".format(
            context, lit, max_var))
    return lit


def _parse_latch_reset(parts, out_lit, lineno):
    """Decode the optional 1.9 reset field of a latch line."""
    if len(parts) == 0:
        return False
    reset = parts[0]
    if reset == "0":
        return False
    if reset == "1":
        return True
    if reset == str(out_lit):
        raise ParseError(
            "uninitialized latch (reset = its own literal {}) is not "
            "supported: the sequential model requires a known initial "
            "state".format(out_lit), lineno)
    raise ParseError("bad latch reset value {!r}".format(reset), lineno)


def _attach_symbols_and_comments(aig, lines, start_lineno=0):
    """Parse the trailing symbol table and comment section."""
    in_comments = False
    for offset, raw in enumerate(lines):
        line = raw.rstrip("\n")
        if in_comments:
            aig.comments.append(line)
            continue
        if line == "c":
            in_comments = True
            continue
        if not line.strip():
            continue
        kind, _, name = line.partition(" ")
        lineno = start_lineno + offset
        if len(kind) < 2 or kind[0] not in "ilo" or not kind[1:].isdigit():
            raise ParseError(
                "bad symbol table line {!r}".format(line), lineno)
        pos = int(kind[1:])
        try:
            if kind[0] == "i":
                aig.names[aig.inputs[pos]] = name
            elif kind[0] == "l":
                aig.names[aig.latches[pos][0]] = name
            else:
                if pos >= len(aig.outputs):
                    raise IndexError(pos)
                aig.output_names[pos] = name
        except IndexError:
            raise ParseError(
                "symbol {!r} references a missing entry".format(line),
                lineno)


def loads_aiger_ascii(text):
    """Parse the ascii ``aag`` variant into an :class:`Aig`."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty aag file")
    m, i, l, o, a = _parse_header(lines[0], "aag")
    aig = Aig()
    aig.num_vars = m
    idx = 1
    defined = {0}

    def next_line(what):
        nonlocal idx
        if idx >= len(lines):
            raise ParseError("truncated aag file: missing {}".format(what),
                             idx)
        line = lines[idx]
        idx += 1
        return line

    for _ in range(i):
        lineno = idx
        lit = _int_field(next_line("input").split(), 0, "input", lineno)
        if lit_sign(lit) or lit == 0:
            raise ParseError("input literal {} must be positive and "
                             "even".format(lit), lineno)
        var = lit_var(_check_lit(lit, m, "input"))
        if var in defined:
            raise ParseError("variable {} defined twice".format(var), lineno)
        defined.add(var)
        aig.inputs.append(var)
    for _ in range(l):
        lineno = idx
        parts = next_line("latch").split()
        out_lit = _int_field(parts, 0, "latch", lineno)
        next_lit = _int_field(parts, 1, "latch next", lineno)
        if lit_sign(out_lit) or out_lit == 0:
            raise ParseError("latch literal {} must be positive and "
                             "even".format(out_lit), lineno)
        var = lit_var(_check_lit(out_lit, m, "latch"))
        if var in defined:
            raise ParseError("variable {} defined twice".format(var), lineno)
        defined.add(var)
        init = _parse_latch_reset(parts[2:], out_lit, lineno)
        aig.latches.append([var, _check_lit(next_lit, m, "latch next"),
                            init])
    for _ in range(o):
        lineno = idx
        lit = _int_field(next_line("output").split(), 0, "output", lineno)
        aig.outputs.append(_check_lit(lit, m, "output"))
    for _ in range(a):
        lineno = idx
        parts = next_line("and").split()
        if len(parts) != 3:
            raise ParseError("and line needs 'lhs rhs0 rhs1'", lineno)
        lhs, rhs0, rhs1 = (_int_field(parts, k, "and", lineno)
                           for k in range(3))
        if lit_sign(lhs) or lhs == 0:
            raise ParseError("and output literal {} must be positive and "
                             "even".format(lhs), lineno)
        var = lit_var(_check_lit(lhs, m, "and"))
        if var in defined:
            raise ParseError("variable {} defined twice".format(var), lineno)
        defined.add(var)
        _check_lit(rhs0, m, "and fanin")
        _check_lit(rhs1, m, "and fanin")
        if rhs0 < rhs1:
            rhs0, rhs1 = rhs1, rhs0
        aig.ands[var] = (rhs0, rhs1)
        aig._strash[(rhs0, rhs1)] = var
    _validate_references(aig, defined)
    _attach_symbols_and_comments(aig, lines[idx:], start_lineno=idx)
    return aig


def _validate_references(aig, defined):
    for var, next_lit, _ in aig.latches:
        if lit_var(next_lit) not in defined:
            raise ParseError("latch next-state literal {} references "
                             "undefined variable".format(next_lit))
    for lit in aig.outputs:
        if lit_var(lit) not in defined:
            raise ParseError("output literal {} references undefined "
                             "variable".format(lit))
    for var, (rhs0, rhs1) in aig.ands.items():
        for lit in (rhs0, rhs1):
            if lit_var(lit) not in defined:
                raise ParseError(
                    "and node {} references undefined variable in literal "
                    "{}".format(var, lit))


def loads_aiger_binary(data):
    """Parse the binary ``aig`` variant into an :class:`Aig`."""
    if isinstance(data, str):
        data = data.encode("latin-1")
    pos = 0

    def read_line(what):
        nonlocal pos
        end = data.find(b"\n", pos)
        if end < 0:
            raise ParseError("truncated aig file: missing {}".format(what))
        line = data[pos:end].decode("ascii", "replace")
        pos = end + 1
        return line

    m, i, l, o, a = _parse_header(read_line("header"), "aig")
    aig = Aig()
    aig.num_vars = m
    for idx in range(i):
        aig.inputs.append(idx + 1)
    for idx in range(l):
        lineno = idx + 1
        var = i + idx + 1
        parts = read_line("latch").split()
        next_lit = _check_lit(_int_field(parts, 0, "latch next", lineno), m,
                              "latch next")
        init = _parse_latch_reset(parts[1:], 2 * var, lineno)
        aig.latches.append([var, next_lit, init])
    for idx in range(o):
        lit = _int_field(read_line("output").split(), 0, "output",
                         l + idx + 1)
        aig.outputs.append(_check_lit(lit, m, "output"))

    def read_varint(node):
        nonlocal pos
        value, shift = 0, 0
        while True:
            if pos >= len(data):
                raise ParseError(
                    "truncated aig file in and section (node {})".format(
                        node))
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    for idx in range(a):
        var = i + l + idx + 1
        lhs = 2 * var
        delta0 = read_varint(idx)
        delta1 = read_varint(idx)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs0 <= 0 and delta0 > lhs:
            raise ParseError(
                "and node {}: delta {} exceeds lhs {}".format(
                    var, delta0, lhs))
        if rhs0 < 0 or rhs1 < 0:
            raise ParseError(
                "and node {}: negative fanin literal".format(var))
        aig.ands[var] = (rhs0, rhs1)
        aig._strash[(rhs0, rhs1)] = var
    remainder = data[pos:]
    if remainder:
        _attach_symbols_and_comments(
            aig, remainder.decode("utf-8", "replace").splitlines())
    return aig


def loads_aiger(data):
    """Parse either AIGER variant, sniffing the header magic."""
    if isinstance(data, bytes):
        head = data[:3]
    else:
        head = data[:3].encode("ascii", "replace")
    if head == BINARY_MAGIC:
        return loads_aiger_binary(data)
    if head == ASCII_MAGIC:
        if isinstance(data, bytes):
            data = data.decode("utf-8", "replace")
        return loads_aiger_ascii(data)
    raise ParseError(
        "not an AIGER file (header must start with 'aag' or 'aig')")


# --------------------------------------------------------------------------
# File + Circuit entry points
# --------------------------------------------------------------------------


def load_aiger(path):
    """Read an AIGER file (either variant) into an :class:`Aig`."""
    with open(str(path), "rb") as handle:
        return loads_aiger(handle.read())


def dump_aiger(aig, path, binary=None):
    """Write an AIGER file; variant chosen by ``binary`` or the extension."""
    path = str(path)
    if binary is None:
        binary = path.lower().endswith(".aig")
    if binary:
        with open(path, "wb") as handle:
            handle.write(dumps_aiger_binary(aig))
    else:
        with open(path, "w") as handle:
            handle.write(dumps_aiger_ascii(aig))


def read_aiger_circuit(path, name=None):
    """Read an AIGER file straight into a validated :class:`Circuit`."""
    aig = load_aiger(path)
    if name is None:
        name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return to_circuit(aig, name=name)


def write_aiger_circuit(circuit, path, binary=None):
    """Write a :class:`Circuit` as AIGER (names kept via the symbol table)."""
    aig, _ = from_circuit(circuit)
    aig.comments.append("circuit {}".format(circuit.name))
    dump_aiger(aig, path, binary=binary)
