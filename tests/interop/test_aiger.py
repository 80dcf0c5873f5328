"""AIGER reader/writer: reference files, fixed points, error handling."""

import pytest

from repro.errors import ParseError
from repro.interop import (
    aiger_header_stats,
    dump_aiger,
    dumps_aiger_ascii,
    dumps_aiger_binary,
    load_aiger,
    loads_aiger,
    read_aiger_circuit,
    reencode,
    write_aiger_circuit,
)
from repro.interop.fingerprint import aig_fingerprint
from repro.netlist import bench
from repro.netlist.aig import Aig, from_circuit, to_circuit

# The AIGER documentation's toggle flip-flop with enable and reset:
# latch q toggles under en, clears under rst; outputs are q and !q.
TOGGLE_AAG = """aag 7 2 1 2 4
2
4
6 8 1
6
7
8 4 7
10 13 15
12 2 6
14 3 7
i0 en
i1 rst
l0 q
o0 out
o1 nout
c
toggle with enable and reset
"""

BENCH_TEXT = """INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
r = DFF(nx)
nx = XOR(a, r)
y = OR(nx, b)
z = AND(r, b)
"""


def toggle_aig():
    return loads_aiger(TOGGLE_AAG)


def bench_aig():
    aig, _ = from_circuit(bench.loads(BENCH_TEXT, name="t"))
    return aig


def test_reference_ascii_parses_structure_and_symbols():
    aig = toggle_aig()
    assert len(aig.inputs) == 2
    assert len(aig.latches) == 1
    assert len(aig.outputs) == 2
    assert len(aig.ands) == 4
    var, next_lit, init = aig.latches[0]
    assert next_lit == 8 and init is True
    assert aig.names[aig.inputs[0]] == "en"
    assert aig.names[aig.inputs[1]] == "rst"
    assert aig.names[var] == "q"
    assert aig.output_names == {0: "out", 1: "nout"}
    assert aig.comments == ["toggle with enable and reset"]


def test_ascii_write_read_write_is_a_fixed_point():
    text = dumps_aiger_ascii(toggle_aig())
    again = dumps_aiger_ascii(loads_aiger(text))
    assert text == again


def test_binary_write_read_write_is_a_fixed_point():
    blob = dumps_aiger_binary(toggle_aig())
    assert blob.startswith(b"aig ")
    again = dumps_aiger_binary(loads_aiger(blob))
    assert blob == again


def test_ascii_and_binary_encode_the_same_circuit():
    aig = toggle_aig()
    from_ascii = loads_aiger(dumps_aiger_ascii(aig))
    from_binary = loads_aiger(dumps_aiger_binary(aig))
    assert aig_fingerprint(from_ascii) == aig_fingerprint(from_binary)
    # Symbols and comments survive both variants.
    assert from_binary.names == from_ascii.names
    assert from_binary.output_names == from_ascii.output_names
    assert from_binary.comments == from_ascii.comments


def test_reencode_produces_canonical_numbering():
    aig = reencode(bench_aig())
    n_in, n_latch = len(aig.inputs), len(aig.latches)
    assert aig.inputs == list(range(1, n_in + 1))
    assert [entry[0] for entry in aig.latches] == list(
        range(n_in + 1, n_in + n_latch + 1))
    for var, (rhs0, rhs1) in aig.ands.items():
        assert 2 * var > rhs0 >= rhs1  # binary-format invariant
    # Idempotent and structure-preserving.
    again = reencode(aig)
    assert again.ands == aig.ands
    assert aig_fingerprint(again) == aig_fingerprint(aig)


def test_header_stats_count_the_canonical_encoding():
    stats = aiger_header_stats(reencode(bench_aig()))
    assert stats["I"] == 2 and stats["L"] == 1 and stats["O"] == 2
    assert stats["M"] == stats["I"] + stats["L"] + stats["A"]


def test_multibyte_varint_deltas_round_trip():
    # An AND at a high index referencing variable 1 forces delta0 >= 128,
    # exercising the multi-byte LEB128 path in both directions.
    aig = Aig()
    first = aig.add_input()
    second = aig.add_input()
    for _ in range(120):
        aig.add_input()
    aig.add_output(aig.and2(first, second))
    blob = dumps_aiger_binary(aig)
    assert dumps_aiger_binary(loads_aiger(blob)) == blob


def test_latch_reset_values_round_trip(tmp_path):
    circuit = bench.loads(BENCH_TEXT, name="t")
    circuit.registers["r"].init = True
    aig, _ = from_circuit(circuit)
    for suffix in ("aag", "aig"):
        path = tmp_path / ("t." + suffix)
        dump_aiger(aig, path)
        assert load_aiger(path).latches[0][2] is True


def test_uninitialized_latch_is_rejected_with_reason():
    bad = "aag 1 0 1 0 0\n2 2 2\n"
    with pytest.raises(ParseError, match="uninitialized latch"):
        loads_aiger(bad)


def test_nonzero_extension_header_fields_are_rejected():
    with pytest.raises(ParseError, match="extension"):
        loads_aiger("aag 1 1 0 0 0 1\n2\n")
    # All-zero extended fields (an AIGER 1.9 header) are fine.
    assert len(loads_aiger("aag 1 1 0 1 0 0 0\n2\n2\n").outputs) == 1


@pytest.mark.parametrize("text,message", [
    ("", "not an AIGER"),
    ("bench 1 1", "not an AIGER"),
    ("aag 1", "M I L O A"),
    ("aag x 0 0 0 0\n", "non-numeric"),
    ("aag 0 1 0 0 0\n2\n", "inconsistent"),
    ("aag 2 2 0 0 0\n2\n", "truncated"),
    ("aag 1 1 0 1 0\n2\n9\n", "out of range"),
    ("aag 1 1 0 0 0\n3\n", "positive and even"),
    ("aag 2 2 0 0 0\n2\n2\n", "defined twice"),
    ("aag 2 1 0 1 1\n2\n4\n4 2 9\n", "out of range"),
    ("aag 1 1 0 0 0\n2\nq9 name\n", "symbol"),
    ("aag 1 1 0 0 0\n2\ni7 name\n", "missing entry"),
    ("aag 1 1 0 0 0\nx\n", "non-numeric input"),
    ("aag 1 0 1 0 0\n2 x\n", "non-numeric latch"),
    ("aag 1 1 0 1 0\n2\ny\n", "non-numeric output"),
    ("aag 2 1 0 0 1\n2\n4 2 z\n", "non-numeric and"),
    ("aag 1 1 0 1 0\n2\n\n", "missing output"),
])
def test_malformed_ascii_inputs_raise_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        loads_aiger(text)


@pytest.mark.parametrize("blob,message", [
    (b"aig 1 0 1 0 0\nx\n", "non-numeric latch"),
    (b"aig 1 0 1 0 0\n\n", "missing latch"),
    (b"aig 1 1 0 1 0\ny\n", "non-numeric output"),
    (b"aig 1 1 0 1 0\n\n", "missing output"),
    (b"aig 1 1 0 1 0\n\xff\n", "non-numeric output"),
])
def test_malformed_binary_inputs_raise_parse_errors(blob, message):
    with pytest.raises(ParseError, match=message):
        loads_aiger(blob)


def test_truncated_binary_and_section_raises():
    blob = dumps_aiger_binary(bench_aig(), symbols=False, comments=False)
    with pytest.raises(ParseError, match="truncated"):
        loads_aiger(blob[:-1])


def test_circuit_entry_points_preserve_names_and_function(tmp_path):
    circuit = bench.loads(BENCH_TEXT, name="pair")
    path = tmp_path / "pair.aig"
    write_aiger_circuit(circuit, path)
    back = read_aiger_circuit(path)
    assert back.inputs == circuit.inputs
    assert sorted(back.registers) == sorted(circuit.registers)
    assert aig_fingerprint(back) == aig_fingerprint(circuit)


def test_to_circuit_round_trip_keeps_aig_fingerprint():
    aig = toggle_aig()
    assert aig_fingerprint(to_circuit(aig)) == aig_fingerprint(aig)
