""".bench and BLIF parsing/serialization tests."""

import pytest

from hypothesis import given, settings

from repro.errors import ParseError
from repro.netlist import GateType, SequentialSimulator, bench, blif

from .helpers import circuit_seeds, counter_circuit, random_sequential_circuit

S27_BENCH = """
# s27-like toy benchmark
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
G17 = NOT(G11)
"""


def test_bench_parse_s27():
    c = bench.loads(S27_BENCH, name="s27")
    assert c.name == "s27"
    assert len(c.inputs) == 4
    assert c.outputs == ["G17"]
    assert c.num_registers == 3
    assert c.num_gates == 10
    assert c.gates["G9"].gtype is GateType.NAND
    assert c.registers["G5"].data_in == "G10"
    assert c.registers["G5"].init is False


def test_bench_round_trip_preserves_behavior():
    original = bench.loads(S27_BENCH, name="s27")
    text = bench.dumps(original)
    reparsed = bench.loads(text, name="s27")
    sim_a = SequentialSimulator(original, width=32, seed=9).run(8)
    sim_b = SequentialSimulator(reparsed, width=32, seed=9).run(8)
    assert sim_a["G17"] == sim_b["G17"]


def test_bench_dff1_init():
    c = bench.loads("INPUT(a)\nOUTPUT(r)\nr = DFF1(a)\n")
    assert c.registers["r"].init is True
    assert "DFF1" in bench.dumps(c)


def test_bench_buff_alias_and_comments():
    c = bench.loads("INPUT(a) # in\nOUTPUT(b)\nb = BUFF(a)\n# trailing\n")
    assert c.gates["b"].gtype is GateType.BUF


def test_bench_syntax_errors():
    with pytest.raises(ParseError):
        bench.loads("WHAT(a)\n")
    with pytest.raises(ParseError):
        bench.loads("INPUT(a)\nb = FROB(a)\n")
    with pytest.raises(ParseError):
        bench.loads("INPUT(a)\nOUTPUT(missing)\n")
    with pytest.raises(ParseError):
        bench.loads("INPUT(a)\nr = DFF(a, a)\n")


def test_bench_file_io(tmp_path):
    c = counter_circuit(3)
    path = tmp_path / "counter.bench"
    bench.dump(c, path)
    loaded = bench.load(path)
    assert loaded.name == "counter"
    assert loaded.num_registers == 3


@settings(max_examples=30, deadline=None)
@given(circuit_seeds)
def test_bench_round_trip_random(seed):
    c = random_sequential_circuit(seed)
    reparsed = bench.loads(bench.dumps(c), name=c.name)
    sim_a = SequentialSimulator(c, width=16, seed=1).run(5)
    sim_b = SequentialSimulator(reparsed, width=16, seed=1).run(5)
    for out in c.outputs:
        assert sim_a[out] == sim_b[out]


BLIF_EXAMPLE = """
.model tiny
.inputs a b
.outputs f
.latch nf q 0
.names a b na_b
0- 1
-0 1
.names na_b q f
11 1
.names f nf
0 1
.end
"""


def test_blif_parse():
    c = blif.loads(BLIF_EXAMPLE)
    assert c.name == "tiny"
    assert c.inputs == ["a", "b"]
    assert c.outputs == ["f"]
    assert c.registers["q"].data_in == "nf"
    assert c.registers["q"].init is False


def test_blif_cover_semantics():
    # na_b is the off-set-style cover of NOT(a AND b) via two rows.
    c = blif.loads(BLIF_EXAMPLE)
    from repro.netlist import single_eval

    for a in (False, True):
        for b in (False, True):
            values = single_eval(c, {"a": a, "b": b}, {"q": True})
            assert values["na_b"] == (not (a and b))


def test_blif_constants():
    text = ".model k\n.outputs z o\n.names z\n.names o\n1\n.end\n"
    c = blif.loads(text)
    assert c.gates["z"].gtype is GateType.CONST0
    assert c.gates["o"].gtype is GateType.CONST1


def test_blif_errors():
    with pytest.raises(ParseError):
        blif.loads(".inputs a\n")  # before .model
    with pytest.raises(ParseError):
        blif.loads(".model m\n.names a b\n1 1 1\n.end\n")  # bad row
    with pytest.raises(ParseError):
        blif.loads(".model m\n.inputs a\n.names a f\n1 1\n0 0\n.end\n")  # mixed
    with pytest.raises(ParseError):
        blif.loads(".model m\n.latch x\n.end\n")
    # Van Eijk's method needs a defined initial state: an init value of
    # 2 (don't care), 3 (unknown) or anything else but 0/1 is rejected.
    for latch in ("a b 2", "a b 3", "a b 7", "a b re clk 2",
                  "a b re clk x", "a b re clk 0 1"):
        with pytest.raises(ParseError):
            blif.loads(".model m\n.inputs a\n.outputs b\n"
                       ".latch {}\n.end\n".format(latch))


@pytest.mark.parametrize("latch,init", [
    ("a b", False), ("a b 1", True), ("a b 0", False),
    ("a b re clk", False), ("a b re clk 1", True),
])
def test_blif_latch_forms(latch, init):
    c = blif.loads(".model m\n.inputs a\n.outputs b\n"
                   ".latch {}\n.end\n".format(latch))
    assert c.registers["b"].init is init


@settings(max_examples=30, deadline=None)
@given(circuit_seeds)
def test_blif_round_trip_random(seed):
    c = random_sequential_circuit(seed)
    reparsed = blif.loads(blif.dumps(c))
    sim_a = SequentialSimulator(c, width=16, seed=2).run(5)
    sim_b = SequentialSimulator(reparsed, width=16, seed=2).run(5)
    for out in c.outputs:
        assert sim_a[out] == sim_b[out]


def test_blif_file_io(tmp_path):
    c = counter_circuit(2)
    path = tmp_path / "c.blif"
    blif.dump(c, path)
    loaded = blif.load(path, name="counter")
    sim_a = SequentialSimulator(c, width=8, seed=4).run(6)
    sim_b = SequentialSimulator(loaded, width=8, seed=4).run(6)
    assert sim_a[c.outputs[0]] == sim_b[loaded.outputs[0]]


def test_cross_format_bench_to_blif():
    c = bench.loads(S27_BENCH, name="s27")
    reparsed = blif.loads(blif.dumps(c))
    sim_a = SequentialSimulator(c, width=16, seed=3).run(8)
    sim_b = SequentialSimulator(reparsed, width=16, seed=3).run(8)
    assert sim_a["G17"] == sim_b["G17"]
