"""Extension dispatch, format_info, and the CLI surfaces built on them."""

import pytest

from repro.cli import main
from repro.errors import ParseError
from repro.interop import (
    SUPPORTED_EXTENSIONS,
    detect_format,
    format_info,
    load_circuit,
    save_circuit,
)
from repro.interop.fingerprint import aig_fingerprint
from repro.netlist import bench
from repro.netlist.product import build_product
from repro.reach.traversal import check_equivalence_traversal

BENCH_TEXT = """INPUT(a)
INPUT(b)
OUTPUT(y)
r = DFF(nx)
nx = XOR(a, r)
y = OR(nx, b)
"""


@pytest.fixture
def circuit():
    return bench.loads(BENCH_TEXT, name="fmt")


def test_detect_format_covers_all_supported_extensions(tmp_path):
    expected = {".bench": "bench", ".blif": "blif",
                ".aag": "aiger-ascii", ".aig": "aiger-binary"}
    assert SUPPORTED_EXTENSIONS == expected
    for ext, fmt in expected.items():
        assert detect_format(tmp_path / ("x" + ext)) == fmt
    assert detect_format("UPPER.AAG") == "aiger-ascii"


def test_detect_format_names_the_supported_extensions():
    with pytest.raises(ParseError) as exc:
        detect_format("design.v")
    message = str(exc.value)
    assert "'.v'" in message
    for ext in SUPPORTED_EXTENSIONS:
        assert ext in message


@pytest.mark.parametrize("ext", sorted(SUPPORTED_EXTENSIONS))
def test_save_load_round_trip_is_function_preserving(tmp_path, circuit, ext):
    path = tmp_path / ("fmt" + ext)
    assert save_circuit(circuit, path) == SUPPORTED_EXTENSIONS[ext]
    back = load_circuit(path)
    assert sorted(back.inputs) == sorted(circuit.inputs)
    assert len(back.registers) == len(circuit.registers)
    if ext == ".blif":
        # BLIF lowers gates to SOP covers, so structure may change; the
        # function must not.  Bench and AIGER round-trips are structural.
        product = build_product(circuit, back, match_inputs="name",
                                match_outputs="order")
        assert check_equivalence_traversal(product).proved
    else:
        assert aig_fingerprint(back) == aig_fingerprint(circuit)


def test_format_info_reports_canonical_header_stats(tmp_path, circuit):
    path = tmp_path / "fmt.aag"
    save_circuit(circuit, path)
    info = format_info(path)
    assert info["format"] == "aiger-ascii"
    header = info["aiger"]
    assert header["I"] == 2 and header["L"] == 1 and header["O"] == 1
    assert header["M"] == header["I"] + header["L"] + header["A"]
    # The header describes the circuit, not the container: identical for
    # the same design saved as .bench.
    bench_path = tmp_path / "fmt.bench"
    save_circuit(circuit, bench_path)
    assert format_info(bench_path)["aiger"] == header


def test_cli_info_prints_format_and_aiger_line(tmp_path, circuit, capsys):
    path = tmp_path / "fmt.aig"
    save_circuit(circuit, path)
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "format: aiger-binary" in out
    assert "aiger: M=" in out and "L=1" in out


def test_cli_info_rejects_unknown_extension(tmp_path, capsys):
    path = tmp_path / "fmt.v"
    path.write_text("module m; endmodule\n")
    assert main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unsupported circuit file extension" in err


def test_cli_info_rejects_malformed_aiger_body(tmp_path, capsys):
    cases = {
        "input.aag": b"aag 1 1 0 0 0\nx\n",
        "latch.aag": b"aag 1 0 1 0 0\n2 x\n",
        "output.aag": b"aag 1 1 0 1 0\n2\ny\n",
        "and.aag": b"aag 2 1 0 0 1\n2\n4 2 z\n",
        "blank.aag": b"aag 1 1 0 1 0\n2\n\n",
        "latch.aig": b"aig 1 0 1 0 0\nx\n",
        "blank.aig": b"aig 1 1 0 1 0\n\n",
    }
    for name, blob in cases.items():
        path = tmp_path / name
        path.write_bytes(blob)
        assert main(["info", str(path)]) == 2, name
        assert capsys.readouterr().err.startswith("error: "), name


def test_cli_verify_rejects_unknown_extension(tmp_path, capsys):
    path = tmp_path / "fmt.v"
    path.write_text("module m; endmodule\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path), str(path)])
    assert exc.value.code == 2
    assert "unsupported circuit file extension" in capsys.readouterr().err
