"""Acceptance: AIGER-born circuits are verdict-identical to ``.bench``.

The interop layer's whole promise is that the container format never
changes a verdict: ``repro-sec verify a.aig b.aag`` must decide exactly
what the same pair decides as ``.bench`` — per engine, with FRAIG
reduction, and through the daemon (whose wire format is bench text).
"""

import json

import pytest

from repro.circuits.generators import generate_benchmark
from repro.cli import main
from repro.interop import load_circuit, save_circuit
from repro.transform import inject_distinguishable_fault, retime

ENGINES = ("van_eijk", "sat_sweep", "bmc", "traversal")


def _pairs():
    spec = generate_benchmark("vf_spec", n_regs=4, n_inputs=3, n_outputs=2,
                              seed=11)
    equivalent = retime(spec, moves=2, seed=3)
    faulty, _ = inject_distinguishable_fault(spec, seed=5)
    return spec, equivalent, faulty


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Each circuit of both pairs, saved under every extension."""
    root = tmp_path_factory.mktemp("verify_formats")
    spec, equivalent, faulty = _pairs()
    paths = {}
    for label, circuit in (("spec", spec), ("eq", equivalent),
                           ("neq", faulty)):
        for ext in (".bench", ".aag", ".aig"):
            path = root / (label + ext)
            save_circuit(circuit, path)
            paths[(label, ext)] = str(path)
    return paths


def _verdict(spec_path, impl_path, *extra, capsys):
    code = main(["verify", spec_path, impl_path, "--json",
                 "--max-depth", "16", *extra])
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, payload["equivalent"]


@pytest.mark.parametrize("method", ENGINES)
def test_every_engine_is_format_blind(saved, method, capsys):
    for label, expected in (("eq", True), ("neq", False)):
        baseline = _verdict(saved[("spec", ".bench")],
                            saved[(label, ".bench")],
                            "--method", method, capsys=capsys)
        mixed = _verdict(saved[("spec", ".aig")], saved[(label, ".aag")],
                         "--method", method, capsys=capsys)
        assert mixed == baseline
        # Inconclusive engines (e.g. BMC on an equivalent pair) must be
        # inconclusive in every format too — that is what == checks; a
        # conclusive verdict must additionally be the constructed truth.
        code, verdict = baseline
        if verdict is not None:
            assert verdict is expected


def test_fraig_preprocessing_is_format_blind(saved, capsys):
    for label in ("eq", "neq"):
        baseline = _verdict(saved[("spec", ".bench")],
                            saved[(label, ".bench")],
                            "--method", "fraig_sweep", capsys=capsys)
        mixed = _verdict(saved[("spec", ".aag")], saved[(label, ".aig")],
                         "--method", "fraig_sweep", capsys=capsys)
        assert mixed == baseline


def test_daemon_path_accepts_aiger_born_circuits(saved, tmp_path):
    # Circuits cross the wire as bench text, so an AIGER-born circuit must
    # flow through the daemon unchanged and return the same verdict.
    from repro.client import ServerClient

    from ..server.helpers import ServerThread

    spec = load_circuit(saved[("spec", ".aig")])
    equivalent = load_circuit(saved[("eq", ".aag")])
    faulty = load_circuit(saved[("neq", ".aig")])
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = ServerClient(server.url(), timeout=10.0)
        eq_id = client.submit(spec, equivalent, name="eq", method="van_eijk")
        neq_id = client.submit(spec, faulty, name="neq", method="bmc",
                               options={"max_depth": 16})
        eq_result = client.result(eq_id, timeout=120)
        neq_result = client.result(neq_id, timeout=120)
    assert eq_result.result.equivalent is True
    assert neq_result.result.equivalent is False
