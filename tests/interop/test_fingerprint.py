"""Format-independent AIG fingerprint and the job cache key built on it."""

import pytest

from repro.circuits import delay_line_pair, row_by_name
from repro.interop import load_circuit, save_circuit
from repro.interop.fingerprint import aig_fingerprint
from repro.netlist import bench
from repro.service.job import CACHE_FORMAT_VERSION, JobSpec

BENCH_TEXT = """INPUT(a)
INPUT(b)
OUTPUT(y)
r = DFF(nx)
nx = XOR(a, r)
y = OR(nx, b)
"""


def _circuit(name="fp"):
    return bench.loads(BENCH_TEXT, name=name)


def test_fingerprint_is_identical_across_structural_formats(tmp_path):
    circuit = _circuit()
    prints = {aig_fingerprint(circuit)}
    for ext in (".bench", ".aag", ".aig"):
        path = tmp_path / ("fp" + ext)
        save_circuit(circuit, path)
        prints.add(aig_fingerprint(load_circuit(path)))
    assert len(prints) == 1


def test_fingerprint_ignores_names_and_comments():
    a = _circuit(name="one")
    b = _circuit(name="two")
    assert aig_fingerprint(a) == aig_fingerprint(b)
    renamed = a.renamed("px_", keep_inputs=True, name="three")
    assert aig_fingerprint(renamed) == aig_fingerprint(a)


def test_fingerprint_distinguishes_different_functions():
    other = bench.loads(BENCH_TEXT.replace("OR(nx, b)", "AND(nx, b)"),
                        name="fp")
    assert aig_fingerprint(other) != aig_fingerprint(_circuit())


#: Digests are job cache keys: a change to any of them empties every cache.
PINNED_DIGESTS = {
    "s838-spec": "89896c665fe99920e0d1b695189610d12fb957a3cc30988a8aa96e0a3ddf7bbb",
    "s838-impl": "cbef927cea6017426d8560977eb54e48bc6da3c87e4ca5c9b99efc413ac69809",
    "delay64-impl":
        "9b9256730265ba465bbf8e79cc1adcda0c7fcb69b0d8031ba6a0e802dde073f9",
}

PINNED_CIRCUITS = {
    "s838-spec": lambda: row_by_name("s838").pair()[0],
    "s838-impl": lambda: row_by_name("s838").pair()[1],
    "delay64-impl": lambda: delay_line_pair(64)[1],
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_fingerprint_digests_are_pinned(name):
    assert aig_fingerprint(PINNED_CIRCUITS[name]()) == PINNED_DIGESTS[name]


def test_cache_key_is_format_independent(tmp_path):
    spec = _circuit("spec")
    impl = _circuit("impl")
    save_circuit(spec, tmp_path / "spec.aig")
    save_circuit(impl, tmp_path / "impl.aag")
    from_bench = JobSpec("j", spec, impl, method="sat_sweep")
    from_aiger = JobSpec("j", load_circuit(tmp_path / "spec.aig"),
                         load_circuit(tmp_path / "impl.aag"),
                         method="sat_sweep")
    assert from_bench.cache_key() == from_aiger.cache_key()
    # A different method or circuit must still miss.
    assert JobSpec("j", spec, impl, method="bmc").cache_key() \
        != from_bench.cache_key()


def test_cache_format_version_bumped_for_fingerprint_switch():
    # v2 = aig_fingerprint-based keys; bumping invalidates v1 entries
    # that hashed the bench text instead of the canonical AIG.
    assert CACHE_FORMAT_VERSION == 2
