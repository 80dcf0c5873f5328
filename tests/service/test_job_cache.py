"""Structural cache keys and the disk result cache."""

import json

import pytest

from repro.interop.fingerprint import aig_fingerprint
from repro.reach import CexTrace, SecResult
from repro.service import JobSpec, ResultCache
from repro.service.job import CACHE_FORMAT_VERSION

from .helpers import magic_pair, tiny_pair


# -- structural fingerprints -------------------------------------------------

def test_fingerprint_invariant_under_renaming():
    spec, _ = tiny_pair()
    renamed = spec.renamed("p_", keep_inputs=True)
    assert aig_fingerprint(spec) == aig_fingerprint(renamed)


def test_fingerprint_invariant_under_structural_duplicates():
    spec, impl = tiny_pair()  # impl is spec plus a BUF indirection
    assert aig_fingerprint(spec) == aig_fingerprint(impl)


def test_fingerprint_distinguishes_circuits():
    spec, _ = tiny_pair()
    other, _ = magic_pair(n_inputs=4)
    assert aig_fingerprint(spec) != aig_fingerprint(other)


def test_fingerprint_sensitive_to_initial_value():
    spec, _ = tiny_pair()
    flipped = spec.copy()
    flipped.registers["r"].init = True
    assert aig_fingerprint(spec) != aig_fingerprint(flipped)


# -- job specs ---------------------------------------------------------------

def test_cache_key_stable_and_method_sensitive():
    spec, impl = tiny_pair()
    a = JobSpec("a", spec, impl)
    b = JobSpec("b", spec.renamed("x_", keep_inputs=True), impl)
    assert a.cache_key() == b.cache_key()  # names don't matter, structure does
    c = JobSpec("c", spec, impl, method="traversal")
    d = JobSpec("d", spec, impl, options={"time_limit": 10})
    assert len({a.cache_key(), c.cache_key(), d.cache_key()}) == 3


def test_job_options_must_be_json_serializable():
    spec, impl = tiny_pair()
    with pytest.raises(TypeError):
        JobSpec("bad", spec, impl, options={"callback": lambda: None})


def test_job_result_dict_roundtrip():
    from repro.service import JobResult

    result = SecResult(
        equivalent=False, method="bmc", iterations=2, seconds=0.5,
        counterexample=CexTrace(inputs=[{"a": True}],
                                final_input={"a": False}),
        details={"cex_depth": 2},
    )
    job_result = JobResult("j", result, attempts=2, wall_seconds=1.0)
    clone = JobResult.from_dict(
        json.loads(json.dumps(job_result.as_dict())))
    assert clone.name == "j"
    assert clone.attempts == 2
    assert clone.result.refuted
    assert clone.result.counterexample.length == 2
    assert clone.result.counterexample.full_sequence() == [
        {"a": True}, {"a": False}]
    assert clone.result.details == {"cex_depth": 2}


# -- disk cache --------------------------------------------------------------

def test_cache_roundtrip_with_counterexample(tmp_path):
    cache = ResultCache(tmp_path)
    result = SecResult(
        equivalent=False, method="bmc", iterations=3, seconds=0.1,
        counterexample=CexTrace(inputs=[], final_input={"x": True}),
    )
    assert cache.put("ab" * 32, result)
    loaded = cache.get("ab" * 32)
    assert loaded.refuted
    assert loaded.counterexample.final_input == {"x": True}
    assert cache.stats()["entries"] == 1
    assert cache.hits == 1


def test_cache_miss_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("cd" * 32) is None
    assert cache.misses == 1
    cache.put("cd" * 32, SecResult(True, "van_eijk"))
    assert "cd" * 32 in cache
    cache.clear()
    assert len(cache) == 0
    assert cache.get("cd" * 32) is None


def test_cache_rejects_other_format_versions(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("ef" * 32, SecResult(True, "van_eijk"))
    path = cache._path("ef" * 32)
    with open(path) as fh:
        entry = json.load(fh)
    entry["version"] = CACHE_FORMAT_VERSION + 1
    with open(path, "w") as fh:
        json.dump(entry, fh)
    assert cache.get("ef" * 32) is None


def test_cache_inconclusive_opt_out(tmp_path):
    cache = ResultCache(tmp_path, cache_inconclusive=False)
    undecided = SecResult(None, "van_eijk", details={"inconclusive": True})
    assert not cache.put("12" * 32, undecided)
    assert cache.get("12" * 32) is None
    assert cache.put("34" * 32, SecResult(True, "van_eijk"))
