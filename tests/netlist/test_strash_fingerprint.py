"""Properties of ``aig_fingerprint`` the result cache relies on.

The cache key for a verification job is built from the fingerprints of both
circuits, so two properties are load-bearing:

* renaming nets must *not* change the fingerprint — re-deriving an
  identical pair with different (obfuscated) names must hit the cache;
* a single-gate mutant must *never* share a fingerprint with its original —
  a collision would serve the unmutated pair's verdict for the mutated one.
"""

from hypothesis import given, settings, strategies as st

from repro.circuits.generators import generate_benchmark
from repro.interop.fingerprint import aig_fingerprint
from repro.reach.result import SecResult
from repro.service import JobSpec, ResultCache
from repro.transform import (
    inject_distinguishable_fault,
    inject_fault,
    obfuscate_names,
)

seeds = st.integers(min_value=0, max_value=10 ** 6)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_renamed_circuit_keeps_fingerprint(seed):
    circuit = generate_benchmark("fp{}".format(seed), n_regs=8, seed=seed)
    renamed = obfuscate_names(circuit, seed=seed + 1)
    assert aig_fingerprint(circuit) == aig_fingerprint(renamed)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_single_gate_mutant_never_collides(seed):
    circuit = generate_benchmark("fp{}".format(seed), n_regs=8, seed=seed)
    # A distinguishable mutant: plain inject_fault may produce a no-op
    # (AND(x,x) -> OR(x,x)) that AIG normalization rightly collapses.
    mutant, description = inject_distinguishable_fault(circuit,
                                                       seed=seed + 1)
    assert aig_fingerprint(circuit) != aig_fingerprint(mutant), description


def test_renamed_pair_hits_the_result_cache(tmp_path):
    """End to end: the obfuscated pair maps to the same cache entry."""
    spec = generate_benchmark("cache_spec", n_regs=6, seed=7)
    impl = generate_benchmark("cache_impl", n_regs=6, seed=8)
    job = JobSpec("orig", spec, impl, method="van_eijk")
    renamed_job = JobSpec(
        "renamed",
        obfuscate_names(spec, seed=1),
        obfuscate_names(impl, seed=2),
        method="van_eijk",
    )
    assert job.cache_key() == renamed_job.cache_key()

    cache = ResultCache(tmp_path)
    cache.put(job.cache_key(), SecResult(equivalent=True, method="van_eijk"))
    served = cache.get(renamed_job.cache_key())
    assert served is not None and served.proved


def test_mutant_pair_misses_the_result_cache(tmp_path):
    spec = generate_benchmark("cache_spec", n_regs=6, seed=7)
    mutant, _ = inject_fault(spec, seed=11)
    job = JobSpec("orig", spec, spec, method="van_eijk")
    mutant_job = JobSpec("mutant", spec, mutant, method="van_eijk")
    assert job.cache_key() != mutant_job.cache_key()

    cache = ResultCache(tmp_path)
    cache.put(job.cache_key(), SecResult(equivalent=True, method="van_eijk"))
    assert cache.get(mutant_job.cache_key()) is None
