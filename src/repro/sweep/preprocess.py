"""Wiring of the FRAIG reducer as an engine-agnostic preprocessor.

Every front end funnels through here:

* :func:`repro.verify` and the worker (:mod:`repro.service.worker`) call
  :func:`preprocess_pair` when a ``preprocess`` option is present — any
  engine then runs on the reduced pair, and the reduction telemetry is
  attached to the result's ``details["preprocess"]``.
* The daemon and the batch CLI call :func:`preprocess_jobspec` *before*
  the job's cache key is first computed, so a preprocessed submission and
  a direct submission of the already-reduced pair share one cache entry
  (and the cached worker never re-reduces).

Soundness: the reduction preserves the per-frame transition and output
functions (registers are free pseudo-inputs during sweeping, so merges
hold in every state), and the interface — input names, register
names/initial values, output names and order — is untouched.  Any
engine's verdict on the reduced pair is therefore a verdict on the
original pair, and a counterexample input trace is valid verbatim
(:meth:`~repro.sweep.reduce.FraigReduction.translate_trace` is the
checked identity).
"""

from ..errors import VerificationError
from .reduce import fraig_reduce

#: Recognized values of the ``preprocess`` option / ``--preprocess`` flag.
PREPROCESS_PASSES = ("fraig",)

#: Option keys consumed by the preprocessor (not forwarded to engines).
PREPROCESS_OPTION_KEYS = ("preprocess", "preprocess_seed")


def check_preprocess(passes):
    if passes not in PREPROCESS_PASSES:
        raise VerificationError(
            "unknown preprocess pass {!r}; choose one of {}".format(
                passes, list(PREPROCESS_PASSES)))
    return passes


def preprocess_pair(spec, impl, passes="fraig", seed=2024, **options):
    """Reduce both sides; returns ``(spec', impl', info)``.

    ``info`` is the JSON-serializable telemetry destined for
    ``details["preprocess"]``.
    """
    check_preprocess(passes)
    spec_red = fraig_reduce(spec, seed=seed, **options)
    impl_red = fraig_reduce(impl, seed=seed, **options)
    info = {
        "passes": passes,
        "spec": dict(spec_red.stats),
        "impl": dict(impl_red.stats),
    }
    return spec_red.reduced, impl_red.reduced, info


def split_preprocess_options(options):
    """Pop the preprocessor's keys out of an engine option dict.

    Returns ``(passes or None, preprocess_kwargs, engine_options)``;
    ``options`` is not mutated.
    """
    engine_options = dict(options)
    passes = engine_options.pop("preprocess", None)
    seed = engine_options.pop("preprocess_seed", 2024)
    return passes, {"seed": seed}, engine_options


def preprocess_jobspec(job):
    """Rewrite a :class:`~repro.service.job.JobSpec` onto reduced circuits.

    Returns ``(new_job, info)``; ``(job, None)`` when no ``preprocess``
    option is present.  The option is *removed* from the new job, so its
    cache key is computed from the reduced fingerprints alone — a
    preprocessed submission and a direct submission of the identical
    reduced pair deduplicate to one cache entry, and the worker does not
    reduce a second time.
    """
    passes, kwargs, engine_options = split_preprocess_options(job.options)
    if not passes:
        return job, None
    from .reduce import FraigReduction  # noqa: F401  (documented contract)
    from ..service.job import JobSpec

    spec_red, impl_red, info = preprocess_pair(
        job.spec, job.impl, passes=passes, **kwargs)
    tags = dict(job.tags)
    tags["preprocess"] = passes
    new_job = JobSpec(
        job.name, spec_red, impl_red, method=job.method,
        options=engine_options, match_inputs=job.match_inputs,
        match_outputs=job.match_outputs, tags=tags,
    )
    return new_job, info


def attach_preprocess_details(result, info):
    """Record the reduction telemetry on an engine result (in place)."""
    if info is not None and result is not None:
        if result.details is None:
            result.details = {}
        result.details["preprocess"] = info
    return result
