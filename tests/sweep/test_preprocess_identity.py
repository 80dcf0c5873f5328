"""Differential layer: FRAIG reduction must never change a verdict.

Every engine is run twice on the same pair — once directly, once on the
FRAIG-reduced pair — and the verdicts must agree exactly (proved stays
proved, refuted stays refuted, inconclusive stays inconclusive).  For
``sat_sweep`` the reduced run is the ``fraig_sweep`` method, which is
that sweep on the pair :func:`fraig_reduce` returns.  For refutations the
counterexample is additionally replayed on the ORIGINAL circuits: the
reduction keeps the interface and every per-frame function, so a trace
found in the reduced space, mapped back by
:meth:`~repro.sweep.FraigReduction.translate_trace`, must demonstrate a
real output mismatch in the unreduced one, and BMC's shortest
counterexample keeps its length.
"""

import os

import pytest

from repro import verify
from repro.circuits import row_by_name
from repro.core.bmc import bmc_refute
from repro.fuzz.corpus import discover
from repro.fuzz.generate import build_pair, expected_label, make_recipe
from repro.fuzz.replay import replay_counterexample
from repro.netlist import build_product
from repro.sweep import fraig_reduce

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")

#: engine -> options kept small enough for tier-1.
ENGINES = [
    ("van_eijk", {}),
    ("sat_sweep", {"sim_frames": 16, "sim_width": 16}),
    ("k_induction", {"max_depth": 16}),
    ("bmc", {"max_depth": 6}),
]

ROWS = ["s386", "s510"]


def reduce_pair(spec, impl):
    """Both FRAIG reductions; returns ``(spec_reduction, impl_reduction)``."""
    return fraig_reduce(spec), fraig_reduce(impl)


def both_verdicts(spec, impl, method, options, match_outputs="order"):
    direct = verify(spec, impl, method=method, match_outputs=match_outputs,
                    **options)
    if method == "sat_sweep":
        reduced = verify(spec, impl, method="fraig_sweep",
                         match_outputs=match_outputs, **options)
        assert "fraig" in reduced.details
        return direct, reduced
    spec_red, impl_red = reduce_pair(spec, impl)
    reduced = verify(spec_red.reduced, impl_red.reduced, method=method,
                     match_outputs=match_outputs, **options)
    if reduced.counterexample is not None:
        reduced.counterexample = spec_red.translate_trace(
            reduced.counterexample)
    return direct, reduced


@pytest.mark.parametrize("row_name", ROWS)
@pytest.mark.parametrize("method,options", ENGINES,
                         ids=[m for m, _ in ENGINES])
def test_table1_rows_verdict_identical(row_name, method, options):
    spec, impl = row_by_name(row_name).pair(optimize_level=1)
    direct, reduced = both_verdicts(spec, impl, method, options)
    assert direct.equivalent == reduced.equivalent


def test_traversal_verdict_identical_on_small_row():
    spec, impl = row_by_name("s386").pair(optimize_level=1)
    direct, reduced = both_verdicts(spec, impl, "traversal", {})
    assert direct.equivalent is True
    assert reduced.equivalent is True


def corpus_entries():
    return list(discover(CORPUS_DIR))


@pytest.mark.parametrize("entry", corpus_entries(), ids=lambda e: e.id)
def test_corpus_entries_verdict_identical(entry):
    spec, impl = build_pair(entry.recipe)
    for method, options in (("van_eijk", {}), ENGINES[1],
                            ("bmc", {"max_depth": 10})):
        direct, reduced = both_verdicts(spec, impl, method, options)
        assert direct.equivalent == reduced.equivalent, method


def inequivalent_recipes(count=3):
    """First ``count`` fuzz recipes whose label is known-inequivalent."""
    found, seed = [], 0
    while len(found) < count and seed < 400:
        recipe = make_recipe(seed)
        if expected_label(recipe) == "inequivalent":
            found.append(recipe)
        seed += 1
    assert len(found) == count
    return found


def _recipe_id(recipe):
    if "base" in recipe:
        return recipe["base"]["name"]
    return "dp_{}".format(recipe["datapath"]["family"])


@pytest.mark.parametrize("recipe", inequivalent_recipes(),
                         ids=_recipe_id)
def test_refutations_replay_on_original_circuits(recipe):
    spec, impl = build_pair(recipe)
    direct, reduced = both_verdicts(spec, impl, "bmc", {"max_depth": 16})
    assert direct.equivalent is False
    assert reduced.equivalent is False
    # Both traces must demonstrate a real mismatch on the ORIGINAL pair —
    # the reduced one in particular was found in the reduced space.
    for result in (direct, reduced):
        report = replay_counterexample(spec, impl, result.counterexample,
                                       match_inputs="name",
                                       match_outputs="order")
        assert report.valid, report.reason


@pytest.mark.parametrize("seed", [2, 5, 14])
def test_fraig_bmc_matches_plain_bmc(seed):
    """BMC on the FRAIG-reduced product: same verdict, same refutation
    depth, and a trace that replays on the original pair."""
    spec, impl = build_pair(make_recipe(seed))
    spec_red, impl_red = reduce_pair(spec, impl)
    plain = bmc_refute(build_product(spec, impl, match_inputs="name",
                                     match_outputs="order"), max_depth=12)
    fraig = bmc_refute(build_product(spec_red.reduced, impl_red.reduced,
                                     match_inputs="name",
                                     match_outputs="order"), max_depth=12)
    assert plain.equivalent == fraig.equivalent
    if plain.equivalent is False:
        assert plain.iterations == fraig.iterations  # same refutation depth
        report = replay_counterexample(
            spec, impl, spec_red.translate_trace(fraig.counterexample),
            match_inputs="name", match_outputs="order")
        assert report.valid, report.reason
