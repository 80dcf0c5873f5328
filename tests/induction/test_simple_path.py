"""k-induction adds its simple-path constraints only when a step model
repeats a state.

``EagerKInduction`` keeps the engine's former eager form: every pair of
frames gets its distinctness clause as the later frame is encoded.  The
engine must give the eager step answers: the same verdict and depth
everywhere, and the same candidate counts where no candidate drop depends
on which model the solver returns.
"""

import pytest

from repro.circuits import onehot_chain_pair, onehot_ring_pair
from repro.fuzz.generate import build_pair, make_recipe
from repro.induction import KInductionEngine

from .test_engine import INCONCLUSIVE_PAIRS


class EagerKInduction(KInductionEngine):
    """Reference engine: all pairs of simple-path constraints, added for
    each frame as it is encoded, before its diff selector."""

    def _encode_next_frame(self):
        prev = self._frames[-1]
        self.invariants.assert_frame(prev)
        leaves = {net: prev[reg.data_in]
                  for net, reg in self.circuit.registers.items()}
        frame = self._enc.encode_frame(self.circuit, leaves=leaves)
        self.stats["frame_encodings"] += 1
        self._frames.append(frame)
        self._add_uniqueness(len(self._frames) - 1)
        self._diff.append(self._diff_selector(frame))
        self._flush()

    def _add_uniqueness(self, f):
        if self._uniq_act is None:
            return
        enc = self._enc
        regs = list(self.circuit.registers)
        for i in range(f):
            d_lits = [-enc.equal_var(self._frames[i][r], self._frames[f][r])
                      for r in regs]
            enc.add_clause(d_lits + [-self._uniq_act])
        self.stats["simple_path_pairs"] += f


PAIRS = INCONCLUSIVE_PAIRS + [
    ("onehot_chain16", lambda: onehot_chain_pair(16)),
    ("onehot_chain24", lambda: onehot_chain_pair(24)),
]


def both(spec, impl, **options):
    return [engine(**options).verify(spec, impl)
            for engine in (KInductionEngine, EagerKInduction)]


@pytest.mark.parametrize("strengthen", [True, False],
                         ids=["strengthened", "plain"])
@pytest.mark.parametrize("name,make", PAIRS, ids=[n for n, _ in PAIRS])
def test_matches_the_eager_engine(name, make, strengthen):
    lazy, eager = both(*make(), max_depth=32, strengthen=strengthen)
    assert lazy.proved and eager.proved
    for key in ("depth", "candidates_active", "candidates_dropped"):
        assert lazy.details[key] == eager.details[key], key
    assert (lazy.details["solver_stats"]["simple_path_pairs"]
            <= eager.details["solver_stats"]["simple_path_pairs"])


@pytest.mark.parametrize("strengthen", [True, False],
                         ids=["strengthened", "plain"])
@pytest.mark.parametrize("seed", range(25))
def test_fuzz_pairs_match_the_eager_engine(seed, strengthen):
    """Which candidate a step model refutes depends on the model, so the
    candidate counts may differ; the verdict and depths may not."""
    lazy, eager = both(*build_pair(make_recipe(seed)), max_depth=12,
                       strengthen=strengthen)
    assert lazy.equivalent == eager.equivalent
    for key in ("depth", "cex_depth", "bound_reached"):
        assert lazy.details.get(key) == eager.details.get(key), key


def test_a_repeating_step_model_adds_pairs():
    """The enable ring can stall in a state, so step models repeat one:
    the proof at depth 3 needs pairs and two more step queries, and every
    round reports the pairs added so far."""
    events = []
    lazy = KInductionEngine(
        max_depth=12, progress=lambda kind, **data: events.append(data),
    ).verify(*onehot_ring_pair(enable=True))
    eager = EagerKInduction(max_depth=12).verify(
        *onehot_ring_pair(enable=True))
    assert lazy.details["depth"] == eager.details["depth"] == 3
    stats = lazy.details["solver_stats"]
    assert stats["simple_path_pairs"] >= 1
    assert (stats["step_queries"],
            eager.details["solver_stats"]["step_queries"]) == (5, 3)
    counts = [e["simple_path_pairs"] for e in events]
    assert counts == sorted(counts)
    assert counts[-1] == stats["simple_path_pairs"]


def test_a_chain_proof_adds_no_pairs():
    """Plain k-induction unrolls the 12-register chain to depth 12, yet no
    step model ever repeats a state."""
    events = []
    result = KInductionEngine(
        max_depth=32, strengthen=False,
        progress=lambda kind, **data: events.append(data),
    ).verify(*onehot_chain_pair(12))
    assert result.proved and result.details["depth"] == 12
    assert result.details["solver_stats"]["simple_path_pairs"] == 0
    assert [e["simple_path_pairs"] for e in events] == [0] * 12


def test_the_eager_reference_is_the_former_engine():
    """The reference reads the k-induction count pin of
    ``tests/sat/test_kernel.py`` from before the constraints became lazy."""
    stats = EagerKInduction(max_depth=32).verify(
        *onehot_chain_pair(16)).details["solver_stats"]
    assert (stats["sat_queries"], stats["conflicts"], stats["decisions"],
            stats["propagations"]) == (11, 63, 666, 8053)
