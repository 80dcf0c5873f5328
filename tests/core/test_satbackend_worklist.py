"""The SAT correspondence refines as a worklist; it must reach the partition
of the round-by-round schedule it replaced.

``RoundByRound`` keeps the engine's former schedule: each round guards the
partition the previous round left, asks every pair without a live proof
under that fixed Q, and the fixed point is the first round that splits
nothing.  The worklist keeps the solver's Q equal to the current
partition's, splits at once, and asks again only the pairs whose proofs a
split broke.  The maximum correspondence is unique, so both must give the
same classes, as sets of ``(net, complemented)``, on the benchmark rows,
the corpus and random pairs.  A planted fault shows the comparison can
fail: an engine that keeps the proofs a split broke gives coarser classes
than the BDD engine.  A last test runs two rows under two hash seeds and
requires the same rounds and solver counts.
"""

import json
import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st
import pytest

from repro.circuits import row_by_name, table1_suite
from repro.core.satbackend import SatCorrespondence
from repro.errors import ResourceBudgetExceeded
from repro.fuzz.corpus import discover
from repro.fuzz.generate import build_pair
from repro.netlist import build_product
from repro.transform import optimize

from ..netlist.helpers import random_sequential_circuit
from .test_satbackend import bdd_partition_netsets, normalize

CORPUS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "corpus")

#: The rows of the ``table1-sat`` workload: the small rows, s1423, s5378.
BENCH_ROWS = [row.name for row in table1_suite()] + ["s1423", "s5378"]


class RoundByRound(SatCorrespondence):
    """Reference engine: Eq. 3 rounds under the previous round's Q.

    Each round guards the partition's pairs (keeping the literals of pairs
    that survived, retiring the rest by unit and ``simplify()``), reuses a
    pair's proof while every guard its cores named is live, asks a class's
    pairs one polarity at a time, and splits the round's pending work by
    every witness.  The fixed point is the first round without a split.
    """

    def _fixed_point(self, classes, max_iterations):
        iterations = 0
        while True:
            iterations += 1
            if max_iterations is not None and iterations > max_iterations:
                raise ResourceBudgetExceeded("SAT fixpoint budget exhausted")
            classes, changed = self._refine_round(classes, self.budget)
            self.stats["rounds"] = iterations
            self._emit("refinement_round", round=iterations,
                       classes=len(classes), changed=changed,
                       **self.solver_stats())
            if not changed:
                return classes, iterations

    def _guard_members(self, classes):
        """Guard each class member's Q clauses by its own activation
        literal; returns the live literals in creation order."""
        solver = self._solver
        pairs = {(cls[0].net, member.net): (cls[0], member)
                 for cls in classes for member in cls[1:]}
        guards = {}
        retired = False
        for key, act in self._guards.items():
            if key in pairs:
                guards[key] = act
            else:
                solver.add_clause([-act])
                retired = True
        if retired:
            solver.simplify()
        for key, (leader, member) in pairs.items():
            if key in guards:
                continue
            act = guards[key] = solver.new_var()
            for frame_vars in self._frames[:-1]:
                rep = self._lit(leader, frame_vars)
                m = self._lit(member, frame_vars)
                solver.add_clause([-rep, m, -act])
                solver.add_clause([rep, -m, -act])
        self._guards = guards
        return list(guards.values())

    def _refine_round(self, classes, budget):
        """One Eq. 3 round; returns ``(classes, changed)``.  ``_proofs``
        maps (leader net, member net) to the guards of the pair's last
        proof."""
        solver = self._solver
        live = self._guard_members(classes)
        live_set = set(live)
        proofs = self._proofs
        # (leader net, member net, sign) -> the core of the UNSAT answer to
        # ``[sign * la, -sign * lb]``; Q is fixed for the round.
        cores = {}
        check_frame = self._frames[-1]
        done = [cls for cls in classes if len(cls) == 1]
        items = [([cls[0]], list(cls[1:])) for cls in classes if len(cls) > 1]
        while items:
            verified, rest = items.pop()
            leader = verified[0].net
            pending = []
            for member in rest:
                core = proofs.get((leader, member.net))
                if core is not None and core <= live_set:
                    self.stats["proofs_reused"] += 1
                    verified.append(member)
                else:
                    pending.append(member)
            la = self._lit(verified[0], check_frame)
            distinguished = False
            for sign in (1, -1):
                for member in pending:
                    key = (leader, member.net, sign)
                    if key in cores:
                        continue
                    lb = self._lit(member, check_frame)
                    if self._query([sign * la, -sign * lb], budget,
                                   guards=live):
                        distinguished = True
                        break
                    cores[key] = solver.failed_assumptions()
                if distinguished:
                    break
            if not distinguished:
                for member in pending:
                    proofs[(leader, member.net)] = frozenset(
                        (cores[(leader, member.net, 1)]
                         | cores[(leader, member.net, -1)]) & live_set)
                verified.extend(pending)
                done.append(verified)
                continue
            check_values = self._replay_model(self.k + 1)[-1]
            items.append((verified, pending))
            items = self._split_items(items, self._value_key([check_values]))
        return done, len(done) > len(classes)


class StaleProofs(SatCorrespondence):
    """Planted fault: retiring a guard drops its index entry but leaves
    every proof whose core named it standing."""

    def _unprove(self, act):
        self._dependents.pop(act)


def signed_classes(product, engine_class, **options):
    classes, _ = engine_class(product, **options).compute()
    return {frozenset((sig.net, sig.complemented) for sig in cls)
            for cls in classes}


def row_product(name):
    spec, impl = row_by_name(name).pair()
    return build_product(spec, impl, match_outputs="order")


@pytest.mark.parametrize("name", BENCH_ROWS)
def test_bench_rows_match_round_by_round(name):
    product = row_product(name)
    assert signed_classes(product, SatCorrespondence) == signed_classes(
        product, RoundByRound)


@pytest.mark.parametrize("entry", discover(CORPUS_DIR), ids=lambda e: e.id)
def test_corpus_matches_round_by_round(entry):
    spec, impl = build_pair(entry.recipe)
    product = build_product(spec, impl, match_outputs="order")
    assert signed_classes(product, SatCorrespondence) == signed_classes(
        product, RoundByRound)


@pytest.mark.parametrize("k", [1, 2])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_random_pairs_match_round_by_round(k, seed):
    """Weak two-frame seeding leaves T0 coarse, so the worklist splits,
    breaks proofs and queues classes for later rounds."""
    spec = random_sequential_circuit(seed, n_inputs=2, n_regs=6, n_gates=20)
    impl = optimize(spec, level=2, seed=seed + 1)
    product = build_product(spec, impl, match_outputs="order")
    weak = {"k": k, "sim_frames": 2, "sim_width": 1}
    assert signed_classes(product, SatCorrespondence, **weak) == (
        signed_classes(product, RoundByRound, **weak))


def test_stale_proofs_are_caught():
    """Without marking broken proofs unproven the worklist stops early on
    a partition coarser than the maximum correspondence."""
    differ = []
    for name in ("s208", "s420", "s838"):
        product = row_product(name)
        stale = {frozenset(net for net, _ in cls)
                 for cls in signed_classes(product, StaleProofs)}
        if normalize(stale) != normalize(bdd_partition_netsets(product)):
            differ.append(name)
    assert differ


SCHEDULE_SCRIPT = """
import json, sys
from repro.circuits import row_by_name
from repro.netlist import build_product
from repro.core.satbackend import SatCorrespondence
out = {}
for name in sys.argv[1:]:
    spec, impl = row_by_name(name).pair()
    engine = SatCorrespondence(build_product(spec, impl,
                                             match_outputs="order"))
    _, rounds = engine.compute()
    out[name] = [rounds, engine.solver_stats()]
print(json.dumps(out, sort_keys=True))
"""


def test_schedule_is_the_same_under_any_hash_seed():
    """Nets are strings, whose hashes change with ``PYTHONHASHSEED``; the
    worklist and its guard index must not depend on their set order."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "..", "..", "src")
    runs = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", SCHEDULE_SCRIPT, "s838", "s5378"],
            env=env, capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out))
    assert runs[0] == runs[1]
