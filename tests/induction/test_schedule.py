"""Depth scheduling in the k-induction engine: the depth loop and its rounds."""

from repro.circuits import onehot_chain_pair, onehot_ring_pair
from repro.induction import PROGRESS_INDUCTION_ROUND, KInductionEngine


def _recorder():
    events = []

    def progress(kind, **data):
        events.append((kind, data))

    return events, progress


def test_depths_iterates_start_to_max():
    events, progress = _recorder()
    spec, impl = onehot_chain_pair(8)
    engine = KInductionEngine(max_depth=5, strengthen=False, progress=progress)
    result = engine.verify(spec, impl, match_outputs="order")
    assert result.equivalent is None
    assert result.details["bound_reached"] == 5
    assert [data["depth"] for _, data in events] == [1, 2, 3, 4, 5]


def test_emit_round_counts_and_forwards():
    events, progress = _recorder()
    spec, impl = onehot_ring_pair()
    engine = KInductionEngine(progress=progress)
    result = engine.verify(spec, impl, match_outputs="order")
    assert result.proved
    assert engine.rounds == len(events) == result.details["rounds"]
    assert [kind for kind, _ in events] == [PROGRESS_INDUCTION_ROUND] * len(events)
    assert events[0][1]["depth"] == 1 and events[0][1]["round"] == 1
    assert [data["round"] for _, data in events] == list(range(1, len(events) + 1))
    assert all(data["proved"] is False for _, data in events[:-1])
    assert events[-1][1]["proved"] is True
