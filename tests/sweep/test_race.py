"""FRAIG reduction is sound under every knob setting a caller may pick.

:func:`fraig_reduce` has knobs with no universally right setting: wide
simulation (few rounds, many patterns) and deep simulation (many
rounds).  Which setting "wins" on a given netlist — finishes first, or
merges most — varies, so each must hand downstream engines a reduced
circuit that is bit-identical to the original on every output, frame by
frame.
"""

import random

from repro.netlist import CompiledSim
from repro.sweep import FraigReduction, fraig_reduce

from ..netlist.helpers import random_sequential_circuit

#: (label, fraig_reduce keyword overrides): "wide" spends its simulation
#: budget on patterns per round, "deep" on rounds.
STRATEGIES = (
    ("wide", {"sim_rounds": 2, "sim_width": 128}),
    ("deep", {"sim_rounds": 8, "sim_width": 32}),
)


def random_frames(circuit, n_frames, rng):
    return [
        {net: rng.randint(0, 1) for net in circuit.inputs}
        for _ in range(n_frames)
    ]


def test_race_winner_is_bit_identical_to_original():
    circuit = random_sequential_circuit(7, n_inputs=3, n_regs=4, n_gates=18)
    rng = random.Random(0xACE)
    frames = random_frames(circuit, 6, rng)
    orig = CompiledSim(circuit).replay(circuit.initial_state(), frames)
    for label, options in STRATEGIES:
        reduction = fraig_reduce(circuit, **options)
        assert isinstance(reduction, FraigReduction), label
        stats = reduction.stats
        assert stats["ands_after"] <= stats["ands_before"], label
        red = CompiledSim(reduction.reduced).replay(
            reduction.reduced.initial_state(), frames)
        for orig_frame, red_frame in zip(orig, red):
            for net in circuit.outputs:
                assert orig_frame[net] == red_frame[net], (label, net)
