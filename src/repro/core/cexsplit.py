"""Counterexample-guided class splitting, shared by both refinement backends.

Whenever a refinement query produces a *witness* — a SAT model in the CNF
backend, a satisfying BDD assignment in the symbolic backend — that witness
is a concrete state/input pattern on which two candidate signals differ.
Instead of consuming it only to separate the queried pair, both backends
replay it against *every* current equivalence class: any class whose members
disagree on the replayed values is split immediately, turning one expensive
query into a mass refinement step (the FRAIG-style "simulate the
counterexample" rule).

Splitting by concrete values is sound for the same reason the simulation
pre-partition is (§4 of the paper): the witness satisfies the current
correspondence condition Q, and every valid correspondence holds in every
Q-state, so signals separated by the witness can never be in the maximum
relation.
"""

from ..netlist.simulate import bit_parallel_eval, next_state


def partition_by_value(members, value_of):
    """Group ``members`` by ``value_of(member)``, preserving first-seen order.

    Returns a list of non-empty groups; a single group means the witness had
    no splitting power over these members.  Values only need to be hashable —
    the SAT backend packs per-frame bits into integers, the BDD backend uses
    evaluated function values.
    """
    buckets = {}
    order = []
    for member in members:
        value = value_of(member)
        group = buckets.get(value)
        if group is None:
            group = buckets[value] = []
            order.append(value)
        group.append(member)
    return [buckets[value] for value in order]


def replay_pattern(circuit, initial_state, input_frames, sim=None):
    """Replay one concrete pattern through ``len(input_frames)`` frames.

    ``initial_state`` maps every register to its frame-0 value and
    ``input_frames[j]`` maps every primary input to its frame-``j`` value.
    Returns one full net valuation (``{net: 0/1}``) per frame, computed with
    the same bit-parallel evaluator the random-simulation seeding uses, so a
    replayed witness is guaranteed to agree with the circuit semantics the
    solver encoded.  Pass a prebuilt :class:`CompiledSim` as ``sim`` to reuse
    the compiled kernel across replays (the engines do).
    """
    if sim is None:
        state = {net: int(bool(value)) for net, value in initial_state.items()}
        frames = []
        for inputs in input_frames:
            env = {net: int(bool(value)) for net, value in inputs.items()}
            env.update(state)
            values = bit_parallel_eval(circuit, env, 1)
            frames.append(values)
            state = next_state(circuit, values)
        return frames
    return sim.replay(initial_state, input_frames)


def replay_packed(sim, patterns):
    """Replay many packed patterns bit-parallel in one pass.

    Each pattern is ``(state_bits, frame_bits)``: ``state_bits`` packs the
    frame-0 register values (bit *r* = register ``sim.registers[r]``) and
    ``frame_bits[t]`` packs the frame-``t`` input values (bit *j* = input
    ``sim.inputs[j]``).  Pattern *i* occupies bit *i* of every returned word;
    the result is one word list per frame, indexed by ``sim.index(net)``.

    Many witnesses thus cost one compiled simulation at width
    ``len(patterns)`` instead of one replay each.
    """
    width = len(patterns)
    if width == 0:
        return []
    n_frames = len(patterns[0][1])
    state_words = [0] * len(sim.registers)
    for i, (state_bits, frame_bits) in enumerate(patterns):
        if len(frame_bits) != n_frames:
            raise ValueError("patterns disagree on frame count")
        bit = 1 << i
        for r in range(len(state_words)):
            if (state_bits >> r) & 1:
                state_words[r] |= bit
    input_frame_words = []
    for t in range(n_frames):
        words = [0] * len(sim.inputs)
        for i, (_, frame_bits) in enumerate(patterns):
            bits = frame_bits[t]
            if bits:
                bit = 1 << i
                for j in range(len(words)):
                    if (bits >> j) & 1:
                        words[j] |= bit
        input_frame_words.append(words)
    return sim.replay_words(state_words, input_frame_words, width)
