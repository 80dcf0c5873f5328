"""Counterexample replay: the ground-truth oracle for refutations.

A :class:`~repro.reach.CexTrace` *claims* that driving both circuits with a
concrete input sequence makes some corresponding output pair differ.  Every
engine builds its traces from a different artifact — simulation signatures
(van Eijk), SAT models over an unrolling (BMC), BDD onion rings (traversal)
— and a bug in any of those reconstructions produces a verdict that *looks*
refuted but is not.  Replaying the trace concretely on both original
circuits with plain gate evaluation is the one check that does not share
code with any engine, which is what makes it a usable differential oracle
(the same cross-check FRAIG-style equivalence checkers run before trusting
a SAT counterexample).

:func:`replay_counterexample` is deliberately engine-agnostic; it is used

* by the fuzz harness, on every refutation any engine emits;
* by the portfolio racer, to disqualify a lane whose "refutation" does not
  replay (see :mod:`repro.service.portfolio`);
* by engine tests, as a reusable assertion that a trace is real.
"""

from ..netlist.simulate import make_sim


class ReplayReport:
    """Outcome of replaying one trace on a (spec, impl) pair.

    ``valid`` is True iff some corresponding output pair differs in some
    frame of the replay.  ``mismatch_frame``/``spec_output``/``impl_output``
    locate the first difference; ``reason`` explains an invalid replay
    (no mismatch, malformed trace, simulation error).  ``missing_inputs``
    counts input nets a frame did not assign (replayed as 0) — nonzero
    means the trace under-specifies the stimulus, which is tolerated but
    recorded.
    """

    def __init__(self, valid, frames=0, mismatch_frame=None,
                 spec_output=None, impl_output=None, reason=None,
                 missing_inputs=0):
        self.valid = valid
        self.frames = frames
        self.mismatch_frame = mismatch_frame
        self.spec_output = spec_output
        self.impl_output = impl_output
        self.reason = reason
        self.missing_inputs = missing_inputs

    def as_dict(self):
        return {
            "valid": self.valid,
            "frames": self.frames,
            "mismatch_frame": self.mismatch_frame,
            "spec_output": self.spec_output,
            "impl_output": self.impl_output,
            "reason": self.reason,
            "missing_inputs": self.missing_inputs,
        }

    def __repr__(self):
        if self.valid:
            return "ReplayReport(valid, frame={}, {} != {})".format(
                self.mismatch_frame, self.spec_output, self.impl_output)
        return "ReplayReport(INVALID: {})".format(self.reason)


def replay_trace(circuit, frames, input_map=None, sim=None):
    """Drive ``circuit`` from its initial state with explicit input vectors.

    ``frames`` is a list of ``{net: bool}`` dicts keyed by the *trace's*
    input names; ``input_map`` maps each of the circuit's input nets to the
    trace name supplying it (identity by default).  Unassigned inputs
    replay as 0.  Returns ``(per_frame_outputs, missing)`` where
    ``per_frame_outputs[t]`` lists the circuit's output values (by output
    position) in frame ``t``.

    ``sim`` lets callers reuse a prebuilt kernel for ``circuit`` across
    many traces; otherwise one is built on the fly.
    """
    if sim is None:
        sim = make_sim(circuit)
    input_frames = []
    missing = 0
    for frame in frames:
        env = {}
        for net in circuit.inputs:
            source = input_map.get(net, net) if input_map else net
            if source in frame:
                env[net] = int(bool(frame[source]))
            else:
                env[net] = 0
                missing += 1
        input_frames.append(env)
    replayed = sim.replay(circuit.initial_state(), input_frames)
    per_frame = [
        [bool(values[net]) for net in circuit.outputs]
        for values in replayed
    ]
    return per_frame, missing


def _output_pairs(spec, impl, match_outputs):
    """Positional (spec_idx, impl_idx) pairs under the matching mode."""
    if match_outputs == "order":
        return list(zip(range(len(spec.outputs)), range(len(impl.outputs))))
    if match_outputs == "name":
        impl_pos = {net: idx for idx, net in enumerate(impl.outputs)}
        return [(idx, impl_pos[net]) for idx, net in enumerate(spec.outputs)]
    raise ValueError("match_outputs must be 'name' or 'order'")


def replay_counterexample(spec, impl, cex, match_inputs="name",
                          match_outputs="order"):
    """Replay ``cex`` on both circuits; returns a :class:`ReplayReport`.

    The trace's input names are the product machine's, i.e. the spec's
    primary input names; with ``match_inputs="order"`` the impl's inputs
    are fed positionally from the same vectors, mirroring
    :func:`repro.netlist.product.build_product`.
    """
    if cex is None:
        return ReplayReport(False, reason="no counterexample attached")
    frames = cex.full_sequence()
    if not frames:
        return ReplayReport(False, reason="empty trace")
    if match_inputs == "name":
        impl_in_map = None
    elif match_inputs == "order":
        impl_in_map = dict(zip(impl.inputs, spec.inputs))
    else:
        return ReplayReport(False, reason="bad match_inputs {!r}".format(
            match_inputs))
    try:
        pairs = _output_pairs(spec, impl, match_outputs)
        spec_frames, spec_missing = replay_trace(spec, frames)
        impl_frames, impl_missing = replay_trace(impl, frames,
                                                 input_map=impl_in_map)
    except Exception as exc:  # malformed trace / circuit mismatch
        return ReplayReport(False, frames=len(frames),
                            reason="replay error: {!r}".format(exc))
    missing = spec_missing + impl_missing
    for t, (s_vals, i_vals) in enumerate(zip(spec_frames, impl_frames)):
        for s_idx, i_idx in pairs:
            if s_vals[s_idx] != i_vals[i_idx]:
                return ReplayReport(
                    True, frames=len(frames), mismatch_frame=t,
                    spec_output=spec.outputs[s_idx],
                    impl_output=impl.outputs[i_idx],
                    missing_inputs=missing,
                )
    return ReplayReport(
        False, frames=len(frames),
        reason="no output mismatch in any of {} frames".format(len(frames)),
        missing_inputs=missing,
    )


def validate_refutation(spec, impl, result, match_inputs="name",
                        match_outputs="order"):
    """Replay-check a refuting :class:`~repro.reach.SecResult`.

    Returns a :class:`ReplayReport`; a refutation with no attached trace is
    invalid by definition (nothing to audit).  Raises ``ValueError`` when
    the result is not a refutation — callers decide what *inconclusive*
    means, this function only audits claims of inequivalence.
    """
    if result.equivalent is not False:
        raise ValueError("result is not a refutation: {!r}".format(result))
    return replay_counterexample(spec, impl, result.counterexample,
                                 match_inputs=match_inputs,
                                 match_outputs=match_outputs)
