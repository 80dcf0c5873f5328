"""Format-independent structural fingerprints.

A gate-level hash is rename-invariant but **not** format-invariant: a
``.bench`` XOR gate and the AND/NOT gates its AIGER encoding decomposes
into hash differently, so the same verification problem handed to the
fleet once as ``.bench`` and once as ``.aig`` would miss the result cache.

:func:`aig_fingerprint` hashes the circuit *after* AIG normalization:
convert to an AIG (XOR/OR/MUX all decompose to structurally-hashed
AND/NOT), canonically renumber, and digest the binary AIGER encoding with
symbol table and comments stripped.  All four
encodings of one circuit — ``.bench``, BLIF, ``.aag``, ``.aig`` — produce
the same digest, as does any round trip through the AIGER writer.  The
service cache key (:mod:`repro.service.job`) is built on this digest.
"""

import hashlib

from ..netlist.aig import Aig, from_circuit
from .aiger import dumps_aiger_binary


def aig_fingerprint(obj):
    """Hex digest of a circuit's (or AIG's) canonical binary-AIGER bytes.

    Invariant under net renaming, gate-level re-expression (XOR vs its
    AND/NOT expansion), serialization format, and AIGER round trips.
    """
    if isinstance(obj, Aig):
        aig = obj
    else:
        aig, _ = from_circuit(obj)
    payload = dumps_aiger_binary(aig, symbols=False, comments=False)
    return hashlib.sha256(payload).hexdigest()
