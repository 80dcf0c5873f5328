"""Malformed netlist text fails with :class:`ReproError`, nothing else.

Each example applies one to four random character edits (delete, insert,
replace) to s208's ``.bench`` or BLIF text; the parser must return a
circuit or raise :class:`~repro.errors.ReproError`.  A guard, not a fix:
no edit is known to break the rule.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import table1_suite
from repro.errors import ReproError
from repro.netlist import Circuit, bench, blif

CODECS = {"bench": bench, "blif": blif}
S208 = next(row for row in table1_suite() if row.name == "s208").spec()
TEXTS = {name: codec.dumps(S208) for name, codec in CODECS.items()}

# The formats' own punctuation often, any other character sometimes.
chars = st.one_of(st.sampled_from("()=,.#-01 \t\n"), st.characters())


@st.composite
def edited(draw, text):
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        edit = draw(st.sampled_from(("delete", "insert", "replace")))
        if edit == "insert":
            text = text[:at] + draw(chars) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(chars) + text[at + 1:]
    return text


@pytest.mark.parametrize("fmt", sorted(CODECS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_edited_text_parses_or_raises_repro_error(fmt, data):
    text = data.draw(edited(TEXTS[fmt]))
    try:
        circuit = CODECS[fmt].loads(text)
    except ReproError:
        return
    assert isinstance(circuit, Circuit)
