"""The one-pass report writer: valid JSON for any text, and the bytes of the
recursive writer it replaced wherever that one wrote valid JSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from advbayes import reportio

# Any text but lone surrogates, which no JSON text can carry.
any_text = st.text(st.characters(blacklist_categories=("Cs",)))
finite = st.floats(allow_nan=False, allow_infinity=False)
json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | any_text,
    lambda inner: st.lists(inner) | st.dictionaries(any_text, inner),
    max_leaves=30)


@given(json_payloads)
@settings(deadline=None, max_examples=300)
def test_loads_gives_back_the_payload(payload):
    assert json.loads(reportio.dumps(payload)) == payload


@pytest.mark.parametrize("text", ["a\nb", "\x00", "\x1f", "tab\there", "\r\x08\x0c", "\x7f"])
def test_control_characters_escaped_in_keys_and_values(text):
    out = reportio.dumps({text: [text, {"w": text}]})
    assert not any(ord(ch) < 0x20 and ch != "\n" for ch in out)
    assert json.loads(out) == {text: [text, {"w": text}]}


@pytest.mark.parametrize("payload", [math.nan, [1.0, math.nan], {"a": {"b": np.float64("nan")}}])
def test_nan_raises(payload):
    with pytest.raises(ValueError, match="NaN"):
        reportio.dumps(payload)


def test_unknown_type_raises():
    with pytest.raises(TypeError, match="cannot serialize int64"):
        reportio.dumps([np.int64(1)])


# -- against the recursive writer -------------------------------------------------

# Text without control characters; keys also without the quote and backslash
# that the recursive writer left unescaped in keys.
plain_text = st.text(st.characters(blacklist_categories=("Cs",), min_codepoint=0x20))
plain_keys = st.text(st.characters(blacklist_categories=("Cs",), min_codepoint=0x20,
                                   blacklist_characters='"\\'))
floats = (st.floats(allow_nan=False)
          | st.sampled_from([math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308 / 3])
          | st.floats(allow_nan=False).map(np.float64))
report_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | floats | plain_text,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(plain_keys, inner)),
    max_leaves=30)


@st.composite
def deep_payloads(draw):
    """A payload nested 5 to 8 levels deep in lists, tuples and dicts."""
    payload = draw(report_payloads)
    for _ in range(draw(st.integers(5, 8))):
        wrap = draw(st.sampled_from(["list", "tuple", "dict", "empty-sibling"]))
        if wrap == "list":
            payload = [payload]
        elif wrap == "tuple":
            payload = (draw(floats), payload)
        elif wrap == "dict":
            payload = {draw(plain_keys): payload, "z": []}
        else:
            payload = [{}, payload, ()]
    return payload


@given(st.one_of(report_payloads, deep_payloads()), st.integers(0, 4))
@settings(deadline=None, max_examples=300)
def test_bytes_equal_the_recursive_writer(payload, indent):
    assert reportio.dumps(payload, indent) == oracles.literal_dumps(payload, indent)
