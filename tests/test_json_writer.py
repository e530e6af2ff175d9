"""The CLI's JSON writer against the encoder it replaced.

`cli._json` must print exactly what `json.dumps(indent=2, allow_nan=False)`
printed after the report walk below swapped every non-finite float for None,
and must refuse what `json.dumps` refuses with `json`'s own TypeError.
"""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qillum.cli import _json


def ref_finite(value):
    """value with every non-finite float, however deeply nested, replaced by None."""
    if isinstance(value, dict):
        return {key: ref_finite(v) for key, v in value.items()}
    if isinstance(value, list):
        return [ref_finite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def reference(value) -> str:
    return json.dumps(ref_finite(value), indent=2, allow_nan=False)


# Characters json escapes (quote, backslash, controls, DEL, non-ASCII, a lone
# surrogate and one outside the BMP), mixed with any code point at all.
TRICKY = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80é \ud800\U0001f600'
TEXT = st.text(st.sampled_from(TRICKY) | st.characters(exclude_categories=()))
EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7976931348623157e308,
               math.inf, -math.inf, math.nan, 0.1, 1e16, 1e-7)
SCALARS = (
    TEXT
    | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**70)
    | st.integers(max_value=-(2**63) + 1, min_value=-(2**70))
    | st.floats()
    | st.sampled_from(EDGE_FLOATS)
    | st.booleans()
    | st.none()
)


def containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4)


VALUES = st.recursive(SCALARS, containers, max_leaves=30)


class Level(enum.IntEnum):
    LOW = 1


class Name(str, enum.Enum):
    RHO = "rho"


@settings(max_examples=400, deadline=None)
@given(VALUES)
@example({})
@example([[], {"": {}}])
# int and str subclasses print through int.__repr__ and the str escaper, as json writes them
@example({"level": Level.LOW, "state": Name.RHO, "states": [Name.RHO]})
def test_writer_matches_json_dumps_with_non_finite_as_null(value):
    assert _json(value) == reference(value)


@settings(max_examples=100, deadline=None)
@given(st.floats() | st.sampled_from(EDGE_FLOATS))
def test_numpy_float64_prints_as_json_dumps_prints_it(x):
    # numpy.float64 subclasses float: json.dumps writes it with float.__repr__
    value = {"x": np.float64(x), "xs": [np.float64(x)]}
    assert _json(value) == reference(value)
    if math.isfinite(x):
        assert _json(np.float64(x)) == json.dumps(np.float64(x)) == repr(x)


@pytest.mark.parametrize("bad", [np.bool_(True), np.int64(3), {1, 2}])
@pytest.mark.parametrize("wrap", [lambda bad: bad, lambda bad: {"rows": [{"flagged": bad}]}])
def test_non_json_types_raise_jsons_type_error(bad, wrap):
    # numpy 2 names numpy.bool_ "bool": the message is json's, whatever the name
    message = f"Object of type {type(bad).__name__} is not JSON serializable"
    with pytest.raises(TypeError) as expected:
        json.dumps(wrap(bad), indent=2)
    assert str(expected.value) == message
    with pytest.raises(TypeError) as raised:
        _json(wrap(bad))
    assert str(raised.value) == message

