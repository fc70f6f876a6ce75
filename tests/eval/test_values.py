"""``value_repr``: counterexamples and routes print in NV syntax."""

import pytest

from repro.eval.maps import DecodedMap
from repro.eval.values import VRecord, VSome, value_repr


@pytest.mark.parametrize("value, text", [
    (None, "None"),
    (VSome(3), "Some 3"),
    ((True, 0), "(true, 0)"),
    (VRecord((("lp", 100), ("nh", None))), "{lp=100; nh=None}"),
    (DecodedMap((), False), "createDict false"),
    (DecodedMap(((1, True), (7, False)), False),
     "(createDict false)[1 := true][7 := false]"),
    (DecodedMap(((2, VSome((1, 2))),), None),
     "(createDict None)[2 := Some (1, 2)]"),
    (DecodedMap((), VSome(4)), "createDict (Some 4)"),
    (DecodedMap(((0, DecodedMap((), 1)),), DecodedMap((), 0)),
     "(createDict (createDict 0))[0 := createDict 1]"),
    (VRecord((("comms", DecodedMap((), False)), ("origin", 2))),
     "{comms=createDict false; origin=2}"),
])
def test_value_repr(value, text):
    assert value_repr(value) == text
