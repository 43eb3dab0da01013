"""The float text kernel against `float.__repr__`, value by value and byte for byte."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mh_phone import floatrepr

from helpers import float_families


def _kernel_text(rows):
    return floatrepr.rows_text(rows, [len(rows)], [b"[["], b"]]")


def _json_text(rows):
    """The reference: json.dumps spells every finite float with float.__repr__."""
    return json.dumps(rows.tolist()).encode()


def _spelled(digits, count, point):
    """repr's fixed notation of the nonnegative 0.d1...dn x 10^point."""
    text = str(digits)
    assert len(text) == count
    if point <= 0:
        return "0." + "0" * -point + text
    if point < count:
        return text[:point] + "." + text[point:]
    return text + "0" * (point - count) + ".0"


def test_a_million_values_of_every_family_spell_as_repr_does():
    families = float_families(np.random.default_rng(2022), 130_000)
    assert sum(map(len, families.values())) >= 1_000_000
    for name, values in families.items():
        rows = values.reshape(-1, 10)
        assert _kernel_text(rows) == _json_text(rows), name
    # corpus-like values are the kernel's, not repr's: 6 of these 130 000 go to repr
    assert floatrepr.shortest_digits(families["gaussian"])[3].mean() > 0.999


def test_certified_digits_are_the_digits_of_repr():
    families = float_families(np.random.default_rng(7), 20_000)
    values = np.concatenate(list(families.values()))
    digits, count, point, certified = floatrepr.shortest_digits(values)
    assert certified.mean() > 0.5
    for x, *found in zip(values[certified].tolist(), digits[certified].tolist(),
                         count[certified].tolist(), point[certified].tolist()):
        assert _spelled(*found) == repr(abs(x)), x


_EDGES = {
    "zeros": [0.0, -0.0],
    "powers of two": [s * 2.0 ** k for k in range(-40, 70) for s in (1.0, -1.0)],
    "whole numbers to 2^53": [1.0, 7.0, 10.0, 123456789.0, 2.0 ** 53 - 1, 2.0 ** 53,
                              2.0 ** 53 + 2, 9007199254740993.0, 4503599627370497.0],
    # repr writes 1e16 and more, and less than 1e-4, in exponent notation
    "switch at 1e16": [1e16, 9999999999999998.0, float(np.nextafter(1e16, 0.0)), 1e15,
                       1e16 + 2, 1.2345678901234567e16, 999999999999999.9],
    "switch at 1e-4": [1e-4, float(np.nextafter(1e-4, 0.0)), float(np.nextafter(1e-4, 1.0)),
                       1e-5, 9.999999999999999e-05, 0.00011, 0.000123456789, 9.5e-05],
    # exactly halfway between two shorter decimals, of which both read back
    # for the first three, so repr's choice decides
    "half-way": [1e15 + 0.25, 1e15 + 0.75, 2e15 + 0.25, 4503599627370495.5, 0.125, 2.5,
                 1e14 + 0.125, 1e14 + 0.375],
    "extremes": [5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                 1.7976931348623157e308, 0.1, 0.2, 0.30000000000000004, 1 / 3, 2 / 3],
}


@pytest.mark.parametrize("values", list(_EDGES.values()), ids=list(_EDGES))
def test_edge_values_spell_as_repr_does(values):
    rows = np.array(values + [-v for v in values]).reshape(-1, 1)
    assert _kernel_text(rows) == _json_text(rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_finite_floats_spell_as_repr_does(values):
    rows = np.array(values).reshape(-1, 1)
    assert _kernel_text(rows) == _json_text(rows)


def test_groups_get_their_heads_and_tails():
    rows = np.array([[0.5, -0.0], [1e-5, 3.25], [2.0, 1e20], [-7.0, 0.1]])
    text = floatrepr.rows_text(rows, [1, 3], [b"<a>", b"<b>"], b"!\n")
    assert text == b"<a>0.5, -0.0!\n<b>1e-05, 3.25], [2.0, 1e+20], [-7.0, 0.1!\n"
