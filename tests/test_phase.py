import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasitrace.phase import PRECISION_BITS, PhasePoint, omega

RAWS = st.integers(0, (1 << PRECISION_BITS) - 1)
HALF_ULP = Fraction(1, 1 << (PRECISION_BITS + 1))


def test_precision_default_at_least_96():
    assert PRECISION_BITS >= 96


def test_omega_satisfies_golden_identity():
    om = omega()
    # w**2 + w - 1 = 0 to working precision
    defect = ((om.raw * om.raw) >> PRECISION_BITS) + om.raw - (1 << PRECISION_BITS)
    assert abs(defect) <= 1 << (PRECISION_BITS - 90)
    assert abs(float(om) - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-15


def test_omega_is_the_nearest_point():
    # |omega * 2**128 - r| < 1/2, squared out of 2r + 2**128 -+ 1 <> sqrt(5) * 2**128
    r, one = omega().raw, 1 << PRECISION_BITS
    assert (2 * r + one - 1) ** 2 < 5 * one**2 < (2 * r + one + 1) ** 2


def test_decimal_round_trip():
    p = PhasePoint.from_decimal("0.25")
    assert float(p) == 0.25
    assert p.to_decimal(6) == "0.250000"


def test_fraction_and_decimal_agree():
    assert PhasePoint.from_fraction(1, 4) == PhasePoint.from_decimal("0.25")
    assert PhasePoint.from_fraction(5, 4) == PhasePoint.from_decimal("0.25")


def test_raw_range_enforced():
    with pytest.raises(ValueError):
        PhasePoint(1 << PRECISION_BITS)
    with pytest.raises(ValueError):
        PhasePoint(-1)


# ---------------------------------------------------------------------------
# properties against fractions.Fraction mod 1
# ---------------------------------------------------------------------------

def _value(x: PhasePoint) -> Fraction:
    return Fraction(x.raw, 1 << PRECISION_BITS)


def _circle_distance(a: Fraction, b: Fraction) -> Fraction:
    d = (a - b) % 1
    return min(d, 1 - d)


@given(st.integers(-10**40, 10**40), st.integers(1, 10**40))
def test_from_fraction_rounds_to_nearest(num, den):
    x = PhasePoint.from_fraction(num, den)
    assert _circle_distance(_value(x), Fraction(num, den)) <= HALF_ULP


@given(RAWS, st.integers(1, 130))
def test_decimal_round_trip_property(raw, digits):
    x = PhasePoint(raw)
    text = x.to_decimal(digits)
    # to_decimal truncates; from_decimal rounds to the nearest point
    assert Fraction(text) == Fraction(math.floor(_value(x) * 10**digits), 10**digits)
    back = PhasePoint.from_decimal(text)
    assert _circle_distance(_value(back), Fraction(text)) <= HALF_ULP
    if Fraction(1, 10**digits) <= HALF_ULP:
        assert back == x
