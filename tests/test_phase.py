import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasitrace.phase import PRECISION_BITS, EndpointMonitor, PhasePoint, omega

RAWS = st.integers(0, (1 << PRECISION_BITS) - 1)
HALF_ULP = Fraction(1, 1 << (PRECISION_BITS + 1))


def test_precision_default_at_least_96():
    assert PRECISION_BITS >= 96


def test_omega_satisfies_golden_identity():
    om = omega()
    # w**2 + w - 1 = 0 to working precision
    defect = ((om.raw * om.raw) >> om.bits) + om.raw - (1 << om.bits)
    assert abs(defect) <= 1 << (om.bits - 90)
    assert abs(float(om) - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-15


def test_decimal_round_trip():
    p = PhasePoint.from_decimal("0.25")
    assert float(p) == 0.25
    assert p.to_decimal(6) == "0.250000"


def test_fraction_and_decimal_agree():
    assert PhasePoint.from_fraction(1, 4) == PhasePoint.from_decimal("0.25")
    assert PhasePoint.from_fraction(5, 4) == PhasePoint.from_decimal("0.25")


def test_arithmetic_is_exact_and_closed():
    # dyadic fractions are represented exactly, so real identities hold exactly
    quarter = PhasePoint.from_fraction(1, 4)
    assert quarter.times(4) == PhasePoint.zero()
    assert quarter.add(quarter).add(quarter).add(quarter) == PhasePoint.zero()
    # non-dyadic values carry half-ulp rounding, but the fixed-point
    # operations themselves are exact: repeated addition equals multiplication
    third = PhasePoint.from_fraction(1, 3)
    assert third.add(third).add(third) == third.times(3)
    assert third.sub(third) == PhasePoint.zero()
    assert third.times(3 * 10**18 + 1) == third.times(3 * 10**18 + 1)


def test_add_rejects_mixed_precision():
    a = PhasePoint.from_decimal("0.5", bits=96)
    b = PhasePoint.from_decimal("0.5", bits=128)
    with pytest.raises(ValueError):
        a.add(b)


def test_raw_range_enforced():
    with pytest.raises(ValueError):
        PhasePoint(1 << PRECISION_BITS)
    with pytest.raises(ValueError):
        PhasePoint(-1)


def test_monitor_records_hits():
    mon = EndpointMonitor(max_samples=4)
    mon.record(7, 1e-30)
    assert mon.hits == 1
    assert mon.samples == [(7, 1e-30)]


# ---------------------------------------------------------------------------
# properties against fractions.Fraction mod 1
# ---------------------------------------------------------------------------

def _value(x: PhasePoint) -> Fraction:
    return Fraction(x.raw, 1 << x.bits)


def _circle_distance(a: Fraction, b: Fraction) -> Fraction:
    d = (a - b) % 1
    return min(d, 1 - d)


@given(RAWS, RAWS)
def test_add_sub_neg_are_exact_mod_one(a, b):
    x, y = PhasePoint(a), PhasePoint(b)
    assert _value(x.add(y)) == (_value(x) + _value(y)) % 1
    assert _value(x.sub(y)) == (_value(x) - _value(y)) % 1
    neg = x.times(-1)
    assert _value(neg) == (-_value(x)) % 1
    assert neg == PhasePoint.zero().sub(x) and neg.add(x) == PhasePoint.zero()
    assert x.add(y).sub(y) == x


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
