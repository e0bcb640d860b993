import math
import random

import mpmath
import pytest
from hypothesis import given, strategies as st

from quasitrace.xfloat import XReal, sci

from oracles import rel_gap, xreal

EPS = 2.0 ** -52
EXPONENTS = st.integers(-10**4, 10**4)
MANTISSAS = st.floats(-1e6, 1e6, allow_nan=False)
XREALS = st.builds(XReal, MANTISSAS, EXPONENTS)


def test_round_trip_moderate_values():
    rng = random.Random(0)
    for _ in range(200):
        x = rng.uniform(-1e6, 1e6)
        assert float(XReal(x)) == x


def test_arithmetic_matches_floats():
    rng = random.Random(1)
    for _ in range(300):
        a, b = rng.uniform(-50, 50), rng.uniform(-50, 50)
        assert float(XReal(a) * XReal(b)) == pytest.approx(a * b, rel=1e-15, abs=1e-300)
        assert float(XReal(a) + XReal(b)) == pytest.approx(a + b, rel=1e-15, abs=1e-12)
        assert float(XReal(a) - b) == pytest.approx(a - b, rel=1e-15, abs=1e-12)


def test_huge_range_products():
    x = XReal(1.5, 5000)  # 1.5 * 2**5000
    y = x * x
    assert y.log2() == pytest.approx(2 * x.log2(), rel=1e-14)
    assert float(y) == math.inf
    assert float(XReal(1.0, -5000) * XReal(1.0, 5000)) == 1.0


def test_addition_alignment_and_absorption():
    big = XReal(1.0, 2000)
    tiny = XReal(1.0, -2000)
    assert (big + tiny) == big  # absorbed beyond float precision
    same = XReal(3.0, 100) + XReal(1.0, 100)
    assert same.log2() == pytest.approx(102.0)


def test_comparisons_across_magnitudes():
    assert XReal(1.0, 100) > XReal(1.9, 99)
    assert XReal(-1.0, 100) < XReal(1.0, -100)
    assert XReal(-1.0, 100) < XReal(-1.0, 99)
    assert XReal(0.0) < XReal(1e-300)
    assert abs(XReal(-2.5)) == XReal(2.5)


def test_sqrt_and_power():
    for value, exp in ((2.0, 0), (1.7, 301), (0.3, -200)):
        x = XReal(value, exp)
        s = x.sqrt()
        assert (s * s).log2() == pytest.approx(x.log2(), abs=1e-12)
        p = x.pow_3_2()
        assert p.log2() == pytest.approx(1.5 * x.log2(), abs=1e-12)
    with pytest.raises(ValueError):
        XReal(-1.0).sqrt()


def test_sci_formatting():
    assert XReal(0.0).sci() == "0.0"
    assert XReal(1.0).sci().startswith("1.0000000000")
    s = XReal(1.5, 1000).sci()
    mant, expo = s.split("e")
    assert 1.0 <= float(mant) < 10.0
    assert int(expo) == math.floor(1000 * math.log10(2) + math.log10(1.5))
    assert XReal(-2.0).sci().startswith("-2.")


# (m, e, the string XReal.sci gave before it called `sci`)
SCI_CASES = [
    (0.0, 0, "0.0"),
    (-0.0, 0, "0.0"),
    (-0.875, 2, "-3.500000000000e+00"),
    (0.75, 10**4, "1.496297337661e+3010"),
    (-0.6, -10**4, "-3.007423649525e-3011"),
    (0.5, -10**4, "2.506186374602e-3011"),
    # just below a power of ten: the mantissa rounds to 10 - 5e-13 or more
    # and rolls over to 1.0 at the next exponent
    (0.999999999999977, 0, "1.000000000000e+00"),
    (0.6249999999999857, 4, "1.000000000000e+01"),
    (0.9094947017729057, 40, "1.000000000000e+12"),
    (-0.6553599999999853, -16, "-1.000000000000e-05"),
]


@pytest.mark.parametrize("m, e, want", SCI_CASES)
def test_sci_of_mantissa_and_exponent_is_xreal_sci(m, e, want):
    assert sci(m, e) == XReal(m, e).sci() == want


def test_rel_gap():
    assert rel_gap(1.0, 1.0) == 0.0
    assert rel_gap(XReal(1.0, 400), XReal(1.0, 400)) == 0.0
    gap = rel_gap(XReal(1.0, 400) * (1.0 + 1e-10), XReal(1.0, 400))
    assert gap == pytest.approx(1e-10, rel=1e-3)
    assert rel_gap(xreal(0.0), xreal(1e-12)) == pytest.approx(1e-12, rel=1e-3)


# ---------------------------------------------------------------------------
# properties against 60-digit mpmath
# ---------------------------------------------------------------------------

def _mp(x: XReal):
    return mpmath.ldexp(mpmath.mpf(x.m), x.e)


@st.composite
def xreal_pairs(draw):
    """Pairs at any distance, often close enough in exponent to interact."""
    a = draw(XREALS)
    near = st.integers(a.e - 64, a.e + 64)
    return a, XReal(draw(MANTISSAS), draw(st.one_of(EXPONENTS, near)))


@given(xreal_pairs())
def test_add_and_sub_match_mpmath(pair):
    a, b = pair
    with mpmath.workdps(60):
        A, B = _mp(a), _mp(b)
        scale = max(abs(A), abs(B))
        assert abs(_mp(a + b) - (A + B)) <= EPS * scale
        assert abs(_mp(a - b) - (A - B)) <= EPS * scale
    if a and b and abs(a.e - b.e) > 60:
        # the smaller term lies below half an ulp of the larger: absorbed exactly
        hi = a if a.e > b.e else b
        assert ((a + b).m, (a + b).e) == (hi.m, hi.e)


@given(xreal_pairs())
def test_mul_matches_mpmath(pair):
    a, b = pair
    with mpmath.workdps(60):
        exact = _mp(a) * _mp(b)
        assert abs(_mp(a * b) - exact) <= EPS * abs(exact)


@given(xreal_pairs())
def test_comparisons_match_mpmath(pair):
    a, b = pair
    with mpmath.workdps(60):
        A, B = _mp(a), _mp(b)
    assert (a < b, a <= b, a > b, a >= b, a == b) == (A < B, A <= B, A > B, A >= B, A == B)
    assert a == a and not a < a


@given(XREALS)
def test_sqrt_matches_mpmath(a):
    with mpmath.workdps(60):
        exact = mpmath.sqrt(abs(_mp(a)))
        assert abs(_mp(abs(a).sqrt()) - exact) <= EPS * exact


@given(xreal_pairs(), st.floats(1e-300, 1e300))
def test_rel_gap_matches_mpmath(pair, floor):
    a, b = pair
    with mpmath.workdps(60):
        A, B = _mp(a), _mp(b)
        exact = abs(A - B) / max(mpmath.mpf(floor), abs(A), abs(B))
        # the difference is good to EPS of the scale, log2 of exponents up to
        # 1e4 to about 2e-12
        assert abs(rel_gap(a, b, floor) - exact) <= 1e-11 * exact + 2 * EPS


@given(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**53, 2**53))
def test_equal_values_hash_equal(x):
    a = XReal(x)
    assert a == x and hash(a) == hash(x)
    assert len({a, x}) == 1
