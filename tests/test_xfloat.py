import math
import random
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from quasitrace import xfloat
from quasitrace.xfloat import sci

from oracles import XReal, rel_gap, xreal

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


# ---------------------------------------------------------------------------
# the (m, e) array operations against XReal, bit for bit, and mpmath
# ---------------------------------------------------------------------------

def f64(value):
    return struct.pack("<d", value)  # tells -0.0 from 0.0


def bits(values):
    return [(f64(x.m), x.e) for x in values]


def arrays(values):
    """XReals as an (m, e) pair of arrays."""
    return np.array([x.m for x in values]), np.array([x.e for x in values], dtype=np.int64)


def array_bits(m, e):
    return [(f64(a), b) for a, b in zip(m.tolist(), e.tolist())]


# zeros of either sign, XReal(0.0) and its negation, and exponents far past
# float range (2**1024) on both sides
SIGNED = st.builds(lambda x, negate: -x if negate else x,
                   XREALS | st.just(XReal(0.0)), st.booleans())


@st.composite
def gapped_pairs(draw):
    """Pairs near in exponent, at any distance, or with a gap near and past the
    1080 of XReal's absorption rule, in either order."""
    a = draw(SIGNED)
    gap = draw(st.integers(0, 64) | st.integers(1070, 1090) | st.integers(1081, 5000)
               | st.integers(0, 2 * 10**4))
    b = XReal(draw(MANTISSAS), a.e + draw(st.sampled_from([gap, -gap])))
    b = -b if draw(st.booleans()) else b
    return (a, b) if draw(st.booleans()) else (b, a)


PAIR_LISTS = st.lists(gapped_pairs(), min_size=1, max_size=8)


def pair_arrays(pairs):
    return (*arrays([a for a, _ in pairs]), *arrays([b for _, b in pairs]))


@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), EXPONENTS),
                min_size=1, max_size=8))
@example([(-0.0, 7), (0.0, -3), (5e-324, 0), (-3.0, 10**4)])
def test_normalized_is_the_xreal_constructor(values):
    m, e = (np.array(v) for v in zip(*values))
    assert array_bits(*xfloat.normalized(m, e)) == bits([XReal(*v) for v in values])


@given(PAIR_LISTS)
@example([(XReal(0.0), -XReal(0.0)), (-XReal(0.0), XReal(0.0)), (-XReal(0.0), -XReal(0.0)),
          (XReal(0.75, -2000), XReal(0.0)), (XReal(0.0), XReal(-0.5, 3000)),
          (XReal(0.75, 3), XReal(-0.75, 3))])
@example([(XReal(0.75, 0), XReal(0.9, -1080)), (XReal(0.75, 0), XReal(0.9, -1081)),
          (XReal(-0.5, 1081), XReal(0.99, 0)), (XReal(0.5, 0), XReal(0.5, -1074))])
def test_array_add_is_xreal_add(pairs):
    got = xfloat.add(*pair_arrays(pairs))
    assert array_bits(*got) == bits([a + b for a, b in pairs])
    with mpmath.workdps(60):
        for (a, b), m, e in zip(pairs, *got):
            A, B = _mp(a), _mp(b)
            assert abs(mpmath.ldexp(mpmath.mpf(float(m)), int(e)) - (A + B)) <= EPS * max(
                abs(A), abs(B))


@given(PAIR_LISTS)
@example([(XReal(0.0), XReal(0.5, 10**4)), (-XReal(0.0), XReal(-0.75, -10**4)),
          (XReal(0.999, 9000), XReal(-0.999, 9000))])
def test_array_mul_is_xreal_mul(pairs):
    got = xfloat.mul(*pair_arrays(pairs))
    assert array_bits(*got) == bits([a * b for a, b in pairs])
    with mpmath.workdps(60):
        for (a, b), m, e in zip(pairs, *got):
            exact = _mp(a) * _mp(b)
            assert abs(mpmath.ldexp(mpmath.mpf(float(m)), int(e)) - exact) <= EPS * abs(exact)


@given(PAIR_LISTS)
@example([(XReal(0.0), -XReal(0.0)), (XReal(0.5, 2000), XReal(0.5, 2000)),
          (XReal(0.75, 0), XReal(0.75, -1200)), (XReal(-0.75, -1200), XReal(0.0))])
def test_array_compare_is_the_xreal_comparison(pairs):
    signs = xfloat.compare(*pair_arrays(pairs)).tolist()
    assert signs == [(a > b) - (a < b) for a, b in pairs]
    with mpmath.workdps(60):
        assert signs == [(A > B) - (A < B) for A, B in ((_mp(a), _mp(b)) for a, b in pairs)]


@given(st.lists(SIGNED.map(abs), min_size=1, max_size=8))
@example([XReal(0.5, 1), XReal(0.5, 2), XReal(0.75, -10**4 - 1), XReal(0.75, 10**4),
          XReal(0.0), -XReal(0.0)])
def test_array_sqrt_is_xreal_sqrt(values):
    # odd and even exponents, on both sides of float range
    got = xfloat.sqrt(*arrays(values))
    assert array_bits(*got) == bits([x.sqrt() for x in values])
    with mpmath.workdps(60):
        for x, m, e in zip(values, *got):
            exact = mpmath.sqrt(_mp(x))
            assert abs(mpmath.ldexp(mpmath.mpf(float(m)), int(e)) - exact) <= EPS * exact


def test_array_sqrt_rejects_a_negative_value():
    with pytest.raises(ValueError):
        xfloat.sqrt(*arrays([XReal(4.0), XReal(-1.0, 3000)]))
    with pytest.raises(ValueError):
        XReal(-1.0, 3000).sqrt()


@given(st.lists(SIGNED, min_size=1, max_size=8))
@example([XReal(0.75, 1024), XReal(-0.75, 1025), XReal(0.75, -1074), XReal(-0.99, -1075)])
def test_ldexp_reads_pairs_as_xreal_floats(values):
    # np.ldexp is how `spectrum.norm_growth_check` reads norm sums: +-inf past
    # 2**1024 and zero below 2**-1074, as float(XReal)
    with np.errstate(over="ignore"):
        assert np.ldexp(*arrays(values)).tolist() == [float(x) for x in values]


@given(st.lists(SIGNED, min_size=1, max_size=8))
def test_sci_of_arrays_is_xreal_sci(values):
    m, e = arrays(values)
    strings = [sci(a, b) for a, b in zip(m.tolist(), e.tolist())]
    assert strings == [x.sci() for x in values]
    with mpmath.workdps(60):
        for x, text in zip(values, strings):
            # 13 digits, from a log of up to 3,011 decimal digits: good to a
            # few 1e-13 relative
            exact = _mp(x)
            assert abs(mpmath.mpf(text) - exact) <= 1e-11 * abs(exact)
