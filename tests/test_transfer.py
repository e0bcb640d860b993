import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasitrace.phase import PRECISION_BITS, PhasePoint
from quasitrace.words import fib_number, rotation_block
from quasitrace.xfloat import XReal, rel_gap
from quasitrace import spectrum as SP
from quasitrace import transfer as TR

TH0 = PhasePoint.zero()


def numpy_product(n, E, lam, theta):
    """Independent oracle: plain numpy product over the potential pattern."""
    acc = np.eye(2)
    if n >= 1:
        pattern = rotation_block(1, n, theta)
        for v in pattern:
            acc = np.array([[E - lam * v, -1.0], [1.0, 0.0]]) @ acc
    else:
        pattern = rotation_block(n + 1, 0, theta)
        for v in pattern:
            acc = acc @ np.array([[0.0, 1.0], [-1.0, E - lam * v]])
    return acc


def xreal_recursion(k_max, E, lam):
    """Phase-zero traces x_0..x_k_max from the spectrum recursion, run in XReal."""
    return SP._recurse(XReal(E), lam, k_max, False, keep_all=True)[0][:k_max + 1]


# ---------------------------------------------------------------------------
# local matrices and products
# ---------------------------------------------------------------------------

def test_local_matrix_examples():
    assert TR.local_matrix(1, 0.0, 2.0, TH0).entries() == (-2.0, -1.0, 1.0, 0.0)
    assert TR.local_matrix(2, 0.0, 2.0, TH0).entries() == (0.0, -1.0, 1.0, 0.0)
    assert TR.local_matrix(5, 3.0, 0.0, TH0).entries() == (3.0, -1.0, 1.0, 0.0)


def test_product_examples():
    assert TR.transfer_product(1, 0.0, 2.0, TH0).entries() == (-2.0, -1.0, 1.0, 0.0)
    assert TR.transfer_product(2, 0.0, 2.0, TH0).entries() == (-1.0, 0.0, -2.0, -1.0)
    assert TR.transfer_product(-1, 0.0, 2.0, TH0).entries() == (0.0, 1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        TR.transfer_product(0, 0.0, 2.0, TH0)


def test_products_match_numpy_oracle():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice([3, 8, -5, 21, -13, 34])
        E = rng.uniform(-3, 13)
        lam = rng.choice([0.0, 2.0, 10.0])
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        ours = TR.transfer_product(n, E, lam, theta)
        oracle = numpy_product(n, E, lam, theta)
        ref = np.array(ours.entries()).reshape(2, 2)
        assert np.allclose(ref, oracle, rtol=1e-12, atol=1e-12)


def test_determinant_one_long_products():
    # the determinant comes from cancelling entry products of size ||M||^2,
    # so the achievable accuracy is relative to that magnitude scale
    from quasitrace.xfloat import XReal
    for E, theta_text in ((0.11, "0.37"), (4.8, "0.0"), (9.3, "0.62")):
        for n in (10_000, 100_000, -100_000):
            m = TR.transfer_product(n, E, 10.0, PhasePoint.from_decimal(theta_text))
            defect = abs(m.det() - 1.0)
            scale = max(m.norm_sq(), XReal(1.0))
            assert defect <= 1e-10 * scale


def test_determinant_exact_at_moderate_lengths():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice([17, 100, -64, 987])
        E = rng.uniform(-3, 13)
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        m = TR.transfer_product(n, E, 10.0, theta)
        defect = abs(m.det() - 1.0)
        from quasitrace.xfloat import XReal
        scale = max(m.norm_sq(), XReal(1.0))
        assert defect <= 1e-12 * scale


COUPLINGS = st.floats(0.0, 20.0)
SPANS = st.floats(0.0, 1.0)  # E = -3 + span * (lam + 6): the spectrum and 1 beyond
PHASES = st.integers(0, (1 << PRECISION_BITS) - 1).map(PhasePoint)


@settings(max_examples=60, deadline=None)
@given(st.integers(-1000, 1000).filter(bool), COUPLINGS, SPANS, PHASES)
def test_determinant_one_at_random_points(n, lam, span, theta):
    """det M = 1 to 1e-12 * max(||M||^2, 1), as the fixed tests ask at these lengths.

    The determinant cancels entry products of size ||M||^2, so its rounding
    is relative to that; over 3,000 random draws at |n| <= 1000 the worst
    defect was 1.7e-14 of it.
    """
    m = TR.transfer_product(n, -3.0 + span * (lam + 6.0), lam, theta)
    assert abs(m.det() - 1.0) <= 1e-12 * max(m.norm_sq(), XReal(1.0))


@settings(max_examples=40, deadline=None)
@given(COUPLINGS, SPANS)
def test_fricke_vogt_invariant_at_random_points(lam, span):
    """I = x_{k+1}^2 + x_k^2 + x_{k-1}^2 - x_{k+1} x_k x_{k-1} - 4 equals lam^2.

    Checked at phase zero for k = 1..12 on the traces of the lane sweep and
    on those of the spectrum recursion run in XReal.  I cancels terms much
    larger than lam^2, so the tolerance follows the largest term.  A trace
    x_j over F(j) sites is at most 2 ||P_j||, P_j the product, and both
    methods get it to about F(j) * u * ||P_j|| (u = 2**-53): the sweep
    rounds once per factor relative to the product, and the recursion adds
    the relative errors of two predecessors per level.  So the tolerance is
    64 * F(k+1) * u * M with M the largest of ||P_{k+1}||^2, ||P_k||^2,
    ||P_{k-1}||^2 and ||P_{k+1}|| ||P_k|| ||P_{k-1}||; over 6,000 random
    draws the worst error was 7.1 * F(k+1) * u * M.
    """
    E = -3.0 + span * (lam + 6.0)
    norms = [TR.transfer_product(fib_number(j), E, lam, TH0).norm_sq().sqrt()
             for j in range(14)]
    for xs in (TR.traces_right_upto(13, E, lam, TH0), xreal_recursion(13, E, lam)):
        for k in range(1, 13):
            a, b, c = xs[k + 1], xs[k], xs[k - 1]
            na, nb, nc = norms[k + 1], norms[k], norms[k - 1]
            scale = max(na * na, nb * nb, nc * nc, na * nb * nc)
            invariant = a * a + b * b + c * c - a * b * c - 4.0
            assert abs(invariant - lam * lam) <= 64 * fib_number(k + 1) * 2.0**-53 * scale


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_trace_examples():
    assert float(TR.traces_right_upto(0, 1.0, 2.0, TH0)[0]) == pytest.approx(-1.0)
    assert float(TR.traces_right_upto(1, 0.0, 2.0, TH0)[1]) == pytest.approx(-2.0)
    assert float(TR.traces_right_upto(3, 0.0, 2.0, TH0)[3]) == pytest.approx(-6.0)
    assert float(TR.traces_left_upto(1, 0.0, 2.0, TH0)[1]) == pytest.approx(-2.0)
    # left level 0 covers site 0 only, where the potential vanishes
    assert float(TR.traces_left_upto(0, 0.7, 2.0, TH0)[0]) == pytest.approx(0.7)


def test_trace_left_equals_inverse_product_trace():
    rng = random.Random(6)
    for _ in range(10):
        k = rng.randrange(0, 9)
        E = rng.uniform(-3, 13)
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        literal = TR.transfer_product(-fib_number(k), E, 10.0, theta).trace()
        fast = TR.traces_left_upto(k, E, 10.0, theta)[k]
        assert rel_gap(literal, fast) < 1e-12


def test_free_case_phase_independent():
    for k in range(0, 10):
        a = TR.traces_right_upto(k, 0.7, 0.0, TH0)[k]
        b = TR.traces_right_upto(k, 0.7, 0.0, PhasePoint.from_decimal("0.613"))[k]
        c = TR.traces_left_upto(k, 0.7, 0.0, PhasePoint.from_decimal("0.09"))[k]
        assert rel_gap(a, b) < 1e-12
        assert rel_gap(a, c) < 1e-12


def test_trace_recursion_seeds_and_values():
    xs = xreal_recursion(3, 0.0, 2.0)
    assert [float(v) for v in xs] == pytest.approx([-2.0, -2.0, 4.0, -6.0])


def test_trace_recursion_matches_direct_products():
    for lam in (2.0, 5.0, 10.0, 20.0):
        energies = np.linspace(-3, lam + 3, 9)
        for E, direct in zip(energies, TR.traces_right_upto(20, energies, lam, TH0)):
            rec = xreal_recursion(20, float(E), lam)
            assert len(rec) == 21
            for a, b in zip(rec, direct):
                assert rel_gap(a, b) < 1e-8


def test_fricke_invariant_from_direct_products():
    for lam in (2.0, 10.0):
        for E in np.linspace(-2, lam + 2, 8):
            xs = [float(v) for v in TR.traces_right_upto(5, float(E), lam, TH0)]
            for k in range(1, 4):
                q = (xs[k + 1] ** 2 + xs[k] ** 2 + xs[k - 1] ** 2
                     - xs[k + 1] * xs[k] * xs[k - 1] - 4.0)
                assert q == pytest.approx(lam * lam, rel=1e-9, abs=1e-9)


def test_trace_overflow_carries_exponent():
    x = TR.traces_right_upto(25, 6.1, 10.0, TH0)[25]
    assert x.log2() > 5000  # far beyond float64 but well-defined
    assert math.isinf(float(x))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_derivative_examples():
    assert float(TR.dual_traces_upto(0, 5.0, 2.0, TH0)[0].deriv) == pytest.approx(1.0)
    d1 = TR.dual_traces_upto(1, 0.0, 2.0, TH0)[1]
    assert float(d1.deriv) == pytest.approx(-2.0)  # d/dE (E^2 - lam E - 2) at 0


def test_derivative_matches_finite_differences():
    h = 1e-6
    rng = random.Random(7)
    for _ in range(12):
        k = rng.randrange(2, 13)
        lam = rng.choice([2.0, 10.0])
        E = rng.uniform(-3, lam + 3)
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        dual = TR.dual_traces_upto(k, E, lam, theta)[k]
        if abs(dual.value.log2()) > 250:
            continue  # outside float-difference range
        fd = (float(TR.traces_right_upto(k, E + h, lam, theta)[k])
              - float(TR.traces_right_upto(k, E - h, lam, theta)[k])) / (2 * h)
        assert float(dual.deriv) == pytest.approx(fd, rel=1e-5)


def test_dual_traces_consistent_with_scalar_calls():
    duals = TR.dual_traces_upto(8, 0.42, 10.0, TH0)
    for k in (0, 3, 8):
        single = TR.dual_traces_upto(k, 0.42, 10.0, TH0)[k]
        assert rel_gap(duals[k].value, single.value) == 0.0
        assert rel_gap(duals[k].deriv, single.deriv) == 0.0


# ---------------------------------------------------------------------------
# windowed norms and the inequality
# ---------------------------------------------------------------------------

def test_cumulative_norm_examples():
    base = 3.0 + 2.0 * math.sqrt(2.0)
    assert float(TR.norm_profile([1.0], 0.0, 2.0, TH0)[0]) == pytest.approx(base)
    assert float(TR.norm_profile([0.5], 0.0, 2.0, TH0)[0]) == pytest.approx(base / 2)
    assert float(TR.norm_profile([2.0], 0.0, 2.0, TH0)[0]) == pytest.approx(2 * base)


def test_norm_matches_numpy_singular_value():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.choice([1, 2, 5, 13, -3, -8])
        E = rng.uniform(-3, 13)
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        m = numpy_product(n, E, 10.0, theta)
        smax = np.linalg.svd(m, compute_uv=False)[0]
        ours = TR.transfer_product(n, E, 10.0, theta).norm_sq()
        assert float(ours) == pytest.approx(smax * smax, rel=1e-10)


def test_cumulative_norm_monotone_and_floored():
    theta = PhasePoint.from_decimal("0.21")
    for side in (1, -1):
        values = TR.norm_profile([side * l for l in (0.5, 1, 2, 3.5, 8, 21)],
                                 1.1, 10.0, theta)
        floats = [float(v) for v in values]
        assert floats == sorted(floats)
        for l, v in zip((0.5, 1, 2, 3.5, 8, 21), floats):
            assert v >= l  # each factor has spectral norm at least one


def test_norm_profile_rejects_a_zero_window():
    for ls in ([0.0], [1.0, 0.0], [-2.0, -0.0], [1.0, -2.0, 0]):
        with pytest.raises(ValueError):
            TR.norm_profile(ls, 0.0, 2.0, TH0)


def test_margin_example_and_positivity():
    margin = TR.norm_trace_inequality(1, 0.0, 2.0, TH0)
    base = 2.0 * (3.0 + 2.0 * math.sqrt(2.0))
    assert float(margin) == pytest.approx(4.0 * base**1.5 - 2.0)
    assert float(TR.norm_trace_inequality(2, 0.0, 0.0, TH0)) > 0.0


def test_margin_positive_across_magnitudes():
    # norm_trace_inequality raises on any violation beyond rounding, so a
    # clean sweep is the assertion; margins also come back nonnegative here
    rng = random.Random(9)
    for _ in range(20):
        k = rng.randrange(0, 13)
        lam = rng.choice([2.0, 10.0])
        E = rng.uniform(-3, lam + 3)
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        margin = TR.norm_trace_inequality(k, E, lam, theta)
        assert margin >= 0.0


# ---------------------------------------------------------------------------
# phase invariance of traces
# ---------------------------------------------------------------------------

def test_parity_theta_zero_exact():
    grid = list(np.linspace(-3, 13, 8))
    rep = TR.phase_trace_parity(TH0, 10.0, grid, 10)
    assert rep.x_even_ok and rep.x_odd_ok


def test_parity_random_phases():
    rng = random.Random(10)
    grid = list(np.linspace(-3, 13, 16))
    for _ in range(8):
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        rep = TR.phase_trace_parity(theta, 10.0, grid, 12)
        assert rep.x_even_ok or rep.x_odd_ok
        assert rep.y_even_ok or rep.y_odd_ok


def test_parity_free_case_all_levels():
    grid = list(np.linspace(-2, 2, 8))
    rep = TR.phase_trace_parity(PhasePoint.from_decimal("0.345"), 0.0, grid, 10)
    assert rep.x_even_ok and rep.x_odd_ok and rep.y_even_ok and rep.y_odd_ok


def test_parity_rejects_empty_grid():
    with pytest.raises(ValueError):
        TR.phase_trace_parity(TH0, 10.0, [], 5)
