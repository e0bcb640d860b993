import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quasitrace.phase import PRECISION_BITS, PhasePoint
from quasitrace.words import fib_number, rotation_block
from quasitrace import spectrum as SP
from quasitrace import transfer as TR

from oracles import (XReal, det, entries, local_matrix, margin_gate, norm_sq, parity_ratios,
                     rel_gap, trace, transfer_product, xreal_rows)

TH0 = PhasePoint.zero()


def numpy_product(n, E, lam, theta):
    """Independent oracle: plain numpy product over the potential pattern."""
    acc = np.eye(2)
    if n >= 1:
        pattern = rotation_block(1, n, theta)
        for v in pattern:
            acc = np.array([[E - lam * (v == "1"), -1.0], [1.0, 0.0]]) @ acc
    else:
        pattern = rotation_block(n + 1, 0, theta)
        for v in pattern:
            acc = acc @ np.array([[0.0, 1.0], [-1.0, E - lam * (v == "1")]])
    return acc


def xreal_recursion(k_max, E, lam):
    """Phase-zero traces x_0..x_k_max from the spectrum recursion, run in XReal."""
    return SP._recurse(XReal(E), lam, k_max, False)[0][:k_max + 1]


# ---------------------------------------------------------------------------
# local matrices and products
# ---------------------------------------------------------------------------

def test_local_matrix_examples():
    assert entries(local_matrix(1, 0.0, 2.0, TH0)) == (-2.0, -1.0, 1.0, 0.0)
    assert entries(local_matrix(2, 0.0, 2.0, TH0)) == (0.0, -1.0, 1.0, 0.0)
    assert entries(local_matrix(5, 3.0, 0.0, TH0)) == (3.0, -1.0, 1.0, 0.0)


def test_product_examples():
    assert entries(transfer_product(1, 0.0, 2.0, TH0)) == (-2.0, -1.0, 1.0, 0.0)
    assert entries(transfer_product(2, 0.0, 2.0, TH0)) == (-1.0, 0.0, -2.0, -1.0)
    assert entries(transfer_product(-1, 0.0, 2.0, TH0)) == (0.0, 1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        transfer_product(0, 0.0, 2.0, TH0)


def test_products_match_numpy_oracle():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice([3, 8, -5, 21, -13, 34])
        E = rng.uniform(-3, 13)
        lam = rng.choice([0.0, 2.0, 10.0])
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        ours = transfer_product(n, E, lam, theta)
        oracle = numpy_product(n, E, lam, theta)
        ref = np.array(entries(ours)).reshape(2, 2)
        assert np.allclose(ref, oracle, rtol=1e-12, atol=1e-12)


def test_determinant_one_long_products():
    # the determinant comes from cancelling entry products of size ||M||^2,
    # so the achievable accuracy is relative to that magnitude scale
    for E, theta_text in ((0.11, "0.37"), (4.8, "0.0"), (9.3, "0.62")):
        for n in (10_000, 100_000, -100_000):
            m = transfer_product(n, E, 10.0, PhasePoint.from_decimal(theta_text))
            defect = abs(det(m) - 1.0)
            scale = max(norm_sq(m), XReal(1.0))
            assert defect <= 1e-10 * scale


def test_determinant_exact_at_moderate_lengths():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice([17, 100, -64, 987])
        E = rng.uniform(-3, 13)
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        m = transfer_product(n, E, 10.0, theta)
        defect = abs(det(m) - 1.0)
        scale = max(norm_sq(m), XReal(1.0))
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
    m = transfer_product(n, -3.0 + span * (lam + 6.0), lam, theta)
    assert abs(det(m) - 1.0) <= 1e-12 * max(norm_sq(m), XReal(1.0))


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
    norms = [norm_sq(transfer_product(fib_number(j), E, lam, TH0)).sqrt()
             for j in range(14)]
    for xs in (xreal_rows(TR.traces_right_upto(13, E, lam, TH0)), xreal_recursion(13, E, lam)):
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
    assert float(xreal_rows(TR.traces_right_upto(0, 1.0, 2.0, TH0))[0]) == pytest.approx(-1.0)
    assert float(xreal_rows(TR.traces_right_upto(1, 0.0, 2.0, TH0))[1]) == pytest.approx(-2.0)
    assert float(xreal_rows(TR.traces_right_upto(3, 0.0, 2.0, TH0))[3]) == pytest.approx(-6.0)
    assert float(xreal_rows(TR.traces_left_upto(1, 0.0, 2.0, TH0))[1]) == pytest.approx(-2.0)
    # left level 0 covers site 0 only, where the potential vanishes
    assert float(xreal_rows(TR.traces_left_upto(0, 0.7, 2.0, TH0))[0]) == pytest.approx(0.7)


def test_trace_left_equals_inverse_product_trace():
    rng = random.Random(6)
    for _ in range(10):
        k = rng.randrange(0, 9)
        E = rng.uniform(-3, 13)
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        literal = trace(transfer_product(-fib_number(k), E, 10.0, theta))
        fast = xreal_rows(TR.traces_left_upto(k, E, 10.0, theta))[k]
        assert rel_gap(literal, fast) < 1e-12


def test_free_case_phase_independent():
    for k in range(0, 10):
        a = xreal_rows(TR.traces_right_upto(k, 0.7, 0.0, TH0))[k]
        b = xreal_rows(TR.traces_right_upto(k, 0.7, 0.0, PhasePoint.from_decimal("0.613")))[k]
        c = xreal_rows(TR.traces_left_upto(k, 0.7, 0.0, PhasePoint.from_decimal("0.09")))[k]
        assert rel_gap(a, b) < 1e-12
        assert rel_gap(a, c) < 1e-12


def test_trace_recursion_seeds_and_values():
    xs = xreal_recursion(3, 0.0, 2.0)
    assert [float(v) for v in xs] == pytest.approx([-2.0, -2.0, 4.0, -6.0])


def test_trace_recursion_matches_direct_products():
    # the sweep against the trace-map recursion run on 400-bit numbers
    for lam in (2.0, 5.0, 10.0, 20.0):
        energies = np.linspace(-3, lam + 3, 9)
        for E, direct in zip(energies, xreal_rows(TR.traces_right_upto(20, energies, lam, TH0))):
            with mp.workprec(400):
                rec = SP._recurse(mp.mpf(float(E)), mp.mpf(lam), 20, False)[0]
                assert len(rec) == 21
                for a, b in zip(rec, direct):
                    b = mp.ldexp(b.m, b.e)
                    assert abs(a - b) < 1e-8 * max(1, abs(a), abs(b))


def test_fricke_invariant_from_direct_products():
    for lam in (2.0, 10.0):
        for E in np.linspace(-2, lam + 2, 8):
            xs = [float(v) for v in xreal_rows(TR.traces_right_upto(5, float(E), lam, TH0))]
            for k in range(1, 4):
                q = (xs[k + 1] ** 2 + xs[k] ** 2 + xs[k - 1] ** 2
                     - xs[k + 1] * xs[k] * xs[k - 1] - 4.0)
                assert q == pytest.approx(lam * lam, rel=1e-9, abs=1e-9)


def test_trace_overflow_carries_exponent():
    x = xreal_rows(TR.traces_right_upto(25, 6.1, 10.0, TH0))[25]
    assert x.log2() > 5000  # far beyond float64 but well-defined
    assert math.isinf(float(x))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_derivative_examples():
    d0 = xreal_rows(TR.dual_traces_upto(0, 5.0, 2.0, TH0).derivs)[0]
    assert float(d0) == pytest.approx(1.0)
    d1 = xreal_rows(TR.dual_traces_upto(1, 0.0, 2.0, TH0).derivs)[1]
    assert float(d1) == pytest.approx(-2.0)  # d/dE (E^2 - lam E - 2) at 0


def test_derivative_matches_finite_differences():
    h = 1e-6
    rng = random.Random(7)
    for _ in range(12):
        k = rng.randrange(2, 13)
        lam = rng.choice([2.0, 10.0])
        E = rng.uniform(-3, lam + 3)
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        dual = TR.dual_traces_upto(k, E, lam, theta)
        traces, derivs = xreal_rows(dual.traces), xreal_rows(dual.derivs)
        if abs(traces[k].log2()) > 250:
            continue  # outside float-difference range
        fd = (float(xreal_rows(TR.traces_right_upto(k, E + h, lam, theta))[k])
              - float(xreal_rows(TR.traces_right_upto(k, E - h, lam, theta))[k])) / (2 * h)
        assert float(derivs[k]) == pytest.approx(fd, rel=1e-5)


def test_dual_traces_consistent_with_scalar_calls():
    duals = TR.dual_traces_upto(8, 0.42, 10.0, TH0)
    for k in (0, 3, 8):
        single = TR.dual_traces_upto(k, 0.42, 10.0, TH0)
        assert rel_gap(xreal_rows(duals.traces)[k], xreal_rows(single.traces)[k]) == 0.0
        assert rel_gap(xreal_rows(duals.derivs)[k], xreal_rows(single.derivs)[k]) == 0.0
        assert duals.peaks[k] == single.peaks[k]


# ---------------------------------------------------------------------------
# windowed norms and the inequality
# ---------------------------------------------------------------------------

def test_cumulative_norm_examples():
    base = 3.0 + 2.0 * math.sqrt(2.0)
    assert float(xreal_rows(TR.norm_profile([1.0], 0.0, 2.0, TH0))[0]) == pytest.approx(base)
    assert float(xreal_rows(TR.norm_profile([0.5], 0.0, 2.0, TH0))[0]) == pytest.approx(base / 2)
    assert float(xreal_rows(TR.norm_profile([2.0], 0.0, 2.0, TH0))[0]) == pytest.approx(2 * base)


def test_norm_matches_numpy_singular_value():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.choice([1, 2, 5, 13, -3, -8])
        E = rng.uniform(-3, 13)
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        m = numpy_product(n, E, 10.0, theta)
        smax = np.linalg.svd(m, compute_uv=False)[0]
        ours = norm_sq(transfer_product(n, E, 10.0, theta))
        assert float(ours) == pytest.approx(smax * smax, rel=1e-10)


def test_cumulative_norm_monotone_and_floored():
    theta = PhasePoint.from_decimal("0.21")
    for side in (1, -1):
        values = xreal_rows(TR.norm_profile([side * l for l in (0.5, 1, 2, 3.5, 8, 21)],
                                            1.1, 10.0, theta))
        floats = [float(v) for v in values]
        assert floats == sorted(floats)
        for l, v in zip((0.5, 1, 2, 3.5, 8, 21), floats):
            assert v >= l  # each factor has spectral norm at least one


def test_norm_profile_sweeps_to_the_last_site_a_window_reads(monkeypatch):
    # sites 1..L for an integer window, and the edge site ceil(L) for another
    tops = []
    sweep = TR._sweep

    def recorded(groups, E, lam, marks, **kwargs):
        tops.append(marks[-1])
        return sweep(groups, E, lam, marks, **kwargs)

    monkeypatch.setattr(TR, "_sweep", recorded)
    for ls, top in (([1, 2, 5, 377, -144], 377), ([-377, 144], 377), ([3, 2.5], 3),
                    ([0.5, -2.25], 3)):
        TR.norm_profile(ls, [0.0, 3.0], 10.0, TH0)
        assert tops.pop() == top == max(math.ceil(abs(l)) for l in ls)


def test_norm_profile_rejects_a_zero_window():
    for ls in ([0.0], [1.0, 0.0], [-2.0, -0.0], [1.0, -2.0, 0]):
        with pytest.raises(ValueError):
            TR.norm_profile(ls, 0.0, 2.0, TH0)


def test_margin_example_and_positivity():
    margin = xreal_rows(TR.norm_trace_inequality(1, 0.0, 2.0, TH0))
    base = 2.0 * (3.0 + 2.0 * math.sqrt(2.0))
    assert float(margin) == pytest.approx(4.0 * base**1.5 - 2.0)
    assert float(xreal_rows(TR.norm_trace_inequality(2, 0.0, 0.0, TH0))) > 0.0


def test_margin_positive_across_magnitudes():
    # norm_trace_inequality raises on any violation beyond rounding, so a
    # clean sweep is the assertion; margins also come back nonnegative here
    rng = random.Random(9)
    for _ in range(20):
        k = rng.randrange(0, 13)
        lam = rng.choice([2.0, 10.0])
        E = rng.uniform(-3, lam + 3)
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        margin = xreal_rows(TR.norm_trace_inequality(k, E, lam, theta))
        assert margin >= 0.0


def ulp_steps(x: XReal, steps) -> list[XReal]:
    """x moved by each number of ulps of its mantissa in `steps`, normalized."""
    return [XReal(float(m), x.e) for m in
            x.m + np.array(steps) * math.ulp(abs(x.m)) * np.sign(x.m)]


@settings(max_examples=60, deadline=None)
@given(total=st.builds(XReal, st.floats(1.0, 2.0), st.integers(-5000, 5000)),
       negative=st.booleans())
@example(total=XReal(0.7, 3000), negative=False)  # sums and margins past float range
@example(total=XReal(1.5, 0), negative=True)
def test_margin_gate_flags_where_the_xreal_gate_does(total, negative):
    # derivatives |x'| within a few ulps of the |x'| whose margin 4 S**1.5 - |x'|
    # is -MARGIN_TOL times the scale 4 S**1.5 + |x'|, in increasing order: the
    # gate flags a tail of them, and the two next to its start put margins one
    # ulp of |x'| above and below -MARGIN_TOL * scale
    tol = TR.MARGIN_TOL
    edge = 4.0 * total.pow_3_2() * ((1.0 + tol) / (1.0 - tol))
    derivs = [-d if negative else d for d in ulp_steps(edge, range(-8, 9))]
    want = [margin_gate(total, d) for d in derivs]
    flags = [flag for _, flag in want]
    assert not flags[0] and flags[-1]
    start = flags.index(True)
    assert flags == [False] * start + [True] * (len(flags) - start)
    sums = tuple(np.array(v) for v in zip(*[(total.m, total.e)] * len(derivs)))
    dx = (np.array([d.m for d in derivs]), np.array([d.e for d in derivs]))
    (mm, me), failed = TR.norm_trace_margin(sums, dx)
    assert failed.tolist() == flags
    assert list(zip(mm.tolist(), me.tolist())) == [(m.m, m.e) for m, _ in want]


# ---------------------------------------------------------------------------
# phase invariance of traces
# ---------------------------------------------------------------------------

def parity(theta, lam, grid, k_max):
    """The (right, left) parity reports at theta, from one `phase_traces` sweep."""
    (traces,), refs = TR.phase_traces(k_max, grid, lam, [theta])
    return TR.phase_trace_parity(traces, refs)


def test_parity_theta_zero_exact():
    grid = list(np.linspace(-3, 13, 8))
    right, _ = parity(TH0, 10.0, grid, 10)
    assert right.even_ok and right.odd_ok


def test_parity_random_phases():
    rng = random.Random(10)
    grid = list(np.linspace(-3, 13, 16))
    for _ in range(8):
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        right, left = parity(theta, 10.0, grid, 12)
        assert right.even_ok or right.odd_ok
        assert left.even_ok or left.odd_ok


def test_parity_free_case_all_levels():
    grid = list(np.linspace(-2, 2, 8))
    right, left = parity(PhasePoint.from_decimal("0.345"), 0.0, grid, 10)
    assert right.even_ok and right.odd_ok and left.even_ok and left.odd_ok


def test_parity_with_a_shared_reference_matches_its_own_sweep():
    grid = list(np.linspace(-3, 13, 8))
    # the reference of another run, swept in lanes of its own
    _, refs = TR.phase_traces(10, grid, 10.0, [PhasePoint.from_decimal("0.7")])
    for theta in (TH0, PhasePoint.from_decimal("0.3")):
        (traces,), own_refs = TR.phase_traces(10, grid, 10.0, [theta])
        assert (TR.phase_trace_parity(traces, refs)
                == TR.phase_trace_parity(traces, own_refs))


def test_parity_passes_at_strong_coupling_where_products_outgrow_traces():
    # the level-11 product at phase zero reaches norm 4.3e6 against a trace
    # of -12.1; its rounding is far above 1e-9 relative to the trace
    lam, E, theta = 11.923897424524766, 12.095241866584063, PhasePoint.from_decimal("0.3")
    right, left = parity(theta, lam, [E, 12.2], 13)
    assert right.even_ok and left.odd_ok
    # here the gaps of levels 4 to 8 pass 2**-53 * F(k) * 64 * P, but stay
    # below the square of the peaks
    lam, E, theta = 387.46705524669363, 386.46963608552727, PhasePoint.from_decimal("0.11")
    right, _ = parity(theta, lam, [E], 8)
    assert right.even_ok and right.odd_ok


def test_parity_fails_a_trace_off_by_a_millionth():
    # a level-8 band centre at lambda 10, where the products stay small
    lam, E = 10.0, 9.048289750908484
    assert abs(SP.trace_grid([E], lam, 8)[0][8][0]) <= 2.0
    grid = [-3.0, E, 13.0]
    (traces,), refs = TR.phase_traces(8, grid, lam, [TH0])

    def off(family, k):
        table = traces[family]
        m, e = (a.copy() for a in table.traces)
        x = XReal(m[1, k], int(e[1, k])) * (1.0 + 1e-6)  # |x| is about 10 at levels 3 and 6
        m[1, k], e[1, k] = x.m, x.e
        bad = list(traces)
        bad[family] = table._replace(traces=(m, e))
        return TR.phase_trace_parity(tuple(bad), refs)

    right, left = TR.phase_trace_parity(traces, refs)
    assert (right.even_ok, right.odd_ok, left.even_ok, left.odd_ok) == (True, True, False, True)
    # per level the worst gap over its allowance: the left side fails an even level
    assert [(k, side) for k, side, _ in left.per_k] == [(k, "left") for k in range(9)]
    assert max(ratio for _, _, ratio in left.per_k[0::2]) > 1.0
    assert max(ratio for _, _, ratio in left.per_k[1::2]) <= 1.0
    assert (off(0, 6)[0].even_ok, off(0, 6)[0].odd_ok) == (False, True)
    assert (off(0, 3)[0].even_ok, off(0, 3)[0].odd_ok) == (True, False)
    # the only class of the left traces at phase zero: neither class passes
    assert (off(1, 3)[1].even_ok, off(1, 3)[1].odd_ok) == (False, False)


@settings(max_examples=30, deadline=None)
@given(lam=st.sampled_from([12.0, 57.0, 237.6967740309825]) | st.floats(0.0, 3000.0),
       offset=st.floats(-1.5, 1.5), spread=st.floats(-3.0, 3.0), k=st.integers(0, 16))
# the worst of 1,520 random draws against 400-bit references: the error is
# 26.3 * F(4) * 2**-53 * P**2, so TRACE_ROUNDING must be at least 26.3
@example(lam=387.46705524669363, offset=386.46963608552727 - 387.46705524669363, spread=0.0,
         k=4)
@example(lam=237.6967740309825, offset=236.69887089114744 - 237.6967740309825, spread=0.0, k=8)
@example(lam=11.923897424524766, offset=12.095241866584063 - 11.923897424524766, spread=0.0,
         k=11)
def test_rounding_term_bounds_the_sweep_error(lam, offset, spread, k):
    # energies near E = lam - 1 and E = 0, where one factor is about +-1 and the
    # other about lam: products pass large entries and cancel back down
    grid = [lam + offset, offset, spread, lam + spread]
    _, refs = TR.phase_traces(k, grid, lam, [])
    for E, traces, peaks in zip(grid, xreal_rows(refs.traces), refs.peaks):
        with mp.workprec(200):
            exact = SP._recurse(mp.mpf(E), mp.mpf(lam), k, False)[0][k]
            error = abs(mp.ldexp(traces[k].m, traces[k].e) - exact)
            assert error <= TR.TRACE_ROUNDING * fib_number(k) * mp.ldexp(1, 2 * int(peaks[k]) - 53)


def exact_right_derivs(k, E, lam, theta):
    """d/dE of the right traces at lengths F(0..k), by a 300-bit product rule."""
    marks = {fib_number(j): j for j in range(k + 1)}
    out = [None] * (k + 1)
    with mp.workprec(300):
        E, lam = mp.mpf(E), mp.mpf(lam)
        a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
        da = db = dc = dd = mp.mpf(0)
        for n, v in enumerate(rotation_block(1, fib_number(k), theta), 1):
            t = E - lam if v == "1" else E
            # (T M)' = T M' + T' M with T = [[t, -1], [1, 0]], T' = [[1, 0], [0, 0]]
            da, db, dc, dd = t * da - dc + a, t * db - dd + b, da, db
            a, b, c, d = t * a - c, t * b - d, a, b
            if n in marks:
                out[marks[n]] = da + dd
    return out


# Error model of the derivative traces: |x_k' - exact| <= DERIV_ROUNDING *
# F(k)**2 * 2**-53 * P**3, P the peak of the level-k product.  The derivative
# of a product of F(k) factors sums F(k) products, each with entries up to
# about P**3 (M(n..j+1) = M(n) M(j)**-1 has entries up to 2 P**2), and each
# is rounded along up to F(k) steps.  Against the 300-bit product rule, over
# 2,200 draws at random phases (levels <= 14, lambda <= 24 and near 0, E
# uniform in [-4, lambda + 4] and near lambda - 1, 0 and +-2), the error
# stayed below 0.32 * F(k)**2 * 2**-53 * P**3; F(k) * P**2 reached 317 and
# F(k) * P**3 24 and still grew with the level.  DERIV_ROUNDING keeps a
# factor 3.1 above the worst draw.
DERIV_ROUNDING = 1.0


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(0.0, 24.0), spots=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       k=st.integers(0, 14), phase=st.integers(0, (1 << PRECISION_BITS) - 1))
# the worst of the draws above: 0.317 * F(5)**2 * 2**-53 * P**3, P = 2**5
@example(lam=20.12213789974964, spots=[(19.172492501884832 + 4.0) / 28.12213789974964], k=5,
         phase=317525582766468125240611707992700095979)
def test_derivative_traces_meet_their_error_model(lam, spots, k, phase):
    theta = PhasePoint(phase)
    grid = [-4.0 + s * (lam + 8.0) for s in spots]  # E in [-4, lam + 4]
    [(right, _)], _ = TR.phase_traces(k, grid, lam, [theta])
    for E, derivs, peaks in zip(grid, xreal_rows(right.derivs), right.peaks):
        exact = exact_right_derivs(k, E, lam, theta)
        with mp.workprec(300):
            for j in range(k + 1):
                error = abs(mp.ldexp(derivs[j].m, derivs[j].e) - exact[j])
                bound = DERIV_ROUNDING * fib_number(j) ** 2 * mp.ldexp(1, 3 * int(peaks[j]) - 53)
                assert error <= bound, (E, j)


def test_parity_rejects_tables_of_another_shape():
    # fewer levels than the references, more levels, one level against many
    # and many against one (shapes that numpy would broadcast), fewer
    # energies, and one table of the pair off: none may be read against the
    # other's grid
    grid = [-3.0, 1.0, 13.0]
    (short,), short_refs = TR.phase_traces(3, grid, 10.0, [TH0])
    (long,), long_refs = TR.phase_traces(5, grid, 10.0, [TH0])
    (one,), one_refs = TR.phase_traces(0, grid, 10.0, [TH0])
    (few,), _ = TR.phase_traces(5, grid[:2], 10.0, [TH0])
    for pair, refs in ((short, long_refs), (long, short_refs), (one, long_refs),
                       (long, one_refs), (few, long_refs), ((long[0], short[1]), long_refs)):
        with pytest.raises(ValueError, match=r"\(energies, levels\) shape"):
            TR.phase_trace_parity(pair, refs)


# The array gate differs from the XReal gate of `parity_ratios` only where
# numpy's log2 of a mantissa differs from `math.log2` by an ulp.  A log is
# e + log2(m), so with exponents below 2**15, as in these draws, each log and
# their difference differ by at most an ulp of 2**15, 2**-37, and a ratio
# 2**difference by less than 2**-34 of itself.
RATIO_REL = 2.0**-34


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.0, 1e4), spots=st.lists(st.floats(-0.25, 1.25), min_size=1, max_size=4),
       k=st.integers(0, 14), phase=st.integers(0, (1 << PRECISION_BITS) - 1),
       at_zero=st.booleans())
@example(lam=10.0, spots=[0.5], k=8, phase=0, at_zero=True)
def test_array_gate_matches_the_xreal_gate(lam, spots, k, phase, at_zero):
    theta = PhasePoint(0 if at_zero else phase)
    grid = [-4.0 + s * (lam + 8.0) for s in spots]  # about E in [-4, lam + 4]
    [pair], refs = TR.phase_traces(k, grid, lam, [theta])
    want = [parity_ratios(table, refs) for table in pair]
    passed = [[ratio <= 1.0 for ratio in ratios] for ratios in want]
    for report, ratios, flags in zip(TR.phase_trace_parity(pair, refs), want, passed):
        got = [ratio for _, _, ratio in report.per_k]
        assert [ratio <= 1.0 for ratio in got] == flags
        assert got == pytest.approx(ratios, rel=RATIO_REL, abs=0.0)
        # the classes, neither passing included, are those of the XReal gate
        assert (report.even_ok, report.odd_ok) == (all(flags[0::2]), all(flags[1::2]))


def test_parity_rejects_empty_grid():
    exponents = np.zeros((0, 6), dtype=np.int64)
    empty = TR.TraceTable((np.zeros((0, 6)), exponents), None, exponents)
    with pytest.raises(ValueError):
        TR.phase_trace_parity((empty, empty), empty)
