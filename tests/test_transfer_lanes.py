"""Property tests of the batched transfer sweep against scalar products.

Every lane of `transfer._sweep` must reproduce, bit for bit, what a one-lane
sweep and what plain `TransferMatrix` products with `_add` / `_norm_sq` give
for that energy alone: the raw entries and exponents of the product and of
its energy derivative, and the XReal (mantissa, exponent) pairs of traces,
derivative traces and norm sums.  A lane whose entries pass 2**256 rescales
on its own; if a rescale leaked into another lane, that lane's raw exponents
would change even where its normalized values do not.
"""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quasitrace import transfer as TR
from quasitrace.phase import PRECISION_BITS, PhasePoint
from quasitrace.words import fib_number
from quasitrace.xfloat import XReal

BAND_CENTER = -0.2492839750009455  # a level-9 band at lambda 12, phase 0


def f64(value):
    return struct.pack("<d", value)  # tells -0.0 from 0.0


def xbits(values):
    return [(f64(v.m), v.e) for v in values]


def raw(matrix):
    """Bits of (a, b, c, d) and the exponent of a scalar product."""
    return [f64(v) for v in matrix[:4]] + [matrix[4]]


def scalar_reference(side, k, E, lam, theta):
    """Per mark F(0..k): raw M, raw dM/dE, trace, derivative trace, norm sum."""
    marks = {fib_number(j) for j in range(k + 1)}
    m = TR.TransferMatrix(1.0, 0.0, 0.0, 1.0)
    d = TR.TransferMatrix(0.0, 0.0, 0.0, 0.0)
    total = XReal()
    out = []
    for n in range(1, fib_number(k) + 1):
        if side == "right":  # T(n) ... T(1); (T M)' = T' M + T M'
            t = TR.local_matrix(n, E, lam, theta)
            t_m = (m.a11, m.a12, 0.0, 0.0, m.exp2)
            d = TR.TransferMatrix._from_tuple(TR._add(t_m, (t @ d)._tuple()))
            m = t @ m
        else:  # T(0) T(-1) ... T(1 - n); (M T)' = M T' + M' T
            t = TR.local_matrix(1 - n, E, lam, theta)
            m_t = (m.a11, 0.0, m.a21, 0.0, m.exp2)
            d = TR.TransferMatrix._from_tuple(TR._add(m_t, (d @ t)._tuple()))
            m = m @ t
        total = total + TR._norm_sq(m._tuple())
        if n in marks:
            out.append((raw(m._tuple()), raw(d._tuple()),
                        xbits([m.trace(), d.trace(), total])))
    return out


def lane_raw(side, m, e, i):
    return raw(m[TR._ROWS[side], i].tolist() + [int(e[i])])


def lane_results(side, k, energies, lam, theta):
    """Per lane, per mark F(0..k): the same records as `scalar_reference`."""
    marks = TR._sweep(side, np.array(energies, dtype=float), lam, theta,
                      [fib_number(j) for j in range(k + 1)], deriv=True, norms=True)
    lanes = []
    for i in range(len(energies)):
        records = []
        for mark in marks:
            values = [TR._trace_xreals(mark.m, mark.e)[i],
                      TR._trace_xreals(mark.dm, mark.de)[i],
                      TR._xreals(mark.sum_m, mark.sum_e)[i]]
            records.append((lane_raw(side, mark.m, mark.e, i),
                            lane_raw(side, mark.dm, mark.de, i), xbits(values)))
        lanes.append(records)
    return lanes


@settings(max_examples=25, deadline=None)
@given(
    side=st.sampled_from(["right", "left"]),
    k=st.integers(0, 14),
    lam=st.floats(0.0, 12.0),
    energies=st.lists(st.floats(-4.0, 16.0), min_size=1, max_size=4),
    far=st.floats(6.0, 10.0),
    phase=st.integers(0, (1 << PRECISION_BITS) - 1),
)
# the band lane grows slowly and never rescales over F(14) sites; the far
# lanes rescale every hundred sites or so
@example(side="right", k=14, lam=12.0, energies=[BAND_CENTER, 3.0], far=8.0, phase=0)
@example(side="left", k=14, lam=12.0, energies=[BAND_CENTER, 3.0], far=8.0, phase=0)
def test_every_lane_matches_one_lane_and_scalar_products(side, k, lam, energies,
                                                         far, phase):
    theta = PhasePoint(phase)
    energies = energies + [lam + far, -far]  # off the spectrum: these rescale
    lanes = lane_results(side, k, energies, lam, theta)
    for E, lane in zip(energies, lanes):
        assert lane == lane_results(side, k, [E], lam, theta)[0]
        assert lane == scalar_reference(side, k, E, lam, theta)


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(0, 14),
    lam=st.floats(0.0, 12.0),
    energies=st.lists(st.floats(-4.0, 16.0), min_size=1, max_size=3),
    far=st.floats(6.0, 10.0),
    phase=st.integers(0, (1 << PRECISION_BITS) - 1),
    shuffle=st.randoms(use_true_random=False),
)
@example(k=14, lam=12.0, energies=[BAND_CENTER, 3.0], far=8.0, phase=0,
         shuffle=random.Random(0))
@example(k=9, lam=0.0, energies=[0.0, -0.0], far=6.0, phase=0, shuffle=random.Random(1))
def test_two_sided_lanes_match_scalar_products(k, lam, energies, far, phase, shuffle):
    # one lane per energy and side, the sides mixed in any order
    theta = PhasePoint(phase)
    energies = energies + [lam + far, -far]  # off the spectrum: these rescale
    lanes = [(side, E) for E in energies for side in ("right", "left")]
    shuffle.shuffle(lanes)
    marks = TR._sweep([side for side, _ in lanes], np.array([E for _, E in lanes]), lam,
                      theta, [fib_number(j) for j in range(k + 1)], norms=True)
    for i, (side, E) in enumerate(lanes):
        want = [(m_raw, values[0], values[2])
                for m_raw, _, values in scalar_reference(side, k, E, lam, theta)]
        got = [(lane_raw(side, mark.m, mark.e, i),
                *xbits([TR._trace_xreals(mark.m, mark.e)[i],
                        TR._xreals(mark.sum_m, mark.sum_e)[i]]))
               for mark in marks]
        assert got == want


window = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 13.0, 21.0, 144.0]) | st.floats(0.01, 400.0)


@settings(max_examples=25, deadline=None)
@given(
    lam=st.sampled_from([0.0, 12.0]) | st.floats(0.0, 12.0),
    energies=st.lists(st.floats(-4.0, 16.0), max_size=3),
    far=st.floats(6.0, 10.0),
    windows=st.lists(st.tuples(window, st.sampled_from([1, -1])), max_size=6),
    right=window,
    left=window,
    phase=st.integers(0, (1 << PRECISION_BITS) - 1),
)
@example(lam=0.0, energies=[], far=6.0, windows=[(0.5, -1), (0.5, 1)], right=2.75,
         left=300.5, phase=0)
def test_two_sided_norm_profile_matches_one_call_per_side(lam, energies, far, windows,
                                                          right, left, phase):
    theta = PhasePoint(phase)
    energies = energies + [0.0, -0.0, lam + far, -far]  # the far lanes rescale
    ls = [sign * w for w, sign in windows] + [right, -left]
    both = TR.norm_profile(ls, energies, lam, theta)
    pos = TR.norm_profile([l for l in ls if l > 0], energies, lam, theta)
    neg = TR.norm_profile([l for l in ls if l < 0], energies, lam, theta)
    for row, p, n in zip(both, pos, neg):
        p, n = iter(p), iter(n)
        assert xbits(row) == xbits([next(p) if l > 0 else next(n) for l in ls])


def test_two_sided_sweep_carries_no_derivative():
    with pytest.raises(ValueError):
        TR._sweep(["right", "left"], np.array([0.5, 0.5]), 2.0, PhasePoint.zero(), [3],
                  deriv=True)


def test_band_lane_never_rescales_beside_far_lanes():
    # the premise of the examples above: at lambda 12 and phase 0 the band
    # lane keeps exponent 0 over F(14) sites while the far lanes rescale
    energies = [BAND_CENTER, 3.0, 12.0 + 8.0, -8.0]
    last = TR._sweep("right", np.array(energies), 12.0, PhasePoint.zero(),
                     [fib_number(14)])[0]
    assert last.e[0] == 0 and min(last.e[2:]) > 256


# ---------------------------------------------------------------------------
# the per-lane helpers against their scalar counterparts
# ---------------------------------------------------------------------------

# operands as the sweep makes them: out of a rescale, so no entry above 2**256
entry = st.floats(-2.0**256, 2.0**256) | st.sampled_from([0.0, -0.0])
matrix = st.tuples(entry, entry, entry, entry, st.integers(-3000, 3000))


def columns(matrices):
    """Scalar (a, b, c, d, e) tuples -> right-side lane entries and exponents."""
    a, b, c, d, e = (np.array(v) for v in zip(*matrices))
    return np.array([a, b, c, d]), e.astype(np.int64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(matrix, matrix), min_size=1, max_size=5))
def test_lane_add_matches_scalar_add(pairs):
    m1, e1 = columns([p for p, _ in pairs])
    m2, e2 = columns([q for _, q in pairs])
    m, e, _ = TR._renorm(*TR._add_lanes(m1, e1, m2, e2), math.inf)
    for i, (p, q) in enumerate(pairs):
        assert lane_raw("right", m, e, i) == raw(TR._add(p, q))


@settings(max_examples=200, deadline=None)
@given(st.lists(matrix.filter(lambda m: any(m[:4])), min_size=1, max_size=5))
@example([(0.0, 0.0, 0.0, 2.225073858507203e-309, 0)])  # subnormal largest entry
def test_lane_norm_matches_scalar_norm(matrices):
    m, e = columns(matrices)
    m, ex = TR._norm_sq_lanes(m, e, TR._ROWS["right"])
    for i, mat in enumerate(matrices):
        assert xbits(TR._xreals(m[i:i + 1], ex[i:i + 1])) == xbits([TR._norm_sq(mat)])


positive = st.tuples(st.floats(0.5, 1.0, exclude_max=True), st.integers(-5000, 5000))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(positive, positive), min_size=1, max_size=5))
def test_lane_xreal_add_matches_xreal(pairs):
    am, ae = (np.array(v) for v in zip(*[p for p, _ in pairs]))
    bm, be = (np.array(v) for v in zip(*[q for _, q in pairs]))
    m, e = TR._xadd_lanes(am, ae, bm, be)
    for i, (p, q) in enumerate(pairs):
        want = XReal._raw(*p) + XReal._raw(*q)
        assert (f64(m[i]), int(e[i])) == (f64(want.m), want.e)
