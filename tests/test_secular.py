"""The secular-equation kernels of the merge, held bit for bit to their references.

`_secular_roots` calls dlaed4 through a bare function pointer and reads its
`delta` as Python floats; `tests/oracles.py` keeps the loop that called it
through a typed prototype on numpy arrays.  `_column_minus_row` builds
col_i - row_j as a copy and an in-place subtract; the reference is numpy's
two-operand broadcast.  Both do the same IEEE operations, so every bit must
agree, the signs of zeros included.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quasitrace import dynamics as DY

from oracles import secular_roots


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


# poles -1/2, 0, 1 with z = (1/2, a, a), |z| = 1, and rho = 4: the terms of
# the second and third poles cancel at 1/2, where 1 - rho z_1^2 = 0, so root
# 1 lies exactly midway between poles 1 and 2, and dlaed4 returns
# delta = (-1, -1/2, 1/2) for it: a tie that the origin rule breaks downward
_MIDWAY = (np.array([-0.5, 0.0, 1.0]),
           np.array([0.5, math.sqrt(0.375), math.sqrt(0.375)]), 4.0)


@st.composite
def secular_problems(draw):
    """Increasing poles in 1 to 6 clusters, unit weights with some tiny ones, rho > 0."""
    k = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clusters = draw(st.integers(1, 6))
    spread = 10.0 ** -draw(st.integers(0, 12))
    tiny = draw(st.sampled_from([0.0, 0.1, 0.5]))
    centres = rng.uniform(-10.0, 10.0, clusters)
    poles = np.unique(centres[rng.integers(0, clusters, k)] + spread * rng.standard_normal(k))
    assume(len(poles) >= 3)
    z = rng.uniform(0.1, 1.0, len(poles)) * rng.choice([-1.0, 1.0], len(poles))
    weak = rng.random(len(poles)) < tiny
    z[weak] *= 10.0 ** -rng.uniform(4.0, 12.0, int(weak.sum()))
    z /= np.linalg.norm(z)
    return poles, z, draw(st.floats(1e-3, 1e3))


def test_a_root_midway_between_poles_takes_the_lower_origin():
    poles, z, rho = _MIDWAY
    roots, origin, offset = DY._secular_roots(poles, z, rho)
    assert roots[1] == 0.5
    assert origin.tolist()[:2] == [0, 1] and offset[1] == 0.5


@settings(max_examples=60, deadline=None)
@given(problem=secular_problems())
@example(problem=_MIDWAY)
def test_secular_roots_match_the_typed_prototype(problem):
    poles, z, rho = problem
    try:
        want = secular_roots(poles, z, rho)
    except AssertionError:
        with pytest.raises(AssertionError, match="did not converge"):
            DY._secular_roots(poles, z, rho)
        return
    got = DY._secular_roots(poles, z, rho)
    assert [_bits(a) for a in got] == [_bits(a) for a in want]


@pytest.mark.parametrize("bad", [
    lambda a: a[::-1],  # negative stride
    lambda a: np.repeat(a, 2)[::2],  # stride of two entries
    lambda a: a.astype(np.float32),
])
def test_secular_roots_refuse_arrays_that_dlaed4_cannot_read(bad):
    poles, z, rho = _MIDWAY
    with pytest.raises(AssertionError, match="C-contiguous float64"):
        DY._secular_roots(bad(poles), z, rho)
    with pytest.raises(AssertionError, match="C-contiguous float64"):
        DY._secular_roots(poles, bad(z), rho)


_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])


@settings(max_examples=200, deadline=None)
@given(col=st.lists(_floats, min_size=1, max_size=40),
       row=st.lists(_floats, min_size=1, max_size=40),
       layout=st.sampled_from("CF"))
@example(col=[0.0, -0.0, 1.0], row=[0.0, -0.0, 1.0], layout="C")
@example(col=[0.0, -0.0, 1.0], row=[0.0, -0.0, 1.0], layout="F")
def test_column_minus_row_matches_the_broadcast_subtract(col, row, layout):
    col, row = np.array(col), np.array(row)
    out = np.full((len(col), len(row)), np.nan, order=layout)
    # full-range operands overflow to inf on both sides alike
    with np.errstate(over="ignore"):
        got = DY._column_minus_row(col, row, out)
        want = np.subtract(col[:, None], row[None, :])
    assert got is out
    assert _bits(np.ascontiguousarray(got)) == _bits(want)


@settings(max_examples=100, deadline=None)
@given(poles=st.lists(_floats, min_size=1, max_size=30),
       seed=st.integers(0, 2**32 - 1), layout=st.sampled_from("CF"))
def test_root_gaps_match_the_broadcast_subtracts(poles, seed, layout):
    poles = np.array(poles)
    k = len(poles)
    rng = np.random.default_rng(seed)
    origin = rng.integers(0, k, k)
    offset = rng.choice(poles, k) * rng.choice([-1.0, 0.5, 1e-300], k)
    cols = slice(rng.integers(0, k), k)
    out = np.empty((k, k - cols.start), order=layout)
    # full-range poles and offsets overflow to inf on both sides alike
    with np.errstate(over="ignore"):
        got = DY._root_gaps(poles, origin, offset, cols, out)
        want = (poles[:, None] - poles[origin[cols]][None, :]) - offset[cols][None, :]
    assert _bits(np.ascontiguousarray(got)) == _bits(want)
