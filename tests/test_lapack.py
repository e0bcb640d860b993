"""The solver's two LAPACK sources, held bit for bit to each other.

`lapack._lapack` takes dlaed4, dstevd and dsterf from numpy's bundled
ILP64 OpenBLAS where it exports them, and otherwise from SciPy's
`cython_lapack` capsules with LP64 integers.  Forcing the SciPy source
(`_lapack(False)`) must move no bit of a root, an eigenpair, an eigenvalue
or a whole merging solve.  Where numpy has no such library both sources are
SciPy's and the comparison is skipped.
"""

import ctypes
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasitrace import dynamics as DY
from quasitrace import lapack as LA

from test_secular import secular_problems

pytestmark = pytest.mark.skipif(
    LA._lapack().source != "numpy",
    reason="numpy has no bundled OpenBLAS with the solver's LAPACK routines")


def _bits(values) -> list:
    return [(a.dtype, a.shape, a.tobytes()) for a in values]


def _on_both_sources(solve):
    """`solve()` on the default source, then on SciPy's: each result, or its error."""
    results = []
    for source in (LA._lapack, functools.partial(LA._lapack, False)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LA, "_lapack", source)
            try:
                results.append(solve())
            except AssertionError as exc:
                results.append(str(exc))
    return results


def test_the_fallback_is_scipy_with_lp64_integers():
    bundled, fallback = LA._lapack(), LA._lapack(False)
    assert bundled.integer is ctypes.c_int64 and len(bundled.tail) == 1
    assert (fallback.source, fallback.integer, fallback.tail) == ("scipy", ctypes.c_int, ())
    # numpy's products run in numpy's OpenBLAS whichever source LAPACK comes from
    setter, same = (ctypes.cast(lib.set_threads, ctypes.c_void_p).value
                    for lib in (bundled, fallback))
    assert setter is not None and setter == same


@st.composite
def tridiagonals(draw, max_size):
    """A tridiagonal (d, e): a coupling times a 0/1 word, or Gaussian entries."""
    n = draw(st.integers(1, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        d = draw(st.floats(0.0, 100.0)) * (rng.random(n) < 0.618)
        e = np.ones(n - 1)
    else:
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    return d, e


@settings(max_examples=40, deadline=None)
@given(problem=secular_problems())
def test_dlaed4_roots_agree_bit_for_bit(problem):
    bundled, fallback = _on_both_sources(lambda: DY._secular_roots(*problem))
    assert type(bundled) is type(fallback)
    if isinstance(bundled, str):
        assert bundled == fallback
    else:
        assert _bits(bundled) == _bits(fallback)


@settings(max_examples=40, deadline=None)
@given(problem=tridiagonals(DY._LEAF_SIZE))
def test_dstevd_pairs_agree_bit_for_bit(problem):
    bundled, fallback = _on_both_sources(lambda: LA.dstevd(*problem))
    assert _bits(bundled) == _bits(fallback)


@settings(max_examples=40, deadline=None)
@given(problem=tridiagonals(600))
def test_dsterf_values_agree_bit_for_bit(problem):
    bundled, fallback = _on_both_sources(lambda: [LA.dsterf(*problem)])
    assert _bits(bundled) == _bits(fallback)


# run in a fresh interpreter with one BLAS thread: 16-site leaves, as the
# `small_leaves` fixture sets, so that the 121-site box merges down three
# levels; the masses read every eigenvalue and tracked row
MERGING_SOLVE = """
import functools

from quasitrace import dynamics as DY, lapack as LA
from quasitrace.phase import PhasePoint

DY._LEAF_SIZE = 16
trunc = DY.build_truncation(60, 6.0, PhasePoint.from_fraction(1, 3))
sites = range(-12, 13)


def solve():
    es = DY.site_spectrum(trunc, sites)
    masses = DY.abel_site_masses(es, sites, [10.0, 1000.0])
    return es.eigenvalues.tobytes(), es.rows.tobytes(), masses.tobytes(), es.stats


bundled = solve()
LA._lapack = functools.partial(LA._lapack, False)
fallback = solve()
assert LA._lapack().source == "scipy"
assert bundled[3]["deflated_small_weight"] + bundled[3]["deflated_close_poles"] > 0
assert fallback == bundled
print("agree")
"""


def test_merging_solve_agrees_on_both_sources():
    path = os.pathsep.join(filter(None, [str(Path(DY.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", MERGING_SOLVE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
                                   OMP_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "agree\n"
