"""The symmetric all-timescale Abel sweep and the in-place secular passes.

References, kept here as they were before both became single sweeps over
reused buffers: the full-kernel formula evaluated once per timescale, and
the secular passes that allocate fresh temporaries per block.  The sweep
reorders sums of at most M terms, so masses must agree within 1e-13; the
secular passes do the same IEEE operations in the same order, so the
solver's output must be bit-identical.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasitrace import dynamics as DY
from quasitrace.cli import main
from quasitrace.phase import PRECISION_BITS, PhasePoint

from oracles import dense_eigenpairs

TH0 = PhasePoint.zero()
HALF = PhasePoint.from_fraction(1, 2)
MASS_TOL = 1e-13
T_GRID = [10.0, 30.0, 100.0, 300.0, 1000.0]


def _reference_masses(es, sites, T, chunk=768):
    """One timescale, the whole kernel column block by column block."""
    w = es.eigenvalues
    rows = es.site_rows(list(sites) + [1])
    g = rows[:-1] * rows[-1][None, :]
    tau = 0.5 * T
    acc = np.zeros(len(g))
    m = len(w)
    for j0 in range(0, m, chunk):
        cols = slice(j0, min(j0 + chunk, m))
        kern = 1.0 / (1.0 + (tau * (w[:, None] - w[None, cols])) ** 2)
        acc += np.einsum("sb,sb->s", g @ kern, g[:, cols])
    return np.maximum(acc, 0.0)


def _reference_secular_rows(poles, z, rho, tracked):
    """The secular passes with fresh temporaries for every block."""
    def root_gaps(cols):
        return (poles[:, None] - poles[origin[cols]][None, :]) - offset[cols][None, :]

    k = len(poles)
    if k <= 2:
        lam, vecs = np.linalg.eigh(np.diag(poles) + rho * np.outer(z, z))
        return lam, tracked @ vecs
    roots, origin, offset = DY._secular_roots(poles, z, rho)
    chunk = max(1, DY._SECULAR_CHUNK // k)
    blocks = [np.arange(j0, min(j0 + chunk, k)) for j0 in range(0, k, chunk)]
    w = np.ones(k)
    for cols in blocks:
        ratio = root_gaps(cols)
        denom = poles[:, None] - poles[None, cols]
        denom[cols, cols - cols[0]] = 1.0
        w *= np.prod(ratio / denom, axis=1)
    if not (np.all(np.isfinite(w)) and np.all(w < 0.0)):
        raise AssertionError("secular roots do not interlace the poles")
    zhat = np.copysign(np.sqrt(-w), z)
    rows = np.empty((tracked.shape[0], k))
    for cols in blocks:
        vecs = zhat[:, None] / root_gaps(cols)
        vecs /= np.linalg.norm(vecs, axis=0)
        rows[:, cols] = tracked @ vecs
    return roots, rows


def _assert_matches_reference(es, sites, T):
    got = DY.abel_site_masses(es, sites, T)
    if np.ndim(T) == 0:
        assert got.shape == (len(sites),)
        ref = _reference_masses(es, sites, T)
    else:
        assert got.shape == (len(T), len(sites))
        ref = np.array([_reference_masses(es, sites, t) for t in T])
    assert np.abs(got - ref).max() <= MASS_TOL


# ---------------------------------------------------------------------------
# agreement with the per-timescale full kernel
# ---------------------------------------------------------------------------

timescale = st.floats(0.05, 5000.0)


@settings(max_examples=40, deadline=None)
@given(raw=st.integers(0, (1 << PRECISION_BITS) - 1),
       lam=st.floats(0.0, 20.0),
       N=st.integers(1, 300),
       frac=st.floats(0.0, 1.0),
       T=timescale | st.lists(timescale, min_size=1, max_size=5),
       budget=st.sampled_from([1 << 20, 1, 100, 5000]))
def test_sweep_matches_reference(raw, lam, N, frac, T, budget):
    trunc = DY.build_truncation(N, lam, PhasePoint(raw))
    L = round(frac * N)
    sites = list(range(-L, L + 1)) + [-N, N]
    spec = DY.site_spectrum(trunc, sites)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DY, "_SECULAR_CHUNK", budget)
        _assert_matches_reference(spec, sites, T)


@pytest.mark.parametrize("budget", [1, 7, 64, 500])
def test_forced_block_boundaries(monkeypatch, budget):
    # budgets below M give one-column blocks first and wider ones towards the
    # end, where fewer rows are left; the last block is narrower than the rest
    trunc = DY.build_truncation(40, 10.0, HALF)
    sites = list(range(-40, 41))
    spec = DY.site_spectrum(trunc, sites)
    monkeypatch.setattr(DY, "_SECULAR_CHUNK", budget)
    _assert_matches_reference(spec, sites, 25.0)
    _assert_matches_reference(spec, sites, T_GRID)


def test_few_sites_many_blocks(monkeypatch):
    trunc = DY.build_truncation(150, 6.0, TH0)
    sites = list(range(-3, 4)) + [-150, 150]
    spec = DY.site_spectrum(trunc, sites)
    monkeypatch.setattr(DY, "_SECULAR_CHUNK", 3000)
    _assert_matches_reference(spec, sites, T_GRID)


def test_one_timescale_in_a_list_gives_one_row():
    spec = DY.site_spectrum(DY.build_truncation(30, 10.0, TH0), [0])
    one = DY.abel_site_masses(spec, [0, 1], 30.0)
    row = DY.abel_site_masses(spec, [0, 1], [30.0])
    assert one.shape == (2,) and row.shape == (1, 2)
    assert np.array_equal(one, row[0])
    grid = DY.abel_site_masses(spec, [0, 1], (10.0, 30.0))
    assert np.array_equal(grid[1], one)


# ---------------------------------------------------------------------------
# tied eigenvalues
# ---------------------------------------------------------------------------

def test_free_box(monkeypatch, small_leaves):
    trunc = DY.build_truncation(120, 0.0, TH0)
    sites = list(range(-120, 121))
    spec = DY.site_spectrum(trunc, sites)
    assert spec.stats["deflated_close_poles"] > 0
    _assert_matches_reference(spec, sites, T_GRID)
    monkeypatch.setattr(DY, "_SECULAR_CHUNK", 300)
    _assert_matches_reference(spec, sites, T_GRID)


def _mirror_system(n, lam, theta):
    """Two decoupled mirror-image blocks around a centre site.

    Every eigenvalue of a block is an exact double eigenvalue of the box.
    Each pair of eigenvectors is rotated by 45 degrees, so both members
    carry weight on both blocks and their kernel entry is exactly 1.
    """
    d = DY.build_truncation(n, lam, theta).diagonal[:n]
    wb, vb = dense_eigenpairs(d, lam)
    m = 2 * n + 1
    diag = np.concatenate([d, [lam], d[::-1]])
    off = np.ones(m - 1)
    off[[n - 1, n]] = 0.0
    trunc = DY.Truncation(n, lam, theta, diag, off)
    vecs = np.zeros((m, m))
    vecs[:n, 0:2 * n:2] = vecs[:n, 1:2 * n:2] = vb / math.sqrt(2.0)
    vecs[n + 1:, 0:2 * n:2] = vb[::-1] / math.sqrt(2.0)
    vecs[n + 1:, 1:2 * n:2] = -vb[::-1] / math.sqrt(2.0)
    vecs[n, -1] = 1.0
    w = np.concatenate([np.repeat(wb, 2), [lam]])
    order = np.argsort(w, kind="stable")
    return DY.SiteSpectrum(trunc, w[order], tuple(range(-n, n + 1)), vecs[:, order], {})


@pytest.mark.parametrize("budget", [1 << 20, 1, 5, 120])
def test_mirror_box_with_exact_ties(monkeypatch, budget):
    es = _mirror_system(30, 10.0, HALF)
    w = es.eigenvalues
    assert np.count_nonzero(np.diff(w) == 0.0) == 30
    assert np.abs(es.rows.T @ es.rows - np.eye(61)).max() <= 1e-13
    sites = list(range(-30, 31))
    monkeypatch.setattr(DY, "_SECULAR_CHUNK", budget)
    _assert_matches_reference(es, sites, T_GRID)
    # the source's block is decoupled, so the rest of the box stays empty:
    # the two halves of a rotated pair cancel there only through their
    # kernel entry of exactly 1
    masses = DY.abel_site_masses(es, sites, T_GRID)
    assert masses[:, :31].max() <= 1e-15
    assert np.abs(masses.sum(axis=1) - 1.0).max() <= 1e-13


# ---------------------------------------------------------------------------
# timescale validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("T", [-5.0, 0.0, math.nan, math.inf, -math.inf,
                               [10.0, -5.0], [math.nan], [10.0, math.inf]])
def test_rejects_timescales_that_are_not_finite_and_positive(T):
    spec = DY.site_spectrum(DY.build_truncation(10, 10.0, TH0), [0])
    with pytest.raises(ValueError, match="timescale must be positive"):
        DY.abel_site_masses(spec, [0], T)


# the masses the sweep gave before it silenced the overflow, all others 0:
# every pole deflates, and a squared gap (1e308, 1e160) or its product with
# (T/2)^2 (1e153, T = 1000) overflows to a kernel entry of exactly 0
HUGE_COUPLING_MASSES = {1e308: {1: 1.0}, 1e160: {1: 1.0, 2: 2e-320},
                        1e153: {1: 1.0, 2: 2e-306}}


@pytest.mark.parametrize("lam", sorted(HUGE_COUPLING_MASSES))
def test_huge_couplings_run_without_overflow_warnings(lam):
    sites = list(range(-50, 51))
    spec = DY.site_spectrum(DY.build_truncation(50, lam, TH0), sites)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = DY.abel_site_masses(spec, sites, [10.0, 1000.0])
    want = [HUGE_COUPLING_MASSES[lam].get(n, 0.0) for n in sites]
    assert got.tolist() == [want, want]


def test_huge_coupling_command_runs_without_warnings(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["dynamics", "--lambda", "1e308", "--p", "0.3", "--N", "50",
                     "--T-grid", "10", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "dynamics.csv").read_text().splitlines()[1] == (
        "1e+308,0.000000000000000000000000,10.0,1.9952623149688795,1.0,0.0,1e-08,1")


# ---------------------------------------------------------------------------
# callers: one sweep per solve
# ---------------------------------------------------------------------------

def test_one_sweep_per_solve(monkeypatch):
    calls, boxes = [], []
    sweep, solve = DY.abel_site_masses, DY.site_spectrum

    def counted(es, sites, T):
        calls.append(np.ndim(T))
        return sweep(es, sites, T)

    def solved(trunc, sites):
        boxes.append(trunc.N)
        return solve(trunc, sites)

    monkeypatch.setattr(DY, "abel_site_masses", counted)
    monkeypatch.setattr(DY, "site_spectrum", solved)
    DY.dynamical_bound_check(10.0, [TH0, HALF], T_GRID, p_used=0.3, N=60)
    assert calls == [1, 1] and boxes == [60, 60]
    calls.clear()
    boxes.clear()
    DY.exponent_trend(10.0, HALF, T_grid=(10.0, 30.0))
    assert boxes == [32 * 2**i for i in range(len(boxes))]
    assert calls == [1] * len(boxes)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def test_sweep_memory_is_bounded():
    # the 3001 x 768 kernel block and its gaps, both alive at once in the
    # per-timescale formula, take 2 * 18.4 MB; the sweep holds two buffers
    # of _SECULAR_CHUNK doubles (2.1 MB each) and products of fewer entries
    trunc = DY.build_truncation(1500, 10.0, TH0)
    sites = list(range(-4, 5)) + [-1500, 1500]
    spec = DY.site_spectrum(trunc, sites)
    bound = 3 * 8 * DY._SECULAR_CHUNK
    assert bound < 2 * 8 * trunc.size * 768
    tracemalloc.start()
    try:
        DY.abel_site_masses(spec, sites, T_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_secular_pass_memory_is_bounded():
    # the 2001-site box of the phase sweep: its largest merge keeps 1963
    # roots, so the secular passes fill both buffers, 2 * 8 * _SECULAR_CHUNK
    # bytes; the solver also holds about 4.6 copies of the tracked rows (the
    # merge's input, its secular rows, their concatenation, the sorted result)
    trunc = DY.build_truncation(1000, 6.0, TH0)
    sites = list(range(-12, 13)) + [-1000, 1000]  # the source site 1 included
    rows = 8 * len(sites) * trunc.size
    bound = 2 * 8 * DY._SECULAR_CHUNK + 6 * rows
    # at the former budget of 2^20 entries the two buffers alone took 16.8 MB
    assert bound < 2 * 8 * 1963 * ((1 << 20) // 1963)
    DY.site_spectrum(DY.build_truncation(40, 6.0, TH0), [0])  # LAPACK loaded
    tracemalloc.start()
    try:
        DY.site_spectrum(trunc, sites)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


# ---------------------------------------------------------------------------
# secular passes: bit-identical to fresh temporaries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N,lam,theta,budget", [
    (300, 10.0, HALF, 1 << 20),
    (300, 0.0, TH0, 1 << 20),
    (250, 3.0, TH0, 1000),  # several blocks of roots in every large merge
    (200, 20.0, HALF, 1),
])
def test_secular_passes_are_bit_identical(monkeypatch, small_leaves, N, lam, theta, budget):
    monkeypatch.setattr(DY, "_SECULAR_CHUNK", budget)
    trunc = DY.build_truncation(N, lam, theta)
    sites = list(range(-5, 6)) + [-N, N]
    got = DY.site_spectrum(trunc, sites)
    monkeypatch.setattr(DY, "_secular_rows", _reference_secular_rows)
    ref = DY.site_spectrum(trunc, sites)
    assert got.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    assert got.rows.tobytes() == ref.rows.tobytes()
    assert got.stats == ref.stats
