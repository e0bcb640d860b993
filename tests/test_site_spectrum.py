"""The split-and-merge solver `site_spectrum` against dense references.

Dense references: `oracles.dense_spectrum` with bisection and inverse
iteration (LAPACK stebz/stein, the fallback driver of its MRRR reference),
the MRRR reference itself, and a 40-digit mpmath eigendecomposition.  None of
them calls the solver.  Tests of the merges solve with 16-site leaves (the
`small_leaves` fixture), so boxes of a few dozen sites merge whatever leaf
size the solver is tuned to.  MRRR loses up to about 4e-11 in Abel masses on
clustered boxes of a few hundred sites (and 6e-11 on a 6001-site box at
coupling 10), where bisection and the new route agree to about 1e-13, so the
1e-12 comparisons use bisection and MRRR gets a looser bound.  The
validation gates of `_validate_site_spectrum` are fed corrupted input one
check at a time.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

from quasitrace import dynamics as DY
from quasitrace.phase import PRECISION_BITS, PhasePoint

import oracles
from oracles import BISECTION, dense_spectrum

TH0 = PhasePoint.zero()
HALF = PhasePoint.from_fraction(1, 2)
MRRR_MASS_TOL = 1e-10


def _bisection_reference(trunc):
    return dense_spectrum(trunc, BISECTION)


def _masses_agree(spec, dense, sites, tol):
    for T in (10.0, 1000.0):
        got = DY.abel_site_masses(spec, sites, T)
        ref = DY.abel_site_masses(dense, sites, T)
        assert np.abs(got - ref).max() <= tol


# ---------------------------------------------------------------------------
# agreement with the dense references
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(raw=st.integers(0, (1 << PRECISION_BITS) - 1),
       lam=st.floats(0.0, 20.0),
       N=st.integers(1, 300),
       frac=st.floats(0.0, 1.0),
       leaf=st.sampled_from([16, DY._LEAF_SIZE]))
def test_site_spectrum_matches_dense_reference(raw, lam, N, frac, leaf):
    trunc = DY.build_truncation(N, lam, PhasePoint(raw))
    L = round(frac * N)  # windows from the single site 0 up to the whole box
    sites = list(range(-L, L + 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DY, "_LEAF_SIZE", leaf)
        spec = DY.site_spectrum(trunc, sites)
    dense = dense_spectrum(trunc)
    assert spec.eigenvalues.shape == (trunc.size,)
    assert np.abs(spec.eigenvalues - dense.eigenvalues).max() <= 1e-12 * (lam + 2.0)
    _masses_agree(spec, _bisection_reference(trunc), sites, 1e-12)
    _masses_agree(spec, dense, sites, MRRR_MASS_TOL)


def test_exponent_trend_box_matches_dense_reference():
    # a strongly clustered 1601-site box, every site tracked
    trunc = DY.build_truncation(800, 10.0, HALF)
    sites = list(range(-800, 801))
    spec = DY.site_spectrum(trunc, sites)
    assert spec.stats["deflated_small_weight"] > 0
    assert spec.stats["deflated_close_poles"] > 0
    _masses_agree(spec, _bisection_reference(trunc), sites, 1e-12)
    _masses_agree(spec, dense_spectrum(trunc), sites, MRRR_MASS_TOL)


def test_eigensystem_is_site_spectrum_over_every_site(small_leaves):
    # the benchmark's name for the solver: every site tracked, on a box that merges
    trunc = DY.build_truncation(30, 10.0, HALF)
    spec = DY.eigensystem(trunc)
    assert spec.sites == tuple(range(-30, 31))
    assert spec.rows.shape == (61, 61)
    assert spec.stats["size"] == 61
    sites = list(spec.sites)
    _masses_agree(spec, _bisection_reference(trunc), sites, 1e-12)
    _masses_agree(spec, dense_spectrum(trunc), sites, MRRR_MASS_TOL)


def test_mrrr_reference_runs_without_the_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the reference called the solver it checks")

    trunc = DY.build_truncation(40, 10.0, TH0)
    want = dense_spectrum(trunc)
    monkeypatch.setattr(DY, "site_spectrum", refuse)
    monkeypatch.setattr(DY, "_split_merge", refuse)
    with pytest.raises(AssertionError, match="the solver it checks"):
        DY.site_spectrum(trunc, [0])
    got = dense_spectrum(trunc)
    assert got.sites == tuple(range(-40, 41))
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.rows, want.rows)


def test_mrrr_reference_falls_back_to_bisection(monkeypatch):
    solve = oracles.eigh_tridiagonal

    def without_mrrr(d, e, lapack_driver):
        if lapack_driver == "stemr":
            raise np.linalg.LinAlgError("stemr refused")
        return solve(d, e, lapack_driver=lapack_driver)

    trunc = DY.build_truncation(40, 10.0, TH0)
    want = dense_spectrum(trunc, BISECTION)
    monkeypatch.setattr(oracles, "eigh_tridiagonal", without_mrrr)
    got = dense_spectrum(trunc)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.rows, want.rows)


def test_site_rows_interface(small_leaves):
    trunc = DY.build_truncation(30, 10.0, TH0)
    spec = DY.site_spectrum(trunc, [-3, 4])
    assert spec.sites == (-3, 1, 4)  # the source site is always tracked
    # single rows differ between solvers by rotations inside clusters; their
    # norms and the Abel masses do not
    assert np.allclose(np.linalg.norm(spec.site_rows([4, -3]), axis=1), 1.0, atol=1e-12)
    _masses_agree(spec, dense_spectrum(trunc), [-3, 1, 4], 1e-13)
    with pytest.raises(KeyError):
        spec.site_rows([2])
    with pytest.raises(DY.WindowError):
        spec.site_rows([31])
    with pytest.raises(DY.WindowError):
        DY.site_spectrum(trunc, [-31])


# ---------------------------------------------------------------------------
# deflation branches, asserted through the returned counts
# ---------------------------------------------------------------------------

def _deflations(N, lam, theta):
    stats = DY.site_spectrum(DY.build_truncation(N, lam, theta), [0]).stats
    return stats["deflated_small_weight"], stats["deflated_close_poles"]


def test_no_deflation_in_a_small_box(small_leaves):
    assert _deflations(30, 10.0, TH0) == (0, 0)


def test_small_weight_deflation_only(small_leaves):
    # an eigenvector of a half localised far from its cut carries no weight there
    small, close = _deflations(100, 3.0, HALF)
    assert small > 0 and close == 0


def test_close_pole_deflation_only_in_the_free_box(small_leaves):
    # the free box's inner blocks are mirror-symmetric: their halves share poles
    small, close = _deflations(300, 0.0, TH0)
    assert small == 0 and close > 0


def test_both_deflations_at_strong_coupling(small_leaves):
    small, close = _deflations(300, 20.0, TH0)
    assert small > 0 and close > 0


def _one_merge(monkeypatch, d):
    """`_split_merge` with both halves solved whole: exactly one merge."""
    monkeypatch.setattr(DY, "_LEAF_SIZE", len(d) - len(d) // 2)
    rows_at = np.arange(len(d))
    return rows_at, *DY._split_merge(d, np.ones(len(d) - 1), rows_at)


def _dense_check(d, rows_at, w, rows):
    h = np.diag(d) + np.diag(np.ones(len(d) - 1), 1) + np.diag(np.ones(len(d) - 1), -1)
    ref_w, ref_v = np.linalg.eigh(h)
    assert np.abs(w - ref_w).max() <= 1e-13 * np.abs(d).max()
    # the projector onto each eigenvalue is unique even where vectors are not
    sel = ref_v[rows_at]
    assert np.abs(rows @ np.diag(w) @ rows.T - sel @ np.diag(ref_w) @ sel.T).max() <= 1e-12
    assert np.abs(rows @ rows.T - np.eye(len(rows_at))).max() <= 1e-13


@pytest.mark.parametrize("d", [
    np.array([3.0, 0.0, 7.0, 7.0, 0.0, 3.0]),  # three roots left: dlaed4
    np.array([5.0, 1.0, 1.0, 5.0]),  # two roots left: the small dense branch
])
def test_mirror_box_rotates_away_every_twin(monkeypatch, d):
    # the two halves of a mirror-symmetric box have the same poles, so each
    # pole pairs with its twin and one of every pair is rotated away
    rows_at, w, rows, counts = _one_merge(monkeypatch, d)
    assert counts == (0, len(d) // 2)
    _dense_check(d, rows_at, w, rows)


def test_weightless_coupling_deflates_every_pole(monkeypatch):
    # unit hopping next to diagonal entries of 1e20 is below rounding: nothing
    # is left for the secular equation
    d = np.array([1e20, 2.0, -1e20, 1e20, 0.0])
    rows_at, w, rows, (small, close) = _one_merge(monkeypatch, d)
    assert (small, close) == (len(d), 0)
    assert np.allclose(w[[0, -1]], [-1e20, 1e20], rtol=1e-15)
    assert np.abs(rows @ rows.T - np.eye(len(d))).max() <= 1e-13


# ---------------------------------------------------------------------------
# validation gates: each check raises on its own corruption
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def checked():
    trunc = DY.build_truncation(100, 10.0, TH0)
    spec = DY.site_spectrum(trunc, range(-5, 6))
    reference, info = lapack.dsterf(trunc.diagonal, trunc.offdiagonal)
    assert info == 0
    rows_at = np.array(spec.sites) + trunc.N
    return trunc, spec, reference, rows_at


def test_validation_passes_clean_input(checked):
    trunc, spec, reference, rows_at = checked
    stats = DY._validate_site_spectrum(trunc, spec.eigenvalues, reference, rows_at, spec.rows)
    assert stats == {k: spec.stats[k] for k in stats}
    assert stats["eigenvalue_gap"] <= DY.EIGENVALUE_TOL * 12.0
    assert stats["moment_defect"] <= DY.RESIDUAL_TOL * 12.0
    assert stats["gram_defect"] <= DY.GRAM_TOL


def test_validation_rejects_shifted_eigenvalue(checked):
    trunc, spec, reference, rows_at = checked
    w = spec.eigenvalues.copy()
    w[len(w) // 2] += 1e-9 * 12.0
    with pytest.raises(AssertionError, match="dsterf"):
        DY._validate_site_spectrum(trunc, w, reference, rows_at, spec.rows)


def test_validation_rejects_scaled_row(checked):
    trunc, spec, reference, rows_at = checked
    # a site with zero potential, so the first moments stay inside tolerance
    i = int(np.flatnonzero(trunc.diagonal[rows_at] == 0.0)[0])
    rows = spec.rows.copy()
    rows[i] *= 1.0 + 1e-8
    with pytest.raises(AssertionError, match="Gram"):
        DY._validate_site_spectrum(trunc, spec.eigenvalues, reference, rows_at, rows)


def test_validation_rejects_flipped_entry(checked):
    trunc, spec, reference, rows_at = checked
    # flip the entry that carries most of a nearest-neighbour moment
    weight = np.abs(spec.eigenvalues * spec.rows[:-1] * spec.rows[1:])
    i, j = np.unravel_index(np.argmax(weight), weight.shape)
    rows = spec.rows.copy()
    rows[i, j] = -rows[i, j]
    with pytest.raises(AssertionError, match="first moments"):
        DY._validate_site_spectrum(trunc, spec.eigenvalues, reference, rows_at, rows)


def test_validation_rejects_eigenvalue_outside_gershgorin(checked):
    trunc, spec, reference, rows_at = checked
    w, ref = spec.eigenvalues.copy(), reference.copy()
    w[-1] = ref[-1] = 12.0 + 1e-6
    with pytest.raises(AssertionError, match="Gershgorin"):
        DY._validate_site_spectrum(trunc, w, ref, rows_at, spec.rows)



def test_a_dsterf_failure_on_its_thread_is_raised_in_the_caller(monkeypatch):
    def fail(d, e):
        raise AssertionError("dsterf failed (info=1)")

    monkeypatch.setattr(DY, "_dsterf", fail)
    with pytest.raises(AssertionError, match=r"dsterf failed \(info=1\)"):
        DY.site_spectrum(DY.build_truncation(20, 6.0, TH0), range(-2, 3))


def test_solver_and_sweep_run_on_one_blas_thread_and_give_the_count_back(
        monkeypatch, small_leaves):
    set_threads = DY._lapack().set_threads
    if set_threads is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    seen = []

    def spy(real):
        def wrapped(*args):
            seen.append(set_threads(1))  # the count in force; left at 1
            return real(*args)
        return wrapped

    monkeypatch.setattr(DY, "_validate_site_spectrum", spy(DY._validate_site_spectrum))
    monkeypatch.setattr(DY, "_column_minus_row", spy(DY._column_minus_row))
    before = set_threads(2)
    try:
        es = DY.site_spectrum(DY.build_truncation(40, 6.0, TH0), range(-3, 4))
        assert set_threads(2) == 2
        DY.abel_site_masses(es, range(-3, 4), [10.0, 100.0])
        assert set_threads(2) == 2
    finally:
        set_threads(before)
    assert seen and set(seen) == {1}

# ---------------------------------------------------------------------------
# high-precision reference
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mp_site_masses():
    """Abel site masses of the 41-site box at lambda 10, theta 0, at 40 digits."""
    trunc = DY.build_truncation(20, 10.0, TH0)
    m = trunc.size
    with mpmath.workdps(40):
        h = mpmath.zeros(m, m)
        for i in range(m):
            h[i, i] = mpmath.mpf(float(trunc.diagonal[i]))
            if i + 1 < m:
                h[i, i + 1] = h[i + 1, i] = mpmath.mpf(1)
        energies, vectors = mpmath.eigsy(h)
        source = trunc.N + 1
        out = {}
        for T in (10.0, 1000.0):
            tau2 = mpmath.mpf(T / 2) ** 2
            kern = [[1 / (1 + tau2 * (energies[a] - energies[b]) ** 2) for b in range(m)]
                    for a in range(m)]
            masses = {}
            for n in range(-trunc.N, trunc.N + 1):
                g = [vectors[n + trunc.N, j] * vectors[source, j] for j in range(m)]
                masses[n] = float(mpmath.fsum(
                    g[a] * mpmath.fsum(kern[a][b] * g[b] for b in range(m))
                    for a in range(m)))
            out[T] = masses
    return out


def test_window_and_edge_masses_match_high_precision(mp_site_masses, small_leaves):
    report = DY.dynamical_bound_check(10.0, [TH0], [10.0, 1000.0], C1=1.0,
                                      p_used=0.3, N=20)
    for rec in report.records:
        ref = mp_site_masses[rec.T]
        assert abs(rec.mass - DY._window_mass(ref, rec.L)) <= 1e-13
        assert abs(rec.edge_mass - (ref[-20] + ref[20])) <= 1e-13
    spec = DY.site_spectrum(DY.build_truncation(20, 10.0, TH0), range(-20, 21))
    for T, ref in mp_site_masses.items():
        got = DY.abel_site_masses(spec, range(-20, 21), T)
        assert np.abs(got - [ref[n] for n in range(-20, 21)]).max() <= 1e-13


@pytest.mark.parametrize("leaf", [4, 16])
def test_rounding_at_empty_sites_stays_below_edge_rounding(monkeypatch, mp_site_masses, leaf):
    # the truncation bound charges EDGE_ROUNDING for the rounding of a
    # computed edge mass; at every site whose true mass is negligible the
    # computed one stays within it.  Both leaf sizes split the 41-site box,
    # so the masses come from merges.
    monkeypatch.setattr(DY, "_LEAF_SIZE", leaf)
    spec = DY.site_spectrum(DY.build_truncation(20, 10.0, TH0), range(-20, 21))
    checked = 0
    for T, ref in mp_site_masses.items():
        got = DY.abel_site_masses(spec, range(-20, 21), T)
        want = np.array([ref[n] for n in range(-20, 21)])
        tiny = want < 1e-10
        checked += np.count_nonzero(tiny)
        assert np.all(np.abs(got - want)[tiny] <= DY.EDGE_ROUNDING)
    # five far sites at T = 10, masses 3e-12 to 6e-11, off by up to 2.4e-19
    assert checked == 5
