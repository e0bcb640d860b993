import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import jv

from quasitrace.phase import PRECISION_BITS, PhasePoint, omega
from quasitrace import dynamics as DY

from oracles import abel_average, dense_spectrum, evolve, windowed_norm

TH0 = PhasePoint.zero()
HALF = PhasePoint.from_fraction(1, 2)


@pytest.fixture(scope="module")
def free_system():
    return dense_spectrum(DY.build_truncation(200, 0.0, TH0))


@pytest.fixture(scope="module")
def coupled_system():
    return dense_spectrum(DY.build_truncation(200, 10.0, TH0))


# ---------------------------------------------------------------------------
# truncation and its dense reference
# ---------------------------------------------------------------------------

def test_truncation_diagonal_example():
    tr = DY.build_truncation(2, 2.0, TH0)
    assert list(tr.diagonal) == [2.0, 2.0, 0.0, 2.0, 0.0]
    assert list(tr.offdiagonal) == [1.0, 1.0, 1.0, 1.0]


def test_truncation_free_case():
    tr = DY.build_truncation(5, 0.0, TH0)
    assert not tr.diagonal.any()


def test_truncation_rejects_bad_size():
    with pytest.raises(ValueError):
        DY.build_truncation(0, 2.0, TH0)


def test_eigensystem_quality(coupled_system):
    es = coupled_system
    w = es.eigenvalues
    assert np.all(np.diff(w) >= 0)
    assert w[0] >= -2.0 - 1e-9 and w[-1] <= 12.0 + 1e-9
    # residual of a sampled eigenpair, straight from the tridiagonal action
    j = 137
    v = es.rows[:, j]
    hv = es.trunc.diagonal * v
    hv[1:] += v[:-1]
    hv[:-1] += v[1:]
    assert np.linalg.norm(hv - w[j] * v) <= 1e-8 * 12.0


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_evolve_identity_at_time_zero(coupled_system):
    psi = evolve(coupled_system, 0.0)
    assert abs(psi[1 + coupled_system.trunc.N] - 1.0) < 1e-10
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_evolve_unitary(coupled_system):
    for t in (0.5, 3.0, 42.0, 500.0):
        psi = evolve(coupled_system, t)
        assert abs(np.linalg.norm(psi) ** 2 - 1.0) < 1e-9


def test_free_evolution_matches_bessel(free_system):
    t = 20.0
    psi = evolve(free_system, t)
    for n in range(-80, 81):
        assert abs(psi[n + free_system.trunc.N]) == pytest.approx(abs(jv(n - 1, 2 * t)),
                                                                  abs=1e-6)


def test_evolve_rejects_negative_time(coupled_system):
    with pytest.raises(ValueError):
        evolve(coupled_system, -1.0)


# ---------------------------------------------------------------------------
# windowed norm
# ---------------------------------------------------------------------------

def test_windowed_norm_examples(coupled_system):
    psi = evolve(coupled_system, 0.0)
    assert windowed_norm(psi, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert windowed_norm(psi, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert windowed_norm(psi, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_windowed_norm_monotone(coupled_system):
    psi = evolve(coupled_system, 30.0)
    values = [windowed_norm(psi, l) for l in (0.0, 0.5, 1.0, 5.0, 20.5, 100.0, 199.0)]
    assert values == sorted(values)


def test_windowed_norm_edge_identity(coupled_system):
    # the full-box window plus the two boundary probabilities is the total mass
    psi = evolve(coupled_system, 12.0)
    n = coupled_system.trunc.N
    total = windowed_norm(psi, n - 1)
    edges = abs(psi[0]) ** 2 + abs(psi[-1]) ** 2
    assert total + edges == pytest.approx(float(np.linalg.norm(psi) ** 2), abs=1e-12)


def test_windowed_norm_rejects_oversize_window(coupled_system):
    psi = evolve(coupled_system, 0.0)
    with pytest.raises(DY.WindowError):
        windowed_norm(psi, coupled_system.trunc.N)


# ---------------------------------------------------------------------------
# Abel averages
# ---------------------------------------------------------------------------

def site_probability(es, n):
    """t -> |psi_t(n)|^2 on an array of times, for the state at site 1."""
    g = np.prod(es.site_rows([n, 1]), axis=0)

    def probability(ts):
        phases = np.outer(ts, es.eigenvalues)
        return (np.cos(phases) @ g) ** 2 + (np.sin(phases) @ g) ** 2
    return probability


def test_abel_average_of_constant():
    assert abel_average(lambda t: 0.37, 25.0) == pytest.approx(0.37, abs=1e-9)


def test_abel_average_of_exponential():
    a, T = 0.31, 11.0
    got = abel_average(lambda t: np.exp(-a * t), T)
    assert got == pytest.approx(2.0 / (2.0 + a * T), rel=1e-7)


def test_abel_average_of_full_mass(coupled_system):
    got = abel_average(lambda t: 1.0, 100.0)
    assert got == pytest.approx(1.0, abs=1e-9)


def test_abel_average_rejects_bad_timescale():
    with pytest.raises(ValueError):
        abel_average(lambda t: 1.0, 0.0)


def test_closed_form_matches_quadrature(coupled_system):
    rng = np.random.default_rng(20260810)
    es = coupled_system
    for _ in range(20):
        n = int(rng.integers(-30, 31))
        T = float(rng.uniform(1.0, 40.0))
        quad = abel_average(site_probability(es, n), T)
        assert float(DY.abel_site_masses(es, [n], T)[0]) == pytest.approx(quad, abs=1e-6)


def test_closed_form_range_and_completeness(coupled_system):
    es = coupled_system
    masses = DY.abel_site_masses(es, range(-200, 201), 13.0)
    assert np.all(masses >= 0.0) and np.all(masses <= 1.0 + 1e-12)
    assert masses.sum() == pytest.approx(1.0, abs=1e-9)


def test_single_eigenstate_time_invariant():
    # a three-site box with the initial site decoupled by symmetry checks the
    # diagonal term of the double sum: the mass is time-independent
    es = dense_spectrum(DY.build_truncation(1, 0.0, TH0))
    masses = [float(DY.abel_site_masses(es, [1], T)[0]) for T in (0.1, 1.0, 10.0, 1000.0)]
    instant = [abs(evolve(es, t)[1 + es.trunc.N]) ** 2 for t in (0.0,)]
    assert max(masses) - min(masses) < 0.7  # oscillatory part decays with T
    assert all(0.0 <= m <= 1.0 for m in masses)
    assert instant[0] == pytest.approx(1.0)


def test_hand_quadrature_three_site_box():
    # N=1 free box: eigenvalues -sqrt(2), 0, sqrt(2); closed form vs quadrature
    es = dense_spectrum(DY.build_truncation(1, 0.0, TH0))
    assert np.allclose(sorted(es.eigenvalues), [-math.sqrt(2), 0.0, math.sqrt(2)],
                       atol=1e-12)
    for T in (0.7, 5.0, 80.0):
        cf = float(DY.abel_site_masses(es, [0], T)[0])
        assert cf == pytest.approx(abel_average(site_probability(es, 0), T), abs=1e-8)


# ---------------------------------------------------------------------------
# bound check and trend
# ---------------------------------------------------------------------------

def test_auto_box_is_the_first_certified_doubling():
    report = DY.dynamical_bound_check(10.0, [TH0, HALF], [10.0, 1000.0], p_used=0.15)
    first = math.floor(1000.0 ** 0.15) + 1 + DY._BOX_MARGIN
    for theta, steps in report.box_steps.items():
        sizes = [n for n, _ in steps]
        assert sizes == [first * 2**i for i in range(len(sizes))]
        assert all(worst > DY.TRUNC_TOL for _, worst in steps[:-1])
        assert steps[-1][1] <= DY.TRUNC_TOL
        assert report.N_used[theta] == sizes[-1]
        records = [r for r in report.records if r.theta == theta]
        assert max(r.trunc_bound for r in records) == steps[-1][1]
        for r in records:
            assert r.valid
            assert r.trunc_bound == r.T * math.sqrt(r.edge_mass + DY.EDGE_ROUNDING)


def test_auto_box_stops_at_the_size_limit(monkeypatch):
    monkeypatch.setattr(DY, "MAX_BOX", 40)
    with pytest.raises(ValueError,
                       match=r"no box up to N=40 .* best T\*sqrt\(edge mass \+ EDGE_ROUNDING\)"):
        DY.dynamical_bound_check(10.0, [TH0], [1000.0], p_used=0.15)
    with pytest.raises(DY.WindowError):
        DY.dynamical_bound_check(10.0, [TH0], [1000.0], p_used=0.6)


def test_auto_box_refuses_uncertifiable_timescales_before_solving(monkeypatch):
    # T sqrt(EDGE_ROUNDING) alone exceeds TRUNC_TOL beyond T = 1e4, so no box can do
    monkeypatch.setattr(DY, "site_spectrum", None)  # any solve would raise TypeError
    with pytest.raises(ValueError, match=r"no box certifies T=20000"):
        DY.dynamical_bound_check(6.0, [TH0], [10.0, 20000.0], p_used=0.3)


# tiny boxes at short times are where the bound comes closest to the gap
@settings(max_examples=40, deadline=None)
@given(raw=st.integers(0, (1 << PRECISION_BITS) - 1),
       lam=st.one_of(st.just(0.0), st.floats(3.0, 20.0)),
       N=st.one_of(st.integers(1, 4), st.integers(1, 150)),
       log_T=st.floats(-1.0, math.log10(500.0)),
       frac=st.floats(0.0, 1.0))
# the bound is 4.7 times the gap here, the tightest case found in a scan
@example(raw=0, lam=0.0, N=1, log_T=0.0, frac=1.0)
# a certified box: a bound below 1e-3 that the gap must respect
@example(raw=0, lam=10.0, N=40, log_T=2.0, frac=0.1)
def test_truncation_bound_holds(raw, lam, N, log_T, frac):
    # both boxes are within their own bounds of the untruncated masses
    theta, T, L = PhasePoint(raw), 10.0 ** log_T, frac * N
    masses, (bound,), _, _ = DY._certified_box(lam, theta, [T], N, N, fixed=True)
    n_ref = N + min(60 + int(8 * T), 400)
    ref, (ref_bound,), _, _ = DY._certified_box(lam, theta, [T], n_ref, N + 1, fixed=True)
    gap = abs(DY._window_mass(masses[0], L) - DY._window_mass(ref[0], L))
    assert gap <= bound + ref_bound + 1e-12


def test_dynamical_bound_check_small():
    report = DY.dynamical_bound_check(
        10.0, [TH0, PhasePoint.from_fraction(1, 2)], [10.0, 50.0],
        C1=1.0, p_used=0.2, N=300)
    assert len(report.records) == 4
    assert report.G_emp > 0.0
    assert all(r.valid for r in report.records)
    assert report.G_emp == min(r.mass for r in report.records)
    for r in report.records:
        assert 0.0 <= r.mass <= 1.0 + 1e-9
        assert r.L == r.T**0.2


def test_bound_check_window_must_fit():
    with pytest.raises(DY.WindowError):
        DY.dynamical_bound_check(10.0, [TH0], [1000.0], C1=1.0, p_used=1.0, N=300)


def test_fixed_box_invalid_for_ballistic_control():
    # the free case floods the edges at large T; a fixed box is never enlarged,
    # so the record comes back marked invalid rather than silently wrong
    report = DY.dynamical_bound_check(0.0, [TH0], [400.0], C1=1.0, p_used=0.2, N=400)
    (rec,) = report.records
    assert not rec.valid
    assert rec.trunc_bound == 400.0 * math.sqrt(rec.edge_mass + DY.EDGE_ROUNDING) > DY.TRUNC_TOL
    assert report.box_steps == {TH0: ((400, rec.trunc_bound),)}


def test_clipped_edge_mass_keeps_a_positive_bound(monkeypatch):
    # far from the source the computed edge mass is all rounding, and the
    # sweep clips its negatives to 0 (at coupling 10, N = 300, phase 0 and
    # T = 100 it reads 0.0 on x86-64); the bound still charges EDGE_ROUNDING
    sweep = DY.abel_site_masses

    def clipped(es, sites, T):
        masses = sweep(es, sites, T)
        masses[:, [sites.index(-es.trunc.N), sites.index(es.trunc.N)]] = 0.0
        return masses

    monkeypatch.setattr(DY, "abel_site_masses", clipped)
    report = DY.dynamical_bound_check(10.0, [TH0], [10.0, 100.0], p_used=0.2, N=300)
    for rec in report.records:
        assert rec.edge_mass == 0.0
        assert rec.trunc_bound >= rec.T * math.sqrt(DY.EDGE_ROUNDING) > 0.0
        assert rec.valid


def test_exponent_trend_rejects_weak_coupling():
    with pytest.raises(ValueError):
        DY.exponent_trend(5.0, TH0, T_grid=(10.0,))


def test_exponent_trend_small():
    row = DY.exponent_trend(10.0, HALF, T_grid=(10.0, 30.0))
    assert isinstance(row, DY.TrendRow) and row.lam == 10.0
    assert 0.05 <= row.p_fit <= 1.0
    assert all(m >= 0.5 for _, _, m in row.masses)
    sizes = [n for n, _ in row.box_steps]
    assert sizes == [sizes[0] * 2**i for i in range(len(sizes))]
    assert row.box_steps[-1][1] <= DY.TRUNC_TOL
