import hashlib
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quasitrace.phase import PhasePoint, omega
from quasitrace.words import fib_number
from quasitrace import spectrum as SP
from quasitrace import transfer as TR

from oracles import xreal_rows

TH0 = PhasePoint.zero()
SQRT5 = math.sqrt(5.0)


@pytest.fixture
def fresh_band_cache():
    """An empty band cache, cleared again after the test, so bands computed
    under a patched scan never reach a later test."""
    SP._level_edges.cache_clear()
    yield
    SP._level_edges.cache_clear()


def test_trace_grid_matches_transfer_products():
    energies = np.linspace(-3.0, 13.0, 7)
    xs, _ = SP.trace_grid(energies, 10.0, 10)
    for k in (0, 1, 2, 5, 10):
        for i, E in enumerate(energies):
            ref = float(xreal_rows(TR.traces_right_upto(k, float(E), 10.0, TH0))[k])
            assert xs[k][i] == pytest.approx(ref, rel=1e-10, abs=1e-9)


def test_trace_grid_derivatives_match_duals():
    energies = np.linspace(-2.0, 12.0, 5)
    xs, ds = SP.trace_grid(energies, 10.0, 9)
    for k in (1, 4, 9):
        for i, E in enumerate(energies):
            ref = TR.dual_traces_upto(k, float(E), 10.0, TH0)
            traces, derivs = xreal_rows(ref.traces), xreal_rows(ref.derivs)
            assert xs[k][i] == pytest.approx(float(traces[k]), rel=1e-10, abs=1e-9)
            assert ds[k][i] == pytest.approx(float(derivs[k]), rel=1e-10, abs=1e-9)


# ---------------------------------------------------------------------------
# band structure
# ---------------------------------------------------------------------------

def test_in_band_mask_puts_nan_and_infinities_out_of_band():
    # one comparison, no isfinite pass: NaN and +-inf compare False, silently
    vals = np.array([np.nan, np.inf, -np.inf, 2.0, -2.0, -0.0, np.nextafter(2.0, 3.0), -3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = SP._in_band(vals)
    assert inside.tolist() == [False, False, False, True, True, True, False, False]


def test_band_closed_forms():
    (lo,), (hi,) = SP.bands(0, 2.0)
    assert (lo, hi) == (pytest.approx(0.0, abs=1e-11), pytest.approx(4.0, abs=1e-11))
    lo, hi = SP.bands(1, 2.0)
    assert len(lo) == 2
    assert lo[0] == pytest.approx(1.0 - SQRT5, abs=1e-10)
    assert hi[0] == pytest.approx(0.0, abs=1e-10)
    assert lo[1] == pytest.approx(2.0, abs=1e-10)
    assert hi[1] == pytest.approx(1.0 + SQRT5, abs=1e-10)


def test_free_case_single_band():
    for k in (0, 1, 5, 9):
        lo, hi = SP.bands(k, 0.0)
        assert len(lo) == 1
        assert lo[0] == pytest.approx(-2.0, abs=1e-10)
        assert hi[0] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("lam", [2.0, 10.0])
def test_band_counts_and_disjointness(lam):
    for k in range(0, 13):
        lo, hi = SP.bands(k, lam)
        if lam > 6.0:
            assert len(lo) == fib_number(k)
        assert np.all(hi[:-1] <= lo[1:])  # ordered, disjoint up to shared edges


def test_band_interiors_and_edges():
    for k in (4, 8):
        step = max(1, fib_number(k) // 8)
        for band in zip(*(edges[::step] for edges in SP.bands(k, 10.0))):
            interior = np.linspace(*band, 64)
            vals = SP.trace_grid(interior, 10.0, k)[0][k]
            assert np.all(np.abs(vals) <= 2.0 + 1e-9)
            for edge in band:
                val = abs(SP.trace_grid(np.array([edge]), 10.0, k)[0][k][0])
                assert abs(val - 2.0) <= 1e-6  # root of |x| = 2 to edge tolerance


def test_band_edges_refined_to_tight_tolerance():
    # at moderate level the edge residual resolves to the bisection target
    lo, hi = SP.bands(6, 10.0)
    for edge in np.concatenate((lo[::5], hi[::5])):
        val = abs(SP.trace_grid(np.array([edge]), 10.0, 6)[0][6][0])
        assert abs(val - 2.0) <= 1e-9


def test_bands_independent_revalidation_against_products():
    # re-evaluate the trace by direct matrix products at 64 interior points
    lo, hi = SP.bands(8, 10.0)
    for E in np.linspace(lo[21], hi[21], 64):
        x = xreal_rows(TR.traces_right_upto(8, float(E), 10.0, TH0))[8]
        assert abs(float(x)) <= 2.0 + 1e-9


def test_spectrum_cover_nesting():
    fine_lo, fine_hi = SP.spectrum_cover(9, 10.0)
    coarse_lo, coarse_hi = SP.spectrum_cover(8, 10.0)
    tol = 1e-9
    for lo, hi in zip(fine_lo, fine_hi):
        assert np.any((coarse_lo - tol <= lo) & (hi <= coarse_hi + tol))


def test_cover_free_case():
    lo, hi = SP.spectrum_cover(5, 0.0)
    assert len(lo) == 1
    assert lo[0] == pytest.approx(-2.0, abs=1e-9)
    assert hi[0] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("K, lam", [(8, 10.0), (12, 3.0), (9, 0.0), (10, -24.0)])
def test_cover_samples_are_those_of_the_cover_intervals(K, lam):
    # the samples as Python floats once built them, deduplicated by a set
    ref = []
    for lo, hi in zip(*(edges.tolist() for edges in SP.spectrum_cover(K, lam))):
        w = hi - lo
        ref.extend((lo + 0.25 * w, 0.5 * (lo + hi), hi - 0.25 * w))
    assert SP._cover_samples(K, lam).tobytes() == np.array(sorted(set(ref))).tobytes()


def test_band_levels_are_cached_as_edge_arrays():
    lo, hi = SP.bands(7, 10.0)
    assert lo.dtype == hi.dtype == np.float64 and lo.shape == hi.shape == (fib_number(7),)
    cached = SP._level_edges(7, 10.0)
    assert cached[0] is lo and cached[1] is hi
    assert np.all(lo[1:] >= lo[:-1])  # sorted by lo


def test_bands_hand_out_the_same_read_only_arrays():
    lo, hi = SP.bands(6, 3.0)
    again = SP.bands(6, 3)  # an int coupling names the same cache entry
    assert again[0] is lo and again[1] is hi
    for edges in (lo, hi):
        assert not edges.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            edges[0] = 0.0


def test_cover_measure_decreases(caplog):
    lam = 10.0
    measures = []
    for K in (6, 8, 10):
        lo, hi = SP.bands(K, lam)
        measures.append(sum((hi - lo).tolist()))
    assert measures[0] > measures[1] > measures[2]


def _scan_reference(segments, lam, k, per_parent):
    """The per-segment scan: one np.linspace grid and one trace_grid call each."""
    runs = []
    for lo, hi, weight in zip(*segments):
        per_segment = weight * (per_parent - 1) + 1
        grid = np.linspace(lo, hi, per_segment)
        vals = SP.trace_grid(grid, lam, k)[0][k]
        inside = np.isfinite(vals) & (np.abs(vals) <= 2.0)
        idx = np.flatnonzero(inside)
        if idx.size == 0:
            continue
        splits = np.flatnonzero(np.diff(idx) > 1)
        starts = np.concatenate(([0], splits + 1))
        ends = np.concatenate((splits, [idx.size - 1]))
        for s, e in zip(starts, ends):
            i0, i1 = idx[s], idx[e]
            left_out = grid[i0 - 1] if i0 > 0 else None
            right_out = grid[i1 + 1] if i1 < per_segment - 1 else None
            runs.append((left_out, grid[i0], grid[i1], right_out))
    return runs


def _bits(runs):
    """Runs with every entry as (type, exact hex value), so == compares bits."""
    return [tuple(None if v is None else (type(v), float(v).hex()) for v in run)
            for run in runs]


def _arrays(segments):
    """(lo, hi, weight) tuples as the (lo, hi, weight) arrays a scan takes."""
    return tuple(np.array(col) for col in zip(*segments))


def _batched(segments, lam, k, per_parent, budget):
    """The runs of a batched scan as tuples, None for an edge on the segment
    boundary, and its run count on the even points."""
    with mock.patch.object(SP, "_SCAN_BLOCK_POINTS", budget):
        runs, coarse = SP._scan_segments(_arrays(segments), lam, k, per_parent)
    out_lo, in_lo, in_hi, out_hi, has_lo, has_hi = runs
    return [(a if left else None, b, c, d if right else None)
            for a, b, c, d, left, right in zip(out_lo, in_lo, in_hi, out_hi, has_lo, has_hi)
            ], coarse


@st.composite
def _segment_lists(draw):
    lam = draw(st.sampled_from([0.5, 2.0, 10.0]))
    # segments between consecutive cut points abut; dropping some leaves gaps
    ticks = sorted(draw(st.sets(st.integers(0, 1000), min_size=2, max_size=9)))
    cuts = [-3.0 + t * (lam + 6.0) / 1000.0 for t in ticks]
    segments = [(lo, hi, draw(st.integers(1, 4)))
                for lo, hi in zip(cuts, cuts[1:]) if draw(st.booleans())]
    return lam, segments or [(cuts[0], cuts[-1], 1)]


@settings(max_examples=150, deadline=None)
@given(_segment_lists(), st.integers(0, 9), st.sampled_from([2, 3, 5, 17, 129]),
       st.sampled_from([1, 7, 64, 1 << 17]))
def test_batched_scan_matches_per_segment_scan(case, k, per_parent, budget):
    lam, segments = case
    got, _ = _batched(segments, lam, k, per_parent, budget)
    assert _bits(got) == _bits(_scan_reference(_arrays(segments), lam, k, per_parent))


@settings(max_examples=150, deadline=None)
@given(_segment_lists(), st.integers(0, 9), st.sampled_from([2, 3, 5, 17, 129]),
       st.sampled_from([1, 7, 64, 1 << 17]))
def test_even_points_of_the_doubled_grid_count_the_coarse_runs(case, k, per_parent,
                                                               budget):
    # the census at per_parent points comes from the scan at 2 per_parent - 1
    lam, segments = case
    _, coarse = _batched(segments, lam, k, 2 * per_parent - 1, budget)
    runs, _ = _batched(segments, lam, k, per_parent, budget)
    assert coarse == len(runs)


def test_even_points_of_the_doubled_grid_are_the_coarse_grid():
    # (hi - lo) / (2 m) is ((hi - lo) / m) / 2 exactly, so 2 j times the fine
    # step is j times the coarse step bit for bit
    rng = np.random.default_rng(5)
    lo = rng.uniform(-3.0, 13.0, 200)
    hi = lo + rng.uniform(1e-9, 4.0, 200)
    for m in (1, 3, 128, 1021, 8192):
        j = np.arange(m + 1)
        fine = (hi - lo)[:, None] / (2 * m) * (2 * j) + lo[:, None]
        coarse = (hi - lo)[:, None] / m * j + lo[:, None]
        assert np.array_equal(fine, coarse)


@pytest.mark.parametrize("budget", [1 << 17, 4, 1])
def test_batched_scan_edge_cases(budget):
    # level 0 at coupling 10 has the one band [8, 12]
    segments = [
        (7.9, 12.1, 1),   # grid 7.9, 10.0, 12.1: a single-point run
        (6.0, 10.0, 2),   # weight 2; its run ends on the shared end 10.0
        (10.0, 13.0, 1),  # abuts the previous segment; its run starts at 10.0
        (-3.0, 9.4, 3),   # run on the last point only, which 6 * step - 3.0 misses
    ]
    assert 6 * ((9.4 + 3.0) / 6) - 3.0 != 9.4
    ref = _scan_reference(_arrays(segments), 10.0, 0, 3)
    assert any(run[1] == run[2] and None not in run for run in ref)
    assert any(run[3] is None for run in ref) and any(run[0] is None for run in ref)
    assert len(ref) == 4  # the runs break at the shared segment end
    assert ref[-1][1:] == (9.4, 9.4, None)
    # budget 4 splits the segments into two blocks, budget 1 into four
    runs, coarse = _batched(segments, 10.0, 0, 3, budget)
    assert _bits(runs) == _bits(ref)
    # on the even points (7.9, 12.1 | 6, 8, 10 | 10, 13 | -3, ..., 9.4) the
    # runs are [8, 10], [10, 10] and [9.4, 9.4]; the first segment has none
    assert coarse == 3


@st.composite
def _drawn_patterns(draw):
    """Segment weights, an in/out mark for every grid point, and a budget."""
    per_parent = draw(st.sampled_from([2, 3, 4, 5]))
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    total = sum(w * (per_parent - 1) + 1 for w in weights)
    pattern = draw(st.lists(st.booleans(), min_size=total, max_size=total))
    return per_parent, weights, pattern, draw(st.integers(1, total + 1))


def _pattern_reference(segments, per_parent, pattern):
    """Runs and even-point run count of each segment's slice of the pattern."""
    runs, coarse, at = [], 0, 0
    for lo, hi, weight in zip(*segments):
        n = weight * (per_parent - 1) + 1
        grid, inside = np.linspace(lo, hi, n), pattern[at:at + n]
        at += n
        for i in range(n):
            if inside[i] and (i == 0 or not inside[i - 1]):
                j = i
                while j + 1 < n and inside[j + 1]:
                    j += 1
                runs.append((grid[i - 1] if i > 0 else None, grid[i], grid[j],
                             grid[j + 1] if j + 1 < n else None))
        even = inside[::2]
        coarse += sum(1 for i, v in enumerate(even) if v and (i == 0 or not even[i - 1]))
    return runs, coarse


# sizes 5, 3, 5: a single odd-point run, runs on both ends of a segment, and
# two pairs of runs split by one odd point, which join on the even points;
# budget 6 puts the first two segments in one block, 1 every segment in its own
_SPLIT_BY_ODD = [False, True, False, True, True, True, False, True,
                 True, True, True, False, True]


@settings(max_examples=300, deadline=None)
@given(_drawn_patterns())
@example((3, [2, 1, 2], _SPLIT_BY_ODD, 6))
@example((3, [2, 1, 2], _SPLIT_BY_ODD, 1))
@example((3, [2, 1, 2], _SPLIT_BY_ODD, 1 << 15))
def test_runs_and_census_of_a_drawn_pattern(case):
    # the pattern, not the traces, says which grid points are in band, so
    # the scan meets run layouts that real traces rarely produce
    per_parent, weights, pattern, budget = case
    segments = [(2.0 * i, 2.0 * i + 1.0, w) for i, w in enumerate(weights)]
    marks = iter(pattern)  # the scan evaluates each block once, in grid order

    def drawn(vals):
        return np.array([next(marks) for _ in range(len(vals))], dtype=bool)

    with mock.patch.object(SP, "_in_band", drawn):
        runs, coarse = _batched(segments, 10.0, 3, per_parent, budget)
    ref_runs, ref_coarse = _pattern_reference(_arrays(segments), per_parent, pattern)
    assert _bits(runs) == _bits(ref_runs)
    assert coarse == ref_coarse
    assert next(marks, None) is None


def test_bisection_raises_on_a_bracket_it_cannot_close():
    # level 0 at coupling 10 has the band [8, 12]; 90 halvings leave a bracket
    # of width 1e30 about 1e3 wide
    with pytest.raises(SP.BandResolutionError, match="level 0, coupling 10.0"):
        SP._bisect_edges(np.array([-1e30]), np.array([10.0]), 10.0, 0)


def test_bisection_keeps_an_edge_at_zero():
    # x_1(0) = -2 at every coupling: the 4-ulp tolerance shrinks with |E|, so
    # this edge never meets it, but its bracket closes far below EDGE_TOL_ABS
    (edge,) = SP._bisect_edges(np.array([1.0]), np.array([-0.2]), 10.0, 1)
    assert 0.0 < edge <= SP.EDGE_TOL_ABS


# SHA-256 of "level lo hi" lines with the hex edges of the bands of every
# level <= k, taken before the band scan read its runs off arrays; (50, 12)
# and (24, 16) include levels that resolve fewer than F(level) bands
BAND_EDGE_SHA256 = {
    (0.5, 14): "dbc521d16ed10c59800466833cc7ce27068c91503ce4c85149ac8e13021448f5",
    (2.0, 14): "e0d584bb3da9d2a5ca5294627307c00c2cb8011d202452bb4cc9e6638a01cf0e",
    (3.0, 14): "bc040a7a2eb3eb61c82120298c9644406180323ab6543aaf05eb4de27fbe6bb3",
    (7.0, 14): "91454a0152c2d37ab32fa3a941a4eddc36ebbb16e28e98414a1cffa49a47601f",
    (20.0, 14): "6233ec51cbe170e5c8d11d606fbab3fd3a461dd959655cb0f8ccdacdeaaa5367",
    (-10.0, 14): "b5bf498e10d4c6c891ec04b5fb35363d1dd50645052a867e83ffd8191bc9b173",
    (50.0, 12): "40f103652dec838eff94a0ab510bc1a439b5755c0ef04dc46dcf5e46cf21aeda",
    (24.0, 16): "7d40f8c966063c113cdee3c3b5c22b19a19777d4e575f4c6ff94498a11dd8b8f",
}


@pytest.mark.parametrize("lam, k", sorted(BAND_EDGE_SHA256))
def test_band_edges_are_pinned(lam, k):
    levels = [(level, SP.bands(level, lam)) for level in range(k + 1)]
    text = "".join(f"{level} {a.hex()} {b.hex()}\n" for level, (lo, hi) in levels
                   for a, b in zip(lo.tolist(), hi.tolist()))
    assert hashlib.sha256(text.encode()).hexdigest() == BAND_EDGE_SHA256[(lam, k)]
    # every edge a float64, zero-width bands too; bands.csv writes them as
    # numbers (`test_fmt_writes_numpy_floats_as_numbers`)
    assert {edges.dtype for _, pair in levels for edges in pair} == {np.dtype(np.float64)}


def test_bands_raise_when_census_never_stabilises(monkeypatch, fresh_band_cache):
    calls = itertools.count()

    def unstable(segments, lam, k, pts):
        next(calls)
        return (np.zeros(2), np.ones(2)), 1  # one band on the even points

    monkeypatch.setattr(SP, "_detect_bands", unstable)
    with pytest.raises(SP.BandResolutionError):
        SP.bands(0, 2.0)  # below coupling 6, so only the stability gate acts
    assert next(calls) == 3  # three refinement attempts, one scan each


@pytest.mark.parametrize("lam, accepted_pts", [(10.0, 32769), (2.0, 8193)])
def test_bands_census_above_fibonacci_is_refined_at_strong_coupling(
        monkeypatch, fresh_band_cache, lam, accepted_pts):
    # the first attempt (4097 and 8193 points) sees one spurious split band
    grids = []

    def split_on_coarse_grids(segments, lam, k, pts):
        grids.append(pts)
        count = fib_number(k) + (pts <= 8193)
        coarse = fib_number(k) + ((pts + 1) // 2 <= 8193)  # the even points
        return (np.arange(count, dtype=float), np.arange(count) + 0.5), coarse

    monkeypatch.setattr(SP, "_detect_bands", split_on_coarse_grids)
    lo, _ = SP.bands(0, lam)
    assert grids[-1] == accepted_pts
    assert len(lo) == (1 if lam > 6.0 else 2)


def _split_census(segments, lam, k, pts):
    """One band more than F(k), on the scanned grid and on its even points."""
    count = fib_number(k) + 1
    return (np.arange(count, dtype=float), np.arange(count) + 0.5), count


def test_bands_census_always_above_fibonacci_raises(monkeypatch, fresh_band_cache):
    monkeypatch.setattr(SP, "_detect_bands", _split_census)
    with pytest.raises(SP.BandResolutionError):
        SP.bands(0, 10.0)
    assert len(SP.bands(0, 2.0)[0]) == 2  # at coupling <= 6 a stable census stands


@pytest.mark.parametrize("lam", [3.0, 10.0])
def test_negative_coupling_mirrors_the_bands(lam):
    # gauge identity x_k(-E, -lam) = (-1)^F(k) x_k(E, lam), so the level-k
    # band set of -lam is the mirror image of that of lam
    for k in range(7):
        (pos_lo, pos_hi), (neg_lo, neg_hi) = SP.bands(k, lam), SP.bands(k, -lam)
        assert len(neg_lo) == len(pos_lo)
        assert np.all(np.abs(neg_lo[::-1] + pos_hi) <= SP.EDGE_TOL_ABS)
        assert np.all(np.abs(neg_hi[::-1] + pos_lo) <= SP.EDGE_TOL_ABS)


def test_census_gate_acts_on_the_modulus_of_the_coupling(monkeypatch, fresh_band_cache):
    monkeypatch.setattr(SP, "_detect_bands", _split_census)
    with pytest.raises(SP.BandResolutionError):
        SP.bands(0, -10.0)
    assert len(SP.bands(0, -2.0)[0]) == 2


def test_bands_raise_on_an_empty_census(fresh_band_cache):
    # every level has F(k) >= 1 bands; at coupling 1000 float64 resolves none
    # at level 1, which the next level's parent merge could not take
    with pytest.raises(SP.BandResolutionError, match="no band .* level 1,"):
        SP.bands(3, 1000.0)


def test_census_shortfalls_list_the_levels_below_fibonacci():
    assert SP.census_shortfalls(6, 100.0) == [(2, 2, 3), (4, 7, 8), (5, 12, 13), (6, 19, 21)]
    assert SP.census_shortfalls(19, 10.0) == []  # the levels of a default run
    assert SP.census_shortfalls(12, 3.0) == []  # gaps may close at weak coupling


def test_bands_rejects_out_of_range():
    with pytest.raises(ValueError):
        SP.bands(-1, 10.0)
    with pytest.raises(ValueError):
        SP.bands(26, 10.0)


# ---------------------------------------------------------------------------
# derivative growth
# ---------------------------------------------------------------------------

def test_growth_fit_bracket_small_run():
    fit = SP.derivative_growth_scan(10.0, 6, 14)
    assert 5.0 <= fit.xi_hat <= 40.0
    assert fit.zeta_hat == pytest.approx(
        math.log(fit.xi_hat) / (3.0 * math.log(float(omega()) ** -2)))
    ks = [k for k, _ in fit.min_derivs]
    assert ks == [6, 8, 10, 12, 14]


def test_growth_minimal_derivatives_increase():
    fit = SP.derivative_growth_scan(10.0, 6, 16)
    logs = [math.log(m) for _, m in fit.min_derivs]
    slopes = np.diff(logs)
    assert np.all(slopes > 0.5 * math.log(10.0 / 2.0))


def test_growth_rejects_free_case():
    with pytest.raises((SP.DegenerateGrowthError, SP.BandResolutionError)):
        SP.derivative_growth_scan(0.0, 6, 12)


def test_growth_rejects_short_range():
    with pytest.raises(ValueError):
        SP.derivative_growth_scan(10.0, 6, 8)


@pytest.mark.parametrize("k_min, k_max", [(-4, 8), (18, 24)])
def test_growth_levels_lie_in_range(k_min, k_max):
    # a negative level would read the trace list from its end
    with pytest.raises(ValueError, match=r"growth levels must lie in \[0, 22\]"):
        SP.derivative_growth_scan(10.0, k_min, k_max)


# ---------------------------------------------------------------------------
# norm growth
# ---------------------------------------------------------------------------

def test_norm_growth_constants_positive_and_bounding():
    zeta = SP.derivative_growth_scan(10.0, 6, 14).zeta_hat
    lo, hi = SP.bands(10, 10.0)
    centers = (0.5 * (lo + hi))[::29]
    l_grid = [float(fib_number(k)) for k in range(4, 13)]
    rows, constants = SP.norm_growth_check(10.0, TH0, centers, l_grid, zeta)
    assert rows
    for _, _, _, _, norm_sq, bound in rows:
        assert norm_sq >= bound - 1e-9 * abs(bound)
    for c in constants.values():
        assert c > 0.0


def test_norm_growth_trivial_floor():
    # each factor is unimodular, so the windowed sum is at least the window
    zeta = 1.0
    lo, hi = SP.bands(8, 10.0)
    centers = [0.5 * (lo[13] + hi[13])]
    l_grid = [1.0, 2.0, 5.0, 13.0]
    rows, _ = SP.norm_growth_check(10.0, TH0, centers, l_grid, zeta)
    for _, _, _, L, norm_sq, _ in rows:
        assert norm_sq >= L


def test_norm_growth_rejects_nonpositive_windows():
    with pytest.raises(ValueError):
        SP.norm_growth_check(10.0, TH0, [0.5], [-1.0, 2.0], 1.0)
