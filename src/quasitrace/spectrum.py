"""Trace-condition bands and growth exponents of the phase-zero trace family.

The level-k band set is {E : |x_k(E)| <= 2} for the phase-zero trace x_k.
Band sets of consecutive levels cover the spectrum, so their union serves as
the computable sampling proxy for spectrum-restricted statements: the minimal
derivative growth along levels and the power-law lower bound on windowed
transfer-matrix norms.

Band finding is hierarchical: once two consecutive traces exceed 2 in
magnitude the orbit escapes monotonically, hence every level-k band lies
inside the union of the level-(k-1) and level-(k-2) bands.  Scanning parents
with a fixed per-parent grid keeps narrow high-level bands resolvable where a
global grid would step over them.

The scan of a level is batched but byte-identical to scanning each merged
parent segment on its own ``np.linspace(lo, hi, n)`` grid.  Whole segments are
packed into blocks of about ``_SCAN_BLOCK_POINTS`` grid points, each evaluated
in one call, and every segment's points are built as linspace builds them,
``arange(n) * ((hi - lo) / (n - 1)) + lo`` with the last point set to ``hi``.
In-band runs break at every segment boundary, so the runs, their brackets and
the bands are those of the per-segment scan bit for bit.

Every block of a scan, and the bisection of its edges, runs on one workspace
of rows as wide as the largest block, and the recursion writes each level
into one of four of them.  The workspace is there for page churn, not peak
memory: with fresh rows for every level, malloc handed the pages back to the
system and took new zeroed ones, about 50,000 minor faults (200 MB) and
0.05 s of system time in a cold `derivative_growth_scan(10, 6, 18)` at 2^15
points, whose peak RSS is 46 MB.  On the workspace that call takes 3,700 to
5,300 faults at any budget from 2^14 to 2^17.  The budget keeps a block's
rows in cache through the ~40 numpy passes over them, four rows of 2^14
float64 being 512 KiB: the cold call took median 0.203, 0.232, 0.242,
0.312 s at 2^14..2^17 points (7 fresh processes each, alternating), and
0.249, 0.208, 0.222 s at 2^13..2^15 (12 each; 2-vCPU Xeon).

A refinement attempt compares the census at p points per parent with the one
at 2p - 1 and evaluates only the finer grid.  Its even-indexed points are the
coarse grid bit for bit: (hi - lo) / (2m) is exactly ((hi - lo) / m) / 2 in
binary floating point, so 2j times the fine step is j times the coarse step,
and both grids end on ``hi``.  The coarse census is read off the fine runs: a
run holds an even point when it starts on one or has two points, and two
consecutive runs join on the even points when one odd point parts them, that
is when the later starts at an even index >= 2, two after the earlier ends.

A band census is two float64 arrays (lo, hi) of edges sorted by lo, as
`bands` and `spectrum_cover` return it.  `_level_edges`, an `lru_cache` of
(level, lam), scans each level once, after every lower level has resolved,
and hands out its read-only arrays themselves; a failure is not cached.  The
module reads levels through it, so the benchmark span `bands` counts the
calls from outside.

No public name here is kept for the tests alone.  `trace_grid` is also a
benchmark span, and the tests hold it to the transfer-matrix sweeps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .phase import PhasePoint, omega
from .words import MAX_WORD_LEVEL, fib_number
from . import transfer

__all__ = [
    "GrowthFit",
    "BandResolutionError",
    "DegenerateGrowthError",
    "MAX_GROWTH_LEVEL",
    "trace_grid",
    "bands",
    "census_shortfalls",
    "spectrum_cover",
    "growth_levels",
    "derivative_growth_scan",
    "norm_growth_check",
]

EDGE_TOL_ABS = 1e-12
SEARCH_MARGIN = 0.5
_PER_PARENT_POINTS = 129
_GLOBAL_POINTS = 4097
_SCAN_BLOCK_POINTS = 1 << 14
MAX_GROWTH_LEVEL = 22  # the top level of a growth fit


class BandResolutionError(RuntimeError):
    """Band census empty, or unstable under grid refinement."""


class DegenerateGrowthError(RuntimeError):
    """No exponential derivative growth to fit (weak or zero coupling)."""


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit of log minimal band derivatives against the level."""

    k_range: tuple
    xi_hat: float
    zeta_hat: float
    residual: float
    min_derivs: tuple  # (k, m_k) pairs entering the fit


# ----------------------------------------------------------------------------
# vectorized phase-zero trace recursion
# ----------------------------------------------------------------------------

def _recurse(E, lam: float, k_max: int, derivatives: bool, rows=None):
    """The phase-zero recursion x_j = x_{j-1} x_{j-2} - x_{j-3}, written once.

    Returns the lists (xs, ds) of x_j and, with `derivatives`, dx_j/dE, at
    levels 0..max(k_max, 2).  E is a float64 array, or any number with +, -
    and *: the tests run it on extended reals and mpmath numbers, far past
    float64 range.

    With `rows`, four float64 rows of E's length, each level is written into a
    row as the ufuncs' output: level j goes to row j mod 4, the one row the
    last three levels leave free, and row 3 holds lam * E until level 3.  The
    operations and their order are those of the allocating path, so every
    value keeps its bits.  As the rows are overwritten, xs then holds only the
    last three levels, so x_k_max is ``xs[min(k_max, 2)]``, and it takes no
    `derivatives`.
    """
    if rows is None:
        mul, sub, out = (lambda a, b, _: a * b), (lambda a, b, _: a - b), [None] * 4
    else:
        mul, sub, out = np.multiply, np.subtract, list(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        # E - lam, E * E - lam * E - 2.0 and (E - lam) * (E * (E - lam) - 2.0) - E
        x0 = sub(E, lam, out[0])
        x1 = sub(sub(mul(E, E, out[1]), mul(lam, E, out[3]), out[1]), 2.0, out[1])
        x2 = sub(mul(x0, sub(mul(E, x0, out[2]), 2.0, out[2]), out[2]), E, out[2])
        xs, ds = [x0, x1, x2], []
        if derivatives:
            ds = [np.ones_like(E), 2.0 * E - lam,
                  (E * (E - lam) - 2.0) + (E - lam) * (2.0 * E - lam) - 1.0]
        for j in range(3, k_max + 1):
            if derivatives:
                ds.append(ds[-1] * xs[-2] + xs[-1] * ds[-2] - ds[-3])
            xs.append(sub(mul(xs[-1], xs[-2], out[j % 4]), xs[-3], out[j % 4]))
            if rows is not None:
                del xs[:-3]
    return xs, ds


def trace_grid(E, lam: float, k_max: int):
    """Phase-zero traces x_0..x_k_max and derivatives d/dE on an array: (xs, ds).

    Plain float64: entries that overflow to inf/nan are unambiguously outside
    every band (bounded orbits stay below ~lam + 6 by the trace invariant),
    so band detection treats non-finite as out.
    """
    xs, ds = _recurse(np.asarray(E, dtype=float), lam, k_max, True)
    return xs[: k_max + 1], ds[: k_max + 1]


def _trace_at(E, lam: float, k: int, rows):
    """x_k on a float64 array, the bits of ``trace_grid(E, lam, k)[0][k]``.

    The recursion runs in place on `rows`, a float64 array of shape (4, m) with
    m >= E.size, and the result is a view of one of them, valid until the rows
    are used again.  A scan hands the same rows to every block and bisection
    step, so the levels reuse pages that are already mapped instead of
    faulting in new ones.
    """
    return _recurse(E, lam, k, False, rows=rows[:, :E.size])[0][min(k, 2)]


# ----------------------------------------------------------------------------
# band detection
# ----------------------------------------------------------------------------

def _in_band(vals):
    """|x| <= 2 per point; NaN and +-inf compare False, so they are out of band."""
    return np.abs(vals) <= 2.0


def _grid_sizes(weight, per_parent: int):
    """Grid points of each scan segment: weight * per_parent, shared ends once."""
    return weight * (per_parent - 1) + 1


def _workspace(sizes):
    """The rows one scan reuses for every block and for its bisection.

    A float64 array of five rows: the grid, and the four rows `_trace_at` runs
    the recursion on.  An integer array of two rows: 0, 1, 2, ... and each
    point's index within its segment.  A boolean row for the run bounds.  They
    are as wide as the largest block, since a block's segments all start
    within one stretch of _SCAN_BLOCK_POINTS points.  A block's three
    ``np.repeat`` expansions are freed as soon as they are read, so malloc
    hands their heap memory to the next block without new pages.
    """
    points = int(min(sizes.sum(), _SCAN_BLOCK_POINTS + sizes.max() - 1))
    ints = np.empty((2, points), dtype=np.intp)
    ints[0] = np.arange(points)
    return np.empty((5, points)), ints, np.empty(points + 1, dtype=bool)


def _scan_segments(segments, lam: float, k: int, per_parent: int, work=None):
    """Return the in-band runs of a scan as arrays, and its coarse census.

    `segments` holds the arrays (lo, hi, weight); the weight counts the parent
    bands merged into a segment.  Each segment is scanned on its own uniform
    grid sized weight * per_parent, keeping the per-parent resolution
    independent of merging.  The runs come in grid order as six arrays: the
    out-of-band left neighbours, first and last in-band points, out-of-band
    right neighbours, and the masks has_left and has_right, False where a band
    edge lies on the segment boundary and the neighbour brackets nothing.  The
    census is the run count on the even-indexed points of each segment: for
    per_parent = 2p - 1 that of the scan at p points per parent.  The blocks
    run on `work`, a `_workspace` for these segments, fresh when None; the
    runs are copies and hold none of it.
    """
    lo, hi, weight = segments
    sizes = _grid_sizes(weight, per_parent)
    step = (hi - lo) / (sizes - 1)
    # hi > lo without underflow: numpy's step == 0 branch of linspace never arises
    if not np.all(step > 0):
        raise ValueError("scan segments must have hi > lo")
    floats, ints, bounds_row = _workspace(sizes) if work is None else work
    offsets = np.cumsum(sizes) - sizes
    cuts = np.flatnonzero(np.diff(offsets // _SCAN_BLOCK_POINTS)) + 1
    parts = []
    coarse = 0
    for block in np.split(np.arange(sizes.size), cuts):
        n = sizes[block]
        first = np.cumsum(n) - n
        total = int(n.sum())
        grid = floats[0, :total]
        count, index = ints[:, :total]
        np.subtract(count, np.repeat(first, n), out=index)
        np.multiply(index, np.repeat(step[block], n), out=grid)
        np.add(grid, np.repeat(lo[block], n), out=grid)
        grid[first + n - 1] = hi[block]
        inside = _in_band(_trace_at(grid, lam, k, floats[1:]))
        # pieces of constant in/out within one segment lie between these bounds
        flips = bounds_row[:total + 1]
        np.not_equal(inside[1:], inside[:-1], out=flips[1:-1])
        flips[first] = True
        flips[total] = True
        bounds = np.flatnonzero(flips)
        live = inside[bounds[:-1]]
        starts, ends = bounds[:-1][live], bounds[1:][live] - 1
        offset = index[starts]
        after = (ends + 1) % total  # offset 0 after a segment's last point
        parts.append((grid[starts - 1], grid[starts], grid[ends], grid[after],
                      offset > 0, index[after] > 0))
        even_start = offset % 2 == 0
        merges = even_start[1:] & (offset[1:] > 0) & (starts[1:] - ends[:-1] == 2)
        coarse += int(np.count_nonzero(even_start | (ends > starts)) - merges.sum())
    return tuple(np.concatenate(column) for column in zip(*parts)), coarse


def _bisect_edges(outer, inner, lam: float, k: int, rows=None):
    """Vectorized bisection of |x_k| = 2 crossings between outer and inner points.

    Runs down to a few ULP so the located edges leave no slack a child band of
    the next levels could hide in; comfortably below the 1e-12 edge target.
    That tolerance shrinks with |E|, so an edge at E = 0 may never meet it: the
    bisection stops after 90 halvings and raises BandResolutionError only if a
    bracket is still wider than EDGE_TOL_ABS.  Every halving runs the
    recursion on `rows`, as `_trace_at` takes them, or on rows of its own
    where they are None or too short.
    """
    lo = np.array(outer, dtype=float)
    hi = np.array(inner, dtype=float)
    if rows is None or rows.shape[1] < lo.size:
        rows = np.empty((4, lo.size))
    for halving in range(91):
        width = np.abs(hi - lo)
        tol = 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        if halving == 90 or np.all(width <= tol):
            break
        mid = 0.5 * (lo + hi)
        inside = _in_band(_trace_at(mid, lam, k, rows))
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    if np.any(width > np.maximum(tol, EDGE_TOL_ABS)):
        raise BandResolutionError(f"band edge unresolved at level {k}, coupling {lam}")
    return hi  # converged in-band side


def _detect_bands(segments, lam: float, k: int, per_segment: int):
    """The band edges (lo, hi) of one scan, and the run count on its even points.

    The edges come as two arrays sorted by lo, a zero-width band after a
    band of the same lo.  The scan and both bisections share one workspace.
    """
    work = _workspace(_grid_sizes(segments[2], per_segment))
    (out_lo, los, his, out_hi, has_lo, has_hi), coarse = _scan_segments(
        segments, lam, k, per_segment, work)
    for outer, edges, refine in ((out_lo, los, has_lo), (out_hi, his, has_hi)):
        edges[refine] = _bisect_edges(outer[refine], edges[refine], lam, k, work[0][1:])
    # zero-width runs (single grid point, edges collapsed) still count as bands
    point = los >= his
    eps = 2.0 * np.spacing(np.abs(los[point]) + 1.0)
    los[point], his[point] = los[point] - eps, his[point] + eps
    order = np.lexsort((point, los))
    return (los[order], his[order]), coarse


def _edge_pad(edge):
    return 64.0 * np.spacing(np.abs(edge) + 1e-300)


def _merge_intervals(lo, hi):
    """Merge intervals given as arrays; return the arrays (lo, hi, count).

    The unions come sorted by lo; count is how many intervals went into each.
    """
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.concatenate(([True], lo[1:] > reach[:-1])))
    last = np.append(first[1:], lo.size) - 1
    return lo[first], reach[last], last - first + 1


@lru_cache(maxsize=None)
def _level_edges(level: int, lam: float):
    """The bands of one level as read-only arrays (lo, hi), by hierarchical refinement.

    The census on any grid must match the census on the doubled grid, read
    off the even points of one scan; if two refinement rounds cannot
    stabilize it, the scan aborts.  For couplings above 6 in modulus the
    count is additionally pinned to F(k) (all gaps open there).  A negative
    coupling mirrors the bands: x_k(-E, -lam) = (-1)^F(k) x_k(E, lam).
    """
    if not 0 <= level <= MAX_WORD_LEVEL:
        raise ValueError(f"band levels must lie in [0, {MAX_WORD_LEVEL}]")
    if level > 0:
        parent = _level_edges(level - 1, lam)  # the lower levels resolve first
    if level <= 2:
        # the spectrum lies in [min(0, lam) - 2, max(0, lam) + 2]
        segments = (np.array([min(0.0, lam) - 2.0 - SEARCH_MARGIN]),
                    np.array([max(0.0, lam) + 2.0 + SEARCH_MARGIN]), np.array([1]))
        pts = max(_GLOBAL_POINTS, 16 * fib_number(level) + 1)
    else:
        # Pad parents past their own edge-location tolerance: a child band
        # narrower than the parent's edge slack may otherwise be clipped.
        (lo1, hi1), (lo2, hi2) = parent, _level_edges(level - 2, lam)
        lo, hi = np.concatenate((lo1, lo2)), np.concatenate((hi1, hi2))
        segments = _merge_intervals(lo - _edge_pad(lo), hi + _edge_pad(hi))
        pts = _PER_PARENT_POINTS
    for _attempt in range(3):
        # the census at pts points is that of the even points of the doubled grid
        found, coarse = _detect_bands(segments, lam, level, 2 * pts - 1)
        count = len(found[0])
        # above coupling 6 all gaps are open, so more than F(k) bands can
        # only be spurious splits: treat as instability and refine
        if coarse == count and (abs(lam) <= 6.0 or count <= fib_number(level)):
            break
        pts = 4 * pts - 3
    else:
        raise BandResolutionError(
            f"band census at level {level}, coupling {lam} unstable under refinement")
    if not count:  # every level has F(level) >= 1 bands
        raise BandResolutionError(
            f"no band resolvable in float64 at level {level}, coupling {lam}")
    for edges in found:
        edges.flags.writeable = False  # callers share the cached arrays
    return found


def bands(k: int, lam: float):
    """Maximal closed intervals where |x_k| <= 2: read-only arrays (lo, hi), sorted by lo."""
    return _level_edges(k, float(lam))


def census_shortfalls(k: int, lam: float) -> list[tuple[int, int, int]]:
    """(level, bands found, F(level)) for each level 0..k that resolves fewer
    than F(level) bands where all of them are open, at couplings above 6 in
    modulus; a run reports them as failures."""
    if abs(lam) <= 6.0:
        return []
    return [(level, found, fib_number(level)) for level in range(k + 1)
            if (found := len(_level_edges(level, float(lam))[0])) < fib_number(level)]


def spectrum_cover(K: int, lam: float):
    """Merged union of the level-K and level-(K+1) bands, as arrays (lo, hi).

    An outer approximation of the spectrum, used as the sampling domain for
    spectrum-restricted bounds; it is not the spectrum itself.
    """
    (lo1, hi1), (lo2, hi2) = _level_edges(K, float(lam)), _level_edges(K + 1, float(lam))
    lo, hi, _ = _merge_intervals(np.concatenate((lo1, lo2)), np.concatenate((hi1, hi2)))
    return lo, hi


# ----------------------------------------------------------------------------
# derivative growth and norm growth
# ----------------------------------------------------------------------------

def _cover_samples(K: int, lam: float) -> np.ndarray:
    """Three interior points per cover interval (quarter, mid, three-quarter)."""
    lo, hi = spectrum_cover(K, lam)
    w = hi - lo
    xs = np.sort(np.concatenate((lo + 0.25 * w, 0.5 * (lo + hi), hi - 0.25 * w)))
    # np.unique without the import of numpy.ma that it makes; the samples hold no NaN
    keep = np.ones(xs.size, dtype=bool)
    keep[1:] = xs[1:] != xs[:-1]
    return xs[keep]


def growth_levels(k_min: int, k_max: int) -> list[int]:
    """The even levels k_min..k_max of a growth fit; `RunConfig` applies it too."""
    if not 0 <= k_min <= k_max <= MAX_GROWTH_LEVEL:
        raise ValueError(f"growth levels must lie in [0, {MAX_GROWTH_LEVEL}]")
    ks = [k for k in range(k_min, k_max + 1) if k % 2 == 0]
    if len(ks) < 3:
        raise ValueError("need at least three levels for a growth fit")
    return ks


def derivative_growth_scan(lam: float, k_min: int = 6, k_max: int = 18) -> GrowthFit:
    """Fit the exponential growth of minimal on-band trace derivatives.

    For each even level k of `growth_levels`, m_k is the minimum of |dx_k/dE|
    over sampled cover energies that lie in the level-k band set; the fitted
    slope of log m_k against k gives the growth base xi via slope = log(xi)/2
    and the norm-growth exponent zeta = log(xi) / (3 log(omega**-2)).
    """
    ks = growth_levels(k_min, k_max)
    xs, ds = trace_grid(_cover_samples(k_max, lam), lam, ks[-1])
    min_derivs = []
    for k in ks:
        mask = _in_band(xs[k])
        if not mask.any():
            raise BandResolutionError(f"no cover samples inside the level-{k} bands")
        m_k = float(np.min(np.abs(ds[k][mask])))
        if m_k <= 0.0:
            raise DegenerateGrowthError(f"vanishing band derivative at level {k}")
        min_derivs.append((k, m_k))
    karr = np.array([k for k, _ in min_derivs], dtype=float)
    logs = np.log([m for _, m in min_derivs])
    if np.any(np.diff(logs) < 0.0):
        warnings.warn(
            f"minimal band derivatives not monotone for coupling {lam}: "
            + ", ".join(f"m_{k}={m:.3e}" for k, m in min_derivs),
            stacklevel=2,
        )
    slope, intercept = np.polyfit(karr, logs, 1)
    xi_hat = float(math.exp(2.0 * slope))
    if xi_hat <= 1.0:
        raise DegenerateGrowthError(
            f"no exponential derivative growth at coupling {lam} (xi_hat={xi_hat:.3g})"
        )
    zeta_hat = math.log(xi_hat) / (3.0 * math.log(float(omega()) ** -2))
    residual = float(np.sqrt(np.mean((logs - (slope * karr + intercept)) ** 2)))
    return GrowthFit((ks[0], ks[-1]), xi_hat, zeta_hat, residual, tuple(min_derivs))


def norm_growth_check(lam: float, theta: PhasePoint, E_sample, L_grid, zeta: float):
    """Tabulate windowed norm sums against the fitted power law C * L**zeta.

    For each sampled energy the constant C is the minimal observed ratio
    ||M||^2_L / L**zeta over both half-lines, so the bound holds across the
    whole window grid by construction; positivity and cross-phase uniformity
    of the constants are the meaningful outcomes.  Returns (rows, constants):
    the rows (theta, E, side, L, norm_sq, C * L**zeta), side +1 for the right
    half-line and -1 for the left, and the constants as a dict E -> C.
    """
    energies = [float(E) for E in E_sample]
    ls = sorted(float(L) for L in L_grid)
    if any(l <= 0 for l in ls):
        raise ValueError("window grid must be positive; sides are handled internally")
    rows, constants = [], {}
    sums = transfer.norm_profile(ls + [-l for l in ls], energies, lam, theta)
    with np.errstate(over="ignore"):  # a sum past float range reads inf
        sums = np.ldexp(*sums)
    for E, values in zip(energies, sums.tolist()):
        per_side = ((+1, values[:len(ls)]), (-1, values[len(ls):]))
        c = min(val / l**zeta for _, half in per_side for l, val in zip(ls, half))
        constants[E] = c
        rows.extend((theta, E, side, l, val, c * l**zeta)
                    for side, half in per_side for l, val in zip(ls, half))
    return rows, constants
