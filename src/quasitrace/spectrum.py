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
packed into blocks of about ``_SCAN_BLOCK_POINTS`` grid points (a fixed budget
that bounds memory), each block is evaluated in one call, and every segment's
points are built as linspace builds them, ``arange(n) * ((hi - lo) / (n - 1))
+ lo`` with the last point set to ``hi``.  In-band runs break at every segment
boundary, so the runs, their brackets and the bands are those of the
per-segment scan bit for bit.

A refinement attempt compares the census at p points per parent with the one
at 2p - 1 and evaluates only the finer grid.  Its even-indexed points are the
coarse grid bit for bit: (hi - lo) / (2m) is exactly ((hi - lo) / m) / 2 in
binary floating point, so 2j times the fine step is j times the coarse step,
and both grids end on ``hi``.  The coarse census is the run count on those
points, and only the fine runs are bisected into bands.

No public name here is kept for the tests alone.  `trace_grid` is also a
benchmark span, and the tests hold it to the transfer-matrix sweeps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .phase import PhasePoint, omega_float
from .words import fib_number
from . import transfer

__all__ = [
    "Band",
    "GrowthFit",
    "NormGrowthRecord",
    "NormGrowthResult",
    "BandResolutionError",
    "DegenerateGrowthError",
    "trace_grid",
    "bands",
    "spectrum_cover",
    "derivative_growth_scan",
    "norm_growth_check",
]

EDGE_TOL_ABS = 1e-12
SEARCH_MARGIN = 0.5
_PER_PARENT_POINTS = 129
_GLOBAL_POINTS = 4097
_SCAN_BLOCK_POINTS = 1 << 17


class BandResolutionError(RuntimeError):
    """Band census empty, or unstable under grid refinement."""


class DegenerateGrowthError(RuntimeError):
    """No exponential derivative growth to fit (weak or zero coupling)."""


@dataclass(frozen=True)
class Band:
    """Maximal energy interval on which |x_k| <= 2."""

    k: int
    lo: float
    hi: float
    lam: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit of log minimal band derivatives against the level."""

    lam: float
    k_range: tuple
    xi_hat: float
    zeta_hat: float
    residual: float
    min_derivs: tuple  # (k, m_k) pairs entering the fit


@dataclass(frozen=True)
class NormGrowthRecord:
    theta: PhasePoint
    E: float
    side: int  # +1 right half-line, -1 left
    L: float
    norm_sq: float
    bound: float  # C_fit * L**zeta


@dataclass(frozen=True)
class NormGrowthResult:
    lam: float
    zeta: float
    records: tuple
    c_fit: dict  # (theta, E) -> fitted constant valid on both half-lines


# ----------------------------------------------------------------------------
# vectorized phase-zero trace recursion
# ----------------------------------------------------------------------------

def _recurse(E, lam: float, k_max: int, derivatives: bool, keep_all: bool):
    """The phase-zero recursion x_j = x_{j-1} x_{j-2} - x_{j-3}, written once.

    Returns the lists (xs, ds) of x_j and, with `derivatives`, dx_j/dE.  With
    `keep_all` they hold levels 0..max(k_max, 2); without it only the last
    three levels are kept, so x_k_max is ``xs[min(k_max, 2)]``.  E is a float64
    array, or an XReal, in which the tests run it far past float64 range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        xs = [E - lam, E * E - lam * E - 2.0, (E - lam) * (E * (E - lam) - 2.0) - E]
        ds = []
        if derivatives:
            ds = [np.ones_like(E), 2.0 * E - lam,
                  (E * (E - lam) - 2.0) + (E - lam) * (2.0 * E - lam) - 1.0]
        for _ in range(3, k_max + 1):
            if derivatives:
                ds.append(ds[-1] * xs[-2] + xs[-1] * ds[-2] - ds[-3])
            xs.append(xs[-1] * xs[-2] - xs[-3])
            if not keep_all:
                del xs[:-3], ds[:-3]
    return xs, ds


def trace_grid(E, lam: float, k_max: int, derivatives: bool = False):
    """Phase-zero traces x_0..x_k_max (and optionally d/dE) on an energy array.

    Plain float64: entries that overflow to inf/nan are unambiguously outside
    every band (bounded orbits stay below ~lam + 6 by the trace invariant),
    so band detection treats non-finite as out.
    """
    xs, ds = _recurse(np.asarray(E, dtype=float), lam, k_max, derivatives, keep_all=True)
    if derivatives:
        return xs[: k_max + 1], ds[: k_max + 1]
    return xs[: k_max + 1]


def _trace_at(E, lam: float, k: int):
    """x_k on an array, holding three levels at a time."""
    return _recurse(E, lam, k, False, keep_all=False)[0][min(k, 2)]


# ----------------------------------------------------------------------------
# band detection
# ----------------------------------------------------------------------------

def _scan_segments(segments, lam: float, k: int, per_parent: int):
    """Return rough in-band runs (E_out_left, E_in_left, E_in_right, E_out_right).

    `segments` holds the arrays (lo, hi, weight); the weight counts the parent
    bands merged into a segment.  Each segment is scanned on its own uniform
    grid sized weight * per_parent, keeping the per-parent resolution
    independent of merging.  Neighbouring out-of-band grid points provide the
    bisection brackets; None marks a band edge lying on the segment boundary
    itself.

    Also returns the number of in-band runs on the even-indexed points of
    each segment, which for per_parent = 2p - 1 is the run count of the scan
    at p points per parent.
    """
    lo, hi, weight = segments
    sizes = weight * (per_parent - 1) + 1
    step = (hi - lo) / (sizes - 1)
    # hi > lo without underflow: numpy's step == 0 branch of linspace never arises
    assert np.all(step > 0), "scan segments must have hi > lo"
    offsets = np.cumsum(sizes) - sizes
    cuts = np.flatnonzero(np.diff(offsets // _SCAN_BLOCK_POINTS)) + 1
    runs = []
    coarse = 0
    for block in np.split(np.arange(sizes.size), cuts):
        n = sizes[block]
        first = np.cumsum(n) - n
        total = int(n.sum())
        index = np.arange(total) - np.repeat(first, n)
        grid = index * np.repeat(step[block], n) + np.repeat(lo[block], n)
        grid[first + n - 1] = hi[block]
        vals = _trace_at(grid, lam, k)
        inside = np.isfinite(vals) & (np.abs(vals) <= 2.0)
        at_lo = np.zeros(total, dtype=bool)
        at_lo[first] = True
        at_hi = np.roll(at_lo, -1)
        starts = np.flatnonzero(inside & (at_lo | ~np.roll(inside, 1)))
        ends = np.flatnonzero(inside & (at_hi | ~np.roll(inside, -1)))
        runs.extend(
            (None if a else out_lo, in_lo, in_hi, None if b else out_hi)
            for out_lo, in_lo, in_hi, out_hi, a, b in zip(
                grid[starts - 1], grid[starts], grid[ends], grid[(ends + 1) % total],
                at_lo[starts].tolist(), at_hi[ends].tolist())
        )
        even = index % 2 == 0
        inside, at_lo = inside[even], at_lo[even]
        coarse += int(np.count_nonzero(inside & (at_lo | ~np.roll(inside, 1))))
    return runs, coarse


def _bisect_edges(outer, inner, lam: float, k: int):
    """Vectorized bisection of |x_k| = 2 crossings between outer and inner points.

    Runs down to a few ULP so the located edges leave no slack a child band of
    the next levels could hide in; comfortably below the 1e-12 edge target.
    """
    lo = np.array(outer, dtype=float)
    hi = np.array(inner, dtype=float)
    for _ in range(90):
        width = np.abs(hi - lo)
        tol = 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        if np.all(width <= tol):
            break
        mid = 0.5 * (lo + hi)
        vals = _trace_at(mid, lam, k)
        inside = np.isfinite(vals) & (np.abs(vals) <= 2.0)
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    return hi  # converged in-band side


def _detect_bands(segments, lam: float, k: int, per_segment: int):
    """The bands of one scan, and the run count on its even-indexed points."""
    runs, coarse = _scan_segments(segments, lam, k, per_segment)
    if not runs:
        return [], coarse
    columns = list(zip(*runs))
    los, his = list(columns[1]), list(columns[2])
    for outer, edges in ((columns[0], los), (columns[3], his)):  # left edges, then right
        refine = [i for i, v in enumerate(outer) if v is not None]
        if refine:
            refined = _bisect_edges([outer[i] for i in refine], [edges[i] for i in refine],
                                    lam, k)
            for j, i in enumerate(refine):
                edges[i] = float(refined[j])
    out = [Band(k, lo, hi, lam) for lo, hi in zip(los, his) if lo < hi]
    # zero-width runs (single grid point, edges collapsed) still count as bands
    for lo, hi in zip(los, his):
        if lo >= hi:
            eps = 2.0 * np.spacing(abs(lo) + 1.0)
            out.append(Band(k, lo - eps, hi + eps, lam))
    return sorted(out, key=lambda b: b.lo), coarse


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


_BANDS_CACHE: dict = {}


def bands(k: int, lam: float, oversample: int = 1) -> list[Band]:
    """Maximal closed intervals where |x_k| <= 2, by hierarchical refinement.

    The census on any grid must match the census on the doubled grid, read
    off the even points of one scan; if two refinement rounds cannot
    stabilize it, the scan aborts.  For couplings above 6 in modulus the
    count is additionally pinned to F(k) (all gaps open there).  A negative coupling mirrors the bands: x_k(-E, -lam) =
    (-1)^F(k) x_k(E, lam).
    """
    if k < 0:
        raise ValueError("level must be >= 0")
    if k > 25:
        raise ValueError("band scans supported up to level 25")
    key = (k, float(lam), oversample)
    if key in _BANDS_CACHE:
        return _BANDS_CACHE[key]
    for level in range(k + 1):
        key_l = (level, float(lam), oversample)
        if key_l in _BANDS_CACHE:
            continue
        if level <= 2:
            # the spectrum lies in [min(0, lam) - 2, max(0, lam) + 2]
            segments = (np.array([min(0.0, lam) - 2.0 - SEARCH_MARGIN]),
                        np.array([max(0.0, lam) + 2.0 + SEARCH_MARGIN]), np.array([1]))
            base_pts = max(_GLOBAL_POINTS, 16 * fib_number(level) + 1)
        else:
            # Pad parents past their own edge-location tolerance: a child band
            # narrower than the parent's edge slack may otherwise be clipped.
            parents = (_BANDS_CACHE[(level - 1, float(lam), oversample)]
                       + _BANDS_CACHE[(level - 2, float(lam), oversample)])
            lo = np.array([b.lo for b in parents])
            hi = np.array([b.hi for b in parents])
            segments = _merge_intervals(lo - _edge_pad(lo), hi + _edge_pad(hi))
            base_pts = _PER_PARENT_POINTS * oversample
        pts = base_pts
        found = None
        for _attempt in range(3):
            # the census at pts points is that of the even points of the doubled grid
            fine, coarse = _detect_bands(segments, lam, level, 2 * pts - 1)
            stable = coarse == len(fine)
            # above coupling 6 all gaps are open, so more than F(k) bands can
            # only be spurious splits: treat as instability and refine
            not_split = (abs(lam) <= 6.0) or (len(fine) <= fib_number(level))
            if stable and not_split:
                found = fine
                break
            pts = 4 * pts - 3
        if found is None:
            raise BandResolutionError(
                f"band census at level {level}, coupling {lam} unstable under refinement"
            )
        if not found:  # every level has F(level) >= 1 bands
            raise BandResolutionError(
                f"no band resolvable in float64 at level {level}, coupling {lam}")
        if abs(lam) > 6.0 and len(found) < fib_number(level):
            # narrowest bands can sink below float64 noise at high level and
            # strong coupling; they carry the largest derivatives, so minima
            # and covers are unaffected
            warnings.warn(
                f"level {level} census at coupling {lam}: {len(found)} of "
                f"{fib_number(level)} bands resolvable in float64",
                stacklevel=2,
            )
        _BANDS_CACHE[key_l] = found
    return _BANDS_CACHE[key]


def spectrum_cover(K: int, lam: float) -> list[Band]:
    """Merged union of the level-K and level-(K+1) bands.

    An outer approximation of the spectrum, used as the sampling domain for
    spectrum-restricted bounds; it is not the spectrum itself.
    """
    if K > 24:
        raise ValueError("cover supported up to level 24")
    pieces = bands(K, lam) + bands(K + 1, lam)
    lo, hi, _ = _merge_intervals(np.array([b.lo for b in pieces]),
                                 np.array([b.hi for b in pieces]))
    return [Band(K, float(a), float(b), lam) for a, b in zip(lo, hi)]


# ----------------------------------------------------------------------------
# derivative growth and norm growth
# ----------------------------------------------------------------------------

def _cover_samples(K: int, lam: float) -> np.ndarray:
    """Three interior points per cover interval (quarter, mid, three-quarter)."""
    cover = spectrum_cover(K, lam)
    pts = []
    for b in cover:
        w = b.width
        pts.extend((b.lo + 0.25 * w, b.center, b.hi - 0.25 * w))
    return np.array(sorted(set(pts)))


def derivative_growth_scan(lam: float, k_min: int = 6, k_max: int = 18,
                           parity: str = "even") -> GrowthFit:
    """Fit the exponential growth of minimal on-band trace derivatives.

    For each level k of the requested parity, m_k is the minimum of |dx_k/dE|
    over sampled cover energies that lie in the level-k band set; the fitted
    slope of log m_k against k gives the growth base xi via slope = log(xi)/2
    and the norm-growth exponent zeta = log(xi) / (3 log(omega**-2)).
    """
    if k_max > 22:
        raise ValueError("growth scans supported up to level 22")
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    ks = [k for k in range(k_min, k_max + 1)
          if (k % 2 == 0) == (parity == "even")]
    if len(ks) < 3:
        raise ValueError("need at least three levels for a growth fit")
    samples = _cover_samples(k_max, lam)
    xs, ds = trace_grid(samples, lam, max(ks), derivatives=True)
    min_derivs = []
    for k in ks:
        mask = np.isfinite(xs[k]) & (np.abs(xs[k]) <= 2.0)
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
    zeta_hat = math.log(xi_hat) / (3.0 * math.log(omega_float() ** -2))
    residual = float(np.sqrt(np.mean((logs - (slope * karr + intercept)) ** 2)))
    return GrowthFit(lam, (ks[0], ks[-1]), xi_hat, zeta_hat, residual, tuple(min_derivs))


def norm_growth_check(lam: float, theta: PhasePoint, E_sample, L_grid,
                      zeta: float) -> NormGrowthResult:
    """Tabulate windowed norm sums against the fitted power law C * L**zeta.

    For each sampled energy the constant is the minimal observed ratio
    ||M||^2_L / L**zeta over both half-lines, so the bound holds across the
    whole window grid by construction; positivity and cross-phase uniformity
    of the constants are the meaningful outcomes.
    """
    energies = [float(E) for E in E_sample]
    ls = sorted(float(L) for L in L_grid)
    if any(l <= 0 for l in ls):
        raise ValueError("window grid must be positive; sides are handled internally")
    records = []
    c_fit = {}
    sums = transfer.norm_profile(ls + [-l for l in ls], energies, lam, theta)
    for i, E in enumerate(energies):
        values = [float(s) for s in sums[i]]
        per_side = {+1: values[:len(ls)], -1: values[len(ls):]}
        c = min(
            val / l**zeta
            for side in (+1, -1)
            for l, val in zip(ls, per_side[side])
        )
        c_fit[(theta, E)] = c
        for side in (+1, -1):
            for l, val in zip(ls, per_side[side]):
                records.append(
                    NormGrowthRecord(theta, E, side, l, val, c * l**zeta)
                )
    return NormGrowthResult(lam, zeta, tuple(records), c_fit)
