"""Finite-box quantum dynamics: Abel-averaged window masses of a corner state.

The operator is the discrete one-dimensional Schrodinger operator with the
golden-rotation potential, truncated to sites [-N, N] with hard (Dirichlet)
cutoff.  Every Abel record carries a certified bound on its truncation error.
By Duhamel, psi_t - psi^N_t = -i int_0^t e^{-i(t-s)H} (H - H_N) psi^N_s ds,
and (H - H_N) psi^N_s has norm b(s) = (|psi^N_s(N)|^2 + |psi^N_s(-N)|^2)^{1/2}.
For any projection P, such as a window, |a^2 - b^2| <= 2 |a - b| when
a, b <= 1, so the Abel mean of the mass error is at most
2 int_0^inf b(s) e^{-2s/T} ds, which Cauchy-Schwarz bounds by T sqrt(e_T),
e_T being the Abel edge mass at +-N.  The computed e_T carries an absolute
rounding error, and far from the source it is nothing but rounding, which
can come out negative; `abel_site_masses` clips that to 0.  So a record
charges the rounding too: trunc_bound = T sqrt(e_T + EDGE_ROUNDING), and it
is valid iff trunc_bound <= TRUNC_TOL = 1e-5.  Against a 40-digit mpmath
eigendecomposition of 8 boxes of 41 to 101 sites (couplings 3 to 24, phases
0, 1/3 and 1/2, T = 10 to 3000, 64 edge masses), solved with leaves of 4
and 16 sites, where every box merges, and of 96, where only the 101-site
box does, the unclipped e_T fell short of the reference by at most 1.9e-19,
1.5e-20 and 1.5e-19 where the reference was below 1e-10; above that its
relative error stayed below 1.4e-10.  At the sites of a 41-site box whose
masses are below 1e-10 the computed ones are off by at most 2.4e-19 either
way (`test_rounding_at_empty_sites_stays_below_edge_rounding`).
EDGE_ROUNDING = 1e-18 is 4 times that.  At the far edges of the phase
sweep's 2001-site boxes and of an 8193-site box the unclipped e_T stayed
within 5.2e-24 of 0, negatives included.  No box certifies beyond
T = TRUNC_TOL / sqrt(EDGE_ROUNDING) = 1e4, and N = "auto" refuses such a T
before it solves; at T = 3000 every bound is at least 3e-6.  N = "auto"
starts the box just beyond the largest window and doubles it until every
record of the phase is certified, up to MAX_BOX; an explicit N fixes it.

Outputs do not depend on the BLAS thread count.  The products of the Abel
sweep and of the secular passes go through numpy's OpenBLAS, which splits a
product by its thread count and so moves its last bits (masses by about
1e-15); `site_spectrum` and `abel_site_masses` therefore run inside
`lapack.one_blas_thread`, and the phase loop of `dynamical_bound_check`
runs inside one such context as a whole.  CPU kernels can still move bits
between machines: OpenBLAS and numpy pick their kernels by CPU at run time
(AVX2 against AVX-512, say), so a pinned digest holds for one kind of CPU.
Where numpy has no bundled OpenBLAS (MKL, Accelerate, a system BLAS) there
is no thread setter, and the outputs follow the thread count again.

Abel means of site probabilities are evaluated in closed form through the
eigenpair double sum with the Lorentzian kernel 1/(1 + (T/2)^2 (E_j - E_j')^2).
`abel_site_masses` does it for all timescales in one sweep over column blocks
of the kernel's lower triangle: the kernel is symmetric, so the part below
each diagonal block counts twice, and a block's squared eigenvalue gaps serve
every T.  Two reused buffers of `_SECULAR_CHUNK` entries bound its memory, as
they bound the secular passes of the solver.
The sum reads only the eigenvalues and the eigenvector entries at the window,
edge and source sites, so `site_spectrum` computes exactly those, by Cuppen's
divide and conquer: the box is split at its centre into two halves coupled by
one rank-one term, each half is solved the same way down to blocks of at most
`_LEAF_SIZE` sites that LAPACK ``dstevd`` solves whole, and each pair of
halves is merged by one deflated secular-equation solve (LAPACK ``dlaed4``
for the roots, the Gu-Eisenstat eigenvectors of ``dlaed3``).  A block
carries along only the rows its callers read: the requested ones and its two
ends, where the cuts are.  The strongly coupled boxes are extremely
clustered, and deflation is what makes the merges accurate and cheap there.
Memory stays at the tracked rows times the box size plus the two fixed-size
buffers of a merge.  The solver validates what it returns against an
independent ``dsterf`` eigenvalue solve, the orthonormality of the tracked
rows, and the first moments of the operator.

With two CPUs the helper thread of `lapack.halves` runs the dsterf check,
half of every merge of two or more blocks of roots, and the Abel sweep of
one phase's box while this thread solves the next phase's.  The halves are
independent, as in Cuppen's and Gu and Eisenstat's own parallel versions,
so no bit moves.

Kept for the benchmark: `eigensystem`, `site_spectrum` with every site
tracked, whose validation then costs O(n^3) for n sites.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import lapack
from .phase import PhasePoint
from .words import rotation_block

__all__ = [
    "Truncation",
    "SiteSpectrum",
    "AbelRecord",
    "BoundReport",
    "TrendRow",
    "WindowError",
    "build_truncation",
    "eigensystem",
    "site_spectrum",
    "abel_site_masses",
    "dynamical_bound_check",
    "exponent_trend",
]

TRUNC_TOL = 1e-5  # largest certified truncation error of a valid record
EDGE_ROUNDING = 1e-18  # bound on the rounding error of a computed edge mass e_T
MAX_BOX = 4096  # largest box half-width the certified loop tries
TREND_COUPLING = 8.0  # `exponent_trend` calibrates only at couplings above it
_BOX_MARGIN = 16  # sites between the largest window and the edge of the first box
RESIDUAL_TOL = 1e-8
GRAM_TOL = 1e-9
EIGENVALUE_TOL = 1e-12  # times |lambda| + 2, against the dsterf eigenvalues
_TREND_FLOOR = 0.5  # Abel mass a window of `exponent_trend` must hold
_TREND_P_GRID = tuple(round(0.05 * i, 2) for i in range(1, 21))  # its exponents


Timescales = float | Sequence[float]


class WindowError(ValueError):
    """Requested window exceeds the truncation box."""


def _box_index(n: int, N: int) -> int:
    """Index of site n in the box [-N, N]; WindowError outside it."""
    if not -N <= n <= N:
        raise WindowError(f"site {n} outside the box [-{N}, {N}]")
    return n + N


@dataclass(frozen=True)
class Truncation:
    """Tridiagonal truncation of the operator to sites [-N, N]."""

    N: int
    lam: float
    theta: PhasePoint
    diagonal: np.ndarray  # potential values, site order -N..N
    offdiagonal: np.ndarray  # hopping, all ones

    @property
    def size(self) -> int:
        return 2 * self.N + 1


@dataclass(frozen=True)
class SiteSpectrum:
    """All eigenvalues of a truncation, eigenvector entries at tracked sites only.

    `rows[i, j]` is phi_j(sites[i]); `stats` holds the solver's validation
    numbers (see `site_spectrum`).
    """

    trunc: Truncation
    eigenvalues: np.ndarray
    sites: tuple  # tracked sites, ascending
    rows: np.ndarray
    stats: dict

    def site_rows(self, sites) -> np.ndarray:
        """Eigenvector entries phi_j(n), one row per site, columns as eigenvalues."""
        where = {n: i for i, n in enumerate(self.sites)}
        picks = []
        for n in sites:
            _box_index(n, self.trunc.N)
            if n not in where:
                raise KeyError(f"site {n} was not tracked by the solver")
            picks.append(where[n])
        return self.rows[picks, :]


@dataclass(frozen=True)
class AbelRecord:
    """One Abel-averaged window mass at timescale T and window radius L."""

    theta: PhasePoint
    T: float
    L: float
    mass: float
    edge_mass: float
    trunc_bound: float  # T sqrt(edge_mass + EDGE_ROUNDING), the certified truncation error
    valid: bool  # trunc_bound <= TRUNC_TOL


@dataclass(frozen=True)
class BoundReport:
    """Confinement table over phases and timescales, with its empirical floor."""

    lam: float
    C1: float
    p_used: float
    theta_list: tuple
    T_grid: tuple
    records: tuple
    G_emp: float
    N_used: dict  # phase -> box half-width actually used
    solver: dict  # phase -> site_spectrum validation numbers for that box
    box_steps: dict  # phase -> ((N, worst trunc_bound), ...) for every box tried


@dataclass(frozen=True)
class TrendRow:
    lam: float
    p_fit: float
    masses: tuple  # ((p, T, mass) ...) for the fitted exponent
    box_steps: tuple  # ((N, worst trunc_bound), ...) for every box tried


def build_truncation(N: int, lam: float, theta: PhasePoint) -> Truncation:
    """Diagonal = coupling times the orbit coding on sites -N..N, hopping = 1."""
    if N < 1:
        raise ValueError("box half-width must be >= 1")
    ones = np.frombuffer(rotation_block(-N, N, theta).encode(), np.uint8) == ord("1")
    diag = lam * ones.astype(float)
    off = np.ones(2 * N, dtype=float)
    return Truncation(N, lam, theta, diag, off)


# ----------------------------------------------------------------------------
# split-and-merge solver: all eigenvalues, eigenvector entries at chosen rows
# ----------------------------------------------------------------------------

# LAPACK's relative machine precision dlamch('E'): half the spacing at 1.0
_EPS = 0.5 * np.finfo(float).eps
_SECULAR_CHUNK = 1 << 18  # entries per block of the secular passes and the sweep; BENCH_36.json
_LEAF_SIZE = 96  # blocks this small are solved whole by dstevd; timings in BENCH_36.json
_SQUARES = 1 << 13  # entries of each half's scratch for the squares of pass 2; BENCH_36.json


def _in_halves(part, n: int, h: int, two: bool) -> tuple:
    """(part(0, h), part(h, n)) through `lapack.halves` where `two`, else (part(0, n),)."""
    return lapack.halves(lambda: part(0, h), lambda: part(h, n)) if two else (part(0, n),)


def _secular_roots(poles: np.ndarray, z: np.ndarray, rho: float, two: bool = False):
    """Roots of 1 + rho sum z_i^2 / (poles_i - x) = 0 for increasing poles.

    Returns the roots and, per root, the nearest pole and the root's offset
    from it, as dlaed4 represents them (`lapack.dlaed4_roots`).  `_root_gaps`
    rebuilds every pole-minus-root difference from those: |poles_i - origin|
    is at most twice |poles_i - root|, so the difference keeps full relative
    accuracy.  With `two` the lower and the upper half of the roots are
    found through `lapack.halves`, else all of them in one call; each root
    is found alone, so the results do not change.
    """
    k = len(poles)
    parts = _in_halves(lambda lo, hi: lapack.dlaed4_roots(poles, z, rho, lo, hi), k, k // 2, two)
    roots, origin, offset = (sum(lists, []) for lists in zip(*parts))
    return np.array(roots), np.array(origin, dtype=np.intp), np.array(offset)


def _column_minus_row(col, row, out) -> np.ndarray:
    """col_i - row_j for all i and j, written into `out` of shape (len(col), len(row)).

    A copy of `col` into every column, then one in-place subtract: the same
    IEEE subtractions as ``np.subtract(col[:, None], row[None, :])``, in loops
    that run about 1.5 times faster than numpy's for two broadcast operands.
    """
    np.copyto(out, col[:, None])
    return np.subtract(out, row, out=out)


def _root_gaps(poles, origin, offset, cols, out, rows=slice(None)) -> np.ndarray:
    """poles_i - root_j for the poles i in `rows` and the roots j in `cols`, into `out`."""
    _column_minus_row(poles[rows], poles[origin[cols]], out)
    return np.subtract(out, offset[cols], out=out)


def _merge(poles, z, rho, tracked):
    """Eigen-decomposition of diag(poles) + rho z z^T, applied to tracked rows.

    Deflation follows LAPACK dlaed2: a pole whose weight rho |z_i| is at most
    tol is an eigenvalue as it stands; two poles closer than tol in the
    rotated sense |t c s| are rotated (in `tracked` too) so that one of them
    carries no weight.  The rest goes to the secular equation, whose
    eigenvectors use the recomputed weights of Gu and Eisenstat (dlaed3) and
    are applied to the tracked rows in blocks of roots.  `tracked` is
    overwritten.  Returns (eigenvalues, rows, (small-weight, close-pole)
    deflation counts), unsorted.  The scan runs on Python floats, which
    round as the float64 entries do.
    """
    tol = 8.0 * _EPS * max(np.abs(poles).max(), np.abs(z).max())
    d, zl = poles.tolist(), z.tolist()
    small, close, keep = [], [], []
    pj = -1
    for nj in np.argsort(poles, kind="stable").tolist():
        if rho * abs(zl[nj]) <= tol:
            small.append(nj)
            continue
        if pj >= 0:
            s, c = zl[pj], zl[nj]
            tau = math.hypot(c, s)
            t = d[nj] - d[pj]
            c, s = c / tau, -s / tau
            if abs(t * c * s) <= tol:
                zl[nj], zl[pj] = tau, 0.0
                a, b = tracked[:, pj].copy(), tracked[:, nj].copy()
                tracked[:, pj] = c * a + s * b
                tracked[:, nj] = c * b - s * a
                d[pj], d[nj] = (d[pj] * c * c + d[nj] * s * s,
                                d[pj] * s * s + d[nj] * c * c)
                close.append(pj)
            else:
                keep.append(pj)
        pj = nj
    if pj >= 0:
        keep.append(pj)
    deflated = small + close
    d = np.array(d)
    lam_k, rows_k = _secular_rows(d[keep], np.array(zl)[keep], rho, tracked[:, keep])
    eigenvalues = np.concatenate([lam_k, d[deflated]])
    rows = np.concatenate([rows_k, tracked[:, deflated]], axis=1)
    return eigenvalues, rows, (len(small), len(close))


def _weight_rows(poles, origin, offset, chunk, lo, hi, ratio_buf, denom_buf):
    """Pass 1 of `_secular_rows` for the poles lo..hi-1, block after block of roots.

    Gu-Eisenstat: the weights for which the computed roots are exact,
    zhat_i^2 = -prod_j (poles_i - root_j) / prod_{j != i} (poles_i - poles_j).
    Returns -zhat_i^2; the blocks' ratios and pole differences go through
    `ratio_buf` and `denom_buf`.
    """
    k, rows, h = len(poles), slice(lo, hi), hi - lo
    w = np.ones(h)
    for j0 in range(0, k, chunk):
        b = min(chunk, k - j0)
        cols = slice(j0, j0 + b)
        ratio, denom = (buf[:h * b].reshape((h, b), order="F") for buf in (ratio_buf, denom_buf))
        _root_gaps(poles, origin, offset, cols, ratio, rows)
        _column_minus_row(poles[rows], poles[cols], denom)
        diag = np.arange(max(lo, j0), min(hi, j0 + b))
        denom[diag - lo, diag - j0] = 1.0
        w *= np.prod(np.divide(ratio, denom, out=ratio), axis=1)
    return w


def _square_sums(vecs, scratch) -> np.ndarray:
    """``np.add.reduce(vecs * vecs, axis=0)``, bit for bit, the squares in `scratch`.

    numpy sums a C-ordered block of two or more columns along axis 0 row
    after row.  So does this, when `scratch` cannot hold the block: it holds
    the sum so far in its first row and the squares of the next rows below,
    and sums them along axis 0 again.  numpy sums a single contiguous column
    pairwise, so `scratch` must hold at least one whole column.
    """
    k, b = vecs.shape
    n = min(len(scratch) // b, k)  # rows of squares at a time
    sq = scratch[:n * b].reshape(n, b)
    total = np.add.reduce(np.multiply(vecs[:n], vecs[:n], out=sq), axis=0)
    for i in range(n, k, n - 1):
        j = min(i + n - 1, k)
        sq[0] = total
        np.multiply(vecs[i:j], vecs[i:j], out=sq[1:j - i + 1])
        np.add.reduce(sq[:j - i + 1], axis=0, out=total)
    return total


def _vector_rows(poles, origin, offset, zhat, tracked, chunk, starts, buf, scratch, rows):
    """Pass 2 of `_secular_rows` for the blocks of roots at `starts`, into `rows`."""
    k = len(poles)
    for j0 in starts:
        b = min(chunk, k - j0)
        cols = slice(j0, j0 + b)
        vecs = _root_gaps(poles, origin, offset, cols, buf[:k * b].reshape(k, b))
        np.divide(zhat[:, None], vecs, out=vecs)
        vecs /= np.sqrt(_square_sums(vecs, scratch))
        rows[:, cols] = tracked @ vecs


def _secular_rows(poles, z, rho, tracked):
    """Roots of the undeflated secular equation and its eigenvectors' tracked rows.

    Both passes run over blocks of roots of at most `_SECULAR_CHUNK` entries,
    in two buffers allocated once.  A block is k poles by b roots.  The first
    pass (`_weight_rows`) forms the Gu-Eisenstat weights from the root gaps
    and the pole differences, one buffer each.  It multiplies along the
    roots, so it lays each root's column out contiguously: numpy then runs
    its broadcasts and the product in loops of k entries, not k loops of b,
    and multiplies the columns in the same order.  The second pass
    (`_vector_rows`) keeps each pole's row contiguous: numpy sums along a
    contiguous axis pairwise, which would move the column norms' last bits.
    It turns the root gaps into eigenvectors in one buffer and sums their
    squares in the other.

    A merge of two or more blocks (k > 512 at 2^18 entries) runs each stage
    as two halves through `lapack.halves`, and no bit moves: the lower and
    the upper half of the roots (`_secular_roots`); in pass 1, of the poles,
    split at k // 2, each in its own part of the two buffers, since w_i
    depends on row i alone; in pass 2, of the blocks of roots, each with a
    buffer for its eigenvectors and a scratch of `_SQUARES` entries for
    their squares (`_square_sums`).  A merge of one block runs each stage
    whole on this thread, where the helper's hand-over costs more than it
    saves; its pass 2 sums the squares in the idle second buffer, in one
    reduction.  The products with the tracked rows run on whole blocks:
    OpenBLAS's result depends on the block's width.
    """
    k = len(poles)
    if k <= 2:
        # dlaed4 returns eigenvector entries, not differences, for k <= 2
        lam, vecs = np.linalg.eigh(np.diag(poles) + rho * np.outer(z, z))
        return lam, tracked @ vecs
    chunk = max(1, _SECULAR_CHUNK // k)
    starts = range(0, k, chunk)
    two = len(starts) > 1
    roots, origin, offset = _secular_roots(poles, z, rho, two)
    b = min(chunk, k)
    gap_buf, aux_buf = np.empty((2, k * b))
    w = np.concatenate(_in_halves(
        lambda lo, hi: _weight_rows(poles, origin, offset, chunk, lo, hi,
                                    gap_buf[lo * b:], aux_buf[lo * b:]), k, k // 2, two))
    if not (np.all(np.isfinite(w)) and np.all(w < 0.0)):
        raise AssertionError("secular roots do not interlace the poles")
    zhat = np.copysign(np.sqrt(-w), z)
    rows = np.empty((tracked.shape[0], k))
    if not two:
        _vector_rows(poles, origin, offset, zhat, tracked, chunk, starts, gap_buf, aux_buf,
                     rows)
        return roots, rows
    # a whole column fits a scratch, and two rows of any block
    scratch = np.empty((2, max(_SQUARES, k, 2 * b)))
    half = (len(starts) + 1) // 2
    lapack.halves(
        lambda: _vector_rows(poles, origin, offset, zhat, tracked, chunk, starts[:half],
                             gap_buf, scratch[0], rows),
        lambda: _vector_rows(poles, origin, offset, zhat, tracked, chunk, starts[half:],
                             aux_buf, scratch[1], rows))
    return roots, rows


def _split_merge(d: np.ndarray, e: np.ndarray, rows: np.ndarray):
    """All eigenvalues of the tridiagonal (d, e) and eigenvector entries at `rows`.

    Cuppen's split at the centre, as in LAPACK dlaed0: with beta = e[c-1],
    T = diag(T1', T2') + |beta| v v^T, v = e_{c-1} + sign(beta) e_c, and
    T1', T2' the halves with |beta| taken off the two diagonal entries at the
    cut.  Each half is solved the same way, asked only for its rows in `rows`
    and its row at the cut, down to blocks of at most `_LEAF_SIZE` that
    dstevd solves whole.  `rows` is ascending.  Returns the sorted
    eigenvalues, the rows (one per entry of `rows`, columns in eigenvalue
    order) and the deflation counts summed over all merges.
    """
    m = len(d)
    if m <= _LEAF_SIZE:
        vals, vecs = lapack.dstevd(d, e)
        return vals, vecs[rows, :], (0, 0)
    c = m // 2
    beta = float(e[c - 1])
    d1, d2 = d[:c].copy(), d[c:].copy()
    d1[-1] -= abs(beta)
    d2[0] -= abs(beta)
    left = rows < c
    # each half's rows and its row at the cut, ascending (np.union1d would
    # import numpy.ma)
    need1 = np.append(rows[rows < c - 1], c - 1)
    need2 = np.append(0, rows[rows > c] - c)
    poles1, rows1, (small1, close1) = _split_merge(d1, e[:c - 1], need1)
    poles2, rows2, (small2, close2) = _split_merge(d2, e[c:], need2)
    tracked = np.zeros((len(rows), m))
    tracked[left, :c] = rows1[np.searchsorted(need1, rows[left])]
    tracked[~left, c:] = rows2[np.searchsorted(need2, rows[~left] - c)]
    # dlaed2's normalisation: z = Q^T v / |v| and rho = |beta| |v|^2
    z = np.concatenate([rows1[-1], np.copysign(1.0, beta) * rows2[0]]) / math.sqrt(2.0)
    w, out, (small, close) = _merge(np.concatenate([poles1, poles2]), z,
                                    abs(2.0 * beta), tracked)
    order = np.argsort(w, kind="stable")
    return w[order], out[:, order], (small1 + small2 + small, close1 + close2 + close)


def _validate_site_spectrum(trunc: Truncation, eigenvalues: np.ndarray,
                        reference: np.ndarray, rows_at: np.ndarray,
                        rows: np.ndarray) -> dict:
    """Validate eigenvalues and tracked eigenvector rows; return the defects.

    `rows[i]` holds the entries at box index `rows_at[i]` (ascending) and
    `reference` the eigenvalues of an independent solver.  Raises
    AssertionError on: an eigenvalue outside the Gershgorin interval; a gap
    to `reference` beyond EIGENVALUE_TOL * scale; first moments
    sum_j E_j phi_j(r) phi_j(s) off H_rs by more than RESIDUAL_TOL * scale;
    a Gram defect of the rows beyond GRAM_TOL.  scale = |lambda| + 2.
    """
    scale = abs(trunc.lam) + 2.0
    d, e = trunc.diagonal, trunc.offdiagonal
    radius = 2.0 * float(np.abs(e).max())
    lo, hi = float(d.min()) - radius, float(d.max()) + radius
    if eigenvalues.min() < lo - 1e-9 * scale or eigenvalues.max() > hi + 1e-9 * scale:
        raise AssertionError("eigenvalues escaped the Gershgorin interval")
    gap = float(np.abs(np.sort(eigenvalues) - reference).max())
    if gap > EIGENVALUE_TOL * scale:
        raise AssertionError(f"eigenvalues {gap:.3e} away from the dsterf solve")
    h = np.diag(d[rows_at])
    nxt = np.flatnonzero(np.diff(rows_at) == 1)
    h[nxt, nxt + 1] = h[nxt + 1, nxt] = e[rows_at[nxt]]
    moment = float(np.abs((rows * eigenvalues) @ rows.T - h).max())
    if moment > RESIDUAL_TOL * scale:
        raise AssertionError(f"first moments of the tracked rows off by {moment:.3e}")
    gram = float(np.abs(rows @ rows.T - np.eye(len(rows_at))).max())
    if gram > GRAM_TOL:
        raise AssertionError(f"tracked eigenvector rows Gram defect {gram:.3e}")
    return {"eigenvalue_gap": gap, "moment_defect": moment, "gram_defect": gram}


def site_spectrum(trunc: Truncation, sites) -> SiteSpectrum:
    """All eigenvalues and the eigenvector entries at `sites` and the source site 1.

    Divide and conquer that carries only the rows it needs (`_split_merge`),
    validated by `_validate_site_spectrum` against LAPACK dsterf.  The dsterf
    solve is the helper's half of `lapack.halves`, the merges this thread's:
    ctypes lets go of the GIL for the call, so it takes the core the one
    BLAS thread leaves idle.  The helper then takes half of every large
    merge (`_secular_rows`).  An error on the helper is raised again here.
    `stats` records the box size, the poles deflated in the merges (of each
    kind) and the three defects.
    """
    tracked = sorted({int(n) for n in sites} | {1})
    rows_at = np.array([_box_index(n, trunc.N) for n in tracked])
    with lapack.one_blas_thread():
        (w, rows, (small, close)), reference = lapack.halves(
            lambda: _split_merge(trunc.diagonal, trunc.offdiagonal, rows_at),
            lambda: lapack.dsterf(trunc.diagonal, trunc.offdiagonal))
        stats = {"size": trunc.size, "deflated_small_weight": small,
                 "deflated_close_poles": close}
        stats.update(_validate_site_spectrum(trunc, w, reference, rows_at, rows))
    return SiteSpectrum(trunc, w, tuple(tracked), rows, stats)


def eigensystem(trunc: Truncation) -> SiteSpectrum:
    """`site_spectrum` over every site, kept only because the benchmark's span and
    tests name it.  Its moment and Gram checks then cost O(n^3) for n sites:
    nothing on the benchmark's 21-site box, the largest it is called on."""
    return site_spectrum(trunc, range(-trunc.N, trunc.N + 1))


def abel_site_masses(es: SiteSpectrum, sites, T: Timescales) -> np.ndarray:
    """Closed-form Abel means of site probabilities for the corner initial state.

    <|psi_t(n)|^2>_T = sum_{j,j'} g_j g_j' / (1 + (T/2)^2 (E_j - E_j')^2)
    with g_j = phi_j(n) phi_j(1).  `T` is one timescale or a sequence of
    them: one T gives one mass per site, a sequence one row per T.  `es`
    must track every site of `sites` and the source site 1.

    One sweep serves every T.  The kernel is symmetric, so each block of
    columns covers only its diagonal block and the rows below it, and the
    part below counts twice.  A block's squared eigenvalue gaps are formed
    once; for each T one reused buffer turns them into the kernel in place.
    For M eigenvalues and S sites, the two buffers hold at most
    max(`_SECULAR_CHUNK`, M, S) entries each, and the one product per block
    and T at most that many more.
    """
    scalar = np.ndim(T) == 0
    tau2 = np.atleast_1d(np.asarray(T, dtype=float))
    if not np.all(np.isfinite(tau2) & (tau2 > 0.0)):
        raise ValueError("timescale must be positive")
    tau2 = (0.5 * tau2) ** 2
    w = es.eigenvalues
    g = es.site_rows(list(sites) + [1])  # site_rows copies: scale in place
    g[:-1] *= g[-1]
    g = g[:-1]
    m, s = len(w), len(g)
    size = max(min(m * m, _SECULAR_CHUNK), m, s)
    gap_buf, kern_buf = np.empty((2, size))
    acc = np.zeros((len(tau2), s))
    with lapack.one_blas_thread():
        j0 = 0
        while j0 < m:
            j1 = min(m, j0 + size // max(m - j0, s))
            b = j1 - j0
            gap2 = _column_minus_row(w[j0:], w[j0:j1], gap_buf[:(m - j0) * b].reshape(m - j0, b))
            kern = kern_buf[:gap2.size].reshape(gap2.shape)
            # a squared gap, or its product with (T/2)^2, beyond the float range
            # is inf, whose kernel 1 / (1 + inf) = 0 is the exact limit
            with np.errstate(over="ignore"):
                np.square(gap2, out=gap2)
            for t, c in enumerate(tau2):
                with np.errstate(over="ignore"):
                    np.multiply(gap2, c, out=kern)
                kern += 1.0
                # 2 / x is exactly twice 1 / x: the part below counts twice
                np.divide(1.0, kern[:b], out=kern[:b])
                np.divide(2.0, kern[b:], out=kern[b:])
                acc[t] += np.einsum("sb,sb->s", g[:, j0:] @ kern, g[:, j0:j1])
            j0 = j1
    # the kernel is positive definite, so the exact values are probabilities;
    # rounding can leave negatives of up to ~1e-19 at numerically empty
    # sites, which the truncation bound charges through EDGE_ROUNDING
    np.maximum(acc, 0.0, out=acc)
    return acc[0] if scalar else acc


def _window_mass(site_masses: dict, L: float) -> float:
    fl = math.floor(L)
    total = sum(site_masses[n] for n in range(-fl, fl + 1))
    frac = L - fl
    if frac:
        total += frac * (site_masses[-fl - 1] + site_masses[fl + 1])
    return float(total)


def _box_solve(lam: float, theta: PhasePoint, n_box: int, top: int):
    """Solve step: the box [-n_box, n_box] with its sites |n| <= top and its edges tracked.

    Returns the tracked sites, in the order the sweep reads them, and the
    `SiteSpectrum`.
    """
    reach = min(top, n_box)
    sites = list(range(-reach, reach + 1)) + ([-n_box, n_box] if reach < n_box else [])
    return sites, site_spectrum(build_truncation(n_box, lam, theta), sites)


def _held(step, *args):
    """(step(*args), None), or (None, the exception it raised) for the caller to raise."""
    try:
        return step(*args), None
    except Exception as exc:
        return None, exc


def _box_masses(solved, ts: list):
    """Sweep-and-certify step: the Abel site masses of a solved box and its bounds.

    Returns the masses per T (dicts by site) and the truncation bounds
    T sqrt(e_T + EDGE_ROUNDING).
    """
    sites, es = solved
    n_box = es.trunc.N
    per_t = [dict(zip(sites, row)) for row in abel_site_masses(es, sites, ts)]
    return per_t, [t * math.sqrt(m[-n_box] + m[n_box] + EDGE_ROUNDING) for t, m in zip(ts, per_t)]


def _certified_boxes(lam: float, thetas: list, ts: list, n_first: int, top: int,
                     fixed: bool = False) -> list:
    """Per phase, Abel site masses at |n| <= top and the edges, from the first certified box.

    Each phase solves [-n_first, n_first]; unless `fixed`, it doubles the box
    until every bound T sqrt(e_T + EDGE_ROUNDING) is at most TRUNC_TOL, and
    past MAX_BOX raises ValueError with the best bound reached; a T that no
    box can certify raises before the first solve.  Returns, per phase, the
    masses per T (dicts by site), the bounds, the solver's stats and the
    boxes tried as (N, worst bound) pairs.

    The phases are pipelined through `lapack.halves`: its helper's half
    sweeps a phase's first box (`_box_masses`) while this thread's half
    solves the next phase's first box (`_box_solve`), which that phase
    always needs; the two steps share nothing, so no bit moves.  An error of
    the look-ahead solve is held and raised when its phase is reached, so
    errors come in phase order.  Doubled boxes, and every box of the last
    phase, are solved and swept in turn; so is a single phase.  The whole
    loop runs inside one `lapack.one_blas_thread`, so the two threads'
    nested contexts never give the user's thread count back while the other
    runs a product.
    """
    if not fixed and max(ts) * math.sqrt(EDGE_ROUNDING) > TRUNC_TOL:
        raise ValueError(
            f"no box certifies T={max(ts):g}: T*sqrt(EDGE_ROUNDING) exceeds the "
            f"tolerance {TRUNC_TOL:g} beyond T={TRUNC_TOL / math.sqrt(EDGE_ROUNDING):g}")
    out = []
    with lapack.one_blas_thread():
        ahead = _held(_box_solve, lam, thetas[0], n_first, top)
        for i, theta in enumerate(thetas):
            (solved, error), ahead = ahead, None
            if error is not None:
                raise error
            n_box, steps = n_first, []
            while True:
                if ahead is None and i + 1 < len(thetas):
                    ahead, (per_t, bounds) = lapack.halves(
                        lambda: _held(_box_solve, lam, thetas[i + 1], n_first, top),
                        lambda: _box_masses(solved, ts))
                else:
                    per_t, bounds = _box_masses(solved, ts)
                steps.append((n_box, max(bounds)))
                if fixed or max(bounds) <= TRUNC_TOL:
                    break
                if n_box >= MAX_BOX:
                    best_n, best = min(steps, key=lambda step: step[1])
                    raise ValueError(
                        f"no box up to N={MAX_BOX} certifies the masses at lambda={lam}: "
                        f"best T*sqrt(edge mass + EDGE_ROUNDING) {best:.2e} at N={best_n}, "
                        f"tolerance {TRUNC_TOL:g}")
                n_box = min(2 * n_box, MAX_BOX)
                solved = _box_solve(lam, theta, n_box, top)
            out.append((per_t, bounds, solved[1].stats, tuple(steps)))
    return out


def dynamical_bound_check(lam: float, theta_list, T_grid, C1: float = 1.0,
                          p_used: float = 0.35, N: int | str = "auto") -> BoundReport:
    """Abel-averaged window masses at radius C1 * T**p over phases and timescales.

    Each record carries its edge mass and certified truncation error.  With
    N = "auto" each phase gets the first certified box of the doubling from
    `_BOX_MARGIN` sites beyond the largest window; an explicit N fixes the box
    and leaves uncertified records invalid.  G_emp is the minimum mass.
    """
    thetas = list(theta_list)
    ts = sorted(float(T) for T in T_grid)
    if not thetas or not ts:
        raise ValueError("need at least one phase and one timescale")
    if min(ts) <= 0:
        raise ValueError("timescales must be positive")
    for a, b in zip(ts, ts[1:]):
        if a == b:
            raise ValueError(f"T grid repeats the timescale {a!r}")
    max_l = max(C1 * t**p_used for t in ts)
    fixed = N != "auto"
    limit = int(N) if fixed else MAX_BOX
    # floor(max_l) + 1 >= limit; a radius past float range is inf, and fails too
    if not max_l < limit - 1:
        raise WindowError(f"window radius {max_l:.6g} does not fit the box N={limit}")
    top = math.floor(max_l) + 1
    records: list[AbelRecord] = []
    n_used, solver, box_steps = {}, {}, {}
    boxes = _certified_boxes(lam, thetas, ts, limit if fixed else min(top + _BOX_MARGIN, limit),
                             top, fixed)
    for theta, (per_t, bounds, solver[theta], box_steps[theta]) in zip(thetas, boxes):
        n_box = n_used[theta] = box_steps[theta][-1][0]
        for t, masses, bound in zip(ts, per_t, bounds):
            l_val = C1 * t**p_used
            records.append(AbelRecord(theta, t, l_val, _window_mass(masses, l_val),
                                      float(masses[-n_box] + masses[n_box]), bound,
                                      bound <= TRUNC_TOL))
    g_emp = min(r.mass for r in records)
    return BoundReport(lam, C1, p_used, tuple(thetas), tuple(ts),
                       tuple(records), g_emp, n_used, solver, box_steps)


def exponent_trend(lam: float, theta: PhasePoint,
                   T_grid=(10.0, 30.0, 100.0, 300.0, 1000.0)) -> TrendRow:
    """Smallest window exponent keeping the Abel mass at 1/2 or more.

    p_fit is the smallest p of `_TREND_P_GRID` whose masses at radius T**p
    reach `_TREND_FLOOR` at every timescale.  The box is the first certified
    one of the doubling from 2 * `_BOX_MARGIN`, with every site up to the largest window
    tracked; a window that covers the box is clipped to it, whose mass 1 is
    the true mass up to the certified error.  The row keeps the boxes tried,
    the last one certified.
    """
    if lam <= TREND_COUPLING:
        raise ValueError("exponent calibration expects a coupling above 8")
    ts = sorted(float(T) for T in T_grid)
    top = math.floor(max(ts) ** max(_TREND_P_GRID)) + 1
    ((per_t, _, _, steps),) = _certified_boxes(lam, [theta], ts, 2 * _BOX_MARGIN, top)
    n_box = steps[-1][0]
    for p in _TREND_P_GRID:
        table = [(p, t, _window_mass(m, min(t**p, n_box))) for t, m in zip(ts, per_t)]
        if all(mass >= _TREND_FLOOR for _, _, mass in table):
            return TrendRow(lam, p, tuple(table), steps)
    raise AssertionError(f"no exponent on the grid confines coupling {lam}")
