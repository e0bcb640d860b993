"""Finite-box quantum dynamics: Abel-averaged window masses of a corner state.

The operator is the discrete one-dimensional Schrodinger operator with the
golden-rotation potential, truncated to sites [-N, N] with hard (Dirichlet)
cutoff.  Every Abel record carries a certified bound on its truncation error.
By Duhamel, psi_t - psi^N_t = -i int_0^t e^{-i(t-s)H} (H - H_N) psi^N_s ds,
and (H - H_N) psi^N_s has norm b(s) = (|psi^N_s(N)|^2 + |psi^N_s(-N)|^2)^{1/2}.
For any projection P, such as a window, |a^2 - b^2| <= 2 |a - b| when
a, b <= 1, so the Abel mean of the mass error is at most
2 int_0^inf b(s) e^{-2s/T} ds, which Cauchy-Schwarz bounds by
trunc_bound = T sqrt(e_T), e_T being the Abel edge mass at +-N.  A record is
valid iff trunc_bound <= TRUNC_TOL = 1e-5.  The computed e_T has an absolute
rounding floor of about 1e-20, so no box certifies below about T * 1e-10: on
a fixed 2001-site box at coupling 6 and T <= 3000 the worst bound over 211
phases was 5.7e-7, and a 1e-8 tolerance would fail 7 of them.  N = "auto"
starts the box just beyond the largest window and doubles it until every
record of the phase is certified, up to MAX_BOX; an explicit N fixes it.

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
one rank-one term, each half is solved the same way down to blocks of 16
sites that LAPACK ``dstevd`` solves whole, and each pair of halves is merged
by one deflated secular-equation solve (LAPACK ``dlaed4`` for the roots, the
Gu-Eisenstat eigenvectors of ``dlaed3``).  A block carries along only the
rows its callers read: the requested ones and its two ends, where the cuts
are.  The strongly coupled boxes are extremely clustered, and deflation is
what makes the merges accurate and cheap there.  Memory stays at the tracked
rows times the box size plus the two fixed-size buffers of a merge.  The
solver validates what it returns against an independent ``dsterf``
eigenvalue solve, the orthonormality of the tracked rows, and the first
moments of the operator.

Kept for the benchmark: the dense `eigensystem` (all eigenvectors, MRRR)
with `EigenSystem` and `_validate_eigensystem`, and `abel_site_masses` taking
an `EigenSystem`.  No command calls them, but the benchmark's spans trace and
count them and its own tests call them, so they stay until the benchmark
drops them; the tests also hold `site_spectrum` to them.
"""

from __future__ import annotations

import ctypes
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack, eigh_tridiagonal, lapack

from .phase import PhasePoint
from .words import rotation_block

__all__ = [
    "Truncation",
    "EigenSystem",
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

TRUNC_TOL = 1e-5  # largest certified truncation error T sqrt(e_T) of a valid record
MAX_BOX = 4096  # largest box half-width the certified loop tries
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
class EigenSystem:
    """Full spectral data of a truncation; eigenvectors are orthonormal columns."""

    trunc: Truncation
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def site_index(self, n: int) -> int:
        return _box_index(n, self.trunc.N)

    def site_rows(self, sites) -> np.ndarray:
        """Eigenvector entries phi_j(n), one row per site, columns as eigenvalues."""
        return self.eigenvectors[[self.site_index(n) for n in sites], :]


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
    trunc_bound: float  # T sqrt(edge_mass), the certified truncation error
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
    pattern = rotation_block(-N, N, theta)
    diag = lam * np.array(list(pattern), dtype=float)
    off = np.ones(2 * N, dtype=float)
    return Truncation(N, lam, theta, diag, off)


def _validate_eigensystem(es: EigenSystem) -> None:
    trunc = es.trunc
    w, V = es.eigenvalues, es.eigenvectors
    scale = abs(trunc.lam) + 2.0
    if w[0] < -2.0 - 1e-9 * scale or w[-1] > trunc.lam + 2.0 + 1e-9 * scale:
        raise AssertionError("eigenvalues escaped the Gershgorin interval")
    worst = 0.0
    for j0 in range(0, len(w), 1024):
        block = slice(j0, min(j0 + 1024, len(w)))
        hv = trunc.diagonal[:, None] * V[:, block]
        hv[1:] += V[:-1, block]
        hv[:-1] += V[1:, block]
        hv -= V[:, block] * w[block][None, :]
        worst = max(worst, float(np.sqrt((hv * hv).sum(axis=0)).max()))
    if worst > RESIDUAL_TOL * scale:
        raise AssertionError(f"eigenpair residual {worst:.3e} beyond tolerance")
    # orthogonality probes: the spectrum clusters tightly, which defeats some
    # LAPACK drivers; row norms and a sampled Gram block catch that cheaply
    mid = trunc.N
    span = min(64, trunc.N)
    row_err = np.abs(np.linalg.norm(V[mid - span: mid + span + 1, :], axis=1) - 1.0).max()
    if row_err > 1e-9:
        raise AssertionError(f"eigenvector rows deviate from orthonormality: {row_err:.3e}")
    step = max(1, len(w) // 200)
    sample = V[:, ::step]
    gram = sample.T @ sample
    gram_err = np.abs(gram - np.eye(gram.shape[0])).max()
    if gram_err > 1e-9:
        raise AssertionError(f"sampled eigenvector Gram defect {gram_err:.3e}")


def eigensystem(trunc: Truncation) -> EigenSystem:
    """Spectral decomposition of the truncation, validated.

    Tries the fast LAPACK driver first and falls back to bisection plus
    inverse iteration when it refuses to converge or fails validation:
    residual bounds, the Gershgorin interval, and orthogonality probes.
    """
    last_error: Exception | None = None
    for driver in ("stemr", "stebz"):
        try:
            w, V = eigh_tridiagonal(trunc.diagonal, trunc.offdiagonal,
                                    lapack_driver=driver)
            es = EigenSystem(trunc, w, V)
            _validate_eigensystem(es)
            return es
        except (np.linalg.LinAlgError, AssertionError) as exc:
            last_error = exc
    raise AssertionError(f"no tridiagonal eigensolver produced a valid system: {last_error}")


# ----------------------------------------------------------------------------
# split-and-merge solver: all eigenvalues, eigenvector entries at chosen rows
# ----------------------------------------------------------------------------

# LAPACK's relative machine precision dlamch('E'): half the spacing at 1.0
_EPS = 0.5 * np.finfo(float).eps
_SECULAR_CHUNK = 1 << 20  # entries per block of the secular passes and the Abel sweep
_LEAF_SIZE = 16  # blocks this small are solved whole by dstevd


@functools.lru_cache(maxsize=None)
def _dlaed4():
    """LAPACK dlaed4 (one root of a rank-one secular equation) via ctypes."""
    capsule = cython_lapack.__pyx_capi__["dlaed4"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    int_p, dbl_p = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
    proto = ctypes.CFUNCTYPE(None, int_p, int_p, dbl_p, dbl_p, dbl_p, dbl_p, dbl_p, int_p)
    return proto(get_pointer(capsule, get_name(capsule)))


def _secular_roots(poles: np.ndarray, z: np.ndarray, rho: float):
    """Roots of 1 + rho sum z_i^2 / (poles_i - x) = 0 for increasing poles.

    Returns the roots and, per root, the nearest pole and the root's offset
    from it, as dlaed4 represents them.  `_root_gaps` rebuilds every
    pole-minus-root difference from those: |poles_i - origin| is at most
    twice |poles_i - root|, so the difference keeps full relative accuracy.

    One dlaed4 call per root, from Python, is not the cost to chase.  On the
    2001-site box at coupling 6 and phase 0 (127 merges, 13,772 roots, k up
    to 1963; 2-vCPU VM) the loop took 0.20 s, of which about 5 us per call,
    some 0.07 s, is the ctypes call and the rest dlaed4's own O(k) work per
    root.  LAPACK dlaed9, which finds the same roots and the Gu-Eisenstat
    vectors in one Fortran call, took 0.24 s there and needs two k x k
    arrays, 62 MB at k = 1963.
    """
    k = len(poles)
    roots, origin, offset = [], [], []
    delta = np.empty(k)
    dbl_p = ctypes.POINTER(ctypes.c_double)
    i_c, root, info = ctypes.c_int(0), ctypes.c_double(0.0), ctypes.c_int(0)
    args = (ctypes.byref(ctypes.c_int(k)), ctypes.byref(i_c),
            poles.ctypes.data_as(dbl_p), z.ctypes.data_as(dbl_p),
            delta.ctypes.data_as(dbl_p), ctypes.byref(ctypes.c_double(rho)),
            ctypes.byref(root), ctypes.byref(info))
    dlaed4 = _dlaed4()
    for i in range(k):
        i_c.value = i + 1
        dlaed4(*args)
        if info.value != 0:
            raise AssertionError(f"dlaed4 did not converge on root {i + 1} of {k}")
        # root i lies between poles i and i + 1 (beyond the last pole for i = k - 1)
        o = i if i == k - 1 or abs(delta[i]) <= abs(delta[i + 1]) else i + 1
        roots.append(root.value)
        origin.append(o)
        offset.append(-delta[o])
    return np.array(roots), np.array(origin, dtype=np.intp), np.array(offset)


def _root_gaps(poles, origin, offset, cols, out) -> np.ndarray:
    """poles_i - root_j for all i and the roots j in `cols`, written into `out`."""
    np.subtract(poles[:, None], poles[origin[cols]][None, :], out=out)
    return np.subtract(out, offset[cols][None, :], out=out)


def _merge(poles, z, rho, tracked):
    """Eigen-decomposition of diag(poles) + rho z z^T, applied to tracked rows.

    Deflation follows LAPACK dlaed2: a pole whose weight rho |z_i| is at most
    tol is an eigenvalue as it stands; two poles closer than tol in the
    rotated sense |t c s| are rotated (in `tracked` too) so that one of them
    carries no weight.  The rest goes to the secular equation, whose
    eigenvectors use the recomputed weights of Gu and Eisenstat (dlaed3) and
    are applied to the tracked rows in blocks of roots.  `tracked` is
    overwritten.  Returns (eigenvalues, rows, (small-weight, close-pole)
    deflation counts), unsorted.
    """
    d = poles.copy()
    tol = 8.0 * _EPS * max(np.abs(d).max(), np.abs(z).max())
    zl = z.tolist()
    small, close, keep = [], [], []
    pj = -1
    for nj in np.argsort(d, kind="stable").tolist():
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
    lam_k, rows_k = _secular_rows(d[keep], np.array(zl)[keep], rho, tracked[:, keep])
    eigenvalues = np.concatenate([lam_k, d[deflated]])
    rows = np.concatenate([rows_k, tracked[:, deflated]], axis=1)
    return eigenvalues, rows, (len(small), len(close))


def _secular_rows(poles, z, rho, tracked):
    """Roots of the undeflated secular equation and its eigenvectors' tracked rows.

    Both passes run over blocks of roots of at most `_SECULAR_CHUNK` entries,
    in two buffers allocated once: the root gaps, and the pole differences
    or the squares of the column norms.
    """
    k = len(poles)
    if k <= 2:
        # dlaed4 returns eigenvector entries, not differences, for k <= 2
        lam, vecs = np.linalg.eigh(np.diag(poles) + rho * np.outer(z, z))
        return lam, tracked @ vecs
    roots, origin, offset = _secular_roots(poles, z, rho)
    chunk = max(1, _SECULAR_CHUNK // k)
    gap_buf, aux_buf = np.empty((2, k * min(chunk, k)))

    def blocks():
        for j0 in range(0, k, chunk):
            b = min(chunk, k - j0)
            cols = slice(j0, j0 + b)
            yield (j0, cols, _root_gaps(poles, origin, offset, cols,
                                        gap_buf[:k * b].reshape(k, b)),
                   aux_buf[:k * b].reshape(k, b))

    # Gu-Eisenstat: the weights for which the computed roots are exact,
    # zhat_i^2 = -prod_j (poles_i - root_j) / prod_{j != i} (poles_i - poles_j)
    w = np.ones(k)
    for j0, cols, ratio, denom in blocks():
        np.subtract(poles[:, None], poles[None, cols], out=denom)
        diag = np.arange(denom.shape[1])
        denom[j0 + diag, diag] = 1.0
        w *= np.prod(np.divide(ratio, denom, out=ratio), axis=1)
    if not (np.all(np.isfinite(w)) and np.all(w < 0.0)):
        raise AssertionError("secular roots do not interlace the poles")
    zhat = np.copysign(np.sqrt(-w), z)
    rows = np.empty((tracked.shape[0], k))
    for _, cols, vecs, sq in blocks():
        np.divide(zhat[:, None], vecs, out=vecs)
        vecs /= np.sqrt(np.add.reduce(np.multiply(vecs, vecs, out=sq), axis=0))
        rows[:, cols] = tracked @ vecs
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
        vals, vecs, info = lapack.dstevd(d, e if len(e) else np.zeros(1))
        if info != 0:
            raise AssertionError(f"dstevd failed on a {m}-site block (info={info})")
        return vals, vecs[rows, :], (0, 0)
    c = m // 2
    beta = float(e[c - 1])
    d1, d2 = d[:c].copy(), d[c:].copy()
    d1[-1] -= abs(beta)
    d2[0] -= abs(beta)
    left = rows < c
    need1 = np.union1d(rows[left], [c - 1])
    need2 = np.union1d(rows[~left] - c, [0])
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
    validated by `_validate_site_spectrum` against LAPACK dsterf.  `stats`
    records the box size, the poles deflated in the merges (of each kind)
    and the three defects.
    """
    tracked = sorted({int(n) for n in sites} | {1})
    rows_at = np.array([_box_index(n, trunc.N) for n in tracked])
    w, rows, (small, close) = _split_merge(trunc.diagonal, trunc.offdiagonal, rows_at)
    reference, info = lapack.dsterf(trunc.diagonal, trunc.offdiagonal)
    if info != 0:
        raise AssertionError(f"dsterf failed (info={info})")
    stats = {"size": trunc.size, "deflated_small_weight": small,
             "deflated_close_poles": close}
    stats.update(_validate_site_spectrum(trunc, w, reference, rows_at, rows))
    return SiteSpectrum(trunc, w, tuple(tracked), rows, stats)


def abel_site_masses(es: SiteSpectrum | EigenSystem, sites, T: Timescales) -> np.ndarray:
    """Closed-form Abel means of site probabilities for the corner initial state.

    <|psi_t(n)|^2>_T = sum_{j,j'} g_j g_j' / (1 + (T/2)^2 (E_j - E_j')^2)
    with g_j = phi_j(n) phi_j(1).  `T` is one timescale or a sequence of
    them: one T gives one mass per site, a sequence one row per T.  `es` is
    a `SiteSpectrum` or a dense `EigenSystem`; both give `eigenvalues` and
    `site_rows`.

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
    j0 = 0
    while j0 < m:
        j1 = min(m, j0 + size // max(m - j0, s))
        b = j1 - j0
        gap2 = np.subtract(w[j0:, None], w[None, j0:j1],
                           out=gap_buf[:(m - j0) * b].reshape(m - j0, b))
        np.square(gap2, out=gap2)
        kern = kern_buf[:gap2.size].reshape(gap2.shape)
        for t, c in enumerate(tau2):
            np.multiply(gap2, c, out=kern)
            kern += 1.0
            # 2 / x is exactly twice 1 / x: the part below counts twice
            np.divide(1.0, kern[:b], out=kern[:b])
            np.divide(2.0, kern[b:], out=kern[b:])
            acc[t] += np.einsum("sb,sb->s", g[:, j0:] @ kern, g[:, j0:j1])
        j0 = j1
    # the kernel is positive definite, so the exact values are probabilities;
    # rounding can leave ~1e-20 negatives at numerically empty sites
    np.maximum(acc, 0.0, out=acc)
    return acc[0] if scalar else acc


def _window_mass(site_masses: dict, L: float) -> float:
    fl = math.floor(L)
    total = sum(site_masses[n] for n in range(-fl, fl + 1))
    frac = L - fl
    if frac:
        total += frac * (site_masses[-fl - 1] + site_masses[fl + 1])
    return float(total)


def _certified_box(lam: float, theta: PhasePoint, ts: list, n_box: int, top: int,
                   fixed: bool = False):
    """Abel site masses at |n| <= top and the edges, from the first certified box.

    Solves [-n_box, n_box]; unless `fixed`, doubles it until every T sqrt(e_T)
    is at most TRUNC_TOL, and past MAX_BOX raises ValueError with the best
    bound reached.  Returns the masses per T (dicts by site), the bounds, the
    solver's stats and the boxes tried as (N, worst bound) pairs.
    """
    steps = []
    while True:
        reach = min(top, n_box)
        sites = list(range(-reach, reach + 1)) + ([-n_box, n_box] if reach < n_box else [])
        es = site_spectrum(build_truncation(n_box, lam, theta), sites)
        per_t = [dict(zip(sites, row)) for row in abel_site_masses(es, sites, ts)]
        bounds = [t * math.sqrt(m[-n_box] + m[n_box]) for t, m in zip(ts, per_t)]
        steps.append((n_box, max(bounds)))
        if fixed or max(bounds) <= TRUNC_TOL:
            return per_t, bounds, es.stats, tuple(steps)
        if n_box >= MAX_BOX:
            best_n, best = min(steps, key=lambda step: step[1])
            raise ValueError(
                f"no box up to N={MAX_BOX} certifies the masses at lambda={lam}: "
                f"best T*sqrt(edge mass) {best:.2e} at N={best_n}, tolerance {TRUNC_TOL:g}")
        n_box = min(2 * n_box, MAX_BOX)


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
    max_l = max(C1 * t**p_used for t in ts)
    top = math.floor(max_l) + 1
    fixed = N != "auto"
    limit = int(N) if fixed else MAX_BOX
    if top >= limit:
        raise WindowError(f"window radius {max_l:.1f} does not fit the box N={limit}")
    records: list[AbelRecord] = []
    n_used, solver, box_steps = {}, {}, {}
    for theta in thetas:
        per_t, bounds, solver[theta], box_steps[theta] = _certified_box(
            lam, theta, ts, limit if fixed else min(top + _BOX_MARGIN, limit), top, fixed)
        n_box = n_used[theta] = box_steps[theta][-1][0]
        for t, masses, bound in zip(ts, per_t, bounds):
            l_val = C1 * t**p_used
            records.append(AbelRecord(theta, t, l_val, _window_mass(masses, l_val),
                                      float(masses[-n_box] + masses[n_box]), bound,
                                      bound <= TRUNC_TOL))
    g_emp = min(r.mass for r in records)
    return BoundReport(lam, C1, p_used, tuple(thetas), tuple(ts),
                       tuple(records), g_emp, n_used, solver, box_steps)


def exponent_trend(lambdas, theta: PhasePoint,
                   T_grid=(10.0, 30.0, 100.0, 300.0, 1000.0)) -> list[TrendRow]:
    """Smallest window exponent keeping the Abel mass at 1/2 or more, per coupling.

    p_fit is the smallest p of `_TREND_P_GRID` whose masses at radius T**p
    reach `_TREND_FLOOR` at every timescale.  The box is the first certified
    one of the doubling from 2 * `_BOX_MARGIN`, with every site up to the largest window
    tracked; a window that covers the box is clipped to it, whose mass 1 is
    the true mass up to the certified error.  Each row keeps the boxes tried,
    the last one certified.
    """
    ts = sorted(float(T) for T in T_grid)
    rows = []
    for lam in lambdas:
        if lam <= 8.0:
            raise ValueError("exponent calibration expects couplings above 8")
        top = math.floor(max(ts) ** max(_TREND_P_GRID)) + 1
        per_t, _, _, steps = _certified_box(lam, theta, ts, 2 * _BOX_MARGIN, top)
        n_box = steps[-1][0]
        p_fit = None
        fitted = []
        for p in _TREND_P_GRID:
            table = [(p, t, _window_mass(m, min(t**p, n_box))) for t, m in zip(ts, per_t)]
            if all(mass >= _TREND_FLOOR for _, _, mass in table):
                p_fit = p
                fitted = table
                break
        if p_fit is None:
            raise AssertionError(f"no exponent on the grid confines coupling {lam}")
        rows.append(TrendRow(lam, p_fit, tuple(fitted), steps))
    return rows
