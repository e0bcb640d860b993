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
1e-15); `site_spectrum` and `abel_site_masses` therefore run on one OpenBLAS
thread and give the user's count back on return.  CPU kernels can still move
bits between machines: OpenBLAS and numpy pick their kernels by CPU at run
time (AVX2 against AVX-512, say), so a pinned digest holds for one kind of
CPU.  Where numpy has no bundled OpenBLAS (MKL, Accelerate, a system BLAS)
there is no thread setter, and the outputs follow the thread count again.

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

The two block sizes were chosen by measurement.  Each entry below is the
median of 5 fresh processes, the configurations alternating: raw seconds of
`cli.main` and the process's peak RSS, on a 2-vCPU Xeon (2 MiB L2 per core)
with OpenBLAS on 2 threads.  "sweep" is the benchmark's phase sweep,
``dynamics --lambda 6 --p 0.3 --N 1000 --T-grid 10,100,1000,3000
--random-thetas 7`` (8 boxes of 2001 sites); "N 4096" is ``dynamics --lambda 6
--p 0.3 --N 4096 --T-grid 10,1000`` (one box of 8193 sites).

    _SECULAR_CHUNK   sweep            N 4096
    (leaf 96)
    2^14             3.48 s  62.1 MB  6.47 s  66.1 MB
    2^15             2.98 s  62.4 MB  5.70 s  66.2 MB
    2^16             3.27 s  63.2 MB  5.08 s  66.8 MB
    2^17             3.09 s  64.2 MB  5.10 s  68.8 MB
    2^18             3.12 s  69.1 MB  4.65 s  71.1 MB
    2^19             3.15 s  77.3 MB  4.53 s  75.1 MB
    2^20             3.26 s  91.9 MB  4.73 s  95.8 MB
    2^20, leaf 16    3.63 s  91.9 MB  4.98 s  95.8 MB

    _LEAF_SIZE       sweep            N 4096    merges, roots
    (chunk 2^18)                                (2001 sites)
    16               3.66 s  68.9 MB  5.21 s    127, 13,772
    32               3.17 s  69.1 MB  4.84 s     63, 11,841
    48               3.28 s  69.1 MB  4.83 s     63, 11,841
    64               2.98 s  69.1 MB  4.71 s     31,  9,863
    96               3.08 s  69.1 MB  4.79 s     31,  9,863
    128              3.05 s  68.9 MB  4.40 s     15,  7,882

A second leaf sweep, 7 processes each, read:

    _LEAF_SIZE       sweep            N 4096    merges, roots
    64               3.19 s  69.1 MB  4.73 s     31,  9,863
    96               3.11 s  69.0 MB  4.81 s     31,  9,863
    128              3.11 s  68.9 MB  4.86 s     15,  7,882
    192              3.01 s  69.1 MB  4.77 s     15,  7,882
    256              3.79 s  69.5 MB  4.82 s      7,  5,895

A block of the secular passes is k poles by `_SECULAR_CHUNK` // k roots.
The largest merge of the 8193-site box keeps k = 8065, and there the two
passes took 1.12, 0.94, 0.96, 0.87 and 0.77 s at 2^16 to 2^20 entries (8 to
130 roots per block).  At 2^18 entries, 2 MiB per buffer, that box still
runs faster than with the former 2^20 entries and 16-site leaves.  The
phase sweep's peak RSS falls by a quarter, because each large merge of a
2001-site box (k up to 1963) fills both buffers.  A whole ``dstevd`` block
costs less than one split and merge up to a few hundred sites (125 sites:
0.75 against 1.36 ms; 500 sites: 10.7 against 12.2 ms), but from 48 to 192
sites both commands move within their run-to-run spread (the interquartile
ranges of the second sweep are 0.3 s on the phase sweep and 0.6 s on N
4096), and at 256 the phase sweep, whose leaves become 250-site blocks, is a
fifth slower.  96 sits in the middle of that plateau.

The tables predate four changes that took time off the sweep and moved no
bit: dlaed4 called through a bare pointer (`_secular_roots`), each block of
gaps built as a copy and an in-place subtract (`_column_minus_row`), the
products on one BLAS thread, and a helper thread (`_halves`) that takes the
dsterf reference and half of every merge of two or more blocks of roots
(`_secular_rows`).  The two halves of a merge are independent by
construction, as in Cuppen's and Gu and Eisenstat's own parallel versions.
Where a 2001-site box's time goes since (coupling 6, phase 0, 4 timescales,
OpenBLAS started with 2 threads; medians of 6 solves in one process, three
processes, each alternating with one of the code before the helper):
`site_spectrum` 0.12 to 0.13 s of wall time and 0.20 to 0.22 s of CPU time,
against 0.16 to 0.22 s and 0.20 to 0.21 s; the dlaed4 loops 0.055 to 0.058 s
against 0.074 to 0.098 s, the two secular passes 0.050 to 0.054 s against
0.072 to 0.090 s, the ``dstevd`` leaves 0.008 s; then the Abel sweep, on one
thread, 0.03 s.  The phase sweep's raw `cli.main` time fell from 1.87 to
1.53 s (10 alternating benchmark pairs, the change lower in all 10), and the
8193-site box's from 2.74 to 1.99 s (6 pairs, 6 lower); `BENCH_34.json` has
every run.  Dead ends, measured on the same machine:

- the helper running the passes while this thread runs the dlaed4 loop
  gained nothing, because each dlaed4 call hands the GIL over;
- each block split between the threads on shared buffers, with a hand-off
  per block, was slower and took about 1 s more CPU time on the sweep;
- ``tracked @ vecs`` split by column halves changed ``dynamics.csv``:
  OpenBLAS's result depends on the block's width, so each product runs on a
  whole block;
- a full pair of block buffers per thread took 23% off the sweep but added
  5 MB of peak RSS, and collecting the helper's pass-1 products per block
  held 8 MB on the 8193-site box; the split by pole rows needs neither;
- the Abel sweep split by timescale needs a third block buffer and saved
  about 4%.

The roots split pays most on large merges, where dlaed4's O(k) work per root
outweighs the hand-over of the GIL at each call.  A caller whose helper has
not started its half by the time its own half is done runs that half too:
the helper is then still on the dsterf check, which ends only after the
first large merges start.  The job left in the helper's queue is emptied
then; jobs that kept their closures there, with their merges' block buffers,
took the 8193-site box's peak RSS from 44 to 66 MB.

LAPACK comes from numpy's bundled OpenBLAS through ctypes (`_lapack`), so
no subcommand imports SciPy where numpy ships that library: importing
``scipy.linalg.cython_lapack`` after numpy costs about 0.23 s and 26 MB, and
loads ``numpy.ma``.  SciPy's capsules are the fallback for other numpy
builds, imported only when first needed.

Kept for the benchmark: `eigensystem`, `site_spectrum` with every site
tracked, whose validation then costs O(n^3) for n sites.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

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
# both chosen by measurement, see the module docstring
_SECULAR_CHUNK = 1 << 18  # entries per block of the secular passes and the Abel sweep
_LEAF_SIZE = 96  # blocks this small are solved whole by dstevd
_SQUARES = 1 << 13  # entries of each thread's scratch for the squares of a split pass 2


_ROUTINES = ("dlaed4", "dstevd", "dsterf")


def _numpy_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, opened by path: the handle numpy itself loaded."""
    top = os.path.dirname(np.__file__)
    for folder in (top + ".libs", os.path.join(top, ".dylibs")):
        try:
            names = sorted(os.listdir(folder))
        except OSError:
            continue
        for name in names:
            if name.startswith("libscipy_openblas64_"):
                return ctypes.CDLL(os.path.join(folder, name))
    return None


@functools.lru_cache(maxsize=None)
def _lapack(bundled: bool = True) -> SimpleNamespace:
    """dlaed4, dstevd and dsterf from numpy's OpenBLAS, else from SciPy.

    numpy's wheels ship an ILP64 OpenBLAS that exports the three routines as
    ``scipy_<name>_64_``; where it does, no SciPy module is imported.
    Elsewhere (MKL, Accelerate or a system BLAS), or with `bundled` False,
    they come from SciPy's capsules with LP64 integers.  The routines are
    bare C pointers.  No argument types are declared: ctypes passes the
    pointer objects that the callers build as they are, instead of checking
    and converting each on every call, and it releases the GIL for the call.

    Returns a namespace: `source` ("numpy" or "scipy"), the three routines,
    `integer`, the ctypes type of a Fortran INTEGER there, `tail`, the
    hidden string lengths that follow dstevd's own arguments in a direct
    Fortran call (none for the capsules, which are C wrappers), and
    `set_threads`, the ``openblas_set_num_threads_local`` of numpy's
    OpenBLAS, which runs numpy's matrix products, or None where numpy has
    no bundled OpenBLAS.  A namespace, not a class of this module: a class
    defined at import made `spectrum`, which never calls this module, about
    5% slower in fresh interpreters under PYTHONHASHSEED=0 (20 alternating
    pairs), an effect of the interpreter's layout, not of any work.
    """
    blas = _numpy_openblas()
    set_threads = getattr(blas, "openblas_set_num_threads_local", None)
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
    symbols = [f"scipy_{name}_64_" for name in _ROUTINES]
    if bundled and blas is not None and all(hasattr(blas, s) for s in symbols):
        pointers = [ctypes.cast(getattr(blas, s), ctypes.c_void_p).value for s in symbols]
        source, integer, tail = "numpy", ctypes.c_int64, (ctypes.c_size_t(1),)
    else:
        from scipy.linalg import cython_lapack

        get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", ctypes.pythonapi))
        get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi))
        capsules = [cython_lapack.__pyx_capi__[name] for name in _ROUTINES]
        pointers = [get_pointer(c, get_name(c)) for c in capsules]
        source, integer, tail = "scipy", ctypes.c_int, ()
    dlaed4, dstevd, dsterf = (ctypes.CFUNCTYPE(None)(p) for p in pointers)
    return SimpleNamespace(source=source, integer=integer, tail=tail, dlaed4=dlaed4,
                           dstevd=dstevd, dsterf=dsterf, set_threads=set_threads)


@contextmanager
def _one_blas_thread():
    """Run numpy's matrix products on one OpenBLAS thread, whatever the user set.

    OpenBLAS splits a product by its thread count, which moves the last bits
    of the result; on one thread the outputs are the same under every
    ``OPENBLAS_NUM_THREADS``.  The previous count comes back on exit.  The
    count is process-wide: the products that the helper thread of `_halves`
    runs for the caller go on one thread too, and solves run at once on
    several threads of one process can give back each other's counts in the
    wrong order.
    """
    set_threads = _lapack().set_threads
    if set_threads is None:
        yield
        return
    previous = set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    # sched_getaffinity is Linux-only; elsewhere count every CPU
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_HELPER: list = []  # the helper thread's job queue, once started
_HELPER_START = threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child has no helper thread
    os.register_at_fork(after_in_child=_HELPER.clear)


def _serve(jobs) -> None:
    """The helper thread: run each job not yet claimed, hand back its result or error."""
    while True:
        job, claim, out, done = jobs.get()
        if claim.acquire(blocking=False):
            try:
                out.append((job.pop()(), None))
            except BaseException as exc:  # raised again by the waiting caller
                out.append((None, exc))
            done.release()
        out = None  # an error's traceback holds the job's buffers


def _halves(mine, theirs):
    """Run theirs() on the helper thread and mine() here; return both results.

    With one CPU there is no helper, and both run here, mine() first.  The
    helper is a daemon thread with a job queue, started on first use, so it
    never holds up the interpreter's exit.  If the helper has not started
    theirs() when mine() returns, it is still busy with an earlier job (the
    dsterf check, say), and theirs() runs here instead; the queue then keeps
    only an emptied job, not the buffers that theirs() holds.  Otherwise
    this thread waits for it, also when mine() raised, and raises its
    exception if mine() returned.
    """
    if _cpus() < 2:
        return mine(), theirs()
    with _HELPER_START:
        if not _HELPER:
            import queue  # here: the other subcommands never load it

            _HELPER.append(queue.SimpleQueue())
            threading.Thread(target=_serve, args=(_HELPER[0],), name="quasitrace-helper",
                             daemon=True).start()
    job, claim, out, done = [theirs], threading.Lock(), [], threading.Lock()
    done.acquire()
    _HELPER[0].put((job, claim, out, done))
    try:
        here = mine()
    except BaseException:
        if claim.acquire(blocking=False):
            job.clear()
        else:
            done.acquire()
        raise
    if claim.acquire(blocking=False):
        return here, job.pop()()
    done.acquire()
    there, error = out[0]
    if error is not None:
        raise error
    return here, there


def _ptr(a: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(a.ctypes.data)


def _dsterf(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues of the tridiagonal (d, e), ascending, by LAPACK dsterf."""
    lib = _lapack()
    vals, off = np.array(d, dtype=float), np.array(e, dtype=float)  # both overwritten
    info = lib.integer(0)
    lib.dsterf(ctypes.byref(lib.integer(len(vals))), _ptr(vals), _ptr(off),
               ctypes.byref(info))
    if info.value != 0:
        raise AssertionError(f"dsterf failed (info={info.value})")
    return vals


def _dstevd(d: np.ndarray, e: np.ndarray):
    """Eigenvalues and eigenvectors (columns) of the tridiagonal (d, e), by dstevd.

    The workspace sizes are the ones SciPy's wrapper passes.
    """
    lib = _lapack()
    n = len(d)
    vals, off = np.array(d, dtype=float), np.append(e, 0.0)  # off: room for n = 1
    vecs = np.empty((n, n), order="F")
    work = np.empty(1 + 4 * n + n * n)
    iwork = np.empty(3 + 5 * n, dtype=lib.integer)
    info = lib.integer(0)
    lib.dstevd(ctypes.c_char_p(b"V"), ctypes.byref(lib.integer(n)), _ptr(vals), _ptr(off),
               _ptr(vecs), ctypes.byref(lib.integer(n)),
               _ptr(work), ctypes.byref(lib.integer(len(work))),
               _ptr(iwork), ctypes.byref(lib.integer(len(iwork))), ctypes.byref(info),
               *lib.tail)
    if info.value != 0:
        raise AssertionError(f"dstevd failed on a {n}-site block (info={info.value})")
    return vals, vecs


def _dlaed4_roots(poles, z, rho, lo: int, hi: int):
    """Roots lo..hi-1 of `_secular_roots`, as lists: root, origin, offset.

    The arguments are built here, so that two threads can run two root ranges.
    """
    k = len(poles)
    roots, origin, offset = [], [], []
    lib = _lapack()
    delta = (ctypes.c_double * k)()
    i_c, root, info = lib.integer(0), ctypes.c_double(0.0), lib.integer(0)
    args = (ctypes.byref(lib.integer(k)), ctypes.byref(i_c), _ptr(poles), _ptr(z), delta,
            ctypes.byref(ctypes.c_double(rho)), ctypes.byref(root), ctypes.byref(info))
    dlaed4 = lib.dlaed4
    for i in range(lo, hi):
        i_c.value = i + 1
        dlaed4(*args)
        if info.value != 0:
            raise AssertionError(f"dlaed4 did not converge on root {i + 1} of {k}")
        # root i lies between poles i and i + 1 (beyond the last pole for i = k - 1)
        o = i if i == k - 1 or abs(delta[i]) <= abs(delta[i + 1]) else i + 1
        roots.append(root.value)
        origin.append(o)
        offset.append(-delta[o])
    return roots, origin, offset


def _secular_roots(poles: np.ndarray, z: np.ndarray, rho: float, split: bool = False):
    """Roots of 1 + rho sum z_i^2 / (poles_i - x) = 0 for increasing poles.

    Returns the roots and, per root, the nearest pole and the root's offset
    from it, as dlaed4 represents them.  `_root_gaps` rebuilds every
    pole-minus-root difference from those: |poles_i - origin| is at most
    twice |poles_i - root|, so the difference keeps full relative accuracy.

    One dlaed4 call per root, from Python, with the integer type of the
    source `_lapack` picked.  dlaed4 reads `poles` and `z` through raw
    pointers, so both must be C-contiguous float64.  The eight pointer
    arguments are built once per root range, and `delta` is a ctypes array
    whose entries read as Python floats.  A call through the bare pointer
    costs about 0.7 us against 2.1 us through a prototype that declares the
    argument types (k = 5, where dlaed4 itself does next to nothing).  With
    `split`, the helper thread finds the upper half of the roots while this
    thread finds the lower half (`_halves`); each root is found alone, so the
    results do not change.  LAPACK dlaed9, which finds the same roots and the
    Gu-Eisenstat vectors in one Fortran call, took 0.24 s on a 2001-site box
    with 16-site leaves (127 merges, 13,772 roots), where this loop took 0.10 s
    on one thread, and needs two k x k arrays, 62 MB at k = 1963.
    """
    k = len(poles)
    for a in (poles, z):
        if a.dtype != np.float64 or not a.flags.c_contiguous or len(a) != k:
            raise AssertionError("dlaed4 needs C-contiguous float64 poles and weights")
    if split:
        low, high = _halves(lambda: _dlaed4_roots(poles, z, rho, 0, k // 2),
                            lambda: _dlaed4_roots(poles, z, rho, k // 2, k))
        roots, origin, offset = (a + b for a, b in zip(low, high))
    else:
        roots, origin, offset = _dlaed4_roots(poles, z, rho, 0, k)
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

    When the roots take two or more blocks (k > 512 at 2^18 entries) and the
    process may use two CPUs, the helper thread of `_halves` takes half of
    every stage, and nothing moves a bit.  It finds the upper half of the
    roots (`_secular_roots`).  In the first pass it forms the weights of the
    upper half of the poles, in the upper half of each buffer, block after
    block in the same order: w_i depends on row i alone.  In the second pass
    it takes the upper half of the blocks of roots, with the second buffer
    for its eigenvectors; each thread then sums the squares in a scratch of
    `_SQUARES` entries (`_square_sums`).  The products with the tracked rows
    run on whole blocks: OpenBLAS's result depends on the block's width.
    """
    k = len(poles)
    if k <= 2:
        # dlaed4 returns eigenvector entries, not differences, for k <= 2
        lam, vecs = np.linalg.eigh(np.diag(poles) + rho * np.outer(z, z))
        return lam, tracked @ vecs
    chunk = max(1, _SECULAR_CHUNK // k)
    starts = range(0, k, chunk)
    split = len(starts) > 1 and _cpus() > 1
    roots, origin, offset = _secular_roots(poles, z, rho, split)
    gap_buf, aux_buf = np.empty((2, k * min(chunk, k)))
    if split:
        h = k // 2
        w = np.concatenate(_halves(
            lambda: _weight_rows(poles, origin, offset, chunk, 0, h, gap_buf, aux_buf),
            lambda: _weight_rows(poles, origin, offset, chunk, h, k,
                                 gap_buf[h * chunk:], aux_buf[h * chunk:])))
    else:
        w = _weight_rows(poles, origin, offset, chunk, 0, k, gap_buf, aux_buf)
    if not (np.all(np.isfinite(w)) and np.all(w < 0.0)):
        raise AssertionError("secular roots do not interlace the poles")
    zhat = np.copysign(np.sqrt(-w), z)
    rows = np.empty((tracked.shape[0], k))
    if split:
        half = (len(starts) + 1) // 2
        # a whole column fits a scratch, and two rows of any block
        scratch = np.empty((2, max(_SQUARES, k, 2 * chunk)))
        _halves(lambda: _vector_rows(poles, origin, offset, zhat, tracked, chunk,
                                     starts[:half], gap_buf, scratch[0], rows),
                lambda: _vector_rows(poles, origin, offset, zhat, tracked, chunk,
                                     starts[half:], aux_buf, scratch[1], rows))
    else:
        _vector_rows(poles, origin, offset, zhat, tracked, chunk, starts, gap_buf, aux_buf, rows)
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
        vals, vecs = _dstevd(d, e)
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
    validated by `_validate_site_spectrum` against LAPACK dsterf.  With two
    or more CPUs the dsterf solve runs on the helper thread of `_halves`
    while the merges run here: ctypes lets go of the GIL for the call, so it
    takes the core the one BLAS thread leaves idle.  The helper then takes
    half of every large merge (`_secular_rows`).  An error on the helper is
    raised again here.  `stats` records the box size, the poles deflated in
    the merges (of each kind) and the three defects.
    """
    tracked = sorted({int(n) for n in sites} | {1})
    rows_at = np.array([_box_index(n, trunc.N) for n in tracked])
    with _one_blas_thread():
        (w, rows, (small, close)), reference = _halves(
            lambda: _split_merge(trunc.diagonal, trunc.offdiagonal, rows_at),
            lambda: _dsterf(trunc.diagonal, trunc.offdiagonal))
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
    with _one_blas_thread():
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


def _certified_box(lam: float, theta: PhasePoint, ts: list, n_box: int, top: int,
                   fixed: bool = False):
    """Abel site masses at |n| <= top and the edges, from the first certified box.

    Solves [-n_box, n_box]; unless `fixed`, doubles it until every bound
    T sqrt(e_T + EDGE_ROUNDING) is at most TRUNC_TOL, and past MAX_BOX raises
    ValueError with the best bound reached; a T that no box can certify
    raises before the first solve.  Returns the masses per T (dicts
    by site), the bounds, the solver's stats and the boxes tried as
    (N, worst bound) pairs.
    """
    if not fixed and max(ts) * math.sqrt(EDGE_ROUNDING) > TRUNC_TOL:
        raise ValueError(
            f"no box certifies T={max(ts):g}: T*sqrt(EDGE_ROUNDING) exceeds the "
            f"tolerance {TRUNC_TOL:g} beyond T={TRUNC_TOL / math.sqrt(EDGE_ROUNDING):g}")
    steps = []
    while True:
        reach = min(top, n_box)
        sites = list(range(-reach, reach + 1)) + ([-n_box, n_box] if reach < n_box else [])
        es = site_spectrum(build_truncation(n_box, lam, theta), sites)
        per_t = [dict(zip(sites, row)) for row in abel_site_masses(es, sites, ts)]
        bounds = [t * math.sqrt(m[-n_box] + m[n_box] + EDGE_ROUNDING)
                  for t, m in zip(ts, per_t)]
        steps.append((n_box, max(bounds)))
        if fixed or max(bounds) <= TRUNC_TOL:
            return per_t, bounds, es.stats, tuple(steps)
        if n_box >= MAX_BOX:
            best_n, best = min(steps, key=lambda step: step[1])
            raise ValueError(
                f"no box up to N={MAX_BOX} certifies the masses at lambda={lam}: "
                f"best T*sqrt(edge mass + EDGE_ROUNDING) {best:.2e} at N={best_n}, "
                f"tolerance {TRUNC_TOL:g}")
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
    if lam <= 8.0:
        raise ValueError("exponent calibration expects a coupling above 8")
    ts = sorted(float(T) for T in T_grid)
    top = math.floor(max(ts) ** max(_TREND_P_GRID)) + 1
    per_t, _, _, steps = _certified_box(lam, theta, ts, 2 * _BOX_MARGIN, top)
    n_box = steps[-1][0]
    for p in _TREND_P_GRID:
        table = [(p, t, _window_mass(m, min(t**p, n_box))) for t, m in zip(ts, per_t)]
        if all(mass >= _TREND_FLOOR for _, _, mass in table):
            return TrendRow(lam, p, tuple(table), steps)
    raise AssertionError(f"no exponent on the grid confines coupling {lam}")
