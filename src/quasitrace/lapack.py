"""LAPACK through ctypes, one BLAS thread for numpy's products, and a helper thread.

LAPACK comes from numpy's bundled OpenBLAS through ctypes (`_lapack`), so
no subcommand imports SciPy where numpy ships that library: importing
``scipy.linalg.cython_lapack`` after numpy costs about 0.23 s and 26 MB, and
loads ``numpy.ma``.  SciPy's capsules are the fallback for other numpy
builds, imported only when first needed.  `halves` is the one place that
reads the CPU count.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

__all__ = ["dlaed4_roots", "dstevd", "dsterf", "halves", "one_blas_thread"]

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
    bare C pointers, called without declared argument types, which ctypes
    would check and convert on every call (a dlaed4 call costs about 0.7 us,
    against 2.1 us through a typed prototype); ctypes releases the GIL for
    each call.

    Returns a namespace: `source` ("numpy" or "scipy"), the three routines,
    `integer`, the ctypes type of a Fortran INTEGER there, `tail`, the
    hidden string lengths that follow dstevd's own arguments in a direct
    Fortran call (none for the capsules, which are C wrappers), and
    `set_threads`, the ``openblas_set_num_threads_local`` of numpy's
    OpenBLAS, which runs numpy's matrix products, or None where numpy has
    no bundled OpenBLAS.  A namespace, not a class: a class defined at
    import made `spectrum` about 5% slower in fresh interpreters, an effect
    of the interpreter's layout, not of any work.
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
def one_blas_thread():
    """Run numpy's matrix products on one OpenBLAS thread, whatever the user set.

    OpenBLAS splits a product by its thread count, which moves the last bits
    of the result.  The previous count comes back on exit.  The count is
    process-wide, so the helper's products run on one thread too, and
    contexts that open and close on two threads at once can close out of
    order: the first to close gives the user's count back while the other
    thread still runs products.  A caller whose two threads both run
    products (`dynamics._certified_boxes`) therefore holds one context
    around all of that work; every context nested in it finds 1 and gives
    back 1.
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


def halves(mine, theirs):
    """Run theirs() on the helper thread and mine() here; return both results.

    With one CPU there is no helper, and both run here, mine() first.  The
    helper is a daemon thread with a job queue, started on first use, so it
    never holds up the interpreter's exit.  If the helper has not started
    theirs() when mine() returns, it is still busy with an earlier job, and
    theirs() runs here instead; the queue then keeps only an emptied job,
    not the buffers that theirs() holds (jobs that kept them took an
    8193-site solve's peak RSS from 44 to 66 MB).  Otherwise this thread
    waits for it, also when mine() raised, and raises its exception if
    mine() returned.
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


def dsterf(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues of the tridiagonal (d, e), ascending, by LAPACK dsterf."""
    lib = _lapack()
    vals, off = np.array(d, dtype=float), np.array(e, dtype=float)  # both overwritten
    info = lib.integer(0)
    lib.dsterf(ctypes.byref(lib.integer(len(vals))), _ptr(vals), _ptr(off),
               ctypes.byref(info))
    if info.value != 0:
        raise AssertionError(f"dsterf failed (info={info.value})")
    return vals


def dstevd(d: np.ndarray, e: np.ndarray):
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


def dlaed4_roots(poles, z, rho, lo: int, hi: int):
    """Roots lo..hi-1 of 1 + rho sum z_i^2 / (poles_i - x) = 0, by LAPACK dlaed4.

    `poles` increase; dlaed4 reads them and `z` through raw pointers, so both
    must be C-contiguous float64.  Returns three lists: the roots and, per
    root, the nearest pole and the root's offset from it.  One call per
    root, from Python, with arguments built here, so that two threads can
    run two root ranges; `delta` is a ctypes array read as Python floats.
    LAPACK dlaed9 finds the same roots and vectors in one call, but took
    0.24 s against this loop's 0.10 s on a 2001-site box, and needs two
    k x k arrays.
    """
    k = len(poles)
    for a in (poles, z):
        if a.dtype != np.float64 or not a.flags.c_contiguous or len(a) != k:
            raise AssertionError("dlaed4 needs C-contiguous float64 poles and weights")
    if not 0 <= lo <= hi <= k:
        raise ValueError(f"roots {lo}..{hi - 1} outside the {k} roots")
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
