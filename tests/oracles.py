"""Reference implementations the tests hold the package to.

`XReal` is an extended-range real scalar, value = m * 2**e, one Python object
per value.  It is the reference the (m, e) arrays of `xfloat` are held to bit
for bit: `rel_gap` compares extended-range values with it, `xreal_rows` reads
the (m, e) arrays that `transfer` returns as XReals, `parity_ratios` and
`margin_gate` are the XReal gates that `transfer.phase_trace_parity` and
`transfer.norm_trace_margin` run on those arrays, and the tests run the trace
recursion of `spectrum` in it.
Scalar transfer products are plain (a, b, c, d, e) tuples, 2**e * [[a, b],
[c, d]].  `scalar_mul`, `scalar_add` and `scalar_norm_sq` are the scalar layer
that specifies `transfer._sweep`: each lane keeps their values, and its traces,
derivative traces, norm sums and peaks their bits (the docstring of
`test_transfer_lanes` argues why).  The time-domain route (`evolve`,
`windowed_norm`, `abel_average`) is what the closed-form Abel masses of
`dynamics` are checked against.
`beatty_block` codes the rotation by the true golden number, exactly.
`secular_roots` is the dlaed4 loop of the divide-and-conquer solver as it ran
through a typed ctypes prototype.  `dense_spectrum` is the dense reference
`site_spectrum` is held to: every eigenpair by SciPy's ``eigh_tridiagonal``,
MRRR (``stemr``) with bisection and inverse iteration (``stebz``) as fallback,
validated by residuals, the Gershgorin interval and orthogonality probes; it
calls nothing of the solver it checks.
"""

import ctypes
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from quasitrace import dynamics as DY
from quasitrace import lapack as LA
from quasitrace import transfer as TR
from quasitrace.phase import PRECISION_BITS
from quasitrace.words import fib_number, rotation_block
from quasitrace.xfloat import sci

ABEL_TAIL_EPS = 1e-8


# ---------------------------------------------------------------------------
# extended-range reals
# ---------------------------------------------------------------------------

class XReal:
    """value = m * 2**e, |m| in [0.5, 1) or m == 0."""

    __slots__ = ("m", "e")

    def __init__(self, m: float = 0.0, e: int = 0):
        if m == 0.0:
            self.m = 0.0
            self.e = 0
        else:
            frac, ex = math.frexp(m)
            self.m = frac
            self.e = e + ex

    @classmethod
    def _raw(cls, m: float, e: int) -> "XReal":
        out = object.__new__(cls)
        out.m = m
        out.e = e
        return out

    # -- arithmetic -------------------------------------------------------

    def __mul__(self, other):
        o = other if isinstance(other, XReal) else XReal(float(other))
        if self.m == 0.0 or o.m == 0.0:
            return XReal()
        return XReal(self.m * o.m, self.e + o.e)

    __rmul__ = __mul__

    def __add__(self, other):
        o = other if isinstance(other, XReal) else XReal(float(other))
        if self.m == 0.0:
            return o
        if o.m == 0.0:
            return self
        if self.e >= o.e:
            hi, lo = self, o
        else:
            hi, lo = o, self
        shift = lo.e - hi.e
        if shift < -1080:
            return hi
        return XReal(hi.m + math.ldexp(lo.m, shift), hi.e)

    __radd__ = __add__

    def __neg__(self):
        return XReal._raw(-self.m, self.e)

    def __sub__(self, other):
        o = other if isinstance(other, XReal) else XReal(float(other))
        return self + (-o)

    def __rsub__(self, other):
        return XReal(float(other)) + (-self)

    def __abs__(self):
        return XReal._raw(abs(self.m), self.e)

    def sqrt(self) -> "XReal":
        if self.m < 0.0:
            raise ValueError("sqrt of a negative extended real")
        if self.m == 0.0:
            return XReal()
        if self.e % 2 == 0:
            return XReal(math.sqrt(self.m), self.e // 2)
        return XReal(math.sqrt(2.0 * self.m), (self.e - 1) // 2)

    def pow_3_2(self) -> "XReal":
        """x**1.5 for nonnegative x, via x * sqrt(x)."""
        return self * self.sqrt()

    # -- comparisons --------------------------------------------------------

    def _cmp(self, other) -> int:
        o = other if isinstance(other, XReal) else XReal(float(other))
        d = self - o
        if d.m > 0:
            return 1
        if d.m < 0:
            return -1
        return 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (XReal, int, float)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        # by value, as `__eq__` compares: XReal(1.0) == 1.0, so they hash alike
        return hash(float(self))

    # -- conversions ----------------------------------------------------------

    def __float__(self) -> float:
        if self.m == 0.0:
            return 0.0
        if self.e > 1024:
            return math.inf if self.m > 0 else -math.inf
        if self.e < -1074:
            return 0.0
        return math.ldexp(self.m, self.e)

    def __bool__(self) -> bool:
        return self.m != 0.0

    def log2(self) -> float:
        if self.m == 0.0:
            raise ValueError("log of zero")
        return self.e + math.log2(abs(self.m))

    def sci(self) -> str:
        """Deterministic scientific-notation string, usable in CSV output."""
        return sci(self.m, self.e)

    def __repr__(self):
        return f"XReal({self.sci()})"


def xreal(x) -> XReal:
    return x if isinstance(x, XReal) else XReal(float(x))


def rel_gap(a, b, floor: float = 1.0) -> float:
    """|a - b| relative to max(floor, |a|, |b|), exact at any magnitude."""
    xa, xb = xreal(a), xreal(b)
    diff = abs(xa - xb)
    scale = max(abs(xa), abs(xb), xreal(floor))
    if diff.m == 0.0:
        return 0.0
    return float(2.0 ** min(diff.log2() - scale.log2(), 64.0))


def xreal_rows(pair):
    """An (m, e) pair of arrays as XReals, nested as the arrays are: for a
    `TraceTable` a list per energy, or one list where the table is of one
    energy; one XReal for 0-d arrays or numpy scalars."""
    def build(m, e):
        return [build(a, b) for a, b in zip(m, e)] if isinstance(m, list) else XReal(m, e)
    return build(*(a.tolist() for a in pair))


def margin_gate(total: XReal, deriv: XReal) -> tuple[XReal, bool]:
    """The norm/derivative margin of `transfer.norm_trace_margin` one XReal at
    a time, and whether it falls below -MARGIN_TOL * scale."""
    lhs = 4.0 * total.pow_3_2()
    rhs = abs(deriv)
    margin = lhs - rhs
    return margin, margin < -TR.MARGIN_TOL * (lhs + rhs)


def gap_ratio(x: XReal, ref: XReal, k: int, peak: int, ref_peak: int) -> float:
    """|x - ref| over its allowance in the error model of `transfer.phase_trace_parity`."""
    gap = abs(x - ref)
    if not gap:
        return 0.0
    rounding = TR.TRACE_ROUNDING * fib_number(k) * 2.0**-53
    allowance = (TR.TRACE_EQUALITY_TOL * max(abs(x), abs(ref), XReal(1.0))
                 + XReal(rounding, 2 * peak) + XReal(rounding, 2 * ref_peak))
    return 2.0 ** min(gap.log2() - allowance.log2(), 64.0)


def parity_ratios(table, refs) -> list[float]:
    """Per level the worst `gap_ratio` over the energies of a table against its
    phase-zero references, one XReal at a time."""
    rows, ref_rows = xreal_rows(table.traces), xreal_rows(refs.traces)
    return [max(gap_ratio(row[k], ref[k], k, int(peak[k]), int(ref_peak[k]))
                for row, peak, ref, ref_peak in zip(rows, table.peaks, ref_rows, refs.peaks))
            for k in range(len(ref_rows[0]))]


# ---------------------------------------------------------------------------
# exact coding of the golden rotation
# ---------------------------------------------------------------------------

def _orbit_floor(m: int, t: int) -> int:
    """floor(m*omega + t/2**B), B = PRECISION_BITS, for omega = (sqrt(5) - 1)/2.

    Scaled by 2**B the point is m*sqrt(5)*2**(B-1) - m*2**(B-1) + t.  Its
    irrational part is +-sqrt(5*m**2*2**(2B-2)), whose floor isqrt gives: for
    m < 0 it is -isqrt - 1, since 5*m**2*2**(2B-2) is no square for m != 0.
    """
    root = math.isqrt(5 * m * m << (2 * PRECISION_BITS - 2))
    if m < 0:
        root = -root - 1
    return (root - (m << (PRECISION_BITS - 1)) + t) >> PRECISION_BITS


def beatty_block(n_lo: int, n_hi: int, theta) -> str:
    """The codings v(n_lo) .. v(n_hi) of the rotation by omega, as "0"/"1".

    v(n) = floor((n+1)*omega + theta) - floor(n*omega + theta) with the true
    omega and theta = theta.raw / 2**B: the [1 - omega, 1) coding, decided
    exactly however close a point comes to an endpoint.
    """
    floors = [_orbit_floor(m, theta.raw) for m in range(n_lo, n_hi + 2)]
    return "".join(str(b - a) for a, b in zip(floors, floors[1:]))


# ---------------------------------------------------------------------------
# secular roots through a typed dlaed4 prototype
# ---------------------------------------------------------------------------

def secular_roots(poles: np.ndarray, z: np.ndarray, rho: float):
    """(roots, origin, offset) as `dynamics._secular_roots` defines them.

    The same LAPACK dlaed4, called through a prototype that declares its
    eight pointer types, on numpy arrays, with `delta` read as numpy scalars.
    """
    lib = LA._lapack()
    int_p, dbl_p = ctypes.POINTER(lib.integer), ctypes.POINTER(ctypes.c_double)
    proto = ctypes.CFUNCTYPE(None, int_p, int_p, dbl_p, dbl_p, dbl_p, dbl_p, dbl_p, int_p)
    dlaed4 = proto(ctypes.cast(lib.dlaed4, ctypes.c_void_p).value)
    k = len(poles)
    roots, origin, offset = [], [], []
    delta = np.empty(k)
    i_c, root, info = lib.integer(0), ctypes.c_double(0.0), lib.integer(0)
    args = (ctypes.byref(lib.integer(k)), ctypes.byref(i_c),
            poles.ctypes.data_as(dbl_p), z.ctypes.data_as(dbl_p),
            delta.ctypes.data_as(dbl_p), ctypes.byref(ctypes.c_double(rho)),
            ctypes.byref(root), ctypes.byref(info))
    for i in range(k):
        i_c.value = i + 1
        dlaed4(*args)
        if info.value != 0:
            raise AssertionError(f"dlaed4 did not converge on root {i + 1} of {k}")
        o = i if i == k - 1 or abs(delta[i]) <= abs(delta[i + 1]) else i + 1
        roots.append(root.value)
        origin.append(o)
        offset.append(-delta[o])
    return np.array(roots), np.array(origin, dtype=np.intp), np.array(offset)


# ---------------------------------------------------------------------------
# dense eigendecomposition of a truncation
# ---------------------------------------------------------------------------

MRRR = ("stemr", "stebz")  # MRRR, with bisection and inverse iteration as fallback
BISECTION = ("stebz",)


def _validate_dense(d, lam, w, V) -> None:
    """Residual bounds, the Gershgorin interval of a potential in {0, lam}, and
    orthogonality probes of the eigenpairs (w, V) of the tridiagonal (d, 1)."""
    scale = abs(lam) + 2.0
    if w[0] < -2.0 - 1e-9 * scale or w[-1] > lam + 2.0 + 1e-9 * scale:
        raise AssertionError("eigenvalues escaped the Gershgorin interval")
    worst = 0.0
    for j0 in range(0, len(w), 1024):
        block = slice(j0, min(j0 + 1024, len(w)))
        hv = d[:, None] * V[:, block]
        hv[1:] += V[:-1, block]
        hv[:-1] += V[1:, block]
        hv -= V[:, block] * w[block][None, :]
        worst = max(worst, float(np.sqrt((hv * hv).sum(axis=0)).max()))
    if worst > DY.RESIDUAL_TOL * scale:
        raise AssertionError(f"eigenpair residual {worst:.3e} beyond tolerance")
    # orthogonality probes: the spectrum clusters tightly, which defeats some
    # LAPACK drivers; row norms and a sampled Gram block catch that cheaply
    mid = len(d) // 2
    span = min(64, mid)
    row_err = np.abs(np.linalg.norm(V[mid - span: mid + span + 1, :], axis=1) - 1.0).max()
    if row_err > 1e-9:
        raise AssertionError(f"eigenvector rows deviate from orthonormality: {row_err:.3e}")
    step = max(1, len(w) // 200)
    sample = V[:, ::step]
    gram = sample.T @ sample
    gram_err = np.abs(gram - np.eye(gram.shape[0])).max()
    if gram_err > 1e-9:
        raise AssertionError(f"sampled eigenvector Gram defect {gram_err:.3e}")


def dense_eigenpairs(d, lam: float, drivers=MRRR):
    """Eigenvalues and eigenvector columns of the tridiagonal (d, 1), validated.

    Tries the drivers in order and falls back to the next one when LAPACK
    refuses to converge or the result fails `_validate_dense`.
    """
    last_error: Exception | None = None
    for driver in drivers:
        try:
            w, V = eigh_tridiagonal(d, np.ones(len(d) - 1), lapack_driver=driver)
            _validate_dense(d, lam, w, V)
            return w, V
        except (np.linalg.LinAlgError, AssertionError) as exc:
            last_error = exc
    raise AssertionError(f"no tridiagonal eigensolver produced a valid system: {last_error}")


def dense_spectrum(trunc, drivers=MRRR) -> DY.SiteSpectrum:
    """`dense_eigenpairs` of a truncation as a `SiteSpectrum` that tracks every site."""
    w, V = dense_eigenpairs(trunc.diagonal, trunc.lam, drivers)
    return DY.SiteSpectrum(trunc, w, tuple(range(-trunc.N, trunc.N + 1)), V,
                           {"size": trunc.size})


# ---------------------------------------------------------------------------
# scalar transfer products
# ---------------------------------------------------------------------------

def scalar_mul(m1, m2, limit=TR._RENORM):
    """The product m1 * m2, rescaled into [0.5, 1) where an entry passes `limit`.

    `limit` is the rescale threshold of the sweep: 2**256, or the lower
    `transfer._lane_limit` of the energy, so that the next factor cannot
    overflow.
    """
    a1, b1, c1, d1, e1 = m1
    a2, b2, c2, d2, e2 = m2
    a = a1 * a2 + b1 * c2
    b = a1 * b2 + b1 * d2
    c = c1 * a2 + d1 * c2
    d = c1 * b2 + d1 * d2
    mx = max(abs(a), abs(b), abs(c), abs(d))
    if mx > limit:
        ex = math.frexp(mx)[1]
        s = math.ldexp(1.0, -ex)
        return (a * s, b * s, c * s, d * s, e1 + e2 + ex)
    return (a, b, c, d, e1 + e2)


def scalar_add(m1, m2):
    """The sum m1 + m2, the operand of the smaller exponent scaled by 2**shift,
    rescaled into [0.5, 1) where an entry passes 2**256; the larger operand
    untouched where shift < -1080."""
    a1, b1, c1, d1, e1 = m1
    a2, b2, c2, d2, e2 = m2
    if e1 < e2:
        a1, b1, c1, d1, e1, a2, b2, c2, d2, e2 = a2, b2, c2, d2, e2, a1, b1, c1, d1, e1
    shift = e2 - e1
    if shift < -1080:
        return (a1, b1, c1, d1, e1)
    s = math.ldexp(1.0, shift)
    a = a1 + a2 * s
    b = b1 + b2 * s
    c = c1 + c2 * s
    d = d1 + d2 * s
    mx = max(abs(a), abs(b), abs(c), abs(d))
    if mx > TR._RENORM:
        ex = math.frexp(mx)[1]
        sc = math.ldexp(1.0, -ex)
        return (a * sc, b * sc, c * sc, d * sc, e1 + ex)
    return (a, b, c, d, e1)


def scalar_norm_sq(m) -> tuple[float, int]:
    """Squared spectral norm as a normalized (m, e) pair, closed form from
    tr(A^T A) and det(A).

    The copy is rescaled so the largest entry sits in [0.5, 1); squares then
    stay comfortably inside float range regardless of the carried exponent.
    """
    a, b, c, d, e = m
    mx = max(abs(a), abs(b), abs(c), abs(d))
    if mx == 0.0:
        return 0.0, 0
    ex = math.frexp(mx)[1]
    # ldexp on each entry, not a product with 2**-ex: that factor overflows
    # when the largest entry is subnormal
    a, b, c, d = (math.ldexp(v, -ex) for v in (a, b, c, d))
    t = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = t * t - 4.0 * det * det
    if disc < 0.0:
        disc = 0.0
    norm, ex2 = math.frexp(0.5 * (t + math.sqrt(disc)))
    return norm, 2 * (e + ex) + ex2


def local_matrix(m: int, E: float, lam: float, theta) -> tuple:
    """One-site propagation matrix [[E - V(m), -1], [1, 0]]."""
    return (E - lam if rotation_block(m, m, theta) == "1" else E, -1.0, 1.0, 0.0, 0)


def transfer_product(n: int, E: float, lam: float, theta) -> tuple:
    """Ordered product over sites 1..n (n >= 1) or inverse factors over n+1..0 (n <= -1).

    A `scalar_mul` chain over `local_matrix` factors, T**-1 = [[0, 1], [-1, t]].
    """
    if n == 0:
        raise ValueError("site count must be nonzero")
    E, m = float(E), (1.0, 0.0, 0.0, 1.0, 0)
    for ch in rotation_block(*((1, n) if n > 0 else (n + 1, 0)), theta):
        t = E - lam if ch == "1" else E  # as in `local_matrix`
        m = (scalar_mul((t, -1.0, 1.0, 0.0, 0), m) if n > 0
             else scalar_mul(m, (0.0, 1.0, -1.0, t, 0)))
    return m


def entries(m) -> tuple:
    """Plain-float entries; inf if the scale exceeds float range."""
    s = 2.0 ** m[4] if -1020 < m[4] < 1020 else math.inf
    return tuple(v * s for v in m[:4])


def trace(m) -> XReal:
    return XReal(m[0] + m[3], m[4])


def norm_sq(m) -> XReal:
    """`scalar_norm_sq` of a scalar product as an XReal."""
    return XReal(*scalar_norm_sq(m))


def det(m) -> XReal:
    return XReal(m[0] * m[3] - m[1] * m[2], 2 * m[4])


# ---------------------------------------------------------------------------
# time-domain dynamics on a spectrum that tracks every site
# ---------------------------------------------------------------------------

def evolve(es, t: float, site: int = 1) -> np.ndarray:
    """Amplitudes over sites -N..N of the unit vector at `site` after time t."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if len(es.sites) != es.trunc.size:
        raise ValueError("evolution needs the eigenvector entries at every site")
    c = es.site_rows([site])[0]
    return es.rows @ (np.exp(-1j * t * es.eigenvalues) * c)


def windowed_norm(amplitudes: np.ndarray, L: float) -> float:
    """Probability inside radius L with fractional weight at the window edge.

    Sums |psi(n)|^2 over |n| <= floor(L) and adds (L - floor(L)) times the
    probabilities at the two sites just outside.  Both edge sites must exist.
    """
    if L < 0:
        raise ValueError("window radius must be nonnegative")
    N, fl = len(amplitudes) // 2, math.floor(L)
    if fl + 1 > N:
        raise DY.WindowError(f"window radius {L} exceeds the box (N={N})")
    prob = np.abs(amplitudes) ** 2
    total = float(prob[N - fl: N + fl + 1].sum())
    if L > fl:
        total += (L - fl) * float(prob[N - fl - 1] + prob[N + fl + 1])
    return total


def abel_average(A, T: float, eps_tail: float = ABEL_TAIL_EPS,
                 max_step: float = 0.05) -> float:
    """Exponentially weighted time average (2/T) int_0^inf exp(-2t/T) A(t) dt.

    Composite Simpson rule up to the cutoff where the weight has decayed to
    eps_tail, with step small enough to resolve every Bohr frequency of the
    bounded operators at hand; the tail is closed analytically with the last
    sampled value.  A takes the array of sample times and returns the values
    there, or one value for all of them.
    """
    if T <= 0:
        raise ValueError("timescale must be positive")
    t_max = 0.5 * T * math.log(1.0 / eps_tail)
    h = min(T / 200.0, max_step)
    n = int(math.ceil(t_max / h))
    n += n % 2
    ts = np.linspace(0.0, n * h, n + 1)
    vals = np.broadcast_to(np.asarray(A(ts), dtype=float), ts.shape)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0
    integral = float(weights @ (np.exp(-2.0 * ts / T) * vals))
    tail = 0.5 * T * math.exp(-2.0 * ts[-1] / T) * vals[-1]
    return (2.0 / T) * (integral + tail)
