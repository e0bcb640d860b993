"""Reference implementations the tests hold the package to.

Scalar transfer products are plain (a, b, c, d, e) tuples, 2**e * [[a, b],
[c, d]], built on `transfer._mul` and `transfer._norm_sq`, the scalar layer
the lane sweep keeps bit for bit.  The time-domain route (`evolve`,
`windowed_norm`, `abel_average`) is what the closed-form Abel masses of
`dynamics` are checked against, and `rel_gap` compares extended-range values.
"""

import math

import numpy as np

from quasitrace import dynamics as DY
from quasitrace import transfer as TR
from quasitrace.words import rotation_block
from quasitrace.xfloat import XReal

ABEL_TAIL_EPS = 1e-8


# ---------------------------------------------------------------------------
# extended-range comparison
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# scalar transfer products
# ---------------------------------------------------------------------------

def local_matrix(m: int, E: float, lam: float, theta) -> tuple:
    """One-site propagation matrix [[E - V(m), -1], [1, 0]]."""
    return (E - lam if rotation_block(m, m, theta)[0] else E, -1.0, 1.0, 0.0, 0)


def transfer_product(n: int, E: float, lam: float, theta) -> tuple:
    """Ordered product over sites 1..n (n >= 1) or inverse factors over n+1..0 (n <= -1).

    A `_mul` chain over `local_matrix` factors, T**-1 = [[0, 1], [-1, t]].
    """
    if n == 0:
        raise ValueError("site count must be nonzero")
    E, m = float(E), (1.0, 0.0, 0.0, 1.0, 0)
    for ch in rotation_block(*((1, n) if n > 0 else (n + 1, 0)), theta).to01():
        t = E - lam if ch == "1" else E  # as in `local_matrix`
        m = TR._mul((t, -1.0, 1.0, 0.0, 0), m) if n > 0 else TR._mul(m, (0.0, 1.0, -1.0, t, 0))
    return m


def entries(m) -> tuple:
    """Plain-float entries; inf if the scale exceeds float range."""
    s = 2.0 ** m[4] if -1020 < m[4] < 1020 else math.inf
    return tuple(v * s for v in m[:4])


def trace(m) -> XReal:
    return XReal(m[0] + m[3], m[4])


def det(m) -> XReal:
    return XReal(m[0] * m[3] - m[1] * m[2], 2 * m[4])


# ---------------------------------------------------------------------------
# time-domain dynamics on a dense eigensystem
# ---------------------------------------------------------------------------

def evolve(es, t: float, site: int = 1) -> np.ndarray:
    """Amplitudes over sites -N..N of the unit vector at `site` after time t."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    c = es.eigenvectors[es.site_index(site), :]
    return es.eigenvectors @ (np.exp(-1j * t * es.eigenvalues) * c)


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
