"""Unimodular transfer-matrix products over the golden-rotation potential.

Products over sites 1..n (right half-line) and n+1..0 (left half-line,
inverse factors), their traces at Fibonacci lengths, energy derivatives by
forward-mode dual numbers, windowed squared-norm sums, and the pointwise
norm/derivative inequality.

All products carry a power-of-two exponent so sweeps stay valid where the
entries grow past float64 range (doubly exponential growth off the spectrum).
Rescaling by powers of two is exact, so the extended representation changes
nothing but the dynamic range.

Scalar layer.  A tuple (a, b, c, d, e) means 2**e * [[a, b], [c, d]].  `_mul`
multiplies two of them and rescales when an entry passes 2**256; `_add` does
the same for sums; `_norm_sq` gives the squared spectral norm as an XReal.
`TransferMatrix` wraps these for single products.

Sweep kernel.  `_sweep` is the only loop over sites.  It multiplies the
one-site matrices along the potential for many energies at once, one lane per
energy and half-line.  A sweep runs on one side, or on both: then each lane
steps along its own half-line, so the right and left norm sums of
`norm_profile` come from one pass.

- lane state: the four float64 entries of the product as a (4, lanes) array
  and an int64 exponent per lane; with derivatives, the same again for
  dM/dE.  The loop over sites does only the 2x2 step, rescale and derivative.
- with norms, each site's product also goes into a buffer of B sites; per
  block, `_norm_sq_lanes` takes all its squared norms in one call, and
  `_running_sums` their running sums in one float64 `np.add.accumulate`.
  State is O(lanes * B); nothing else is kept per site except at the
  requested marks (site counts).
- at each mark it records the product, its derivative, the norm at that
  site and the running norm sum, so traces, derivative traces and windowed
  norm sums at all Fibonacci lengths come from one pass.

Byte identity.  Every lane does the IEEE operations of the scalar layer in
the same order: `_mul` per factor, `_add` for the product rule of the
derivative, `_norm_sq` and `XReal.__add__` for norm sums, with the same
per-lane frexp/ldexp rescaling and the same `shift < -1080` branch of `_add`.
The results are bit-identical to the scalar ones because numpy's elementwise
float64 operations are correctly rounded IEEE-754 binary64 operations like
Python's float arithmetic, each one rounds on its own (no fused
multiply-add), and frexp/ldexp by powers of two are exact.  Two rewrites keep
the bits: x * 1.0 is x, and x * -1.0 + y is y - x.  The 0.0 * x terms are
kept, because they fix the sign of zero entries.  The rescale check is
skipped only while a running upper bound on the entries shows that no lane
can pass 2**256, so each lane rescales at exactly the sites where the scalar
code does, and never because another lane did.

Norm sums keep the bits of one `XReal.__add__` per site, though they are
summed a block at a time.  For normalized positive operands that add is the
binary64 sum of the values scaled by a common power of two while the larger
stays normal: scaling does not change IEEE rounding.  `_running_sums` scales
a lane's carry and block values by 2**-top (top their largest exponent), adds
them in float64 and splits the sums back with `frexp`.  Squared norms of det-1
products change by at most g**2 per site, g = `growth` (||T|| <= |t| + 1), and
B = `_block_sites(g)` keeps 2 * (B + 1) * log2(g) <= 960, so every running sum
stays within 2**960 of its block's largest value, normal and exact.  A value
that goes subnormal lies below half an ulp of the sum it joins and rounds
away in both forms, as in the `shift < -1080` branch.  Where no B fits,
B = 1 and a block is one add, whose larger operand scales into [0.5, 1).

A one-sided sweep runs the step of its side as written.  A two-sided sweep
runs one step for both sides, x * t + y * s and x * -s + y * 0.0 with s = -1
on the right lanes and 1 on the left ones.  By the same rewrites that is
x * t - y and x + y * 0.0 on the right, x * t + y and -x + y * 0.0 = y * 0.0 -
x on the left, with the signs of zeros kept.  Each lane's factor is picked
per site from the four (right symbol, left symbol) pairs.  On every side,
one gather per block puts each lane's entries in (a, b, c, d) order before
its squared norms, so the squares add in the order of `_norm_sq`.

Kept for the tests and the benchmark only.  `TransferMatrix`, `local_matrix`
and `transfer_product` (a pure-Python `_mul` chain) with the scalar layer are
the references the tests hold the lane sweep to; `norm_trace_inequality`
(one level, raising) is what the tests and a benchmark span call in place of
`norm_trace_margins`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .phase import PhasePoint
from .words import fib_number, rotation_block
from .xfloat import XReal, rel_gap

__all__ = [
    "TransferMatrix",
    "DualScalar",
    "TraceParityReport",
    "TraceParityError",
    "MarginViolationError",
    "local_matrix",
    "transfer_product",
    "traces_right_upto",
    "traces_left_upto",
    "dual_traces_upto",
    "norm_profile",
    "norm_trace_margins",
    "norm_trace_inequality",
    "phase_trace_parity",
]

Energies = float | Sequence[float]

_RENORM = 2.0**256  # keep entry squares finite in norm computations
_frexp = math.frexp
_ldexp = math.ldexp

TRACE_EQUALITY_TOL = 1e-9  # relative to max(1, |x|, |reference|); products differ only by rounding
MARGIN_TOL = 1e-8


class TraceParityError(AssertionError):
    """No parity class of levels satisfies the trace equality (implementation bug)."""


class MarginViolationError(AssertionError):
    """The norm/derivative inequality failed beyond rounding (implementation bug)."""

    @classmethod
    def at(cls, k: int, E: float, lam: float) -> "MarginViolationError":
        return cls(f"norm/derivative inequality violated at k={k}, E={E}, lam={lam}")


# ----------------------------------------------------------------------------
# scalar representation: (a, b, c, d, e) meaning 2**e * [[a, b], [c, d]]
# ----------------------------------------------------------------------------

def _mul(m1, m2):
    a1, b1, c1, d1, e1 = m1
    a2, b2, c2, d2, e2 = m2
    a = a1 * a2 + b1 * c2
    b = a1 * b2 + b1 * d2
    c = c1 * a2 + d1 * c2
    d = c1 * b2 + d1 * d2
    mx = max(abs(a), abs(b), abs(c), abs(d))
    if mx > _RENORM:
        ex = _frexp(mx)[1]
        s = _ldexp(1.0, -ex)
        return (a * s, b * s, c * s, d * s, e1 + e2 + ex)
    return (a, b, c, d, e1 + e2)


def _add(m1, m2):
    a1, b1, c1, d1, e1 = m1
    a2, b2, c2, d2, e2 = m2
    if e1 < e2:
        a1, b1, c1, d1, e1, a2, b2, c2, d2, e2 = a2, b2, c2, d2, e2, a1, b1, c1, d1, e1
    shift = e2 - e1
    if shift < -1080:
        return (a1, b1, c1, d1, e1)
    s = _ldexp(1.0, shift)
    a = a1 + a2 * s
    b = b1 + b2 * s
    c = c1 + c2 * s
    d = d1 + d2 * s
    mx = max(abs(a), abs(b), abs(c), abs(d))
    if mx > _RENORM:
        ex = _frexp(mx)[1]
        sc = _ldexp(1.0, -ex)
        return (a * sc, b * sc, c * sc, d * sc, e1 + ex)
    return (a, b, c, d, e1)


def _norm_sq(m) -> XReal:
    """Squared spectral norm, closed form from tr(A^T A) and det(A).

    The copy is rescaled so the largest entry sits in [0.5, 1); squares then
    stay comfortably inside float range regardless of the carried exponent.
    """
    a, b, c, d, e = m
    mx = max(abs(a), abs(b), abs(c), abs(d))
    if mx == 0.0:
        return XReal()
    ex = _frexp(mx)[1]
    # ldexp on each entry, not a product with 2**-ex: that factor overflows
    # when the largest entry is subnormal
    a, b, c, d = (_ldexp(v, -ex) for v in (a, b, c, d))
    t = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = t * t - 4.0 * det * det
    if disc < 0.0:
        disc = 0.0
    return XReal(0.5 * (t + math.sqrt(disc)), 2 * (e + ex))


@lru_cache(maxsize=1024)
def _potential_pattern(theta: PhasePoint, lo: int, hi: int) -> str:
    return rotation_block(lo, hi, theta).to01()


# ----------------------------------------------------------------------------
# the sweep kernel: one lane per energy
# ----------------------------------------------------------------------------

# The product of each lane is 2**e * [[a, b], [c, d]], its entries stacked as
# rows of a (4, lanes) array: the halves X = rows 0-1 and Y = rows 2-3 are the
# two rows of the matrix on the right side, where factors multiply from the
# left, and its two columns on the left side.  A step maps (X, Y) to the new
# halves.  `right` is T @ M with T = [[t, -1], [1, 0]] and `left` is M @ T.
_STEPS = {
    "right": lambda x, y, t: (x * t - y, x + y * 0.0),
    "left": lambda x, y, t: (x * t + y, y * 0.0 - x),
}
_ROWS = {"right": [0, 1, 2, 3], "left": [0, 2, 1, 3]}  # of a, b, c, d

# Rounding slack for the entry bounds that let `_renorm` skip its check: a
# step x * t - y rounds twice, so |new entry| <= (|t| + 1) * bound * (1 + 2**-53)**2,
# and the bound's own products round once more; 2**-40 covers all of it.
_SLACK = 1.0 + 2.0**-40


class _Mark(NamedTuple):
    """Lane arrays recorded after `n` factors; None where not requested."""

    n: int
    m: np.ndarray  # (4, lanes) entries of the product
    e: np.ndarray
    dm: np.ndarray | None = None  # its energy derivative
    de: np.ndarray | None = None
    norm_m: np.ndarray | None = None  # squared norm at site n, XReal parts
    norm_e: np.ndarray | None = None
    sum_m: np.ndarray | None = None  # squared norms summed over sites 1..n
    sum_e: np.ndarray | None = None


def _renorm(m, e, bound):
    """The rescale of `_mul` and `_add`, per lane.

    `bound` is an upper bound on every |entry|.  While it stays at or below
    2**256 no lane can need rescaling and nothing is checked; otherwise the
    largest entry is looked up and becomes the new bound, and only lanes
    whose own largest entry passes 2**256 are rescaled.
    """
    if bound <= _RENORM:
        return m, e, bound
    size = np.abs(m)
    bound = float(size.max(initial=0.0))
    if bound <= _RENORM:
        return m, e, bound
    mx = size.max(axis=0)
    ex = np.where(mx > _RENORM, np.frexp(mx)[1], 0)
    s = np.ldexp(1.0, -ex)  # 1.0 on the other lanes, which keeps their bits
    return m * s, e + ex, float((mx * s).max())


def _add_lanes(m1, e1, m2, e2):
    """`_add` per lane, before its rescale.

    `_add` scales the operand with the smaller exponent by 2**shift and adds
    it to the other one; here both get a scale, 1.0 for the larger one, which
    gives the same sums since x * 1.0 is x and addition commutes.
    """
    if not (e1 != e2).any():
        return m1 + m2, e1
    shift = e1 - e2
    m = m1 * np.ldexp(1.0, np.minimum(shift, 0)) + m2 * np.ldexp(1.0, np.minimum(-shift, 0))
    far = np.abs(shift) > 1080
    if far.any():  # `_add` returns the larger operand untouched
        m = np.where(far, np.where(shift < 0, m2, m1), m)
    return m, np.maximum(e1, e2)


def _norm_sq_lanes(m, e):
    """`_norm_sq` per lane for nonzero matrices, normalized like its XReal.

    The entries a, b, c, d lie on axis 0; the rest is elementwise, so a
    (4, sites, lanes) block gives the bits of one call per site.
    """
    mx = np.abs(m).max(axis=0)
    ex = np.frexp(mx)[1]
    m = np.ldexp(m, -ex)  # as in `_norm_sq`, safe for subnormal maxima
    sq = m * m
    t = sq[0] + sq[1] + sq[2] + sq[3]
    det = m[0] * m[3] - m[1] * m[2]
    disc = t * t - 4.0 * det * det
    disc[disc < 0.0] = 0.0
    norm, ex2 = np.frexp(0.5 * (t + np.sqrt(disc)))
    return norm, 2 * (e + ex) + ex2


def _block_sites(growth: float) -> int:
    """B of "Byte identity": max B <= 256 with 2 * (B + 1) * log2(growth) <= 960, else 1."""
    bits = math.log2(growth)
    return min(256, max(1, math.floor(480.0 / bits) - 1)) if bits < 480.0 else 1


def _running_sums(m, e, carry):
    """`XReal.__add__` per site over norms (sites, lanes) from `carry`; see "Byte identity"."""
    top = np.maximum(e.max(axis=0), carry[1])
    vals = np.ldexp(m, e - top)
    vals[0] += np.ldexp(carry[0], carry[1] - top)
    sum_m, ex = np.frexp(np.add.accumulate(vals, axis=0, out=vals))
    return sum_m, ex + top


def _sweep(side, E: np.ndarray, lam: float, theta: PhasePoint, marks,
           *, deriv: bool = False, norms: bool = False) -> list[_Mark]:
    """Multiply the one-site matrices for every energy lane; record at marks.

    `side` is "right" (T(n)...T(1) over sites 1..n) or "left" (T(0)T(-1)...
    over sites 0, -1, ...), or, for a two-sided sweep, a sequence giving
    "right" or "left" per lane; each lane then keeps its entries in the row
    order of its own side.  `marks` are increasing site counts >= 1.
    `deriv` carries dM/dE by the product rule (one-sided sweeps only);
    `norms` carries the running sum of squared norms over sites 1..n.  Norms
    of unimodular products are at least 1, so the zero branches of
    `XReal.__add__` never apply after the first site.

    State is O(lanes * B): with `norms`, products wait in a buffer of B
    sites, and a mark gets its norm fields when its block is summed.
    """
    top = marks[-1]
    factor = {"0": E, "1": E - lam}
    # a step multiplies the largest entry by at most max |t| + 1
    growth = (max(np.abs(E).max(initial=0.0), np.abs(factor["1"]).max(initial=0.0))
              + 1.0) * _SLACK
    if isinstance(side, str):
        step, order = _STEPS[side], np.array(_ROWS[side])[:, None, None]
        symbols = (_potential_pattern(theta, 1, top) if side == "right"
                   else _potential_pattern(theta, -top + 1, 0)[::-1])  # site 0, -1, -2, ...
    else:
        if set(side) != {"right", "left"} or len(side) != E.size:
            raise ValueError("a two-sided sweep takes 'right' or 'left' per lane, both used")
        if deriv:
            raise ValueError("derivatives are carried on one-sided sweeps only")
        left = np.array([s == "left" for s in side])
        # both steps in one, bit for bit: see "Byte identity" in the module docstring
        sign = np.where(left, 1.0, -1.0)
        flip = -sign

        def step(x, y, t):
            return x * t + y * sign, x * flip + y * 0.0

        # per site the factor of each lane, by the (right, left) symbol pair
        factor = {r + l: np.where(left, factor[l], factor[r]) for r in "01" for l in "01"}
        symbols = map(str.__add__, _potential_pattern(theta, 1, top),
                      _potential_pattern(theta, -top + 1, 0)[::-1])
        # per lane the rows that put its entries in (a, b, c, d) order
        order = np.where(left, np.array(_ROWS["left"])[:, None], np.arange(4)[:, None])[:, None]
    m = np.zeros((4, E.size))
    m[0] = m[3] = 1.0  # a and d sit there on every side
    e = np.zeros(E.size, dtype=np.int64)
    dm, de = np.zeros_like(m), np.zeros_like(e)
    zero = np.zeros((2, E.size))
    bound, dbound = 1.0, 0.0
    if norms:
        size = _block_sites(growth)
        block_m = np.empty((4, size, E.size))
        block_e = np.empty((size, E.size), dtype=np.int64)
        # XReal zero; its exponent 0 never sets top, as squared norms are >= 1
        carry = np.zeros(E.size), np.zeros(E.size, dtype=np.int64)
        done = 0  # marks that have their norm fields
    out: list[_Mark] = []
    pending = iter(marks)
    want = next(pending)
    for n, ch in enumerate(symbols, start=1):
        t = factor[ch]
        if deriv:
            # (T M)' = T' M + T M' and (M T)' = M T' + M' T with T' = [[1, 0],
            # [0, 0]]: T' M keeps row one of M, M T' column one, which is X
            tdm, tde, tbound = _renorm(np.concatenate(step(dm[:2], dm[2:], t)), de,
                                       dbound * growth)
            dm, de, dbound = _renorm(*_add_lanes(np.concatenate((m[:2], zero)), e, tdm, tde),
                                     (bound + tbound) * _SLACK)
        m, e, bound = _renorm(np.concatenate(step(m[:2], m[2:], t)), e, bound * growth)
        if n == want:
            out.append(_Mark(n, m, e, *((dm, de) if deriv else (None, None))))
            want = next(pending, None)
        if norms:
            j = (n - 1) % size
            block_m[:, j], block_e[j] = m, e
            if j == size - 1 or n == top:
                # in (a, b, c, d) order, as `_norm_sq` adds the squares
                block = np.take_along_axis(block_m[:, :j + 1], order, axis=0)
                norm_m, norm_e = _norm_sq_lanes(block, block_e[:j + 1])
                sum_m, sum_e = _running_sums(norm_m, norm_e, carry)
                carry = sum_m[j], sum_e[j]
                for i in range(done, len(out)):
                    at = out[i].n - (n - j)
                    out[i] = out[i]._replace(norm_m=norm_m[at].copy(), norm_e=norm_e[at].copy(),
                                             sum_m=sum_m[at].copy(), sum_e=sum_e[at].copy())
                done = len(out)
    return out


def _xreals(m, e) -> list[XReal]:
    return [XReal(mi, ei) for mi, ei in zip(m.tolist(), e.tolist())]


def _lanes(E: Energies):
    """Energies as a float64 lane array, and whether E was one number."""
    scalar = np.ndim(E) == 0
    return np.atleast_1d(np.asarray(E, dtype=float)), scalar


def _per_energy(columns, scalar: bool):
    """Per-mark lists of per-lane values -> per-lane lists (one list if scalar)."""
    rows = [list(r) for r in zip(*columns)]
    return rows[0] if scalar else rows


def _fib_marks(k_max: int) -> list[int]:
    return [fib_number(k) for k in range(k_max + 1)]


def _trace_xreals(m, e) -> list[XReal]:
    return _xreals(m[0] + m[3], e)


# ----------------------------------------------------------------------------
# public matrix type
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferMatrix:
    """2x2 real matrix with a power-of-two scale: 2**exp2 * [[a11, a12], [a21, a22]]."""

    a11: float
    a12: float
    a21: float
    a22: float
    exp2: int = 0

    def _tuple(self):
        return (self.a11, self.a12, self.a21, self.a22, self.exp2)

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(*_mul(self._tuple(), other._tuple()))

    def trace(self) -> XReal:
        return XReal(self.a11 + self.a22, self.exp2)

    def det(self) -> XReal:
        return XReal(self.a11 * self.a22 - self.a12 * self.a21, 2 * self.exp2)

    def norm_sq(self) -> XReal:
        return _norm_sq(self._tuple())

    def entries(self) -> tuple[float, float, float, float]:
        """Plain-float entries; overflows to inf if the scale exceeds float range."""
        s = 2.0**self.exp2 if -1020 < self.exp2 < 1020 else math.inf
        return (self.a11 * s, self.a12 * s, self.a21 * s, self.a22 * s)


@dataclass(frozen=True)
class DualScalar:
    """A value and its energy derivative, propagated jointly."""

    value: XReal
    deriv: XReal


# ----------------------------------------------------------------------------
# products and traces
#
# The functions whose E is `Energies` take one energy or a sequence of them.
# A sequence is swept in one pass, one lane per energy, and gives one result
# per energy, in order.
# ----------------------------------------------------------------------------

def local_matrix(m: int, E: float, lam: float, theta: PhasePoint) -> TransferMatrix:
    """One-site propagation matrix [[E - V(m), -1], [1, 0]]."""
    v = _potential_pattern(theta, m, m)
    a = E - lam if v == "1" else E
    return TransferMatrix(a, -1.0, 1.0, 0.0, 0)


def transfer_product(n: int, E: float, lam: float, theta: PhasePoint) -> TransferMatrix:
    """Ordered product over sites 1..n (n >= 1) or inverse factors over n+1..0 (n <= -1).

    A `_mul` chain over `local_matrix` factors, T**-1 = [[0, 1], [-1, t]].
    """
    if n == 0:
        raise ValueError("site count must be nonzero")
    E, m = float(E), (1.0, 0.0, 0.0, 1.0, 0)
    for ch in _potential_pattern(theta, *((1, n) if n > 0 else (n + 1, 0))):
        t = E - lam if ch == "1" else E  # as in `local_matrix`
        m = _mul((t, -1.0, 1.0, 0.0, 0), m) if n > 0 else _mul(m, (0.0, 1.0, -1.0, t, 0))
    return TransferMatrix(*m)


def _traces_upto(side: str, k_max: int, E: Energies, lam: float, theta: PhasePoint):
    lanes, scalar = _lanes(E)
    marks = _sweep(side, lanes, lam, theta, _fib_marks(k_max))
    return _per_energy([_trace_xreals(mark.m, mark.e) for mark in marks], scalar)


def traces_right_upto(k_max: int, E: Energies, lam: float, theta: PhasePoint) -> list:
    """Traces of the right-half-line products at lengths F(0..k_max), one pass."""
    return _traces_upto("right", k_max, E, lam, theta)


def traces_left_upto(k_max: int, E: Energies, lam: float, theta: PhasePoint) -> list:
    """Traces of the left-half-line products at lengths F(0..k_max), one pass.

    Uses tr(A**-1) = tr(A) for det-1 matrices: the trace over inverse factors
    down to site -F(k)+1 equals the trace of T(0) T(-1) ... T(-F(k)+1).
    """
    return _traces_upto("left", k_max, E, lam, theta)


def dual_traces_upto(k_max: int, E: Energies, lam: float, theta: PhasePoint) -> list:
    """Right-half-line traces and their energy derivatives at Fibonacci lengths."""
    lanes, scalar = _lanes(E)
    marks = _sweep("right", lanes, lam, theta, _fib_marks(k_max), deriv=True)
    return _per_energy(
        [[DualScalar(v, d) for v, d in zip(_trace_xreals(mark.m, mark.e),
                                           _trace_xreals(mark.dm, mark.de))]
         for mark in marks],
        scalar,
    )


# ----------------------------------------------------------------------------
# windowed norms and the norm/derivative inequality
# ----------------------------------------------------------------------------

def norm_profile(l_values, E: Energies, lam: float, theta: PhasePoint) -> list:
    """Windowed squared-norm sums at several window lengths, one pass.

    Positive windows sum ||M(1)||^2 .. ||M(floor(L))||^2 plus the fractional
    edge term; negative windows do the mirrored left-half-line sum over sites
    -1 .. -floor(|L|).  Singular values of the inverse of a det-1 matrix
    coincide with those of the matrix itself, so the left side accumulates
    direct factors downward.  Windows of both signs share one two-sided
    sweep, a block of lanes per half-line, bit-identical to a call per sign.
    Its norms are summed a block of sites at a time; see "Byte identity".
    """
    ls = list(l_values)
    lanes, scalar = _lanes(E)
    if not ls:
        return [] if scalar else [[] for _ in range(lanes.size)]
    if 0 in ls:
        raise ValueError("window lengths must be nonzero")
    blocks = [side for side, sign in (("right", 1), ("left", -1))
              if any(l * sign > 0 for l in ls)]
    sides = blocks[0] if len(blocks) == 1 else [s for s in blocks for _ in lanes]
    mags = sorted(set(abs(l) for l in ls))
    edges = {n for l in mags for n in (math.floor(l), math.floor(l) + 1)} - {0}
    at = {mark.n: mark for mark in _sweep(sides, np.tile(lanes, len(blocks)), lam, theta,
                                          sorted(edges), norms=True)}
    result: dict[float, list[XReal]] = {}
    for l in mags:
        fl = math.floor(l)
        totals = (_xreals(at[fl].sum_m, at[fl].sum_e) if fl
                  else [XReal()] * (lanes.size * len(blocks)))
        if l > fl:
            edge = at[fl + 1]
            totals = [total + (l - fl) * norm
                      for total, norm in zip(totals, _xreals(edge.norm_m, edge.norm_e))]
        result[l] = totals
    n = lanes.size
    offset = {side: i * n for i, side in enumerate(blocks)}
    columns = []
    for l in ls:
        o = offset["right" if l > 0 else "left"]
        columns.append(result[abs(l)][o:o + n])
    return _per_energy(columns, scalar)


def _margin(total: XReal, dual: XReal) -> XReal | None:
    lhs = 4.0 * total.pow_3_2()
    rhs = abs(dual)
    margin = lhs - rhs
    scale = lhs + rhs
    return None if margin < -MARGIN_TOL * scale else margin


def norm_trace_margins(k_max: int, E: Energies, lam: float, theta: PhasePoint) -> list:
    """Margins of the norm/derivative inequality at levels 0..k_max, one pass.

    The margin at level k is 4 * (||M||^2_{F(k)})^{3/2} - |d trace/dE| and
    must be >= 0.  The cubed windowed norm means the 3/2 power of the
    squared-norm sum, matching the squared object the window is defined on.
    None marks a margin below -1e-8 * scale, which falsifies the
    implementation.
    """
    lanes, scalar = _lanes(E)
    marks = _sweep("right", lanes, lam, theta, _fib_marks(k_max), deriv=True, norms=True)
    return _per_energy(
        [[_margin(total, dual) for total, dual in zip(_xreals(mark.sum_m, mark.sum_e),
                                                      _trace_xreals(mark.dm, mark.de))]
         for mark in marks],
        scalar,
    )


def norm_trace_inequality(k: int, E: float, lam: float, theta: PhasePoint) -> XReal:
    """Margin 4 * (||M||^2_{F(k)})^{3/2} - |d trace/dE| at level k; must be >= 0.

    A margin below -1e-8 * scale falsifies the implementation and raises.
    """
    margin = norm_trace_margins(k, E, lam, theta)[k]
    if margin is None:
        raise MarginViolationError.at(k, E, lam)
    return margin


# ----------------------------------------------------------------------------
# phase invariance of traces
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceParityReport:
    """Which parity class of levels reproduces the phase-zero traces, per side."""

    theta: PhasePoint
    lam: float
    k_max: int
    x_even_ok: bool
    x_odd_ok: bool
    y_even_ok: bool
    y_odd_ok: bool
    per_k: tuple = ()  # (k, family 'x'|'y', max relative error over the grid)


def phase_trace_parity(theta: PhasePoint, lam: float, E_grid, k_max: int,
                       right_traces=None, refs=None) -> TraceParityReport:
    """Compare traces at phase theta against phase zero over an energy grid.

    For each level the maximal relative deviation (`rel_gap`) over the grid
    is recorded; a level passes when it stays below TRACE_EQUALITY_TOL.  On
    each half-line all even levels or all odd levels must pass, else the run
    aborts.  `right_traces`, if given, are the right-half-line traces at
    theta per energy (as from `traces_right_upto` or the values of
    `dual_traces_upto`) and save that sweep; `refs`, if given, are those
    traces at phase zero, shared by all phases of a run.
    """
    energies = list(E_grid)
    if not energies:
        raise ValueError("energy grid must be nonempty")
    if refs is None:
        refs = traces_right_upto(k_max, energies, lam, PhasePoint.zero(theta.bits))
    xs = right_traces if right_traces is not None else traces_right_upto(
        k_max, energies, lam, theta)
    ys = traces_left_upto(k_max, energies, lam, theta)
    per_k = []
    flags = {"x": {0: True, 1: True}, "y": {0: True, 1: True}}
    for fam, table in (("x", xs), ("y", ys)):
        for k in range(k_max + 1):
            err = max(rel_gap(row[k], ref[k]) for row, ref in zip(table, refs))
            per_k.append((k, fam, err))
            if err > TRACE_EQUALITY_TOL:
                flags[fam][k % 2] = False
    if not (flags["x"][0] or flags["x"][1]):
        raise TraceParityError(f"no parity class passes for right traces at theta={theta}")
    if not (flags["y"][0] or flags["y"][1]):
        raise TraceParityError(f"no parity class passes for left traces at theta={theta}")
    return TraceParityReport(
        theta, lam, k_max,
        flags["x"][0], flags["x"][1], flags["y"][0], flags["y"][1],
        tuple(per_k),
    )
