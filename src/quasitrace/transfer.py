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
They are the specification the sweep keeps bit for bit (see "Byte identity"),
and the tests build their scalar products on them.

Sweep kernel.  `_sweep` is the only loop over sites.  It multiplies the
one-site matrices along the potential for many lanes at once.  A lane has an
energy, a side and a phase; the lanes of one (side, phase) form a group and
step along that group's half-line and potential.  A `traces` run over P
phases makes 1 + P sweeps: `phase_traces` sweeps both sides of every phase
and the phase-zero reference in one, with the right derivatives, and per
phase `norm_profile` sums the right and left norms in one.  The margins of
`norm_trace_margin` read their derivatives and norm sums off these sweeps.

- lane state: the four float64 entries of the product and an int64 exponent
  per lane; with derivatives, the same again for dM/dE on a prefix of the
  lanes.  The entries live in two preallocated buffers, and each site steps
  from one into the other with `out=` (see "Calls per site").  The loop over
  sites does only the 2x2 step, rescale and derivative.
- factors: a (sites, groups) array of potential symbols; per block of B sites
  one lookup gives every lane its factors, so memory is O(lanes * B +
  sites * groups) however many groups share the sweep (B as below with
  norms, at most 32 without).
- with norms (or peaks), each site's product also goes into a buffer of B
  sites; per block, `_norm_sq_lanes` takes all its squared norms in one call,
  and `_running_sums` their running sums in one float64 `np.add.accumulate`
  (the peaks, one running maximum of exponents).  State is O(lanes * B);
  nothing else is kept per site except at the requested marks (site counts).
- at each mark it records the product, its derivative, the norm at that
  site, the running norm sum and the peak, so traces, derivative traces,
  windowed norm sums and rounding scales at all Fibonacci lengths come from
  one pass.

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
code does, and never because another lane did.  With peaks no bound is kept
and every site is checked.  After their `_add` the derivative lanes are
first checked as one: where the largest |entry| over all of them is at most
2**256 no lane of them can need rescaling, and only otherwise does
`_renorm` check them lane by lane.

`_renorm` takes each lane's largest |entry| mx before it rescales, and with
peaks every site is checked, so that one maximum serves both the check and the
peak.  The peak frexp(mx)[1] + e is taken from mx and the exponent e from
before the rescale, and it is the same on either side of it: a lane that
rescales is multiplied by 2**-ex, ex = frexp(mx)[1], which puts its largest
entry in [0.5, 1) without rounding, so frexp of that entry is ex lower while e
is ex higher.  So the rescale leaves mx as it is, and the peaks read the
exponents from before it, in a buffer of their own beside the exponents after
it that the norms read.  The scales 2**-ex of the rescale and 2**shift of
`_add` come from one table, `_HALVES[i]` = ldexp(1.0, -i) for i = 0..1075,
taken with mode="clip".  That is ldexp(1.0, -max(k, 0)) for every integer k: a
k below 0 reads 1.0, the scale of the operand with the larger exponent, and
one above 1075 reads `_HALVES[1075]` = 0.0, as ldexp(1.0, -k) is 0.0 for every
k >= 1075 (2**-1075 is half the least subnormal and rounds to even).
Where |shift| > 1080 `_add` returns the larger operand untouched, and so
does `_add_lanes`: adding the other operand's 0.0 would turn a -0.0 entry
into 0.0.

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

Every lane runs one step, x * t + y * s and x * -s + y * 0.0 with s = -1 on
the right lanes and 1 on the left ones, both halves from one product of
(X, Y) with per-lane factor arrays.  By the same rewrites that is x * t - y
and x + y * 0.0 on the right, x * t + y and -x + y * 0.0 = y * 0.0 - x on the
left, the steps of `_mul` (addition commutes in IEEE arithmetic), with the
signs of zeros kept.  The derivative step is the same on both sides: the
step of dM/dE plus X of the old product (see `_sweep`), run as extra lanes
after the products, with the factors and signs of the lanes they belong to.
Which lanes share the sweep, and in what order, changes no lane's bits:
every operation is elementwise, and
a lane rescales only where its own entries pass 2**256.  Each lane's factor
is E or E - lam of its own energy, picked by its group's symbol at the site.
On every side, one gather per block puts each lane's entries in (a, b, c, d)
order before its squared norms, so the squares add in the order of
`_norm_sq`.

Calls per site.  The state is two (3, 2, lanes) buffers, (X, Y) and a block
of zeros; a site multiplies (X, Y) by the step's factors [[t, f], [s, 0.0]]
of its block with one `np.multiply` and sums the two terms into the other
buffer with one `np.add`.  The old buffer keeps X, and its zeros complete it
to the operand (X, 0) of the derivative's `_add`, written in place into the
derivative lanes.  A `_renorm` check is one `np.abs` and two
`np.maximum.reduce`; a rescale adds six calls: `np.frexp`, the comparison
and product that zero ex on the other lanes, one `take` of the scales, the
in-place product of the entries and the new exponents, and two more where a
bound is kept, the rescaled maxima and the new bound.  `_add_lanes` makes
eight calls into work arrays made once per sweep: the shifts and their
negatives, one `take` of both scales, the |shift| > 1080 test, the scaled
sum (three) and the exponents; the one check of the derivative lanes after
it is one `np.abs` and one `np.maximum.reduce`.  Counting ufunc calls, ufunc
methods, numpy functions and the reducing ndarray methods (not numpy scalar
arithmetic or indexing), each weighted by how often its branch runs, the
`phase_traces` sweep of the benchmark's `traces-large` run (17,711 sites,
384 lanes with 96 derivative lanes; the step rescales at 15,618 sites, the
derivative lanes after their `_add` at 8) made per site, in the step, its
check and rescale, the derivative and the peaks, and took in CPU seconds
(median of 8 fresh processes each, alternating, on a 2-vCPU Xeon):

                          step   renorm  derivative  peaks  total  seconds
    per-site arrays        3.0     10.8        18.7    2.0   34.5     1.46
    two buffers, `out=`    2.0     10.1        10.6      -   22.6     1.13
    pre-rescale peaks      2.0      8.3        10.0      -   20.3     0.71

The first row allocated each step's result, concatenated the derivative's
operands and results, took the scales of `_add` by `ldexp(1.0, minimum(...))`
and its reductions through the `ndarray` wrappers, and took the peaks in a
pass of their own.  The second row rescaled the maxima with their lanes for
the peaks and took a new bound at every rescale, and checked the derivative
lanes lane by lane at 15,020 sites, as its bound came from the product lanes
near 2**256.  The third row takes the peaks from the maxima before the
rescale, checks the derivative lanes with one maximum over all of them, and
builds the work arrays of `_add_lanes` and the per-site views of the factors
once per sweep.  Its seconds come from a later series of 24 fresh processes
each, alternating with the second row, which took 0.88 s there; the third
row was lower in 21 of the 24 pairs.  `_add_lanes` stays a function: by
`timeit` on 96 lanes the call costs at most 0.3 us per site over its body
inlined in the loop, and its own test holds it to `_add` at the |shift|
edges.  Without the 96 derivative lanes the sweep takes about 0.75, 0.6 and
0.42 s (the last measured against 0.82 s in one process): the derivative, a
quarter of the lanes, is still half the sweep.

Kept for the benchmark.  `traces_right_upto`, `traces_left_upto` and
`dual_traces_upto` are one-group calls of the sweep that the `traces` command
makes through `phase_traces`; `dual_traces_upto` returns the right
`TraceTable` that `phase_traces` builds, from the same `_trace_tables`.
`norm_trace_inequality` is `norm_trace_margin` at one level, swept on its
own, that raises.  No command calls them, but the benchmark's spans trace them
and its own tests call `dual_traces_upto`, so they stay until it drops them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .phase import PhasePoint
from .words import ParityReport, fib_number, rotation_block
from .xfloat import XReal

__all__ = [
    "TraceParityError",
    "MarginViolationError",
    "traces_right_upto",
    "traces_left_upto",
    "dual_traces_upto",
    "norm_profile",
    "norm_trace_margin",
    "norm_trace_inequality",
    "phase_trace_parity",
    "phase_traces",
    "TraceTable",
]

Energies = float | Sequence[float]

_RENORM = 2.0**256  # keep entry squares finite in norm computations
_frexp = math.frexp
_ldexp = math.ldexp
_ONE = XReal(1.0)

TRACE_EQUALITY_TOL = 1e-9  # relative to max(1, |x|, |reference|); see `phase_trace_parity`
TRACE_ROUNDING = 64.0  # c of the rounding term of `phase_trace_parity`
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
# halves: T @ M with T = [[t, -1], [1, 0]] on the right is (x * t - y,
# x + y * 0.0), M @ T on the left is (x * t + y, y * 0.0 - x).  `_sweep` runs
# both as x * t + y * s, x * f + y * 0.0 with (s, f) = (-1, 1) on the right
# and (1, -1) on the left; see "Byte identity".
_ROWS = {"right": [0, 1, 2, 3], "left": [0, 2, 1, 3]}  # of a, b, c, d

# Rounding slack for the entry bounds that let `_renorm` skip its check: a
# step x * t - y rounds twice, so |new entry| <= (|t| + 1) * bound * (1 + 2**-53)**2,
# and the bound's own products round once more; 2**-40 covers all of it.
_SLACK = 1.0 + 2.0**-40

# 2**-i for i = 0..1075, the last one 0.0, as ldexp(1.0, -1075) rounds to even.
# Taken with mode="clip", an index below 0 reads 1.0 and one above 1075 reads
# 0.0, so `_HALVES.take(k, mode="clip")` is ldexp(1.0, -max(k, 0)) for every k.
_HALVES = np.ldexp(1.0, -np.arange(1076))


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
    peak: np.ndarray | None = None  # every |entry| over sites 1..n is below 2**peak


class _Buffer(NamedTuple):
    """Views of one (3, 2, lanes) state buffer of `_sweep`: (X, Y, zeros)."""

    step: np.ndarray  # (X, Y), shaped to multiply the step's factors
    m: np.ndarray  # (X, Y) of every lane
    x: np.ndarray  # (X, 0) of the lanes that carry derivatives
    dm: np.ndarray  # (X, Y) of the derivative lanes


def _renorm(m, e, bound, mx=None, out=None):
    """The rescale of `_mul` and `_add`, per lane, in place on `m`.

    `m` holds the entries of each lane along its last axis, and `bound` is an
    upper bound on every |entry|, or inf where none is kept.  While it stays
    at or below 2**256 no lane can need rescaling and nothing is checked;
    otherwise each lane's largest |entry| goes to `mx` (a new array if None),
    and only lanes whose own largest entry passes 2**256 are rescaled.  Their
    new exponents go to `out` (a new array if None).  With a finite `bound`,
    `mx` is rescaled with its lanes and its largest value is the new bound;
    with inf, `mx` keeps the maxima from before the rescale, which with the
    exponents from before it give the peaks (see "Byte identity"), and the
    bound stays inf.  Returns (m, e, bound).
    """
    if bound <= _RENORM:
        return m, e, bound
    mx = np.maximum.reduce(np.abs(m).reshape(-1, m.shape[-1]), axis=0, out=mx)
    top = float(np.maximum.reduce(mx, initial=0.0))
    if top <= _RENORM:
        return m, e, top if bound < math.inf else bound
    ex = np.frexp(mx)[1]
    ex *= mx > _RENORM  # 0 on the other lanes: a scale of 1.0 keeps their bits
    s = _HALVES.take(ex, mode="clip")
    m *= s
    if bound < math.inf:
        # exact: the largest entry of a rescaled lane lands in [0.5, 1)
        bound = float(np.maximum.reduce(np.multiply(mx, s, out=mx)))
    return m, np.add(e, ex, out=out), bound


def _add_work(m):
    """Work arrays of `_add_lanes` for operands shaped like `m`, made once per sweep."""
    turns, scales = np.empty((2, m.shape[-1]), dtype=np.int64), np.empty((2, m.shape[-1]))
    return turns, *turns, scales, *scales, np.empty(m.shape)


def _add_lanes(m1, e1, m2, e2, out=(None, None), work=None):
    """`_add` per lane, before its rescale: the sums and their exponents.

    `_add` scales the operand with the smaller exponent by 2**shift and adds
    it to the other one; here both get a scale from `_HALVES`, 1.0 for the
    larger one, which gives the same sums since x * 1.0 is x and addition
    commutes.  `out` is an (entries, exponents) pair of buffers for the result,
    None for new arrays; they may be m2 and e2.  `work` is `_add_work` of
    m1, new ones if None.
    """
    turns, shift, back, scales, s2, s1, scaled = work or _add_work(m1)
    np.subtract(e1, e2, out=shift)
    np.negative(shift, out=back)
    _HALVES.take(turns, mode="clip", out=scales)
    far = np.maximum.reduce(turns, axis=None, initial=0) > 1080
    if far:  # `_add` returns the larger operand untouched
        keep = np.where(shift < 0, m2, m1)
    m, e = out
    m = np.multiply(m2, s2, out=m)
    m += np.multiply(m1, s1, out=scaled)
    if far:
        np.copyto(m, keep, where=np.abs(shift) > 1080)
    return m, np.maximum(e1, e2, out=e)


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


def _lanes_by_group(side, theta, size: int):
    """Per-lane (side, phase) pairs -> (groups, group index per lane, sides per lane)."""
    sides = [side] * size if isinstance(side, str) else list(side)
    thetas = [theta] * size if isinstance(theta, PhasePoint) else list(theta)
    if len(sides) != size or len(thetas) != size or not set(sides) <= {"right", "left"}:
        raise ValueError("a sweep takes 'right' or 'left' and a phase per lane")
    index: dict = {}
    group = np.array([index.setdefault(pair, len(index)) for pair in zip(sides, thetas)],
                     dtype=np.intp)
    return list(index), group, sides


def _symbols(groups, top: int) -> np.ndarray:
    """(top, groups) booleans: whether the n-th factor of each group has potential 1."""
    rows = [_potential_pattern(theta, 1, top) if side == "right"
            else _potential_pattern(theta, -top + 1, 0)[::-1]  # site 0, -1, -2, ...
            for side, theta in groups]
    return np.stack([np.frombuffer(r.encode(), dtype=np.uint8) == ord("1") for r in rows],
                    axis=1)


def _sweep(side, E: np.ndarray, lam: float, theta, marks, *, deriv: bool | int = False,
           norms: bool = False, peaks: bool = False) -> list[_Mark]:
    """Multiply the one-site matrices for every energy lane; record at marks.

    Each lane has an energy, a side and a phase.  `side` is "right"
    (T(n)...T(1) over sites 1..n) or "left" (T(0)T(-1)... over sites 0, -1,
    ...), `theta` a PhasePoint, or either a sequence with one per lane; each
    lane keeps its entries in the row order of its own side.  Lanes with the
    same (side, phase) form a group and read their factors from one row of
    symbols.  `marks` are increasing site counts >= 1.  `deriv` carries dM/dE
    by the product rule, on every lane if True, or on the first `deriv` lanes
    if an int; `norms` carries the running sum of squared norms over sites
    1..n; `peaks` the least p with 2**e * |entry| < 2**p at every site 1..n.
    Norms of unimodular products are at least 1, so the zero branches of
    `XReal.__add__` never apply after the first site.

    State is O(lanes * B + sites * groups): the factors of a block of sites
    are looked up at once, and with `norms` or `peaks` products wait in a
    buffer of B sites, and a mark gets those fields when its block is done.
    """
    top, lanes = marks[-1], E.size
    n_d = lanes if deriv is True else int(deriv)
    if not 0 <= n_d <= lanes:
        raise ValueError("derivatives are carried on a prefix of the lanes")
    groups, group, sides = _lanes_by_group(side, theta, lanes)
    symbols = _symbols(groups, top)
    # the state holds the products, then dM/dE of the first n_d lanes: T dM is
    # one more step, with the factors and signs of the lane it belongs to
    group = np.concatenate((group, group[:n_d]))
    E = np.concatenate((E, E[:n_d]))
    span = E - lam
    width = lanes + n_d
    left = np.array([s == "left" for s in sides + sides[:n_d]])
    sign = np.where(left, 1.0, -1.0)
    # a step multiplies the largest entry by at most max |t| + 1; a Python
    # float, so that the bounds below go to inf without a warning
    growth = float((max(np.abs(E).max(initial=0.0), np.abs(span).max(initial=0.0)) + 1.0)
                   * _SLACK)
    # per lane the rows that put its entries in (a, b, c, d) order
    order = np.where(left[:lanes], np.array(_ROWS["left"])[:, None],
                     np.arange(4)[:, None])[:, None]
    # two buffers of (X, Y, zeros), each lane's halves along axis 1; a site
    # steps from one into the other, which keeps X of the old product for
    # the derivative, and the zeros complete it to the operand (X, 0) of `_add`
    buffers = np.zeros((2, 3, 2, width))
    buffers[0, 0, 0, :lanes] = buffers[0, 1, 1, :lanes] = 1.0  # a and d on every side
    cur, nxt = (_Buffer(b[:2, None], b[:2], b[::2, :, :n_d], b[:2, :, lanes:]) for b in buffers)
    e = np.zeros(width, dtype=np.int64)
    # with peaks every site is checked, so no bound is kept
    bound = math.inf if peaks else 1.0
    # exact norm sums need B <= `_block_sites`; without them 32 sites keep the
    # factor and peak buffers small
    size = _block_sites(growth) if norms else min(_block_sites(growth), 32)
    # per site of a block the step's factors [[t, f], [s, 0.0]]: row one
    # multiplies x and row two y, column one gives the new X and column two Y
    factors = np.zeros((size, 2, 2, 1, width))
    factors[:, 0, 1, 0] = -sign
    factors[:, 1, 0, 0] = sign
    steps = list(factors)
    terms = np.empty((2, 2, 2, width))  # x and y times their factors
    x_terms, y_terms = terms
    # work arrays of the derivative's `_add` and of its rescale check
    work = _add_work(cur.dm)
    entries_abs = np.empty(cur.dm.shape)
    maxima = [None] * size
    if norms:
        block_m = np.empty((4, size, lanes))
        block_e = np.empty((size, lanes), dtype=np.int64)
        # XReal zero; its exponent 0 never sets top, as squared norms are >= 1
        carry = np.zeros(lanes), np.zeros(lanes, dtype=np.int64)
    if peaks:
        # each lane's largest |entry| and exponent before the site's rescale
        block_p = np.empty((size, width))
        block_pe = np.empty((size, lanes), dtype=np.int64)
        maxima = list(block_p)
        # a det-1 product has an entry of at least 2**-0.5, so its p is >= 0
        high = np.zeros(lanes, dtype=np.int64)
    done = 0  # marks that have their block fields
    out: list[_Mark] = []
    pending = iter(marks)
    want = next(pending)
    for n in range(1, top + 1):
        j = (n - 1) % size
        if j == 0:  # the factors of each lane over the next block of sites
            rows = symbols[n - 1:n - 1 + size][:, group]
            factors[:len(rows), 0, 0, 0] = np.where(rows, span, E)
        np.multiply(cur.step, steps[j], out=terms)
        m = np.add(x_terms, y_terms, out=nxt.m)
        if peaks:
            block_pe[j] = e[:lanes]
        e_old, old = e, bound
        m, e, bound = _renorm(m, e, bound * growth, maxima[j])
        if n_d:
            # (T M)' = T M' + T' M and (M T)' = M' T + M T' with T' = [[1, 0],
            # [0, 0]]: T' M keeps row one of M, M T' column one, which is X
            de = e[lanes:]
            _add_lanes(cur.x, e_old[:n_d], nxt.dm, de, (nxt.dm, de), work)
            # one test of all the derivative lanes; a lane rescales only
            # where its own largest entry passes 2**256
            grown = (old + bound) * _SLACK
            if not grown <= _RENORM:
                grown = float(np.maximum.reduce(np.abs(nxt.dm, out=entries_abs), axis=None))
                if not grown <= _RENORM:
                    grown = _renorm(nxt.dm, de, grown, out=de)[2]
            bound = max(bound, grown)
        cur, nxt = nxt, cur
        if n == want:
            entries = m.reshape(4, width)
            out.append(_Mark(n, entries[:, :lanes].copy(), e[:lanes].copy(),
                             *((entries[:, lanes:].copy(), e[lanes:].copy()) if n_d
                               else (None, None))))
            want = next(pending, None)
        if norms:
            block_m[:, j] = m[..., :lanes].reshape(4, lanes)
            block_e[j] = e[:lanes]
        if (norms or peaks) and (j == size - 1 or n == top):
            fields = {}
            if norms:
                # in (a, b, c, d) order, as `_norm_sq` adds the squares
                block = np.take_along_axis(block_m[:, :j + 1], order, axis=0)
                norm_m, norm_e = _norm_sq_lanes(block, block_e[:j + 1])
                sum_m, sum_e = _running_sums(norm_m, norm_e, carry)
                carry = sum_m[j], sum_e[j]
                fields.update(norm_m=norm_m, norm_e=norm_e, sum_m=sum_m, sum_e=sum_e)
            if peaks:
                # frexp(mx)[1] + e is the same before and after a rescale
                peak = block_pe[:j + 1]  # the buffer is spent: add in place
                peak += np.frexp(block_p[:j + 1, :lanes])[1]
                np.maximum(peak[0], high, out=peak[0])
                np.maximum.accumulate(peak, axis=0, out=peak)
                high = peak[j].copy()
                fields.update(peak=peak)
            for i in range(done, len(out)):
                at = out[i].n - (n - j)
                out[i] = out[i]._replace(**{name: v[at].copy() for name, v in fields.items()})
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
# products and traces
#
# The functions whose E is `Energies` take one energy or a sequence of them.
# A sequence is swept in one pass, one lane per energy, and gives one result
# per energy, in order.
# ----------------------------------------------------------------------------

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


class TraceTable(NamedTuple):
    """Traces at lengths F(0..k_max) of one (side, phase), one row per energy.

    `derivs` holds their energy derivatives, or None; `peaks`, an (energies,
    levels) int array, per product the least p with every |entry| of the
    products along its sites below 2**p, the scale of its rounding in
    `phase_trace_parity`.
    """

    traces: list
    derivs: list | None
    peaks: np.ndarray


def _trace_tables(marks, n: int, scalar: bool, groups: int, with_derivs: int) -> list:
    """A `TraceTable` per group of n lanes of a sweep with peaks; the first `with_derivs`
    groups carry derivatives, as the sweep's `deriv` prefix does."""
    traces = [_trace_xreals(mark.m, mark.e) for mark in marks]
    peaks = np.array([mark.peak for mark in marks]).T
    derivs = [_trace_xreals(mark.dm, mark.de) for mark in marks] if with_derivs else []

    def table(g: int) -> TraceTable:
        def rows(columns):
            return _per_energy([column[g * n:(g + 1) * n] for column in columns], scalar)
        lanes_g = peaks[g * n:(g + 1) * n]
        return TraceTable(rows(traces), rows(derivs) if g < with_derivs else None,
                          lanes_g[0] if scalar else lanes_g)

    return [table(g) for g in range(groups)]


def dual_traces_upto(k_max: int, E: Energies, lam: float, theta: PhasePoint) -> TraceTable:
    """The right `TraceTable` of `phase_traces` at one phase: traces, derivatives, peaks."""
    lanes, scalar = _lanes(E)
    marks = _sweep("right", lanes, lam, theta, _fib_marks(k_max), deriv=True, peaks=True)
    return _trace_tables(marks, lanes.size, scalar, 1, 1)[0]


def phase_traces(k_max: int, E: Energies, lam: float, thetas):
    """Right and left traces of every phase and the phase-zero traces, one pass.

    Returns a (right, left) pair of `TraceTable`s per phase, the right ones
    with derivatives, and the right table at phase zero: that of a phase of
    the list that is zero, else one swept in lanes of its own.  All lanes
    share one sweep, bit-identical to a sweep per (side, phase).
    """
    lanes, scalar = _lanes(E)
    thetas = list(thetas)
    at_zero = next((i for i, theta in enumerate(thetas) if theta.raw == 0), None)
    groups = ([("right", theta) for theta in thetas] + [("left", theta) for theta in thetas]
              + ([("right", PhasePoint.zero())] if at_zero is None else []))
    n = lanes.size
    marks = _sweep([side for side, _ in groups for _ in range(n)], np.tile(lanes, len(groups)),
                   lam, [theta for _, theta in groups for _ in range(n)], _fib_marks(k_max),
                   deriv=len(thetas) * n, peaks=True)
    tables = _trace_tables(marks, n, scalar, len(groups), len(thetas))
    pairs = list(zip(tables, tables[len(thetas):2 * len(thetas)]))
    return pairs, tables[at_zero if at_zero is not None else -1]


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
    sides = [s for s in blocks for _ in lanes]
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


def norm_trace_margin(total: XReal, deriv: XReal) -> XReal | None:
    """Margin 4 * (||M||^2_{F(k)})^{3/2} - |d trace/dE| of the norm/derivative inequality.

    `total` is the squared-norm sum over the window F(k) and `deriv` the
    energy derivative of the level-k trace; the margin must be >= 0.  The
    cubed windowed norm means the 3/2 power of the squared-norm sum, matching
    the squared object the window is defined on.  None marks a margin below
    -1e-8 * scale, which falsifies the implementation.
    """
    lhs = 4.0 * total.pow_3_2()
    rhs = abs(deriv)
    margin = lhs - rhs
    scale = lhs + rhs
    return None if margin < -MARGIN_TOL * scale else margin


def norm_trace_inequality(k: int, E: float, lam: float, theta: PhasePoint) -> XReal:
    """`norm_trace_margin` at level k, from one sweep over F(k) sites.

    A margin below -1e-8 * scale falsifies the implementation and raises.
    """
    (mark,) = _sweep("right", _lanes(E)[0], lam, theta, [fib_number(k)], deriv=True, norms=True)
    margin = norm_trace_margin(_xreals(mark.sum_m, mark.sum_e)[0],
                               _trace_xreals(mark.dm, mark.de)[0])
    if margin is None:
        raise MarginViolationError.at(k, E, lam)
    return margin


# ----------------------------------------------------------------------------
# phase invariance of traces
# ----------------------------------------------------------------------------

def _gap_ratio(x: XReal, ref: XReal, k: int, peak: int, ref_peak: int) -> float:
    """|x - ref| over its allowance in the error model of `phase_trace_parity`."""
    gap = abs(x - ref)
    if not gap:
        return 0.0
    rounding = TRACE_ROUNDING * fib_number(k) * 2.0**-53
    allowance = (TRACE_EQUALITY_TOL * max(abs(x), abs(ref), _ONE)
                 + XReal(rounding, 2 * peak) + XReal(rounding, 2 * ref_peak))
    return 2.0 ** min(gap.log2() - allowance.log2(), 64.0)


def phase_trace_parity(theta: PhasePoint, traces, refs) -> tuple[ParityReport, ParityReport]:
    """Compare the traces at phase theta against phase zero, level by level.

    `traces` is the (right, left) pair of `TraceTable`s at theta and `refs`
    the right table at phase zero, as `phase_traces` gives them, over one grid
    of energies.  A level passes when every energy meets the error model
    below; on each half-line all even levels or all odd levels must pass,
    else `TraceParityError`.  Returns a (right, left) pair of `ParityReport`s
    whose `per_k` holds per level the worst ratio of the gap to its allowance.

    Error model.  A trace x of the sweep at level k and its phase-zero
    reference x0 pass when

        |x - x0| <= TRACE_EQUALITY_TOL * max(1, |x|, |x0|)
                    + TRACE_ROUNDING * F(k) * 2**-53 * (P**2 + P0**2),

    P and P0 the peaks of the two tables: powers of two above every entry the
    products pass through on their F(k) sites.  Rounding follows those
    entries, not the trace: at strong coupling a det-1 product can pass
    entries of 1e7 and end near trace 1, and the cancellation leaves an
    error of about 2**-53 times their square, far above 2**-53 times the
    final norm.  The model is empirical: against 400-bit references (the
    trace-map recursion at phase zero, products at random phases on both
    sides), over random couplings up to 10**4 and energies on and off the
    bands and near E = lam - 1 and E = 0, where such cancellations happen,
    the error stayed below 26.3 * F(k) * 2**-53 * P**2, and TRACE_ROUNDING
    keeps a factor 2.4 above that.  The allowance grows as P**2, so where
    products grow the gate cannot fail: at coupling 10 it reaches the traces
    themselves near level 16.
    """
    if not refs.traces or any(len(table.traces) != len(refs.traces) for table in traces):
        raise ValueError("trace tables must share one nonempty energy grid")
    reports = []
    for side, table in zip(("right", "left"), traces):
        ratios = [max(_gap_ratio(row[k], ref[k], k, int(peak[k]), int(ref_peak[k]))
                      for row, peak, ref, ref_peak in zip(table.traces, table.peaks,
                                                         refs.traces, refs.peaks))
                  for k in range(len(refs.traces[0]))]
        report = ParityReport.of(side, ratios, [ratio <= 1.0 for ratio in ratios])
        if not (report.even_ok or report.odd_ok):
            raise TraceParityError(f"no parity class passes for {side} traces at theta={theta}")
        reports.append(report)
    return reports[0], reports[1]
