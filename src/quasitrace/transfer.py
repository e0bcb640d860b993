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
multiplies two of them and rescales when an entry passes its threshold,
`_lane_limit` of the energy: 2**256, or 2**1022 / g where that is lower, g =
max(|E|, |E - lam|) + 1, so that the next factor cannot overflow.  `_add`
rescales sums past 2**256; `_norm_sq` gives the squared spectral norm as an
XReal.  They are the specification whose values the sweep keeps (see "Value
identity"), and the tests build their scalar products on them.

Sweep kernel.  `_sweep` is the only loop over sites.  It multiplies the
one-site matrices along the potential for many lanes at once: the lanes are
(side, phase) groups times one grid of energies, and each group steps along
its half-line and potential.  A `traces` run over P phases makes 1 + P
sweeps: `phase_traces` sweeps both sides of every phase and the phase-zero
reference in one, with the right derivatives, and per phase `norm_profile`
sums the right and left norms in one.  The margins of `norm_trace_margin`
read their derivatives and norm sums off these sweeps.

- lane state: the four float64 entries of the product and an int64 exponent
  per lane; with derivatives, the same again for dM/dE on the lanes of a
  prefix of the groups, whose exponent is that of its product (see
  "Derivative lanes").  The entries live in one preallocated buffer of
  B + 1 slots, and each site of a block of B sites steps from one slot into
  the next with `out=` (see "Calls per site").  The loop over sites does
  only the 2x2 step and the derivative; the rescale runs once per block
  (see "Block rescale").
- factors: a (sites, groups) array of potential symbols; per block one
  lookup gives every lane its factors, so memory is O(lanes * B + sites *
  groups) however many groups share the sweep.
- with norms, per block `_norm_sq_lanes` takes the squared norms of all its
  stored products in one call, and `_running_sums` their running sums in
  one float64 `np.add.accumulate`; with peaks, one running maximum of
  exponents per block gives the peaks.  State is O(lanes * B); nothing else
  is kept per site except at the requested marks (site counts).
- at each mark it records the product, its derivative, the norm at that
  site, the running norm sum and the peak, so traces, derivative traces,
  windowed norm sums and rounding scales at all Fibonacci lengths come from
  one pass.

Block rescale.  A product lane is checked against its threshold once per block
of B sites, at the block's last site, not at every site as in `_mul`.  A step
multiplies the largest |entry| by at most `growth`, the largest |t| + 1 of the
sweep with a rounding slack, and `_rescale_sites` takes the largest B up to a
cap with growth**B <= the least threshold: at coupling 10 over energies in
[-3, 13], 32 sites (the cap) without norms and 67 with them.  At a block's end
every lane whose largest |entry| passes its threshold / growth**B, and so
could pass the threshold within the next block, is scaled into [0.5, 1) by
`_renorm`, and its derivative lane takes the same scale.  So no stored entry
passes its lane's threshold, and within a block a site is only the step and
the derivative.  Where growth**2 passes the least threshold (factors beyond
about 2**128, as at coupling 1e300) B is 1, and the check is that of `_mul`,
|entry| > threshold, at every site, the last one included, in its order: the
product's rescale, then the check of `d_bound`, then the mark.  Those sweeps
keep the raw split of the scalar layer.  With B > 1 nothing is rescaled after
the last site, as nothing follows it.  The cap is `_block_sites` with norms
(see "Norm sums") and 32 without, which keeps the buffers small.  The peaks
are read once per block from its stored products: frexp(max |entry|)[1] + e, e
the exponent of the block, which changes only at its end.  They do not depend
on where a lane rescales: a scale by 2**-ex lowers frexp of the largest entry
by ex and raises e by ex.

Value identity.  Every product lane does the IEEE operations of the scalar
layer in the same order: `_mul` per factor, `_norm_sq` and `XReal.__add__`
for norm sums.  It rescales at other sites than `_mul` does, but every
rescale is a scaling by a power of two, and IEEE rounding does not change
under a common power-of-two scale while no entry leaves the normal range:
numpy's elementwise float64 operations are correctly rounded IEEE-754
binary64 operations like Python's float arithmetic, each one rounds on its
own (no fused multiply-add), and frexp/ldexp by powers of two are exact.  So
each entry of a product has the value that the scalar layer gives, and only
its split into entry and exponent differs.  The one exception is an entry
more than 2**1021 below the largest entry of its matrix: a scale that puts
the largest entry into [0.5, 1) puts it below the normal range, where it
rounds or flushes to zero, so where one split takes such a scale and the
other does not, its value can differ.  The outputs do not depend on the
split: traces, derivative traces and norm sums are XReals normalized from
the entries, and a peak is the exponent of the largest entry.  They keep the
bits of the scalar layer; the tests hold them to it bit for bit, and the
products by value with that one exception.  Two rewrites keep the bits:
x * 1.0 is x, and x * -1.0 + y is y - x.  The 0.0 * x terms are kept, because
they fix the sign of zero entries.  Which lanes share a sweep sets B and the
cutoff threshold / growth**B through its largest factor, so it can change
the split of a product but not its values; lanes over the same energies keep
their bits in any groups and any order.

The scales 2**-ex of a rescale and 2**shift of `_add` come from one table,
`_HALVES[i]` = ldexp(1.0, -i) for i = 0..1075, taken with mode="clip".  That
is ldexp(1.0, -max(k, 0)) for every integer k: a k below 0 reads 1.0, the
scale of the operand with the larger exponent, and one above 1075 reads
`_HALVES[1075]` = 0.0, as ldexp(1.0, -k) is 0.0 for every k >= 1075 (2**-1075
is half the least subnormal and rounds to even).  Where |shift| > 1080 `_add`
returns the larger operand untouched, and so does `_add_lanes`: adding the
other operand's 0.0 would turn a -0.0 entry into 0.0.

Derivative lanes.  A derivative lane shares its product lane's exponent e:
it is not checked against a threshold, and `_renorm` copies its owner's ex to
it before the one `take` of the scales, so it takes every rescale of its owner.
Both operands of the product rule, T dM and (X, 0), then carry the exponent
of the old product, and the rule is one `np.add`.  The scalar rule rescales
T dM on its own and aligns the operands of `_add` by 2**shift; all of these
are scalings by powers of two, so, as for the products, each entry of dM has
the value that `_add` gives and only its split differs; the derivative
traces, XReals normalized from dM[0] + dM[3], keep their bits.  Values can
differ only where an entry leaves the normal range.  At |E| near 1e300 dM
lies about 1e-300 below its product, and its entries 1e-300 below its largest
round to 0.0 in the shared exponent; where the scalar rule drops an operand
by its far-shift branch, a zero entry can differ in sign.  The traces,
dominated by the largest entry, kept their bits in every such case tried:
the lane tests at coupling or energy near 1e300, and 300 random draws of both
up to 1e300 against the scalar rule.

dM is never squared, so it needs no rescale of its own; it only must not
overflow in the next step.  No stored product entry passes 2**256, so
|T dM + X| <= growth * |dM| + 2**256 (the rounding slack is in `growth`), and
the Python float `d_bound` carries that bound from site to site.  Where it
passes `d_limit`, 2**1022 / growth but at least 1.0, `_renorm` with `limit`
takes the largest |entry| of every derivative lane, which becomes the new
bound, and rescales into [0.5, 1) each lane whose own entries pass the limit:
that lane leaves its owner's exponent.  Until a later check finds every lane
back on its owner's exponent, the product rule runs as `_add_lanes`, the
general `_add` per lane; on a lane whose exponent is its owner's both
operands take the scale 1.0, so it gets the bits of the one add.  A lane off
its owner's exponent still takes its owner's rescales, as no power-of-two
scale changes a value.  `d_bound` bounds every lane, so a lane leaves exactly
where its own entries pass `d_limit`; that limit follows the largest factor
of the sweep, so the split of a derivative lane that leaves, but not its
values, can depend on the other lanes.  The general add ran at 0 of the
17,711 sites of the `phase_traces` sweep of the benchmark's `traces-large`
run, at 0 of 987 of the default `traces` run, and at 373 of 377 of `traces
--lambda 1e300 --k-max 12 --energies=-1:1:5 --theta 1/3`, where a derivative
outgrows its product by about lambda per level.  `d_bound` passed the limit
at 88, 4 and 377 of those sites.

Norm sums.  They keep the bits of one `XReal.__add__` per site, though they
are summed a block at a time.  `_norm_sq_lanes` normalizes each stored
product, as `_norm_sq` does, so the squared norms do not depend on its split.
For normalized positive operands that add is the binary64 sum of the values
scaled by a common power of two while the larger stays normal: scaling does
not change IEEE rounding.  `_running_sums` scales a lane's carry and block
values by 2**-top (top their largest exponent), adds them in float64 and
splits the sums back with `frexp`.  Squared norms of det-1 products change by
at most g**2 per site, g = `growth` (||T|| <= |t| + 1), and B <=
`_block_sites(g)` keeps 2 * (B + 1) * log2(g) <= 960, so every running sum
stays within 2**960 of its block's largest value, normal and exact.  A value
that goes subnormal lies below half an ulp of the sum it joins and rounds
away in both forms, as in the `shift < -1080` branch.  Where no B fits, B = 1
and a block is one add, whose larger operand scales into [0.5, 1).

Steps.  Every lane runs one step, x * t + y * s and x * -s + y * 0.0 with s =
-1 on the right lanes and 1 on the left ones, both halves from one product of
(X, Y) with per-lane factor arrays.  By the same rewrites that is x * t - y
and x + y * 0.0 on the right, x * t + y and -x + y * 0.0 = y * 0.0 - x on the
left, the steps of `_mul` (addition commutes in IEEE arithmetic), with the
signs of zeros kept.  The derivative step is the same on both sides: the step
of dM/dE plus X of the old product (see `_sweep`), run as extra lanes after
the products, with the factors and signs of the lanes they belong to.  Every
operation is elementwise, so the order of the lanes changes no bits.  Each
lane's factor is E or E - lam of its own energy, picked by its group's symbol
at the site.  On every side, one gather per block puts each lane's entries in
(a, b, c, d) order before its squared norms, so the squares add in the order
of `_norm_sq`.

Calls per site.  The state is one (B + 1, 3, 2, lanes) buffer: per slot
(X, Y) and a block of zeros.  A site multiplies (X, Y) of its slot by the
step's factors [[t, f], [s, 0.0]] with one `np.multiply` and sums the two
terms into the next slot with one `np.add`.  The old slot keeps X, and its
zeros complete it to the operand (X, 0) of the derivative's product rule,
added in place into the derivative lanes with one more `np.add`.  At a
block's end the lookup of the next block's factors is one `np.where`, and
the peaks are six calls: `np.abs`, the `max` over entries, `np.frexp`, the
add of the exponents, `np.maximum` and `np.maximum.accumulate`.  The
rescale's check is one `np.abs` and two `np.maximum.reduce`, and a rescale
adds six calls: `np.frexp`, the comparison and product that zero ex on the
other lanes, one `take` of the scales, the in-place product of the entries
and the new exponents.  The copy of a block's last slot into its first is
indexing.  Where `d_bound` passes its limit, the check of the derivative
lanes is the same three calls and `np.array_equal`.  `_add_lanes`, where it
runs, makes eight calls into work arrays made once per sweep: the shifts and
their negatives, one `take` of both scales, the |shift| > 1080 test, the
scaled sum (three) and the exponents.  Counting ufunc calls, ufunc methods,
numpy functions and the reducing ndarray methods (not numpy scalar arithmetic
or indexing), each weighted by how often its branch runs, the `phase_traces`
sweep of the benchmark's `traces-large` run (17,711 sites, 288 product lanes
and 96 derivative lanes) made per site, in the step, the rescale, the
derivative and the block's factor lookup and peaks, and took in CPU seconds
(median over 16 fresh processes of the best of 3 calls, on a 2-vCPU Xeon),
with a rescale check at every site as `_mul` has it and once per block:

                          step  rescale  derivative  block  total  seconds
    check at every site    2.0     7.73        1.02   0.16  10.91     0.43
    check once per block   2.0     0.28        1.02   0.22   3.52     0.25

The check at every site rescaled at 13,951 sites; once per block, 552 of the
554 blocks of 32 sites rescale, and the derivative is one add per site plus
the check of `d_bound`, 0.02 calls per site at its 88 sites (see "Derivative
lanes").  Without its 96 derivative lanes the same sweep took 0.17 s (0.33 s
with the check at every site).  Where some lane's threshold is below 2**256,
which needs a factor of 2**766 or more, each check takes one more call for
the least threshold.  `_add_lanes` stays a function: by `timeit` on 96 lanes
the call costs at most 0.3 us per site over its body inlined in the loop, and
its own test holds it to `_add` at the |shift| edges.

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
import sys
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

def _lane_limit(E, lam: float):
    """The rescale threshold of a product at energy E (a number or an array).

    A step multiplies the largest entry by at most g = max(|E|, |E - lam|) + 1,
    so entries up to 2**1022 / g stay finite through the next one; the
    threshold is that or 2**256, whichever is lower, and 2**256 for g below
    2**766.
    """
    return np.minimum(_RENORM, 2.0**1022 / (np.maximum(np.abs(E), np.abs(E - lam)) + 1.0))


def _mul(m1, m2, limit=_RENORM):
    a1, b1, c1, d1, e1 = m1
    a2, b2, c2, d2, e2 = m2
    a = a1 * a2 + b1 * c2
    b = a1 * b2 + b1 * d2
    c = c1 * a2 + d1 * c2
    d = c1 * b2 + d1 * d2
    mx = max(abs(a), abs(b), abs(c), abs(d))
    if mx > limit:
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
    return rotation_block(lo, hi, theta)


# ----------------------------------------------------------------------------
# the sweep kernel: one lane per (side, phase) group and energy
# ----------------------------------------------------------------------------

# The product of each lane is 2**e * [[a, b], [c, d]], its entries stacked as
# rows of a (4, lanes) array: the halves X = rows 0-1 and Y = rows 2-3 are the
# two rows of the matrix on the right side, where factors multiply from the
# left, and its two columns on the left side.  A step maps (X, Y) to the new
# halves: T @ M with T = [[t, -1], [1, 0]] on the right is (x * t - y,
# x + y * 0.0), M @ T on the left is (x * t + y, y * 0.0 - x).  `_sweep` runs
# both as x * t + y * s, x * f + y * 0.0 with (s, f) = (-1, 1) on the right
# and (1, -1) on the left; see "Steps".
_ROWS = {"right": [0, 1, 2, 3], "left": [0, 2, 1, 3]}  # of a, b, c, d

# Rounding slack of `growth`, the bound on what one step does to the largest
# entry: a step x * t - y rounds twice, so |new entry| <= (|t| + 1) * bound *
# (1 + 2**-53)**2, and each product of bounds and powers of `growth` rounds
# once more; 2**-40 per site covers all of it.
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


def _renorm(m, e, bound, out=None, owned=0, limit=_RENORM):
    """The rescale of `_mul` and `_add`, per lane, in place on `m`.

    `m` holds the entries of each lane along its last axis, and `bound` is an
    upper bound on every |entry|, or inf where none is kept.  `limit` is the
    rescale threshold, one number or one per lane (`_lane_limit`).  While the
    bound stays at or below the least limit no lane can need rescaling and
    nothing is checked; otherwise only lanes whose own largest |entry| passes
    their limit are rescaled.  Their new exponents go to `out` (a new array if
    None).  With a finite `bound`, the largest |entry| after the rescale is
    the new bound; with inf, the bound stays inf.  The sweep passes inf and a
    `limit` of threshold / growth**B at a block's end (see "Block rescale"),
    and a finite bound for its derivative lanes.  The last `owned` lanes are
    the derivatives of the first `owned` ones: they are not checked, they take
    their owner's rescale, and the bound does not cover them (see "Derivative
    lanes").  Returns (m, e, bound).
    """
    least = limit if isinstance(limit, float) else float(limit.min())
    if bound <= least:
        return m, e, bound
    mx = np.maximum.reduce(np.abs(m).reshape(-1, m.shape[-1]), axis=0)
    lanes = mx.size - owned
    top = float(np.maximum.reduce(mx[:lanes], initial=0.0))
    if top <= least:
        return m, e, top if bound < math.inf else bound
    ex = np.frexp(mx)[1]
    ex *= mx > limit  # 0 on the other lanes: a scale of 1.0 keeps their bits
    ex[lanes:] = ex[:owned]
    s = _HALVES.take(ex, mode="clip")
    m *= s
    if bound < math.inf:
        # exact: the largest entry of a rescaled lane lands in [0.5, 1)
        bound = float(np.maximum.reduce(np.multiply(mx, s, out=mx)[:lanes]))
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
    """B of "Norm sums": max B <= 256 with 2 * (B + 1) * log2(growth) <= 960, else 1."""
    bits = math.log2(growth)
    return min(256, max(1, math.floor(480.0 / bits) - 1)) if bits < 480.0 else 1


def _rescale_sites(growth: float, least: float, cap: int) -> int:
    """B of "Block rescale": the most sites up to `cap` with growth**B <= least, at least 1."""
    size, reach = 1, growth
    while size < cap and reach * growth <= least:
        size, reach = size + 1, reach * growth
    return size


def _running_sums(m, e, carry):
    """`XReal.__add__` per site over norms (sites, lanes) from `carry`; see "Norm sums"."""
    top = np.maximum(e.max(axis=0), carry[1])
    vals = np.ldexp(m, e - top)
    vals[0] += np.ldexp(carry[0], carry[1] - top)
    sum_m, ex = np.frexp(np.add.accumulate(vals, axis=0, out=vals))
    return sum_m, ex + top


def _symbols(groups, top: int) -> np.ndarray:
    """(top, groups) booleans: whether the n-th factor of each group has potential 1."""
    rows = [_potential_pattern(theta, 1, top) if side == "right"
            else _potential_pattern(theta, -top + 1, 0)[::-1]  # site 0, -1, -2, ...
            for side, theta in groups]
    return np.stack([np.frombuffer(r.encode(), dtype=np.uint8) == ord("1") for r in rows],
                    axis=1)


def _sweep(groups, E: np.ndarray, lam: float, marks, *, deriv: int = 0,
           norms: bool = False, peaks: bool = False) -> list[_Mark]:
    """Multiply the one-site matrices for every lane; record at marks.

    `groups` are (side, phase) pairs: side "right" is T(n)...T(1) over sites
    1..n, "left" T(0)T(-1)... over sites 0, -1, ....  Every group sweeps
    every energy of `E`: lane g * E.size + i is energy E[i] of group g, reads
    its factors from the group's row of symbols and keeps its entries in the
    row order of its side.  `marks` are increasing site counts >= 1.
    `deriv` carries dM/dE by the product rule on the first `deriv` groups;
    `norms` carries the running sum of squared norms over sites 1..n; `peaks`
    the least p with 2**e * |entry| < 2**p at every site 1..n.  Norms of
    unimodular products are at least 1, so the zero branches of
    `XReal.__add__` never apply after the first site.

    State is O(lanes * B + sites * groups): the products of a block of B
    sites stay in a buffer, whose factors are looked up at once and whose
    norms, peaks and rescale are taken when the block is done; a mark gets
    its norm and peak fields then.
    """
    if not {side for side, _ in groups} <= {"right", "left"}:
        raise ValueError("a sweep takes ('right' or 'left', phase) groups")
    if not 0 <= deriv <= len(groups):
        raise ValueError("derivatives are carried on a prefix of the groups")
    top, n = marks[-1], E.size
    lanes, n_d = len(groups) * n, deriv * n
    symbols = _symbols(groups, top)
    # the state holds the products, then dM/dE of the first `deriv` groups: T dM
    # is one more step, with the factors and signs of the lane it belongs to
    owners = [*range(len(groups)), *range(deriv)]
    group = np.repeat(owners, n)
    left = np.repeat([groups[g][0] == "left" for g in owners], n)
    E = np.tile(E, len(owners))
    span = E - lam
    width = lanes + n_d
    sign = np.where(left, 1.0, -1.0)
    # each product lane's rescale threshold: 2**256 unless its energy or
    # coupling is near float range
    limit = _lane_limit(E, lam)
    if (limit == _RENORM).all():
        limit = _RENORM
    # a step multiplies the largest entry by at most max |t| + 1; a Python
    # float, so that the bounds below go to inf without a warning
    growth = float((max(np.abs(E).max(initial=0.0), np.abs(span).max(initial=0.0)) + 1.0)
                   * _SLACK)
    # derivative lanes at most this large stay finite through the next step
    # and its add, and a lane that passes it takes an exponent of its own;
    # at least 1.0, so a rescale into [0.5, 1) puts any lane below it
    d_limit = max(2.0**1022 / growth, 1.0)
    # B sites per block (see "Block rescale"): exact norm sums need B <=
    # `_block_sites`, and without them 32 sites keep the buffers small
    size = _rescale_sites(growth, float(np.min(limit)),
                          _block_sites(growth) if norms else 32)
    # lanes past this at a block's end could pass their threshold within the
    # next block; one-site blocks check the threshold itself, as `_mul` does
    cutoff = limit if size == 1 else limit / growth**size
    # per lane the rows that put its entries in (a, b, c, d) order
    order = np.where(left[:lanes], np.array(_ROWS["left"])[:, None],
                     np.arange(4)[:, None])[:, None]
    # the products of the block's sites, after the one it starts from: per
    # slot (X, Y, zeros), each lane's halves along axis 1.  A site steps from
    # one slot into the next, which keeps X of the old product for the
    # derivative, and the zeros complete it to the operand (X, 0) of the
    # product rule
    state = np.zeros((size + 1, 3, 2, width))
    state[0, 0, 0, :lanes] = state[0, 1, 1, :lanes] = 1.0  # a and d on every side
    products = state[1:, :2, :, :lanes]
    e = np.zeros(width, dtype=np.int64)
    de = e[lanes:]
    # per site of a block the step's factors [[t, f], [s, 0.0]]: row one
    # multiplies x and row two y, column one gives the new X and column two Y
    factors = np.zeros((size, 2, 2, 1, width))
    factors[:, 0, 1, 0] = -sign
    factors[:, 1, 0, 0] = sign
    # per site of a block: (X, Y) of the old product shaped to multiply the
    # step's factors, the factors, (X, Y) of the new product, (X, 0) of the
    # old product on the lanes that carry derivatives, and the new dM/dE
    steps = [(old[:2, None], f, new[:2], old[::2, :, :n_d], new[:2, :, lanes:])
             for old, new, f in zip(state, state[1:], factors)]
    terms = np.empty((2, 2, 2, width))  # x and y times their factors
    x_terms, y_terms = terms
    # the derivative lanes share their owners' exponents while `apart` is
    # False; `d_bound` bounds their entries, which no rescale check covers
    apart, d_bound = False, 0.0
    work = _add_work(steps[0][4])  # work arrays of the general add
    if norms:
        # XReal zero; its exponent 0 never sets top, as squared norms are >= 1
        carry = np.zeros(lanes), np.zeros(lanes, dtype=np.int64)
    if peaks:
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
        old, factor, m, x, dm = steps[j]
        np.multiply(old, factor, out=terms)
        np.add(x_terms, y_terms, out=m)
        if n_d:
            # (T M)' = T M' + T' M and (M T)' = M' T + M T' with T' = [[1, 0],
            # [0, 0]]: T' M keeps row one of M, M T' column one, which is X
            if apart:
                _add_lanes(x, e[:n_d], dm, de, (dm, de), work)
            else:
                np.add(dm, x, out=dm)
            # |T M' + X| <= growth * |M'| + 2**256, rounding included
            d_bound = (d_bound + _RENORM) * growth
        end = j == size - 1 or n == top
        if end:
            fields = {}
            block = products[:j + 1]
            if norms:
                # in (a, b, c, d) order, as `_norm_sq` adds the squares
                ordered = np.take_along_axis(block.reshape(j + 1, 4, lanes).transpose(1, 0, 2),
                                             order, axis=0)
                norm_m, norm_e = _norm_sq_lanes(ordered, e[:lanes])
                sum_m, sum_e = _running_sums(norm_m, norm_e, carry)
                carry = sum_m[j], sum_e[j]
                fields.update(norm_m=norm_m, norm_e=norm_e, sum_m=sum_m, sum_e=sum_e)
            if peaks:
                # the product lanes keep their exponents through a block
                peak = np.frexp(np.abs(block).max(axis=(1, 2)))[1] + e[:lanes]
                np.maximum(peak[0], high, out=peak[0])
                high = np.maximum.accumulate(peak, axis=0, out=peak)[j]
                fields.update(peak=peak)
            if n < top or size == 1:
                _renorm(m, e, math.inf, out=e, owned=n_d, limit=cutoff)
        if d_bound > d_limit:
            # lanes whose derivative passes the limit leave their owner's exponent
            d_bound = _renorm(dm, de, min(d_bound, sys.float_info.max), out=de,
                              limit=d_limit)[2]
            apart = not np.array_equal(de, e[:n_d])
        if n == want:
            entries = m.reshape(4, width)
            out.append(_Mark(n, entries[:, :lanes].copy(), e[:lanes].copy(),
                             *((entries[:, lanes:].copy(), de.copy()) if n_d
                               else (None, None))))
            want = next(pending, None)
        if end:
            for i in range(done, len(out)):
                at = out[i].n - (n - j)
                out[i] = out[i]._replace(**{name: v[at].copy() for name, v in fields.items()})
            done = len(out)
            state[0, :2] = state[j + 1, :2]
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
    marks = _sweep([(side, theta)], lanes, lam, _fib_marks(k_max))
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
    marks = _sweep([("right", theta)], lanes, lam, _fib_marks(k_max), deriv=1, peaks=True)
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
    marks = _sweep(groups, lanes, lam, _fib_marks(k_max), deriv=len(thetas), peaks=True)
    tables = _trace_tables(marks, lanes.size, scalar, len(groups), len(thetas))
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
    Its norms are summed a block of sites at a time; see "Norm sums".
    """
    ls = list(l_values)
    lanes, scalar = _lanes(E)
    if not ls:
        return [] if scalar else [[] for _ in range(lanes.size)]
    if 0 in ls:
        raise ValueError("window lengths must be nonzero")
    blocks = [side for side, sign in (("right", 1), ("left", -1))
              if any(l * sign > 0 for l in ls)]
    mags = sorted(set(abs(l) for l in ls))
    edges = {n for l in mags for n in (math.floor(l), math.floor(l) + 1)} - {0}
    at = {mark.n: mark for mark in _sweep([(side, theta) for side in blocks], lanes, lam,
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
    (mark,) = _sweep([("right", theta)], _lanes(E)[0], lam, [fib_number(k)], deriv=1,
                     norms=True)
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
