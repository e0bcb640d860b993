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
rescales sums past 2**256; `_norm_sq` gives the squared spectral norm as a
normalized (m, e) pair of `xfloat`.  They are the specification whose values
the sweep keeps (see "Value identity"), and the tests build their scalar
products on them.

Sweep kernel.  `_sweep` is the only loop over sites.  It multiplies the
one-site matrices along the potential for many lanes at once: (side, phase)
groups times one grid of energies.  A `traces` run over P phases makes 1 + P
sweeps: `phase_traces` sweeps both sides of every phase and the phase-zero
reference in one, with the right derivatives, and per phase `norm_profile`
sums the right and left norms in one; the margins of `norm_trace_margin`
read their derivatives and norm sums off these sweeps.  A lane holds the
last two rows X_n and X_{n-1} of its product (columns on the left; see
"Steps") and an int64 exponent; derivative lanes on a prefix of the groups
hold the same for dM/dE, with the exponent of their product (see
"Derivative lanes").  The rows of a block of B sites live in one (B + 2, 2,
lanes) buffer, and the loop over sites does only the step and the
derivative.  Per block, one maximum over the block's rows gives the peaks of
every sweep, `_norm_sq_lanes` and `_running_sums` the squared norms and their
running sums where it takes norms, and the rescale runs (see "Block rescale").
At each mark the sweep records the product, its derivative, the norm, the
running norm sum and the peak, so traces, derivative traces, windowed norm
sums and rounding scales at all Fibonacci lengths come from one pass.

Factor table.  The symbols of the G groups at a site, a pattern, set every
lane's factor there.  `_factor_table` builds, once per sweep, one (2, lanes)
row of factors per distinct pattern, U of them, t copied onto both rows of X
so that a step multiplies two operands of one shape, and the pattern of each
site as a code in the least unsigned dtype that holds U (uint8 up to 255
patterns); per block the codes of its sites become a short list, and a step
reads the factors of its site as one row of the table.  Each factor is the
float that np.where(symbol, E - lam, E) gives, so the table changes no bits.
There are at most 2G patterns.  Every group's symbol at row n is an arc
indicator of x = n omega~ mod 1: on the right v(n) = 1 for x in [1 - omega~ -
theta, 1 - theta), on the left v(1 - n) = 1 for x in (theta + omega~, theta +
2 omega~] (see `words.rotation_block`).  The 2G endpoints, D of them
distinct, cut the circle into D open arcs, on each of which the pattern is
constant.  At an endpoint where only right or only left arcs end, the
pattern is that of the arc after or before it; only a point where both kinds
end can hold a pattern of its own, and there are at most 2G - D such points,
so U <= D + (2G - D) = 2G.  The table holds U * 2 * lanes floats, derivative
lanes included: on the benchmark's `traces-large` sweep (G = 3, 384 lanes) 6
patterns in 37 KB, against 197 KB for a (B, 2, lanes) block of factors.  It
grows as G**2: `traces --random-thetas 30` (62 groups over 64 energies, 5,952
lanes) has 109 patterns on its 987 sites, 10.4 MB against 3.0 MB.  The state
of a sweep is O(lanes * (B + U) + sites).

Block rescale.  A product lane is checked against its threshold once per block
of B sites, at the block's last site, not at every site as in `_mul`.  A step
multiplies the largest |entry| by at most `growth`, the largest |t| + 1 of the
sweep with a rounding slack, and `_rescale_sites` takes the largest B up to a
cap with growth**B <= the least threshold: at coupling 10 over energies in
[-3, 13], 32 sites (the cap) without norms and 67 with them.  At a block's end
every lane whose largest |entry| passes its threshold / growth**B, and so
could pass the threshold within the next block, is scaled into [0.5, 1) by
`_renorm`, both rows and its derivative lane alike.  So no stored entry passes
its lane's threshold.  Where growth**2 passes the least threshold (factors
beyond about 2**128, as at coupling 1e300) B is 1, and the check is that of
`_mul`, |entry| > threshold, at every site, the last one included, in its
order: the product's rescale, then the check of `d_bound`, then the mark.
Those sweeps keep the raw split of the scalar layer.  With B > 1 nothing is
rescaled after the last site, as nothing follows it.  The cap is
`_block_sites` with norms (see "Norm sums") and 32 without, which keeps the
buffers small.  The peak of a site is frexp(max |entry|)[1] + e, and e changes
only at a block's end.  The product of a site is its row and the row before
(X_0 = (1, 0) is matched by the entry +-1 of X_1), so the peak over sites
1..n is the largest frexp over the rows X_1..X_n.  The exponent of frexp grows
with |x|, and no row of a det-1 product is zero, so that is the frexp of the
largest |entry| of those rows.  At a block's end `high`, the peak so far,
becomes the larger of itself and one frexp per lane of the largest |entry| of
the block's rows, plus e as it stands before the rescale; a mark inside the
block takes the larger of `high` from before the block and the same frexp
over the block's rows up to its site.  A scale by 2**-ex lowers the frexp by
ex and raises e by ex, so the peaks do not depend on where a lane rescales.

Value identity.  Every product lane does the IEEE operations of the scalar
layer in the same order: `_mul` per factor, `_norm_sq` and `xfloat.add` for
norm sums.  It rescales at other sites than `_mul` does, but every rescale is
a scaling by a power of two, and IEEE rounding does not change under a common
power-of-two scale while no entry leaves the normal range: numpy's elementwise
float64 operations are correctly rounded IEEE-754 binary64 operations like
Python's float arithmetic, each one rounds on its own (no fused multiply-add),
and frexp/ldexp by powers of two are exact.  So each entry of a product has
the value that the scalar layer gives, and only its split into entry and
exponent differs.  The one exception is an entry more than 2**1021 below the
largest entry of its matrix: a scale that puts the largest entry into [0.5, 1)
puts it below the normal range, where it rounds or flushes to zero, so where
one split takes such a scale and the other does not, its value can differ.
The outputs do not depend on the split: traces, derivative traces and norm
sums are (m, e) pairs normalized from the entries, and a peak is the exponent
of the largest entry.  They keep the bits of the scalar layer; the tests hold
them to it bit for bit, and the products by value with that one exception.
The step (see "Steps") drops the terms 0.0 * y of `_mul`, so a zero entry can
differ from `_mul`'s in sign.  No output sees it: `xfloat.normalized` turns
-0.0 into 0.0, peaks and norms read |entry|, and no nonzero value depends on
the sign of a zero, as x + (+-0.0) is x and t * (+-0.0) - y is -y.  Which
lanes share a sweep sets B and the cutoff threshold / growth**B through its
largest factor, so it can change the split of a product but not its values;
lanes over the same energies keep their bits in any groups and any order.

Derivative lanes.  A derivative lane shares its product lane's exponent e: it
is not checked against a threshold, and `_renorm` copies its owner's ex to it
before the one `take` of the scales, so it takes every rescale of its owner.
Both operands of the product rule, the step of dM and the row X_{n-1} of its
product, then carry the exponent of the old product, and the rule is one
`np.add` into dX_n.  The scalar rule rescales T dM on its own and aligns the
operands of `_add` by 2**shift; all of these are scalings by powers of two,
so, as for the products, each entry of dM has the value that `_add` gives and
only its split differs; the derivative traces, normalized from dM[0] + dM[3],
keep their bits.  Values can differ only where an entry leaves the normal
range.  At |E| near 1e300 dM lies about 1e-300 below its product, and its
entries 1e-300 below its largest round to 0.0 in the shared exponent; where
the scalar rule drops an operand by its far-shift branch, a zero entry can
differ in sign.  The traces, dominated by the largest entry, kept their bits
in every such case tried: the lane tests at coupling or energy near 1e300, and
300 random draws of both up to 1e300 against the scalar rule.

dM is never squared, so it needs no rescale of its own; it only must not
overflow in the next step.  No stored product entry passes 2**256, so
|T dM + X| <= growth * |dM| + 2**256 (the rounding slack is in `growth`), and
the Python float `d_bound` carries that bound from site to site.  Where it
passes `d_limit`, 2**1022 / growth but at least 1.0, `_renorm` with `limit`
takes the largest |entry| of every derivative lane, which becomes the new
bound, and rescales into [0.5, 1) each lane whose own entries pass the limit:
that lane leaves its owner's exponent.  Until a later check finds every lane
back on its owner's exponent, the product rule runs as `_add_lanes`, the
general `_add` per lane; on a lane whose exponent is its owner's both operands
take the scale 1.0, so it gets the bits of the one add.  A lane off its
owner's exponent still takes its owner's rescales, as no power-of-two scale
changes a value; it leaves upward, by an ex of at least 1, so its exponent is
never below its owner's, `_add` gives dM the scale 1.0, and dX_{n-1}, which
that scale would reach too, keeps its bits.  `d_bound` bounds every lane, so a
lane leaves exactly where its own entries pass `d_limit`; that limit follows
the largest factor of the sweep, so the split of a derivative lane that
leaves, but not its values, can depend on the other lanes.  The general add
runs at none of the sites of the benchmark's `traces-large` sweep or of the
default `traces` run, and at 373 of 377 of `traces --lambda 1e300 --k-max 12
--energies=-1:1:5 --theta 1/3`, where a derivative outgrows its product by
about lambda per level, so it allocates its temporaries at each call.

Norm sums.  They keep the bits of one `xfloat.add` per site, though they are
summed a block at a time.  `_norm_sq_lanes` normalizes each stored product,
as `_norm_sq` does, so the squared norms do not depend on its split.  For
normalized positive operands that add is the binary64 sum of the values
scaled by a common power of two while the larger stays normal: scaling does
not change IEEE rounding.  `_running_sums` scales a lane's carry and block
values by 2**-top (top their largest exponent), adds them in float64 and
splits the sums back with `frexp`.  Squared norms of det-1 products change by
at most g**2 per site, g = `growth` (||T|| <= |t| + 1), and B <=
`_block_sites(g)` keeps 2 * (B + 1) * log2(g) <= 960, so every running sum
stays within 2**960 of its block's largest value, normal and exact.  A value
that goes subnormal lies below half an ulp of the sum it joins and rounds
away in both forms, as it does past shift < -1080 in `xfloat.add`.  Where no
B fits, B = 1 and a block is one add, whose larger operand scales into [0.5,
1).  `norm_profile` adds the fractional edge term of a window with
`xfloat.mul` and `add`, and `norm_trace_margin` takes the 3/2 power of the
sums with `xfloat.sqrt` and `mul`, so norm sums and margins stay (m, e)
arrays from the sweep to the files.

Steps.  On the right M_n = T_n M_{n-1}, T = [[t, -1], [1, 0]], has the rows
(X_n, X_{n-1}); on the left M_n = M_{n-1} T_n has the columns (X_n,
-X_{n-1}).  Either way X_n = t X_{n-1} - X_{n-2}, and every lane runs
fl(fl(t * X_{n-1}) - X_{n-2}): the operations of `_mul`'s first row x * t +
y * -1.0, y = X_{n-2}, and first column x * t + y * 1.0, y = -X_{n-2}, as
y * -1.0 is -y and a + -b is a - b.  Its second row, x + 0.0 * y or 0.0 * y
- x, is +-X_{n-1} but for the sign of a zero (see "Value identity").  The
derivative, on lanes after the products with their owners' factors, is
fl(fl(fl(t * dX_{n-1}) - dX_{n-2}) + X_{n-1}): the same step plus row one of
the old product, which T' = [[1, 0], [0, 0]] keeps.  Every operation is
elementwise, so the order of the lanes changes no bits.  A mark holds the
product as rows 0-1 X and 2-3 +-X_{n-1}: (a, b), (c, d) on the right and
(a, c), (b, d) on the left.  One gather per block puts the entries in (a, b,
c, d) order before the squared norms, so the squares add in the order of
`_norm_sq`; the sign of -X_{n-1} changes no bit of them.

Calls per site.  Counting ufunc calls, ufunc methods, numpy functions and the
reducing ndarray methods (not numpy scalar arithmetic or indexing), each
weighted by how often its branch runs: the step is one `np.multiply` of two
(2, lanes) operands and one `np.subtract` into the next slot of the buffer,
the derivative one `np.add`.  At a block's end the peaks are five calls
(`np.abs`, `max`, `np.frexp`, the add of e, `np.maximum`), and four more (all
but `np.abs`) for each mark inside the block; the rescale check is `np.abs`
and two `np.maximum.reduce`, and a rescale six more (`np.frexp`, the
comparison and product that zero ex on the other lanes, the `take` of the
scales, the product of the entries, the new exponents).  Where `d_bound`
passes its limit its check is the same three calls and `np.array_equal`;
`_add_lanes` makes nine calls.  A sweep with norms pays the five calls of
the peaks per block too, 0.07 per site at the B = 67 of the default
`norm_profile`.  The `phase_traces` sweep of the benchmark's `traces-large`
run (17,711 sites, 288 product and 96 derivative lanes, 552 of 554 blocks of
32 sites rescaling, `d_bound` past its limit at 88 sites) makes per site:

    step  rescale  derivative  block  total
     2.0     0.28        1.02   0.16   3.46

Call counts hide the cost of each call.  By `timeit` at this sweep's shapes
(one 2-vCPU Xeon), `np.multiply` took 1.4-2.4 us where it broadcast a (lanes,)
row of factors over the (2, lanes) rows, against 0.9-1.1 us on two operands of
one shape, so the factors are stored once per row; and a running maximum
(`np.maximum.accumulate`) of the (32, 288) exponents of a block took 32-33 us
against 4 us for their plain `max`, so the peaks take one maximum per block
and per mark.  A per-block fill of a (B, 2, lanes) block of factors, a lookup
of the block's symbols per lane, one `np.where` and a broadcast store, counted
one call but took 85 us per block, 2.7 us per site, so the factors come from
the table.  A check at every site, as in `_mul`, rescales at 13,951 sites and
takes 7.73 calls per site in the rescale alone.  `BENCH_26.json`,
`BENCH_27.json` and `BENCH_28.json` hold the CPU seconds of this sweep.  A
lane threshold below 2**256 (a factor of 2**766 or more) adds one call per
check for the least threshold.  `_add_lanes` stays a function: by `timeit` on
96 lanes the call costs at most 0.3 us per site over its body inlined, and its
own test holds it to `_add` at the |shift| edges.

Kept for the benchmark.  `traces_right_upto`, `traces_left_upto` and
`dual_traces_upto` (the right `TraceTable` of `phase_traces`) are one-group
sweeps of `phase_traces`, and `norm_trace_inequality` is `norm_trace_margin`
at one level that raises.  No command calls them, but the benchmark's spans
trace them and its own tests call `dual_traces_upto`.
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
from .xfloat import add, compare, mul, normalized, sqrt

__all__ = [
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

TRACE_EQUALITY_TOL = 1e-9  # relative to max(1, |x|, |reference|); see `phase_trace_parity`
TRACE_ROUNDING = 64.0  # c of the rounding term of `phase_trace_parity`
MARGIN_TOL = 1e-8


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


def _norm_sq(m) -> tuple[float, int]:
    """Squared spectral norm as a normalized (m, e) pair, closed form from
    tr(A^T A) and det(A).

    The copy is rescaled so the largest entry sits in [0.5, 1); squares then
    stay comfortably inside float range regardless of the carried exponent.
    """
    a, b, c, d, e = m
    mx = max(abs(a), abs(b), abs(c), abs(d))
    if mx == 0.0:
        return 0.0, 0
    ex = _frexp(mx)[1]
    # ldexp on each entry, not a product with 2**-ex: that factor overflows
    # when the largest entry is subnormal
    a, b, c, d = (_ldexp(v, -ex) for v in (a, b, c, d))
    t = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = t * t - 4.0 * det * det
    if disc < 0.0:
        disc = 0.0
    norm, ex2 = _frexp(0.5 * (t + math.sqrt(disc)))
    return norm, 2 * (e + ex) + ex2


@lru_cache(maxsize=1024)
def _potential_pattern(theta: PhasePoint, lo: int, hi: int) -> str:
    return rotation_block(lo, hi, theta)


# ----------------------------------------------------------------------------
# the sweep kernel: one lane per (side, phase) group and energy
# ----------------------------------------------------------------------------

# per side the rows of a mark's (4, lanes) entries that hold a, b, c, d; see "Steps"
_ROWS = {"right": [0, 1, 2, 3], "left": [0, 2, 1, 3]}

# Rounding slack of `growth`, the bound on what one step does to the largest
# entry: a step x * t - y rounds twice, so |new entry| <= (|t| + 1) * bound *
# (1 + 2**-53)**2, and each product of bounds and powers of `growth` rounds
# once more; 2**-40 per site covers all of it.
_SLACK = 1.0 + 2.0**-40

# The scales 2**-ex of a rescale and 2**shift of `_add`: 2**-i for i = 0..1075,
# the last one 0.0, as ldexp(1.0, -1075) rounds to even.  Taken with
# mode="clip", an index below 0 reads 1.0 and one above 1075 reads 0.0, so
# `_HALVES.take(k, mode="clip")` is ldexp(1.0, -max(k, 0)) for every k.
_HALVES = np.ldexp(1.0, -np.arange(1076))


class _Mark(NamedTuple):
    """Lane arrays recorded after `n` factors; None where not requested."""

    n: int
    m: np.ndarray  # (4, lanes) entries of the product
    e: np.ndarray
    dm: np.ndarray | None = None  # its energy derivative
    de: np.ndarray | None = None
    norm_m: np.ndarray | None = None  # squared norm at site n, an (m, e) pair
    norm_e: np.ndarray | None = None
    sum_m: np.ndarray | None = None  # squared norms summed over sites 1..n
    sum_e: np.ndarray | None = None
    # every |entry| over sites 1..n is below 2**peak: the frexp exponent of the
    # largest |entry| of the rows X_1..X_n, plus e (see "Block rescale")
    peak: np.ndarray | None = None


def _renorm(m, e, bound, out=None, owned=0, limit=_RENORM):
    """The rescale of `_mul` and `_add`, per lane, in place on `m`.

    `m` holds the entries of each lane along its last axis, and `bound` is an
    upper bound on every |entry|, or inf where none is kept.  `limit` is the
    rescale threshold, one number or one per lane (`_lane_limit`).  While the
    bound stays at or below the least limit no lane can need rescaling and
    nothing is checked; otherwise only lanes whose own largest |entry| passes
    their limit are rescaled.  Their new exponents go to `out` (a new array if
    None).  With a finite `bound`, the largest |entry| after the rescale is
    the new bound; with inf, the bound stays inf.  The last `owned` lanes are
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


def _add_lanes(m1, e1, m2, e2, out=(None, None)):
    """`_add` per lane, before its rescale: the sums and their exponents.

    `_add` scales the operand with the smaller exponent by 2**shift and adds
    it to the other one; here both get a scale from `_HALVES`, 1.0 for the
    larger one, which gives the same sums since x * 1.0 is x and addition
    commutes.  Where |shift| > 1080 it returns the larger operand untouched,
    as `_add` does: adding the other one's 0.0 would turn a -0.0 entry into
    0.0.  `out` is an (entries, exponents) pair of buffers for the result,
    None for new arrays; they may be m2 and e2.  Temporaries are new arrays.
    """
    turns = np.stack((e1 - e2, e2 - e1))
    s2, s1 = _HALVES.take(turns, mode="clip")
    far = turns.max() > 1080
    if far:  # `_add` returns the larger operand untouched
        keep = np.where(turns[0] < 0, m2, m1)
    m, e = out
    m = np.multiply(m2, s2, out=m)
    m += m1 * s1
    if far:
        np.copyto(m, keep, where=np.abs(turns[0]) > 1080)
    return m, np.maximum(e1, e2, out=e)


def _norm_sq_lanes(m, e):
    """`_norm_sq` per lane for nonzero matrices, normalized as it is.

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
    """`xfloat.add` per site over norms (sites, lanes) from `carry`; see "Norm sums"."""
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


def _factor_table(symbols, group, span, E):
    """Every lane's factor at every site, as (table, code); see "Factor table".

    `symbols` is the (sites, groups) array of `_symbols` and `group` the group
    of each lane.  `table` holds one (2, lanes) row per distinct row of
    `symbols`, a pattern, with each lane's factor on both rows, and `code` the
    pattern of each site: table[code[n]] is np.where(symbols[n, group], span, E)
    on both rows.  Equal patterns are found by a sort and an adjacent-difference
    mask, which, unlike `np.unique`, do not import `numpy.ma`.
    """
    keys = np.packbits(symbols, axis=1)
    order = np.lexsort(keys.T)
    ranked = keys[order]
    first = np.ones(len(order), dtype=bool)  # where a new pattern starts
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    count = int(np.count_nonzero(first))
    code = np.empty(len(order), dtype=np.min_scalar_type(count))
    code[order] = np.cumsum(first, dtype=code.dtype)
    code -= 1
    factors = np.where(symbols[order[first]][:, group], span, E)
    return np.stack((factors, factors), axis=1), code


def _sweep(groups, E: np.ndarray, lam: float, marks, *, deriv: int = 0,
           norms: bool = False) -> list[_Mark]:
    """Multiply the one-site matrices for every lane; record at marks.

    `groups` are (side, phase) pairs: side "right" is T(n)...T(1) over sites
    1..n, "left" T(0)T(-1)... over sites 0, -1, ....  Every group sweeps
    every energy of `E`: lane g * E.size + i is energy E[i] of group g, reads
    its factors from the group's row of symbols and keeps its entries in the
    row order of its side.  `marks` are increasing site counts >= 1.
    `deriv` carries dM/dE by the product rule on the first `deriv` groups;
    `norms` carries the running sum of squared norms over sites 1..n.  Every
    sweep records the peak, the least p with 2**e * |entry| < 2**p at every
    site 1..n.  Norms of unimodular products are at least 1, so the zero
    branches of `xfloat.add` never apply after the first site.  A mark gets
    its norm and peak fields at the end of its block (see "Sweep kernel").
    """
    if not {side for side, _ in groups} <= {"right", "left"}:
        raise ValueError("a sweep takes ('right' or 'left', phase) groups")
    if not 0 <= deriv <= len(groups):
        raise ValueError("derivatives are carried on a prefix of the groups")
    top, n = marks[-1], E.size
    lanes, n_d = len(groups) * n, deriv * n
    # the lanes hold the products, then dM/dE of the first `deriv` groups: its
    # step is that of the lane it belongs to, with the same factors
    owners = [*range(len(groups)), *range(deriv)]
    group = np.repeat(owners, n)
    left = np.repeat([groups[g][0] == "left" for g in owners], n)
    E = np.tile(E, len(owners))
    span = E - lam
    width = lanes + n_d
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
    # X after each site of the block in slots 2.., after the last two sites of
    # the block before in slots 0 and 1, one exponent per lane; before site 1,
    # X_0 = (1, 0) and X_-1 = +-Y_0 = (0, +-1)
    x = np.zeros((size + 2, 2, width))
    x[1, 0, :lanes] = 1.0
    x[0, 1, :lanes] = np.where(left[:lanes], -1.0, 1.0)
    e = np.zeros(width, dtype=np.int64)
    de = e[lanes:]
    # each lane's factor t per pattern of symbols, once per row of X so that a
    # step multiplies two operands of one shape, and the pattern of each site
    table, code = _factor_table(_symbols(groups, top), group, span, E)
    table = list(table)  # a step reads its row by a list index
    # per site of a block: X_{n-2}, X_{n-1} and X_n of every lane, and on the
    # derivative lanes dX_n and X_{n-1} of their products
    steps = [(x[j], x[j + 1], x[j + 2], x[j + 2, :, lanes:], x[j + 1, :, :n_d])
             for j in range(size)]
    # the derivative lanes share their owners' exponents while `apart` is
    # False; `d_bound` bounds their entries, which no rescale check covers
    apart, d_bound = False, 0.0
    if norms:
        # a zero (m, e); its exponent 0 never sets top, as squared norms are >= 1
        carry = np.zeros(lanes), np.zeros(lanes, dtype=np.int64)
    # a det-1 product has an entry of at least 2**-0.5, so its p is >= 0
    high = np.zeros(lanes, dtype=np.int64)
    done = 0  # marks that have their block fields
    out: list[_Mark] = []
    pending = iter(marks)
    want = next(pending)
    for n in range(1, top + 1):
        j = (n - 1) % size
        if j == 0:  # the patterns of the next block of sites
            codes = code[n - 1:n - 1 + size].tolist()
        x2, x1, x0, dx, owner_x = steps[j]
        np.multiply(x1, table[codes[j]], out=x0)
        np.subtract(x0, x2, out=x0)
        if n_d:
            # (T M)' = T M' + T' M and (M T)' = M' T + M T' with T' = [[1, 0],
            # [0, 0]]: T' M keeps row one of M, M T' column one, which is X
            if apart:
                _add_lanes(owner_x, e[:n_d], dx, de, (dx, de))
            else:
                np.add(dx, owner_x, out=dx)
            # |T M' + X| <= growth * |M'| + 2**256, rounding included
            d_bound = (d_bound + _RENORM) * growth
        end = j == size - 1 or n == top
        if end:
            fields = {}
            if norms:
                # in (a, b, c, d) order, as `_norm_sq` adds the squares; the sign
                # of Y on the left changes no bit of a squared norm
                block = np.concatenate((x[2:j + 3, :, :lanes], x[1:j + 2, :, :lanes]), axis=1)
                ordered = np.take_along_axis(block.transpose(1, 0, 2), order, axis=0)
                norm_m, norm_e = _norm_sq_lanes(ordered, e[:lanes])
                sum_m, sum_e = _running_sums(norm_m, norm_e, carry)
                carry = sum_m[j], sum_e[j]
                fields.update(norm_m=norm_m, norm_e=norm_e, sum_m=sum_m, sum_e=sum_e)
            # the product lanes keep their exponents through a block, and the
            # rows before it are in `high` (see "Block rescale"); keyed by the
            # block's index of each mark, as the other fields are
            mags = np.abs(x[2:j + 3, :, :lanes])
            stops = [mark.n - (n - j) + 1 for mark in out[done:]] + [j + 1]
            fields["peak"] = {stop - 1: np.maximum(
                high, np.frexp(mags[:stop].max(axis=(0, 1)))[1] + e[:lanes]) for stop in stops}
            high = fields["peak"][j]
            if n < top or size == 1:
                _renorm(x[j + 1:j + 3], e, math.inf, out=e, owned=n_d, limit=cutoff)
        if d_bound > d_limit:
            # lanes whose derivative passes the limit leave their owner's exponent
            d_bound = _renorm(x[j + 1:j + 3, :, lanes:], de, min(d_bound, sys.float_info.max),
                              out=de, limit=d_limit)[2]
            apart = not np.array_equal(de, e[:n_d])
        if n == want:
            entries = np.concatenate((x0, x1))  # X, then Y = X_{n-1} on the right
            np.negative(entries[2:], out=entries[2:], where=left)  # and -X_{n-1} on the left
            out.append(_Mark(n, entries[:, :lanes], e[:lanes].copy(),
                             *((entries[:, lanes:], de.copy()) if n_d else (None, None))))
            want = next(pending, None)
        if end:
            for i in range(done, len(out)):
                at = out[i].n - (n - j)
                out[i] = out[i]._replace(**{name: v[at].copy() for name, v in fields.items()})
            done = len(out)
            x[:2] = x[j + 1:j + 3]
    return out


def _lanes(E: Energies):
    """Energies as a float64 lane array, and whether E was one number."""
    scalar = np.ndim(E) == 0
    return np.atleast_1d(np.asarray(E, dtype=float)), scalar


def _fib_marks(k_max: int) -> list[int]:
    return [fib_number(k) for k in range(k_max + 1)]


# ----------------------------------------------------------------------------
# products and traces
#
# The functions whose E is `Energies` take one energy or a sequence of them.
# A sequence is swept in one pass, one lane per energy, and gives `xfloat`
# (m, e) arrays with one row per energy, in order; one energy gives its row
# alone, as a `TraceTable` holds it.
# ----------------------------------------------------------------------------

def _traces_upto(side: str, k_max: int, E: Energies, lam: float, theta: PhasePoint):
    lanes, scalar = _lanes(E)
    marks = _sweep([(side, theta)], lanes, lam, _fib_marks(k_max))
    return _trace_tables(marks, lanes.size, scalar, 1, 0)[0].traces


def traces_right_upto(k_max: int, E: Energies, lam: float, theta: PhasePoint) -> tuple:
    """Traces of the right-half-line products at lengths F(0..k_max), one pass.

    Returns the `traces` pair of a `TraceTable`: (energies, levels) arrays.
    """
    return _traces_upto("right", k_max, E, lam, theta)


def traces_left_upto(k_max: int, E: Energies, lam: float, theta: PhasePoint) -> tuple:
    """Traces of the left-half-line products at lengths F(0..k_max), one pass.

    Uses tr(A**-1) = tr(A) for det-1 matrices: the trace over inverse factors
    down to site -F(k)+1 equals the trace of T(0) T(-1) ... T(-F(k)+1).
    Returns (m, e) arrays as `traces_right_upto` does.
    """
    return _traces_upto("left", k_max, E, lam, theta)


class TraceTable(NamedTuple):
    """Traces at lengths F(0..k_max) of one (side, phase), one row per energy.

    `traces` is a normalized `xfloat` (m, e) pair of (energies, levels)
    arrays; one row of levels where E was one number.  `derivs` holds their
    energy derivatives so, or None; `peaks`, an int array of the same shape,
    per product the least p with every |entry| of the products along its
    sites below 2**p, the scale of its rounding in `phase_trace_parity`.
    """

    traces: tuple[np.ndarray, np.ndarray]
    derivs: tuple[np.ndarray, np.ndarray] | None
    peaks: np.ndarray


def _trace_tables(marks, n: int, scalar: bool, groups: int, with_derivs: int) -> list:
    """A `TraceTable` per group of n lanes of a sweep; the first `with_derivs` groups
    carry derivatives, as the sweep's `deriv` prefix does."""
    def levels(name):  # a field of every mark, (lanes, levels)
        return np.stack([getattr(mark, name) for mark in marks], axis=-1)

    def rows(a, g):
        return a[g * n] if scalar else a[g * n:(g + 1) * n]

    def trace_of(m, e):  # the trace m[0] + m[3] of every lane at every level
        m = levels(m)
        return normalized(m[0] + m[3], levels(e))

    traces, peaks = trace_of("m", "e"), levels("peak")
    derivs = trace_of("dm", "de") if with_derivs else None
    return [TraceTable(tuple(rows(a, g) for a in traces),
                       tuple(rows(a, g) for a in derivs) if g < with_derivs else None,
                       rows(peaks, g)) for g in range(groups)]


def dual_traces_upto(k_max: int, E: Energies, lam: float, theta: PhasePoint) -> TraceTable:
    """The right `TraceTable` of `phase_traces` at one phase: traces, derivatives, peaks."""
    lanes, scalar = _lanes(E)
    marks = _sweep([("right", theta)], lanes, lam, _fib_marks(k_max), deriv=1)
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
    marks = _sweep(groups, lanes, lam, _fib_marks(k_max), deriv=len(thetas))
    tables = _trace_tables(marks, lanes.size, scalar, len(groups), len(thetas))
    pairs = list(zip(tables, tables[len(thetas):2 * len(thetas)]))
    return pairs, tables[at_zero if at_zero is not None else -1]


# ----------------------------------------------------------------------------
# windowed norms and the norm/derivative inequality
# ----------------------------------------------------------------------------

def norm_profile(l_values, E: Energies, lam: float, theta: PhasePoint) -> tuple:
    """Windowed squared-norm sums at several window lengths, one pass.

    Positive windows sum ||M(1)||^2 .. ||M(floor(L))||^2 plus the fractional
    edge term (L - floor(L)) * ||M(floor(L) + 1)||^2; negative windows do the
    mirrored left-half-line sum over sites -1 .. -floor(|L|).  Singular values
    of the inverse of a det-1 matrix coincide with those of the matrix
    itself, so the left side accumulates direct factors downward.  Windows of
    both signs share one two-sided sweep, a block of lanes per half-line,
    bit-identical to a call per sign, over ceil(max |L|) sites, the last one
    a window reads.  Its norms are summed a block of sites at a time; see
    "Norm sums".  Returns an (m, e) pair of (energies, windows) arrays.
    """
    ls = list(l_values)
    lanes, scalar = _lanes(E)
    if 0 in ls:
        raise ValueError("window lengths must be nonzero")
    blocks = [side for side, sign in (("right", 1), ("left", -1))
              if any(l * sign > 0 for l in ls)]
    mags = sorted(set(abs(l) for l in ls))
    edges = {n for l in mags for n in (math.floor(l), math.ceil(l))} - {0}
    at = {mark.n: mark for mark in _sweep([(side, theta) for side in blocks], lanes, lam,
                                          sorted(edges), norms=True)} if edges else {}
    n = lanes.size
    zero = np.zeros(n * len(blocks)), np.zeros(n * len(blocks), dtype=np.int64)
    sums = {}
    for l in mags:
        fl = math.floor(l)
        sums[l] = (at[fl].sum_m, at[fl].sum_e) if fl else zero
        if l > fl:
            edge = at[fl + 1]
            sums[l] = add(*sums[l], *mul(edge.norm_m, edge.norm_e, *math.frexp(l - fl)))
    m, e = np.empty((n, len(ls))), np.empty((n, len(ls)), dtype=np.int64)
    for j, l in enumerate(ls):
        o = n * blocks.index("right" if l > 0 else "left")
        m[:, j], e[:, j] = (a[o:o + n] for a in sums[abs(l)])
    return (m[0], e[0]) if scalar else (m, e)


def norm_trace_margin(total, deriv):
    """Margins 4 * (||M||^2_{F(k)})^{3/2} - |d trace/dE| of the norm/derivative inequality.

    `total` holds squared-norm sums over windows F(k) and `deriv` the energy
    derivatives of the level-k traces, (m, e) pairs of arrays of one shape;
    the margins must be >= 0.  The cubed windowed norm means the 3/2 power of
    the squared-norm sum, matching the squared object the window is defined
    on.  Returns the margins, an (m, e) pair, and a mask of those below
    -MARGIN_TOL * scale, scale = 4 * total**1.5 + |d trace/dE|, which
    falsify the implementation.
    """
    lhs = mul(*mul(*total, *sqrt(*total)), *math.frexp(4.0))
    rhs = np.abs(deriv[0]), deriv[1]
    margin = add(*lhs, -rhs[0], rhs[1])
    bound = mul(*add(*lhs, *rhs), *math.frexp(-MARGIN_TOL))
    return margin, compare(*margin, *bound) < 0


def norm_trace_inequality(k: int, E: float, lam: float, theta: PhasePoint) -> tuple:
    """`norm_trace_margin` at level k, from one sweep over F(k) sites: the
    margin as an (m, e) pair of numpy scalars.

    A margin below -MARGIN_TOL * scale falsifies the implementation and raises.
    """
    (mark,) = _sweep([("right", theta)], _lanes(E)[0], lam, [fib_number(k)], deriv=1,
                     norms=True)
    margin, failed = norm_trace_margin((mark.sum_m, mark.sum_e),
                                       normalized(mark.dm[0] + mark.dm[3], mark.de))
    if failed[0]:
        raise MarginViolationError.at(k, E, lam)
    return margin[0][0], margin[1][0]


# ----------------------------------------------------------------------------
# phase invariance of traces
# ----------------------------------------------------------------------------

def phase_trace_parity(traces, refs) -> tuple[ParityReport, ParityReport]:
    """Compare the traces at a phase against phase zero, level by level.

    `traces` is the (right, left) pair of `TraceTable`s at the phase and
    `refs` the right table at phase zero, as `phase_traces` gives them, over
    one grid of energies and one range of levels, else ValueError.  A level
    passes when every energy meets the error model below; on each half-line
    all even levels or all odd levels must pass, and a report where neither
    class passes shows an implementation error, which the caller records.
    Returns a (right, left) pair of `ParityReport`s whose `per_k` holds per
    level the worst ratio of the gap to its allowance.

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

    Gaps and allowances are `xfloat.add` sums of the (m, e) arrays, which
    keep the bits of extended-real sums taken one value at a time; only
    numpy's log2 of their mantissas can differ from `math.log2`, by an ulp.
    """
    rm, re = refs.traces
    if rm.ndim != 2 or not len(rm) or any(t.traces[0].shape != rm.shape for t in traces):
        raise ValueError("trace tables must share one (energies, levels) shape, energies > 0")
    rounding = np.frexp(TRACE_ROUNDING * 2.0**-53 * np.array(_fib_marks(rm.shape[1] - 1)))
    tol_m, tol_e = math.frexp(TRACE_EQUALITY_TOL)
    reports = []
    for side, table in zip(("right", "left"), traces):
        xm, xe = table.traces
        gm, ge = add(xm, xe, -rm, re)
        # max(|x|, |x0|, 1) keeps its bits, and the others scale below it,
        # when all three are scaled by 2**-top, top the largest exponent
        top = np.maximum(np.maximum(xe, re), 1)
        big = np.maximum.reduce([np.ldexp(np.abs(xm), xe - top), np.ldexp(np.abs(rm), re - top),
                                 np.ldexp(0.5, 1 - top)])
        tm, tex = np.frexp(big * tol_m)
        allowance = add(tm, top + tol_e + tex, rounding[0], 2 * table.peaks + rounding[1])
        am, ae = add(*allowance, rounding[0], 2 * refs.peaks + rounding[1])
        # the logs e + log2|m|, -inf for a zero gap
        log_gap = ge + np.log2(np.abs(gm), out=np.full(gm.shape, -np.inf), where=gm != 0.0)
        worst = (log_gap - (ae + np.log2(am))).max(axis=0)
        ratios = [2.0 ** min(w, 64.0) for w in worst.tolist()]
        reports.append(ParityReport.of(side, ratios, [ratio <= 1.0 for ratio in ratios]))
    return reports[0], reports[1]
