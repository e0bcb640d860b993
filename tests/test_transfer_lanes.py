"""Property tests of the batched transfer sweep against scalar products.

Every lane of `transfer._sweep` must reproduce what a one-lane sweep and what
scalar `scalar_mul` products with `scalar_add` / `scalar_norm_sq` give for
that energy alone: bit for bit the XReal (mantissa, exponent) pairs of traces,
derivative traces and norm sums and the peaks, and by value each entry of the
product and of its energy derivative, zeros of either sign alike: the sweep's
three-term step has no 0.0 * y term, so a zero entry can differ in sign from
`scalar_mul`'s, which a test pins and no output sees.  The sweep rescales its
products once per block of sites, where `scalar_mul` rescales at every site,
so a product keeps the values of the scalar rule but not its split into
entries and exponent; the one exception allowed is an entry more than 2**1021
below the largest entry of its matrix, which a scale into [0.5, 1) can round
or flush.  A derivative lane shares its product's exponent, so only the values
of its entries are the scalar rule's; at coupling or energy near 1e300 its
entries 1e-300 below its largest leave the normal range, and there its traces
are held to the scalar rule.  Where a block is one site, at coupling near
1e300, the raw entries and exponents are the scalar rule's too, but for the
sign of a zero.  The block rule must keep every stored entry within its lane's
threshold; a test that reads the rows of each block through its squared norms
fails if a block is one site longer.  A block ends after B sites or at a mark.
Norm sums are taken a block of sites at a time, so the sums of whole blocks,
marks at every site, and windows whose edge term opens the next block, are
held to the scalar sums.  Every sweep takes peaks once per block, so marks
that end one-site blocks and longer ones are held to the scalar peaks.  Extra
marks move where blocks end and lanes rescale, and leave every output at the
other marks bit for bit.  The tests run each case on a sweep with norms and on
the plain sweep; the two take one block length and record the same peaks bit
for bit, as do sweeps whose blocks end at other sites.  Several
(side, phase) groups in one sweep, in any order, over energies in any order,
with derivatives on a prefix of the groups, keep the bits, raw splits
included, of a sweep per group.  The factor table of a sweep gives every site
the factors of its symbols, bit for bit on both entries of a slot, in one
C-contiguous array, with at most 2G patterns for G groups.

The sections below argue why the sweep can keep those bits.  The sections of
the `transfer` module docstring that they name ("Block rescale", "Derivative
lanes", "Norm sums", "Steps") describe the sweep itself.

Scalar layer.  The specification lives in `oracles`.  A tuple (a, b, c, d, e)
means 2**e * [[a, b], [c, d]].  `scalar_mul` multiplies two of them and
rescales into [0.5, 1) when an entry passes its threshold,
`transfer._lane_limit` of the energy: 2**256, or 2**1022 / g where that is
lower, g = max(|E|, |E - lam|) + 1, so that the next factor cannot overflow.
`scalar_add` aligns its operands by 2**shift, returns the larger one untouched
past shift < -1080, and rescales sums past 2**256; `scalar_norm_sq` gives the
squared spectral norm as a normalized (m, e) pair of `xfloat`.  Norm sums add
those pairs with one `xfloat.add` per site.  A sweep checks its products
against the threshold once per block of sites, not at every site as
`scalar_mul` does; where a block is one site (growth**2 past the least
threshold, as at coupling 1e300) the check is that of `scalar_mul`,
|entry| > threshold, at every site, the last one included, in the order of
"Block rescale", so those sweeps keep the raw split of the scalar layer.

Value identity.  Every product lane does the IEEE operations of the scalar
layer in the same order: `scalar_mul` per factor, `scalar_norm_sq` and
`xfloat.add` for norm sums.  It rescales at other sites than `scalar_mul`
does, but every rescale is a scaling by a power of two, and IEEE rounding does
not change under a common power-of-two scale while no entry leaves the normal
range: numpy's elementwise float64 operations are correctly rounded IEEE-754
binary64 operations like Python's float arithmetic, each one rounds on its own
(no fused multiply-add), and frexp/ldexp by powers of two are exact.  So each
entry of a product has the value that the scalar layer gives, and only its
split into entry and exponent differs.  The one exception is an entry more
than 2**1021 below the largest entry of its matrix: a scale that puts the
largest entry into [0.5, 1) puts it below the normal range, where it rounds or
flushes to zero, so where one split takes such a scale and the other does not,
its value can differ.  The outputs do not depend on the split: traces,
derivative traces and norm sums are (m, e) pairs normalized from the entries,
and a peak is the exponent of the largest entry.  They keep the bits of the
scalar layer; the tests hold them to it bit for bit, and the products by value
with that one exception.  The step drops the terms 0.0 * y of `scalar_mul`,
so a zero entry can differ from `scalar_mul`'s in sign.  No output sees it:
`xfloat.normalized` turns -0.0 into 0.0, peaks and norms read |entry|, and no
nonzero value depends on the sign of a zero, as x + (+-0.0) is x and t *
(+-0.0) - y is -y.  Which lanes share a sweep sets B and the cutoff threshold
/ growth**B through its largest factor, so it can change the split of a
product but not its values; lanes over the same energies keep their bits in
any groups and any order.

Steps.  The sweep's step fl(fl(t * X_{n-1}) - X_{n-2}) does the operations of
`scalar_mul`'s first row x * t + y * -1.0, y = X_{n-2}, on the right and of
its first column x * t + y * 1.0, y = -X_{n-2}, on the left, as y * -1.0 is
-y and a + -b is a - b.  Its second row, x + 0.0 * y or 0.0 * y - x, is
+-X_{n-1} but for the sign of a zero (see "Value identity").  The gather of a
block before its squared norms puts the entries in (a, b, c, d) order, so the
squares add in the order of `scalar_norm_sq`.

Derivative lanes.  The scalar rule rescales T dM on its own and aligns the
operands of `scalar_add` by 2**shift; all of these are scalings by powers of
two, so, as for the products, each entry of dM has the value that
`scalar_add` gives and only its split differs; the derivative traces,
normalized from dM[0] + dM[3], keep their bits.  Values can differ only where
an entry leaves the normal range.  At |E| near 1e300 dM lies about 1e-300
below its product, and its entries 1e-300 below its largest round to 0.0 in
the shared exponent; where the scalar rule drops an operand by its far-shift
branch, a zero entry can differ in sign.  The traces, dominated by the
largest entry, kept their bits in every such case tried: the lane tests at
coupling or energy near 1e300, and 300 random draws of both up to 1e300
against the scalar rule.  `transfer._add_lanes`, the product rule of a lane
off its owner's exponent, is `scalar_add` per lane: it scales both operands,
1.0 the one with the larger exponent, which gives the same sums since x * 1.0
is x and addition commutes, and past |shift| > 1080 it returns the larger
operand untouched, as `scalar_add` does.  A lane leaves its owner's exponent
upward, so `scalar_add` gives dM the scale 1.0.  `d_limit` follows the
largest factor of the sweep, so the split of a derivative lane that leaves,
but not its values, can depend on the other lanes.

Norm sums.  `transfer._norm_sq_lanes` normalizes each stored product, as
`scalar_norm_sq` does.  For normalized positive operands `xfloat.add` is the
binary64 sum of the values scaled by a common power of two while the larger
stays normal: scaling does not change IEEE rounding, so the block sums of
`transfer._running_sums` keep the bits of one add per site.  A value that
goes subnormal lies below half an ulp of the sum it joins and rounds away in
both forms, as it does past shift < -1080 in `xfloat.add`.

Calls per site.  Counting ufunc calls, ufunc methods, numpy functions and the
reducing ndarray methods (not numpy scalar arithmetic or indexing), each
weighted by how often its branch runs: the step is one `np.multiply` of two
contiguous (lanes, 2) operands and one `np.subtract` into the next slot of
the buffer, the derivative one `np.add` on one contiguous run of lanes.  At a
block's end the peaks are six calls (`np.abs`, `max` over the sites,
`np.maximum` of each pair, `np.frexp`, the add of e, `np.maximum`); the
rescale check is four (`np.abs`, `max` over the two slots, `np.maximum` of
each pair, `np.maximum.reduce`), and a rescale six more (`np.frexp`, the
comparison and product that zero ex on the other lanes, the `take` of the
scales, the product of the entries, the new exponents).  Where `d_bound`
passes its limit its check is the same four calls and `np.array_equal`;
`_add_lanes` makes nine calls.  Every sweep takes its B from
`_rescale_sites`, with norms or without.  The `phase_traces` sweep of the
benchmark's `traces-large` run (17,711 sites, 288 product and 96 derivative
lanes, 278 blocks of up to 67 sites, each one but the last rescaling,
`d_bound` past its limit at 88 sites) makes per site:

    step  rescale  derivative  block  total
     2.0     0.16        1.02   0.09   3.28

Call counts hide the cost of each call; `BENCH_33.json` holds the `timeit`
measurements at this sweep's shapes behind four choices.  Its first one, a
multiply that broadcasts a row of factors against one on two operands of one
shape, was measured on a table whose rows were strided; `BENCH_38.json`
measures the lane-major layout: a multiply that broadcasts a (lanes, 1) row
over a (lanes, 2) slot took 2.16 us against 0.54 us with the factor on both
entries of a contiguous row, so the factors stay duplicated.  A running
maximum (`np.maximum.accumulate`) of a block's exponents cost about eight
plain maxima, so the peaks take one maximum per block.  A per-block fill of
a block of factors counted one call but cost more per site than the step, so
the factors come from the table.  And `_add_lanes` inlined saves little per
site, so it stays a function, which `test_lane_add_matches_scalar_add` holds
to `scalar_add` at the |shift| edges.  A check at every site, as in
`scalar_mul`, rescales at 13,951 sites and takes 8.73 calls per site in the
rescale alone.  `BENCH_26.json`, `BENCH_27.json` and `BENCH_28.json` hold
the CPU seconds of this sweep.  A lane threshold below 2**256 (a factor of
2**766 or more) adds one call per check for the least threshold.
"""

import math
import random
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quasitrace import transfer as TR
from quasitrace.phase import PRECISION_BITS, PhasePoint, omega
from quasitrace.words import fib_number, rotation_block
from quasitrace.xfloat import normalized

from oracles import XReal, local_matrix, norm_sq, scalar_add, scalar_mul, trace, xreal_rows

BAND_CENTER = -0.2492839750009455  # a level-9 band at lambda 12, phase 0


def f64(value):
    return struct.pack("<d", value)  # tells -0.0 from 0.0


def xbits(values):
    return [(f64(v.m), v.e) for v in values]


def tables_bits(table):
    """A `TraceTable` as bits: traces, derivatives and peaks."""
    return ([xbits(r) for r in xreal_rows(table.traces)],
            [xbits(r) for r in xreal_rows(table.derivs)], table.peaks.tolist())


def raw(matrix):
    """Bits of (a, b, c, d) and the exponent of a scalar product."""
    return [f64(v) for v in matrix[:4]] + [matrix[4]]


def unsigned_zeros(raw_matrix):
    """`raw` bits with -0.0 entries read as 0.0: the sweep's step has no 0.0 * y
    term, so a zero entry can differ in sign from `scalar_mul`'s (see "Value
    identity" above)."""
    return [f64(0.0) if v == f64(-0.0) else v for v in raw_matrix[:4]] + raw_matrix[4:]


def entry_values(matrix):
    """Each entry of a scalar product with its exponent, normalized: equal for
    equal values however the product splits them, zeros of either sign alike
    (see `unsigned_zeros`)."""
    out = []
    for v in matrix[:4]:
        mantissa, ex = math.frexp(v)
        out.append((f64(mantissa), ex + matrix[4]) if v else (f64(0.0), 0))
    return out


def unpack(raw_matrix):
    """A product from its `raw` bits."""
    return [struct.unpack("<d", v)[0] for v in raw_matrix[:4]] + [raw_matrix[4]]


def assert_same_entries(got, want):
    """Two `raw` products hold the same entry values.  The one exception: an
    entry more than 2**1021 below the largest entry of its matrix may differ,
    since a split with a larger exponent flushes it sooner (see "Value
    identity" above)."""
    got, want = entry_values(unpack(got)), entry_values(unpack(want))
    largest = max(ex for mantissa, ex in want if struct.unpack("<d", mantissa)[0])
    for g, w in zip(got, want):
        assert g == w or max(g[1], w[1]) < largest - 1021, (got, want)


def assert_same_records(got, want):
    """Records of `lane_results`: products by value, everything else bit for bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_entries(g[0], w[0])
        assert g[1:] == w[1:]


def fib_marks(k):
    return [fib_number(j) for j in range(k + 1)]


def block_length(energies, lam):
    """The B of a sweep over these energies, from its step growth bound."""
    E = np.array(energies, dtype=float)
    growth = float((max(np.abs(E).max(), np.abs(E - lam).max()) + 1.0) * TR._SLACK)
    return TR._rescale_sites(growth, float(TR._lane_limit(E, lam).min()))


def edge_marks(energies, lam):
    """Marks on and beside the edges B and 2B of a sweep's blocks, and at site 1:
    they end one-site blocks and longer ones, the blocks 1, 2..B - 1, B, B + 1,
    B + 2..2B - 1, 2B and 2B + 1 where B > 2."""
    size = block_length(energies, lam)
    return sorted({1, size - 1, size, size + 1, 2 * size - 1, 2 * size, 2 * size + 1} - {0})


def scalar_reference(side, k, E, lam, theta, marks=None):
    """Per mark, F(0..k) unless `marks` are given: raw M, the values of dM/dE,
    trace and derivative trace, norm sum, peak."""
    marks = marks or fib_marks(k)
    m, d = (1.0, 0.0, 0.0, 1.0, 0), (0.0, 0.0, 0.0, 0.0, 0)
    total, high = XReal(), -math.inf
    limit = TR._lane_limit(E, lam)
    out = []
    for n in range(1, marks[-1] + 1):
        if side == "right":  # T(n) ... T(1); (T M)' = T' M + T M'
            t = local_matrix(n, E, lam, theta)
            d = scalar_add((m[0], m[1], 0.0, 0.0, m[4]), scalar_mul(t, d, limit))
            m = scalar_mul(t, m, limit)
        else:  # T(0) T(-1) ... T(1 - n); (M T)' = M T' + M' T
            t = local_matrix(1 - n, E, lam, theta)
            d = scalar_add((m[0], 0.0, m[2], 0.0, m[4]), scalar_mul(d, t, limit))
            m = scalar_mul(m, t, limit)
        total = total + norm_sq(m)
        high = max(high, math.frexp(max(map(abs, m[:4])))[1] + m[4])
        if n in marks:
            out.append((raw(m), entry_values(d), xbits([trace(m), trace(d)]), xbits([total]),
                        high))
    return out


def lane_raw(side, m, e, i):
    return raw(m[TR._ROWS[side], i].tolist() + [int(e[i])])


def lane_values(side, m, e, i):
    return entry_values(m[TR._ROWS[side], i].tolist() + [int(e[i])])


def lane_results(side, k, energies, lam, theta, norms, marks=None):
    """Per lane, per mark, F(0..k) unless `marks` are given: the records of
    `scalar_reference`, from a sweep with or without `norms`; without them,
    None for the norm sum."""
    marks = TR._sweep([(side, theta)], np.array(energies, dtype=float), lam,
                      marks or fib_marks(k), deriv=1, norms=norms)
    lanes = []
    for i in range(len(energies)):
        records = []
        for mark in marks:
            traces = [xreal_rows((m[0] + m[3], e))[i]
                      for m, e in ((mark.m, mark.e), (mark.dm, mark.de))]
            total = xbits(xreal_rows((mark.sum_m, mark.sum_e))[i:i + 1]) if norms else None
            records.append((lane_raw(side, mark.m, mark.e, i),
                            lane_values(side, mark.dm, mark.de, i), xbits(traces), total,
                            int(mark.peak[i])))
        lanes.append(records)
    return lanes


def carried(records, norms):
    """Scalar records as a sweep with or without `norms` gives them: without,
    None for the norm sum."""
    return records if norms else [(*r[:3], None, r[4]) for r in records]


@settings(max_examples=25, deadline=None)
@given(
    side=st.sampled_from(["right", "left"]),
    k=st.integers(0, 14),
    lam=st.floats(0.0, 12.0),
    energies=st.lists(st.floats(-4.0, 16.0), min_size=1, max_size=4),
    far=st.floats(6.0, 10.0),
    phase=st.integers(0, (1 << PRECISION_BITS) - 1),
    edges=st.booleans(),
)
# a band lane beside far lanes that rescale every hundred sites or so; the
# E = 0 lane at coupling 0 never rescales (see the premise test below)
@example(side="right", k=14, lam=12.0, energies=[BAND_CENTER, 3.0], far=8.0, phase=0,
         edges=False)
@example(side="left", k=14, lam=12.0, energies=[BAND_CENTER, 3.0], far=8.0, phase=0,
         edges=False)
@example(side="right", k=14, lam=0.0, energies=[0.0, 3.0], far=8.0, phase=0, edges=False)
@example(side="left", k=14, lam=0.0, energies=[0.0, 3.0], far=8.0, phase=0, edges=False)
# the derivative of the E = 77 lane first passes 2**256 in the product rule's
# `scalar_add` at site 41, where its step `scalar_mul` stays below
@example(side="right", k=10, lam=0.0, energies=[77.0], far=8.0, phase=0, edges=False)
@example(side="left", k=10, lam=0.0, energies=[77.0], far=8.0, phase=0, edges=False)
# an energy of 1e-300 at a coupling far outside the drawn range: the lane
# holds an entry of 1e-300 beside entries near 2 * lambda, about 2**-1022 of them
@example(side="right", k=2, lam=2.0**24, energies=[1e-300], far=8.0, phase=0, edges=False)
# peaks at the edges of blocks of B sites, where the far lanes rescale;
# and of one-site blocks, at coupling 1e300
@example(side="right", k=0, lam=12.0, energies=[BAND_CENTER, 3.0], far=8.0, phase=0,
         edges=True)
@example(side="left", k=0, lam=12.0, energies=[BAND_CENTER, 3.0], far=8.0, phase=0,
         edges=True)
@example(side="right", k=0, lam=0.0, energies=[0.0, 3.0], far=8.0, phase=0, edges=True)
@example(side="left", k=0, lam=0.0, energies=[0.0, 3.0], far=8.0, phase=0, edges=True)
@example(side="right", k=0, lam=1e300, energies=[1.0], far=8.0, phase=0, edges=True)
@example(side="left", k=0, lam=1e300, energies=[1.0], far=8.0, phase=0, edges=True)
def test_every_lane_matches_one_lane_and_scalar_products(side, k, lam, energies,
                                                         far, phase, edges):
    theta = PhasePoint(phase)
    energies = energies + [lam + far, -far]  # off the spectrum: these rescale
    marks = edge_marks(energies, lam) if edges else None
    references = [scalar_reference(side, k, E, lam, theta, marks) for E in energies]
    for norms in (True, False):
        lanes = lane_results(side, k, energies, lam, theta, norms, marks)
        for E, lane, reference in zip(energies, lanes, references):
            assert_same_records(lane, lane_results(side, k, [E], lam, theta, norms, marks)[0])
            assert_same_records(lane, carried(reference, norms))


def signed(lo, hi):
    return st.floats(lo, hi) | st.floats(-hi, -lo)


# coupling near 1e300 with energies in [-1, 1], or energies near +-1e300.
# At energies of magnitude 1e-292..1e-177 a product entry near lambda * |E|
# lies below 2**256 but above 2**1022 / lambda, so only the lane's own
# threshold (`_lane_limit`) keeps the next factor of lambda from overflowing.
huge_coupling = st.tuples(st.just(1e300) | st.floats(1e250, 1e300),
                          st.lists(st.just(0.0) | signed(1e-150, 1.0) | signed(1e-292, 1e-177),
                                   min_size=1, max_size=3))
huge_energy = st.tuples(st.floats(0.0, 12.0),
                        st.lists(signed(1e250, 1e300), min_size=1, max_size=3))


@settings(max_examples=10, deadline=None)
@given(
    side=st.sampled_from(["right", "left"]),
    k=st.integers(0, 12),
    case=huge_coupling | huge_energy,
    phase=st.integers(0, (1 << PRECISION_BITS) - 1),
)
# at coupling 1e300 a derivative outgrows its product by about lambda per
# level: its lane leaves the product's exponent and takes the general add
@example(side="right", k=12, case=(1e300, [-1.0, 0.0, 1.0]), phase=0)
@example(side="left", k=12, case=(1e300, [-1.0, 0.0, 1.0]), phase=0)
# at |E| = 1e300 a derivative lies about 1e-300 below its product, and its
# small entries fall below the normal range in the shared exponent
@example(side="right", k=12, case=(12.0, [-1e300, 1e300]), phase=0)
@example(side="left", k=12, case=(12.0, [-1e300, 1e300]), phase=0)
# lambda * |E| near 1e29: below 2**256, so a threshold of 2**256 alone lets
# the next factor of lambda overflow at site 4
@example(side="right", k=10, case=(1e300, [3.49e-271, -1e-250, 1e-177]), phase=0)
def test_huge_lanes_keep_the_derivative_traces_of_the_add_rule(side, k, case, phase):
    # everything but the entries of dM/dE keeps the bits of the scalar rule
    lam, energies = case
    theta = PhasePoint(phase)
    references = [scalar_reference(side, k, E, lam, theta) for E in energies]
    for norms in (True, False):
        lanes = lane_results(side, k, energies, lam, theta, norms)
        for lane, reference in zip(lanes, references):
            assert ([(unsigned_zeros(m), *rest) for m, _, *rest in lane]
                    == [(unsigned_zeros(m), *rest) for m, _, *rest in carried(reference, norms)])


def test_derivative_lanes_leave_their_product_only_past_the_limit():
    # at coupling 1e300 some derivative lane takes an exponent of its own; in
    # the examples of the tests above at lambda 12 none does
    for side in ("right", "left"):
        group = [(side, PhasePoint.zero())]
        marks = TR._sweep(group, np.array([-1.0, 0.0, 1.0]), 1e300,
                          [fib_number(j) for j in range(13)], deriv=1)
        assert (marks[-1].de != marks[-1].e).any()
        # a lane leaves upward, so the general add never scales dM/dE
        assert all((mark.de >= mark.e).all() for mark in marks)
        for norms in (True, False):
            marks = TR._sweep(group, np.array([BAND_CENTER, 3.0, 20.0, -8.0]), 12.0,
                              [fib_number(j) for j in range(15)], deriv=1, norms=norms)
            assert all((mark.de == mark.e).all() for mark in marks)
            assert min(marks[-1].e[2:]) > 256  # the far lanes rescale


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(0, 14),
    lam=st.floats(0.0, 12.0),
    energies=st.lists(st.floats(-4.0, 16.0), min_size=1, max_size=3),
    far=st.floats(6.0, 10.0),
    phase=st.integers(0, (1 << PRECISION_BITS) - 1),
    shuffle=st.randoms(use_true_random=False),
)
@example(k=14, lam=12.0, energies=[BAND_CENTER, 3.0], far=8.0, phase=0,
         shuffle=random.Random(0))
@example(k=9, lam=0.0, energies=[0.0, -0.0], far=6.0, phase=0, shuffle=random.Random(1))
def test_two_sided_lanes_match_scalar_products(k, lam, energies, far, phase, shuffle):
    # one lane per energy and side, the sides and the energies in any order
    theta = PhasePoint(phase)
    energies = energies + [lam + far, -far]  # off the spectrum: these rescale
    sides = ["right", "left"]
    shuffle.shuffle(sides)
    shuffle.shuffle(energies)
    marks = TR._sweep([(side, theta) for side in sides], np.array(energies), lam,
                      [fib_number(j) for j in range(k + 1)], norms=True)
    lanes = [(side, E) for side in sides for E in energies]
    for i, (side, E) in enumerate(lanes):
        want = [(m_raw, values[0], *total)
                for m_raw, _, values, total, _ in scalar_reference(side, k, E, lam, theta)]
        got = [(lane_raw(side, mark.m, mark.e, i),
                *xbits([xreal_rows((mark.m[0] + mark.m[3], mark.e))[i],
                        xreal_rows((mark.sum_m, mark.sum_e))[i]]))
               for mark in marks]
        assert_same_records(got, want)


window = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 13.0, 21.0, 144.0]) | st.floats(0.01, 400.0)


@settings(max_examples=25, deadline=None)
@given(
    lam=st.sampled_from([0.0, 12.0]) | st.floats(0.0, 12.0),
    energies=st.lists(st.floats(-4.0, 16.0), max_size=3),
    far=st.floats(6.0, 10.0),
    windows=st.lists(st.tuples(window, st.sampled_from([1, -1])), max_size=6),
    right=window,
    left=window,
    phase=st.integers(0, (1 << PRECISION_BITS) - 1),
)
@example(lam=0.0, energies=[], far=6.0, windows=[(0.5, -1), (0.5, 1)], right=2.75,
         left=300.5, phase=0)
def test_two_sided_norm_profile_matches_one_call_per_side(lam, energies, far, windows,
                                                          right, left, phase):
    theta = PhasePoint(phase)
    energies = energies + [0.0, -0.0, lam + far, -far]  # the far lanes rescale
    ls = [sign * w for w, sign in windows] + [right, -left]
    both = xreal_rows(TR.norm_profile(ls, energies, lam, theta))
    pos = xreal_rows(TR.norm_profile([l for l in ls if l > 0], energies, lam, theta))
    neg = xreal_rows(TR.norm_profile([l for l in ls if l < 0], energies, lam, theta))
    for row, p, n in zip(both, pos, neg):
        p, n = iter(p), iter(n)
        assert xbits(row) == xbits([next(p) if l > 0 else next(n) for l in ls])


def column(mark, i, deriv):
    """Bits of lane i of a mark: entries, exponent, norm, norm sum, peak and,
    with `deriv`, the derivative's entries and exponent."""
    fields = [mark.m[:, i], mark.e[i], mark.norm_m[i], mark.norm_e[i], mark.sum_m[i],
              mark.sum_e[i], mark.peak[i]]
    if deriv:
        fields += [mark.dm[:, i], mark.de[i]]
    return [np.asarray(f).tobytes() for f in fields]


phases = st.sampled_from([0, 1 << (PRECISION_BITS - 1)]) | st.integers(
    0, (1 << PRECISION_BITS) - 1)


@settings(max_examples=25, deadline=None)
@given(
    groups=st.lists(st.tuples(st.sampled_from(["right", "left"]), phases),
                    min_size=1, max_size=4),
    k=st.integers(0, 13),
    lam=st.sampled_from([0.0, 12.0]) | st.floats(0.0, 12.0),
    energies=st.lists(st.floats(-4.0, 16.0) | st.sampled_from([0.0, -0.0]), max_size=2),
    far=st.floats(6.0, 10.0),
    prefix=st.floats(0.0, 1.0),
    shuffle=st.randoms(use_true_random=False),
)
@example(groups=[("right", 0), ("left", 0), ("right", 1 << (PRECISION_BITS - 1))], k=14,
         lam=12.0, energies=[BAND_CENTER, 3.0], far=8.0, prefix=0.5, shuffle=random.Random(0))
@example(groups=[("left", 0), ("right", 0)], k=9, lam=0.0, energies=[0.0, -0.0], far=6.0,
         prefix=1.0, shuffle=random.Random(1))
# derivative lanes that leave their product's exponent beside lanes that keep
# it: the general add must keep the bits of the shared one
@example(groups=[("right", 0), ("left", 1 << (PRECISION_BITS - 1))], k=12, lam=1e300,
         energies=[-1.0, 0.0], far=6.0, prefix=0.5, shuffle=random.Random(2))
# both sides of four phases: a factor table of 16 patterns, the most 8 groups
# can have (see `test_factor_table_gives_every_site_its_factors`)
@example(groups=[(side, phase << (PRECISION_BITS - 2)) for phase in range(4)
                 for side in ("right", "left")], k=12, lam=12.0,
         energies=[BAND_CENTER, 3.0], far=8.0, prefix=0.5, shuffle=random.Random(3))
def test_grouped_lanes_match_one_sweep_per_group(groups, k, lam, energies, far, prefix,
                                                 shuffle):
    # any (side, phase) groups, repeats included, in any order over energies
    # in any order, derivatives on a prefix of the groups: each lane keeps the
    # bits of a sweep of its group alone
    energies = energies + [lam + far, -far]  # off the spectrum: these rescale
    groups = [(side, PhasePoint(phase)) for side, phase in groups]
    shuffle.shuffle(groups)
    shuffle.shuffle(energies)
    n, deriv = len(energies), round(prefix * len(groups))
    marks = [fib_number(j) for j in range(k + 1)]
    grouped = TR._sweep(groups, np.array(energies), lam, marks, deriv=deriv, norms=True)
    for g, group in enumerate(groups):
        alone = TR._sweep([group], np.array(energies), lam, marks, deriv=1, norms=True)
        for mark, ref in zip(grouped, alone):
            for i in range(n):
                assert column(mark, g * n + i, g < deriv) == column(ref, i, g < deriv)


@settings(max_examples=20, deadline=None)
@given(
    groups=st.lists(st.tuples(st.sampled_from(["right", "left"]), phases),
                    min_size=1, max_size=8),
    top=st.integers(1, fib_number(20)),
    deriv=st.integers(0, 8),
    lam=st.sampled_from([0.0, 12.0]) | st.floats(0.0, 1e300),
    energies=st.lists(st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0]), min_size=1,
                      max_size=3),
)
@example(groups=[(side, phase << (PRECISION_BITS - 2)) for phase in range(4)
                 for side in ("right", "left")], top=fib_number(12), deriv=4, lam=12.0,
         energies=[BAND_CENTER, 3.0])
# the `phase_traces` groups of the benchmark's `traces-large` run, over its sites
@example(groups=[("right", omega().raw // 2), ("left", omega().raw // 2), ("right", 0)],
         top=fib_number(20), deriv=1, lam=10.0, energies=[-3.0, 13.0])
# 140 groups: more than 255 patterns, so the codes take two bytes
@example(groups=[(("right", "left")[g % 2],
                  (g * 0x9E3779B97F4A7C15 << 64) % (1 << PRECISION_BITS)) for g in range(140)],
         top=2000, deriv=0, lam=12.0, energies=[3.0])
def test_factor_table_gives_every_site_its_factors(groups, top, deriv, lam, energies):
    # each site's row of the table is the factor of every lane, on both
    # entries of X in the (lanes, 2) shape of a step's slot, one C-contiguous
    # array, and G groups give at most 2G patterns (see "Factor table")
    groups = [(side, PhasePoint(phase)) for side, phase in groups]
    deriv = min(deriv, len(groups))
    n = len(energies)
    group = np.repeat([*range(len(groups)), *range(deriv)], n)
    E = np.tile(energies, len(groups) + deriv)
    span = E - lam
    symbols = TR._symbols(groups, top)
    table, code = TR._factor_table(symbols, group, span, E)
    assert len(table) <= 2 * len(groups)
    assert sorted(set(code.tolist())) == list(range(len(table)))
    assert code.dtype == (np.uint8 if len(table) < 256 else np.uint16)
    assert table.flags.c_contiguous and table.shape[1:] == (len(group), 2)
    want = np.where(symbols[:, group], span, E)
    for row in (0, 1):
        assert table[code, :, row].tobytes() == want.tobytes()


def test_peaks_are_the_least_power_of_two_above_every_entry():
    lam, theta = 12.0, PhasePoint.from_decimal("0.3")
    energies = [BAND_CENTER, 3.0, lam + 8.0, -8.0]
    for side in ("right", "left"):
        top = 300
        marks = TR._sweep([(side, theta)], np.array(energies), lam, list(range(1, top + 1)))
        pattern = (rotation_block(1, top, theta) if side == "right"
                   else rotation_block(1 - top, 0, theta)[::-1])
        for i, E in enumerate(energies):
            m, high = (1.0, 0.0, 0.0, 1.0, 0), -math.inf
            for mark, v in zip(marks, pattern):
                t = (E - lam if v == "1" else E, -1.0, 1.0, 0.0, 0)
                m = scalar_mul(t, m) if side == "right" else scalar_mul(m, t)
                high = max(high, math.frexp(max(map(abs, m[:4])))[1] + m[4])
                assert int(mark.peak[i]) == high


@pytest.mark.parametrize("lam", [0.0, 12.0])
@pytest.mark.parametrize("marks", [list(range(1, 301)), fib_marks(12)], ids=["every", "fib"])
def test_sweeps_with_and_without_norms_record_the_same_peaks(lam, marks, monkeypatch):
    # sweeps with and without norms take one block length B; the peaks, taken
    # once per block and per mark, must not depend on where the blocks end,
    # so a sweep that records every other mark, whose blocks end at other
    # sites, records the same peaks at the marks they share
    theta, energies = PhasePoint.from_decimal("0.3"), [BAND_CENTER, 3.0, lam + 8.0, -8.0]
    sizes = []

    def spy(growth, least):
        sizes.append(rescale_sites(growth, least))
        return sizes[-1]

    rescale_sites = TR._rescale_sites
    monkeypatch.setattr(TR, "_rescale_sites", spy)
    groups = [("right", theta), ("left", theta)]
    with_norms = TR._sweep(groups, np.array(energies), lam, marks, deriv=1, norms=True)
    plain = TR._sweep(groups, np.array(energies), lam, marks, deriv=1)
    assert sizes[0] == sizes[1] > 32
    sparse = TR._sweep(groups, np.array(energies), lam, marks[1::2], deriv=1)
    assert [mark.peak.tobytes() for mark in with_norms] == [mark.peak.tobytes() for mark in plain]
    assert ([mark.peak.tobytes() for mark in with_norms[1::2]]
            == [mark.peak.tobytes() for mark in sparse])
    assert min(plain[-1].e[2:4]) > 256  # the far lanes rescale


def outputs(mark):
    """Bits of every output field of a mark: the normalized trace and derivative
    trace, the norm and the running norm sum where the sweep took norms, and
    the peak."""
    fields = (*normalized(mark.m[0] + mark.m[3], mark.e),
              *normalized(mark.dm[0] + mark.dm[3], mark.de),
              mark.norm_m, mark.norm_e, mark.sum_m, mark.sum_e, mark.peak)
    return [f.tobytes() for f in fields if f is not None]


@settings(max_examples=25, deadline=None)
@given(
    sides=st.lists(st.sampled_from(["right", "left"]), min_size=1, max_size=2),
    k=st.integers(1, 12),
    lam=st.sampled_from([0.0, 12.0, 1e300]) | st.floats(0.0, 1e300),
    energies=st.lists(st.floats(-4.0, 16.0) | signed(1e-300, 1e300), min_size=1, max_size=3),
    phase=phases,
    extra=st.lists(st.integers(1, fib_number(12)), max_size=40),
)
# one-site blocks, and derivative lanes that leave their product's exponent
@example(sides=["right", "left"], k=12, lam=1e300, energies=[-1.0, 0.0, 1.0], phase=0,
         extra=list(range(1, 100, 3)))
# blocks of B sites cut by marks on and beside their edges
@example(sides=["left", "right"], k=12, lam=12.0, energies=[BAND_CENTER, 3.0, 20.0, -8.0],
         phase=0, extra=edge_marks([BAND_CENTER, 3.0, 20.0, -8.0], 12.0))
def test_extra_marks_keep_every_output_at_the_shared_marks(sides, k, lam, energies, phase,
                                                           extra):
    # every mark ends a block, so extra marks move where blocks end and lanes
    # rescale: at the marks both sweeps share, only the split of the products
    # into entries and exponent may differ
    groups = [(side, PhasePoint(phase)) for side in sides]
    marks = fib_marks(k)
    more = sorted(set(marks) | {n for n in extra if n <= marks[-1]})
    E = np.array(energies)
    for norms in (True, False):
        base = TR._sweep(groups, E, lam, marks, deriv=len(groups), norms=norms)
        at = {mark.n: mark for mark in TR._sweep(groups, E, lam, more, deriv=len(groups),
                                                 norms=norms)}
        assert [outputs(mark) for mark in base] == [outputs(at[mark.n]) for mark in base]


def test_phase_traces_match_the_one_group_calls():
    grid, lam = [-0.0, 0.0, BAND_CENTER, 3.0, 20.0, -8.0], 12.0
    other = PhasePoint.from_decimal("0.3")
    for thetas in ([other], [other, PhasePoint.zero()]):
        tables, refs = TR.phase_traces(11, grid, lam, thetas)
        for theta, (right, left) in zip(thetas, tables):
            assert tables_bits(right) == tables_bits(TR.dual_traces_upto(11, grid, lam, theta))
            assert left.derivs is None
            assert [xbits(r) for r in xreal_rows(left.traces)] == [
                xbits(row) for row in xreal_rows(TR.traces_left_upto(11, grid, lam, theta))]
        assert [xbits(r) for r in xreal_rows(refs.traces)] == [
            xbits(row)
            for row in xreal_rows(TR.traces_right_upto(11, grid, lam, PhasePoint.zero()))]


def test_phase_traces_at_huge_energies_run_without_warnings():
    # at |E| = 1e300 the running entry bound times the step growth passes
    # float range; it must go to inf quietly, and every lane, huge or in
    # the band, must keep the bits of the one-group calls
    grid, lam, k = [-1e300, BAND_CENTER, 3.0, 1e300], 12.0, 9
    theta = PhasePoint.from_decimal("0.3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [(right, left)], refs = TR.phase_traces(k, grid, lam, [theta])
        duals = TR.dual_traces_upto(k, grid, lam, theta)
        lefts = xreal_rows(TR.traces_left_upto(k, grid, lam, theta))
        zeros = xreal_rows(TR.traces_right_upto(k, grid, lam, PhasePoint.zero()))
    assert tables_bits(right) == tables_bits(duals)
    assert [xbits(r) for r in xreal_rows(left.traces)] == [xbits(row) for row in lefts]
    assert [xbits(r) for r in xreal_rows(refs.traces)] == [xbits(row) for row in zeros]


def test_band_lane_never_rescales_beside_far_lanes():
    # the premise of the examples above: at lambda 0 every factor of the E = 0
    # lane is [[0, -1], [1, 0]], so its products are that matrix's powers,
    # whose entries are 0 and +-1; it keeps exponent 0 over F(14) sites on
    # either side, with norms or without, while the far lanes rescale
    energies = [0.0, 3.0, 0.0 + 8.0, -8.0]
    for side in ("right", "left"):
        for norms in (True, False):
            last = TR._sweep([(side, PhasePoint.zero())], np.array(energies), 0.0,
                             [fib_number(14)], norms=norms)[0]
            assert last.e[0] == 0 and min(last.e[2:]) > 256


@settings(max_examples=25, deadline=None)
@given(
    sides=st.lists(st.sampled_from(["right", "left"]), min_size=1, max_size=2),
    k=st.integers(0, 11),
    lam=st.sampled_from([0.0, 12.0, 1e300]) | st.floats(0.0, 1e6),
    energies=st.lists(st.floats(-4.0, 16.0) | st.floats(-2.0**20, 2.0**20), min_size=1,
                      max_size=3),
    norms=st.booleans(),
    phase=st.integers(0, (1 << PRECISION_BITS) - 1),
)
# growth just below 2**16, where each lane grows by almost that much per
# site; a mark at every site ends every block after one site, and the test
# below holds the 16-site blocks of this lane to the threshold
@example(sides=["right"], k=9, lam=0.0, energies=[2.0**16 - 2.0], norms=False, phase=0)
@example(sides=["left"], k=9, lam=0.0, energies=[2.0**16 - 2.0], norms=False, phase=0)
def test_no_stored_entry_passes_its_threshold(sides, k, lam, energies, norms, phase):
    # a mark at every site records every product the sweep keeps between
    # sites; the rescale at each block's end must keep all of them within
    # their lane's threshold, which keeps the next step finite
    theta = PhasePoint(phase)
    groups = [(side, theta) for side in sides]
    marks = TR._sweep(groups, np.array(energies), lam, list(range(1, fib_number(k) + 1)),
                      deriv=1, norms=norms)
    limit = np.tile(TR._lane_limit(np.array(energies), lam), len(groups))
    for mark in marks:
        assert (np.abs(mark.m).max(axis=0) <= limit).all(), mark.n


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("lam, energies", [
    (0.0, [2.0**16 - 2.0]),  # 16-site blocks that reach 2**256 at a 17th site
    (12.0, [BAND_CENTER, 3.0, 20.0, -8.0]),
], ids=["16-sites", "58-sites"])
def test_no_entry_inside_a_block_passes_its_threshold(side, lam, energies, monkeypatch):
    # marks end blocks, so the marks of the test above never see a whole
    # block; the squared norms read every row of a block before its rescale,
    # and where blocks are longer than one site none may pass its lane's
    # threshold (a one-site block's step may, and its rescale follows)
    limit, seen = TR._lane_limit(np.array(energies), lam), []

    def spy(m, e):
        seen.append(np.abs(m).max(axis=(0, 1)))
        return norm_sq_lanes(m, e)

    norm_sq_lanes = TR._norm_sq_lanes
    monkeypatch.setattr(TR, "_norm_sq_lanes", spy)
    TR._sweep([(side, PhasePoint.zero())], np.array(energies), lam, [fib_number(12)],
              deriv=1, norms=True)
    assert len(seen) > 1
    assert [n for n, mags in enumerate(seen) if (mags > limit).any()] == []


def test_one_site_blocks_keep_the_scalar_raw_split():
    # at coupling 1e300 one factor passes 2**128, so a block is one site and
    # each lane rescales where `scalar_mul` does: the raw entries and exponents,
    # not only their values, are the scalar rule's at every mark
    lam, energies = 1e300, [-1.0, 0.0, 1.0, 1e-250]
    assert TR._rescale_sites((lam + 2.0) * TR._SLACK, 2.0**256) == 1
    for side in ("right", "left"):
        theta = PhasePoint.from_decimal("0.3")
        lanes = lane_results(side, 12, energies, lam, theta, False)
        for E, lane in zip(energies, lanes):
            reference = scalar_reference(side, 12, E, lam, theta)
            assert ([unsigned_zeros(record[0]) for record in lane]
                    == [unsigned_zeros(record[0]) for record in reference])


def zero_signs(raw_matrix):
    """Per entry of `raw` bits: None if it is not zero, else whether it is -0.0."""
    return [v == f64(-0.0) if v in (f64(0.0), f64(-0.0)) else None for v in raw_matrix[:4]]


def test_factors_that_are_exactly_zero():
    # at E = 0 and E = lam a factor t is 0.0, so products and derivatives get
    # entries that are exactly zero; at lambda 1e300 a block is one site and
    # the raw split is the scalar rule's, but the derivative's entries 1e-300
    # below its largest flush in the shared exponent (see "Derivative lanes"
    # above).  Entries keep their values and everything else its
    # bits, but the step has no 0.0 * y term, so a zero entry can be -0.0
    # where `scalar_mul` gives 0.0, or the other way round
    theta = PhasePoint.from_decimal("0.3")
    for side in ("right", "left"):
        flips = 0
        for lam in (0.0, 12.0, 1e300):
            energies = [0.0, lam, -0.0, lam + 8.0]
            for norms in (True, False):
                lanes = lane_results(side, 12, energies, lam, theta, norms)
                for E, lane in zip(energies, lanes):
                    reference = carried(scalar_reference(side, 12, E, lam, theta), norms)
                    if lam < 1e300:
                        assert_same_records(lane, reference)
                    else:
                        assert ([(unsigned_zeros(m), *rest) for m, _, *rest in lane]
                                == [(unsigned_zeros(m), *rest) for m, _, *rest in reference])
                    for got, want in zip(lane, reference):
                        signs = zip(zero_signs(got[0]), zero_signs(want[0]))
                        flips += sum(g != w for g, w in signs if None not in (g, w))
        assert flips, side  # the sign of some zero differs, and no value or output bit


# ---------------------------------------------------------------------------
# the per-lane helpers against their scalar counterparts
# ---------------------------------------------------------------------------

# operands as the sweep makes them: out of a rescale, so no entry above 2**256
entry = st.floats(-2.0**256, 2.0**256) | st.sampled_from([0.0, -0.0])
matrix = st.tuples(entry, entry, entry, entry, st.integers(-3000, 3000))


def columns(matrices):
    """Scalar (a, b, c, d, e) tuples -> right-side lane entries and exponents."""
    a, b, c, d, e = (np.array(v) for v in zip(*matrices))
    return np.array([a, b, c, d]), e.astype(np.int64)


def slots(m):
    """(4, lanes) entries as the two (lanes, 2) slots of the sweep's buffer that
    `transfer._renorm` and `_add_lanes` take, (a, b) and (c, d): a view of `m`."""
    return m.reshape(2, 2, -1).transpose(0, 2, 1)


# shifts on both sides of where 2**shift underflows to 0 (-1074) and of where
# `scalar_add` starts returning the larger operand (beyond 1080), with -0.0 entries
# that an added 0.0 would turn into 0.0
LARGER, SMALLER = (1.0, -0.0, -3.0, 2.0**255), (-2.0**200, 1.5, -0.0, 0.0)
EDGE_SHIFTS = (1074, 1075, 1080, 1081)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(matrix, matrix), min_size=1, max_size=5))
@example([((*LARGER, shift), (*SMALLER, 0)) for shift in EDGE_SHIFTS])
@example([((*SMALLER, 0), (*LARGER, shift)) for shift in EDGE_SHIFTS])
def test_lane_add_matches_scalar_add(pairs):
    m1, e1 = columns([p for p, _ in pairs])
    m2, e2 = columns([q for _, q in pairs])
    m = np.empty_like(m1)
    e = TR._add_lanes(slots(m1), e1, slots(m2), e2, (slots(m), None))[1]
    e = TR._renorm(slots(m), e, math.inf)[1]
    for i, (p, q) in enumerate(pairs):
        assert lane_raw("right", m, e, i) == raw(scalar_add(p, q))


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bound-only"])
def test_rescale_starts_strictly_above_two_to_the_256(bounded):
    # lanes whose largest entry is exactly 2**256 keep it, as `scalar_mul` does;
    # beside them in one call, lanes an ulp above rescale
    above = math.nextafter(TR._RENORM, math.inf)
    matrices = []
    for top in (TR._RENORM, above):
        for sign in (1.0, -1.0):
            for place in range(4):
                entries = [0.75, -3.0, 0.0, 1.5]
                entries[place] = sign * top
                matrices.append((*entries, 7))
    products = [scalar_mul(mat, (1.0, 0.0, 0.0, 1.0, 0)) for mat in matrices]
    assert [p[4] for p in products] == [7] * 8 + [7 + 257] * 8
    m, e = columns(matrices)
    e, bound = TR._renorm(slots(m), e, 2.0 * above if bounded else math.inf)[1:]
    for i, product in enumerate(products):
        assert lane_raw("right", m, e, i) == raw(product)
    assert bound == (max(max(map(abs, p[:4])) for p in products) if bounded else math.inf)


@settings(max_examples=200, deadline=None)
@given(st.lists(matrix.filter(lambda m: any(m[:4])), min_size=1, max_size=5))
@example([(0.0, 0.0, 0.0, 2.225073858507203e-309, 0)])  # subnormal largest entry
def test_lane_norm_matches_scalar_norm(matrices):
    m, e = columns(matrices)
    m, ex = TR._norm_sq_lanes(m, e)
    for i, mat in enumerate(matrices):
        assert xbits(xreal_rows((m[i:i + 1], ex[i:i + 1]))) == xbits([norm_sq(mat)])


positive = st.tuples(st.floats(0.5, 1.0, exclude_max=True), st.integers(-5000, 5000))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(positive, positive), min_size=1, max_size=5))
def test_lane_xreal_add_matches_xreal(pairs):
    # a carried sum and a block of one norm: any exponent gap, as at B = 1
    am, ae = (np.array(v) for v in zip(*[p for p, _ in pairs]))
    bm, be = (np.array(v) for v in zip(*[q for _, q in pairs]))
    m, e = TR._running_sums(bm[None], be[None], (am, ae))
    for i, (p, q) in enumerate(pairs):
        want = XReal._raw(*p) + XReal._raw(*q)
        assert (f64(m[0, i]), int(e[0, i])) == (f64(want.m), want.e)


# ---------------------------------------------------------------------------
# norm sums a block of sites at a time
# ---------------------------------------------------------------------------

def scalar_norms(side, top, E, lam, theta):
    """Per site n = 1..top: ||M(n)||^2 and its sum over sites 1..n, as XReals."""
    if side == "right":
        pattern = rotation_block(1, top, theta)
    else:
        pattern = rotation_block(1 - top, 0, theta)[::-1]  # site 0, -1, ...
    m, total, out = (1.0, 0.0, 0.0, 1.0, 0), XReal(), []
    for v in pattern:
        t = (E - lam if v == "1" else E, -1.0, 1.0, 0.0, 0)  # as in `local_matrix`
        m = scalar_mul(t, m) if side == "right" else scalar_mul(m, t)
        norm = norm_sq(m)
        total = total + norm
        out.append((norm, total))
    return out


def lane_columns(values):
    """Per-mark lists of per-lane XReals -> per-lane lists of their bits."""
    return [xbits(lane) for lane in zip(*values)]


HUGE = 1e80  # log2 of the growth passes 240, so B = 1
couplings = st.sampled_from([0.0, 12.0, HUGE, -HUGE]) | st.floats(0.0, 1e6)


@settings(max_examples=15, deadline=None)
@given(
    lam=couplings,
    energies=st.lists(st.floats(-4.0, 16.0), max_size=2),
    blocks=st.integers(1, 3),
    phase=st.integers(0, (1 << PRECISION_BITS) - 1),
    shuffle=st.randoms(use_true_random=False),
)
@example(lam=HUGE, energies=[], blocks=3, phase=0, shuffle=random.Random(0))
@example(lam=0.0, energies=[0.0, -0.0], blocks=2, phase=0, shuffle=random.Random(1))
@example(lam=12.0, energies=[BAND_CENTER], blocks=3, phase=0, shuffle=random.Random(2))
def test_block_norm_sums_match_scalar_sums(lam, energies, blocks, phase, shuffle):
    # a mark at every site makes every block one site long; marks at every
    # B-th site and the last one hold the sums of whole blocks, the last
    # block one site long
    theta = PhasePoint(phase)
    energies = energies + [0.0, -0.0, lam + 8.0, -8.0]  # the far lanes rescale
    sides = ["right", "left"]
    shuffle.shuffle(sides)
    shuffle.shuffle(energies)
    lanes = [(side, E) for side in sides for E in energies]
    size = block_length(energies, lam)
    top = blocks * size + 1 if size > 1 else 40
    marks = TR._sweep([(side, theta) for side in sides], np.array(energies), lam,
                      list(range(1, top + 1)), norms=True)
    norms = lane_columns([xreal_rows((mark.norm_m, mark.norm_e)) for mark in marks])
    sums = lane_columns([xreal_rows((mark.sum_m, mark.sum_e)) for mark in marks])
    ends = [*range(size, top, size), top]
    whole = lane_columns([xreal_rows((mark.sum_m, mark.sum_e)) for mark in TR._sweep(
        [(side, theta) for side in sides], np.array(energies), lam, ends, norms=True)])
    for i, (side, E) in enumerate(lanes):
        want = scalar_norms(side, top, E, lam, theta)
        assert norms[i] == xbits([norm for norm, _ in want])
        assert sums[i] == xbits([total for _, total in want])
        assert whole[i] == xbits([want[n - 1][1] for n in ends])


@settings(max_examples=10, deadline=None)
@given(
    lam=couplings,
    energies=st.lists(st.floats(-4.0, 16.0), max_size=2),
    fraction=st.floats(0.01, 0.99),
    phase=st.integers(0, (1 << PRECISION_BITS) - 1),
)
@example(lam=HUGE, energies=[], fraction=0.5, phase=0)
@example(lam=0.0, energies=[0.0, -0.0], fraction=0.25, phase=0)
def test_fractional_windows_across_block_edges(lam, energies, fraction, phase):
    # floor(L) closes a block and its edge term floor(L) + 1 opens the next
    theta = PhasePoint(phase)
    energies = energies + [0.0, -0.0, lam + 8.0, -8.0]
    size = block_length(energies, lam)
    mags = [fraction] + [b * size + fraction for b in (1, 2, 3)]
    ls = mags + [-l for l in mags]
    rows = xreal_rows(TR.norm_profile(ls, energies, lam, theta))
    for E, row in zip(energies, rows):
        want = []
        for side in ("right", "left"):
            per_site = scalar_norms(side, 3 * size + 1, E, lam, theta)
            for l in mags:
                fl = math.floor(l)
                total = per_site[fl - 1][1] if fl else XReal()
                want.append(total + (l - fl) * per_site[fl][0])
        assert xbits(row) == xbits(want)


@given(st.floats(1.0, 1e300, exclude_min=True)
       | st.sampled_from([1.0 + 2.0**-40, 2.0, 2.0**3.75, 2.0**128, 2.0**240, 2.0**480,
                          math.inf]),
       st.floats(1.0, 2.0**256) | st.sampled_from([1.0, 2.0**128, 2.0**256]))
def test_block_length_keeps_running_sums_in_range(growth, least):
    # 2 (B + 1) log2(g) <= 960 keeps every running sum within 2**960 of its
    # block's largest value, for every least threshold up to 2**256; B is the
    # largest length up to 256 with g**B <= least, else 1 (the tolerance only
    # absorbs the rounding of g**B)
    size, bits = TR._rescale_sites(growth, least), math.log2(growth)
    assert 1 <= size <= 256
    assert size == 1 or 2 * (size + 1) * bits <= 960 * (1 + 1e-12)
    assert size == 1 or size * bits <= math.log2(least) + 1e-9
    assert size == 256 or (size + 1) * bits > math.log2(least) - 1e-9
    assert TR._rescale_sites(math.nan, 2.0**256) == 1
