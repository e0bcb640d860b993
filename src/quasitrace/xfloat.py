"""Extended-range reals as (mantissa, exponent) pairs of numpy arrays.

Traces and matrix norms grow doubly exponentially in the level index off the
spectrum, overrunning float64 around level 13-15.  A pair (m, e) of arrays
of one shape holds value = m * 2**e per element, m a float64 with |m| in
[0.5, 1) and e an integer, keeping ~16 significant digits at any magnitude.
A zero is m = +-0.0 with e = 0: every operation here gives a zero result
exponent 0, a sum that cancels included, so a value has one (m, e) pair up
to the sign of a zero.  Only the operations the trace and norm pipelines
need are implemented; inputs are normalized pairs.

Each operation rounds as one IEEE operation on the mantissas, then
normalizes with `frexp`; the tests hold every one to an extended-real
reference, elementwise and bit for bit, signed zeros included.  `sci` prints
one value.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["normalized", "add", "mul", "sqrt", "compare", "sci"]

_LOG10_2 = math.log10(2.0)


def normalized(v, e):
    """v * 2**e per element for any float64 v, as a normalized (m, e) pair."""
    m, ex = np.frexp(v)
    return m + 0.0, np.where(m == 0.0, 0, ex + e)  # + 0.0 turns -0.0 into 0.0


def add(m1, e1, m2, e2):
    """The sum of normalized pairs per element.

    The operand with the smaller exponent is scaled by 2**shift, shift the
    difference of the exponents, and added to the other one in float64.
    Past shift < -1080 the scaled mantissa rounds to +-0.0, so the sum is
    the larger operand, bits included.  A zero operand gives the other one
    as it is, its sign and exponent included.
    """
    z1, z2 = m1 == 0.0, m2 == 0.0
    # a zero operand takes the other's exponent, so it scales nothing away
    f1, f2 = np.where(z1, e2, e1), np.where(z2, e1, e2)
    top = np.maximum(f1, f2)
    m, e = normalized(np.ldexp(m1, f1 - top) + np.ldexp(m2, f2 - top), top)
    return np.where(z1, m2, m), np.where(z1, e2, e)


def mul(m1, e1, m2, e2):
    """The product of normalized pairs per element; (0.0, 0) where one is zero."""
    return normalized(m1 * m2, e1 + e2)


def sqrt(m, e):
    """The square root of a nonnegative normalized pair per element.

    An odd exponent moves one factor 2 into the mantissa, so the exponent
    halves exactly; ValueError on a negative value.
    """
    if np.any(m < 0.0):
        raise ValueError("sqrt of a negative extended real")
    odd = e % 2
    return normalized(np.sqrt(np.ldexp(m, odd)), (e - odd) // 2)


def compare(m1, e1, m2, e2):
    """-1, 0 or 1 per element: the sign of (m1, e1) - (m2, e2) as `add` rounds it."""
    return np.sign(add(m1, e1, -m2, e2)[0])


def sci(m: float, e: int) -> str:
    """Deterministic scientific-notation string of m * 2**e, m normalized.

    Python's `math` one value at a time, on purpose: numpy's log2 and power
    can differ from it by an ulp, which can change a printed digit.
    """
    if m == 0.0:
        return "0.0"
    lg = (e + math.log2(abs(m))) * _LOG10_2
    d = math.floor(lg)
    mant = 10.0 ** (lg - d)
    if mant >= 10.0 - 5e-13:
        mant /= 10.0
        d += 1
    sign = "-" if m < 0 else ""
    return f"{sign}{mant:.12f}e{d:+03d}"
