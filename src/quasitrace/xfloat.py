"""Extended-range real scalars as (mantissa, exponent) pairs.

Traces and matrix norms grow doubly exponentially in the level index off the
spectrum, overrunning float64 around level 13-15.  XReal stores value =
m * 2**e with |m| in [0.5, 1), keeping ~16 significant digits at any
magnitude.  Only the handful of operations the trace/norm pipelines need are
implemented.
"""

from __future__ import annotations

import math

__all__ = ["XReal", "sci"]

_LOG10_2 = math.log10(2.0)


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


def sci(m: float, e: int) -> str:
    """`XReal.sci` of m * 2**e, m normalized as XReal keeps it.

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
