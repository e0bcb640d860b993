"""Exact fixed-point arithmetic for circle phases and the golden rotation number.

All phase values live on the circle [0, 1), represented as integers scaled by
2**PRECISION_BITS (128).  Orbit evaluations n*omega~ + theta are exact integer
arithmetic, so they are deterministic and reproducible across runs and
platforms.  Plain floats drift by ~|n|*eps over long orbits, which is
comparable to the distance between orbit points and the coding-interval
endpoints; fixed point avoids the problem.

Error model.  The coded rotation is by omega~ = omega(), the nearest 128-bit
point to omega = (sqrt(5) - 1)/2, so |omega - omega~| <= 2**-129.  Commands
reach sites |n| <= F(25) = 196418 (`RunConfig` caps k at 25; `MAX_BOX` is
4096), so an orbit point n*omega~ + theta is off by less than 2**-111, and
every coding whose point lies farther than that from an endpoint is decided
exactly, as for the rotation by omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "PRECISION_BITS",
    "PhasePoint",
    "omega",
]

PRECISION_BITS = 128
_ONE = 1 << PRECISION_BITS


@dataclass(frozen=True, slots=True)
class PhasePoint:
    """A point of the circle [0, 1) stored as raw / 2**PRECISION_BITS."""

    raw: int

    def __post_init__(self):
        if not 0 <= self.raw < _ONE:
            raise ValueError("raw value out of range for the phase precision")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "PhasePoint":
        return cls(0)

    @classmethod
    def from_decimal(cls, text: str) -> "PhasePoint":
        return _nearest(Fraction(text))

    @classmethod
    def from_fraction(cls, num: int, den: int) -> "PhasePoint":
        if den <= 0:
            raise ValueError("denominator must be positive")
        return _nearest(Fraction(num, den))

    # -- conversions -----------------------------------------------------

    def __float__(self) -> float:
        return self.raw / _ONE

    def to_decimal(self, digits: int = 30) -> str:
        scaled = (self.raw * 10**digits) >> PRECISION_BITS
        return f"0.{scaled:0{digits}d}"

    def __str__(self) -> str:
        return self.to_decimal(24)


def _nearest(value: Fraction) -> PhasePoint:
    """The point nearest to value mod 1, ties rounded up."""
    frac = value % 1
    raw = ((frac.numerator << (PRECISION_BITS + 1)) // frac.denominator + 1) >> 1
    return PhasePoint(raw % _ONE)


# (sqrt(5) - 1)/2 * 2**128 rounded to nearest: isqrt gives floor(sqrt(5) * 2**128),
# and as sqrt(5) is irrational the halving below never meets a tie.
_OMEGA = PhasePoint((math.isqrt(5 << (2 * PRECISION_BITS)) - _ONE + 1) >> 1)


def omega() -> PhasePoint:
    """The golden rotation number (sqrt(5)-1)/2 at the phase precision."""
    return _OMEGA
