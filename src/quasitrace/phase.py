"""Exact fixed-point arithmetic for circle phases and the golden rotation number.

All phase values live on the circle [0, 1), represented as integers scaled by
2**bits.  Every operation (addition, integer multiples, reduction mod 1) is
exact integer arithmetic, so orbit evaluations nw + theta are deterministic
and reproducible across runs and platforms.  Plain floats drift by ~|n|*eps
over long orbits, which is comparable to the distance between orbit points
and the coding-interval endpoints; fixed point avoids the problem entirely.

The working precision is taken from the QUASITRACE_PRECISION_BITS environment
variable (default 128, minimum 96).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "PRECISION_BITS",
    "PhasePoint",
    "EndpointMonitor",
    "omega",
    "omega_float",
]

_MIN_BITS = 96
_MAX_BITS = 384

# (sqrt(5) - 1) / 2 to 120 decimal places (~398 bits), rounded down.
_OMEGA_DECIMAL = (
    "0.618033988749894848204586834365638117720309179805762862135448622705"
    "260462818902449707207204189391137484754088075386891752"
)


def _read_precision() -> int:
    raw = os.environ.get("QUASITRACE_PRECISION_BITS", "128")
    try:
        bits = int(raw)
    except ValueError:
        raise ValueError(f"QUASITRACE_PRECISION_BITS must be an integer, got {raw!r}")
    if not _MIN_BITS <= bits <= _MAX_BITS:
        raise ValueError(
            f"QUASITRACE_PRECISION_BITS must lie in [{_MIN_BITS}, {_MAX_BITS}], got {bits}"
        )
    return bits


PRECISION_BITS = _read_precision()


def _decimal_to_fixed(text: str, bits: int) -> int:
    """Parse a decimal string into a round-to-nearest fixed-point integer."""
    frac = Fraction(text) % 1
    num, den = frac.numerator << (bits + 1), frac.denominator
    # round half up, deterministically
    return ((num // den) + 1) >> 1


@dataclass(frozen=True, slots=True)
class PhasePoint:
    """A point of the circle [0, 1) stored as raw / 2**bits."""

    raw: int
    bits: int = PRECISION_BITS

    def __post_init__(self):
        if not 0 <= self.raw < (1 << self.bits):
            raise ValueError("raw value out of range for the declared precision")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, bits: int = PRECISION_BITS) -> "PhasePoint":
        return cls(0, bits)

    @classmethod
    def from_decimal(cls, text: str, bits: int = PRECISION_BITS) -> "PhasePoint":
        return cls(_decimal_to_fixed(text, bits) % (1 << bits), bits)

    @classmethod
    def from_fraction(cls, num: int, den: int, bits: int = PRECISION_BITS) -> "PhasePoint":
        if den <= 0:
            raise ValueError("denominator must be positive")
        frac = Fraction(num, den) % 1
        scaled = ((frac.numerator << (bits + 1)) // frac.denominator + 1) >> 1
        return cls(scaled % (1 << bits), bits)

    # -- exact circle arithmetic ----------------------------------------

    def _check(self, other: "PhasePoint") -> None:
        if self.bits != other.bits:
            raise ValueError("mixed fixed-point precisions")

    def add(self, other: "PhasePoint") -> "PhasePoint":
        self._check(other)
        return PhasePoint((self.raw + other.raw) & ((1 << self.bits) - 1), self.bits)

    def sub(self, other: "PhasePoint") -> "PhasePoint":
        self._check(other)
        return PhasePoint((self.raw - other.raw) % (1 << self.bits), self.bits)

    def times(self, n: int) -> "PhasePoint":
        """Integer multiple n*x mod 1, exact for any Python integer n."""
        return PhasePoint((n * self.raw) % (1 << self.bits), self.bits)

    # -- conversions -----------------------------------------------------

    def __float__(self) -> float:
        return self.raw / (1 << self.bits)

    def to_decimal(self, digits: int = 30) -> str:
        scaled = (self.raw * 10**digits) >> self.bits
        return f"0.{scaled:0{digits}d}"

    def __str__(self) -> str:
        return self.to_decimal(24)


class EndpointMonitor:
    """Diagnostic channel recording orbit points that graze the coding interval.

    A hit is an evaluation landing within 2**-64 of either endpoint of the
    half-open interval [1 - omega, 1).  Hits are resolved deterministically by
    the fixed-point comparison; the monitor only reports them.
    """

    def __init__(self, max_samples: int = 32):
        self.hits = 0
        self.samples: list[tuple[int, float]] = []
        self._max_samples = max_samples

    def record(self, n: int, distance: float) -> None:
        self.hits += 1
        if len(self.samples) < self._max_samples:
            self.samples.append((n, distance))

    def __repr__(self):
        return f"EndpointMonitor(hits={self.hits})"


_OMEGA_CACHE: dict[int, PhasePoint] = {}


def omega(bits: int = PRECISION_BITS) -> PhasePoint:
    """The golden rotation number (sqrt(5)-1)/2 at the working precision.

    Validated on first use: the fixed-point value must satisfy
    |w**2 + w - 1| <= 2**-90, which pins the embedded literal to far more
    accuracy than any downstream comparison needs.
    """
    point = _OMEGA_CACHE.get(bits)
    if point is None:
        raw = _decimal_to_fixed(_OMEGA_DECIMAL, bits)
        defect = ((raw * raw) >> bits) + raw - (1 << bits)
        if abs(defect) > (1 << max(bits - 90, 0)):
            raise AssertionError("golden-ratio literal too short for this precision")
        point = PhasePoint(raw, bits)
        _OMEGA_CACHE[bits] = point
    return point


def omega_float() -> float:
    """Float approximation of the rotation number, for non-critical uses."""
    return float(omega())
