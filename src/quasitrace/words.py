"""Exact combinatorics of the golden-rotation binary sequence and its hull.

The infinite word w is the coding of the orbit n -> frac(n*omega) by the
interval [1-omega, 1); it is equivalently generated by the substitution
0 -> 1, 1 -> 10.  A finite word is a `str` of "0" and "1" characters: every
consumer (the transfer sweep, the truncated operator, the `words` table)
reads the coding as text, and at one byte per symbol the longest word a
command builds, F(25) = 196418 symbols (`MAX_WORD_LEVEL`), takes 0.2 MB.

No public name here is kept for the tests alone.  The tests hold `fib_word`
to the substitution and `subwords` to the factor sets of the prefix and of
rotation blocks, each against a string oracle of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .phase import PRECISION_BITS, PhasePoint, omega

__all__ = [
    "ParityReport",
    "fib_number",
    "fib_word",
    "rotation_block",
    "subwords",
    "complexity_counts",
    "saturation_prefix_length",
    "cyclic_permutations",
    "special_word",
    "height",
    "fibonacci_identity_check",
    "classify_phase_words",
]

# the cap on k of every command; the `phase` error model covers no site beyond F(25)
MAX_WORD_LEVEL = 25


@dataclass(frozen=True)
class ParityReport:
    """Outcomes of a phase check on one half-line, by level parity: of the windows'
    conjugacy in `classify_phase_words`, of the traces' in `transfer.phase_trace_parity`."""

    side: str  # "right" or "left"
    even_ok: bool
    odd_ok: bool
    per_k: tuple = field(default_factory=tuple)  # (k, side, is_cyclic or worst gap ratio)

    @classmethod
    def of(cls, side: str, outcomes: list, passed: list[bool]) -> "ParityReport":
        """The report of per-level outcomes and pass flags at levels 0, 1, ...:
        even levels pass if all of them pass, odd levels likewise."""
        return cls(side, all(passed[0::2]), all(passed[1::2]),
                   tuple((k, side, outcome) for k, outcome in enumerate(outcomes)))


@lru_cache(maxsize=None)
def fib_number(k: int) -> int:
    """Fibonacci numbers with F(-1) = F(0) = 1, exact at any size."""
    if k < -1:
        raise ValueError("index must be >= -1")
    if k <= 0:
        return 1
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return b


_FIB_WORDS = ["1", "10"]


def fib_word(k: int) -> str:
    """The k-fold substitution image of "1", built by the two-term concatenation."""
    if k < 0:
        raise ValueError("level must be >= 0")
    if k > MAX_WORD_LEVEL:
        raise ValueError(f"level {k} exceeds the bound {MAX_WORD_LEVEL}")
    while len(_FIB_WORDS) <= k:
        _FIB_WORDS.append(_FIB_WORDS[-1] + _FIB_WORDS[-2])
    return _FIB_WORDS[k]


def rotation_block(n_lo: int, n_hi: int, theta: PhasePoint) -> str:
    """The word v(n_lo) v(n_lo+1) ... v(n_hi) of orbit codings, as a `str`.

    v(n) codes the orbit point n*omega~ + theta of the rotation by omega~,
    the 128-bit rotation number `omega()`, by the interval [1-omega~, 1): the
    left endpoint is inclusive, the right endpoint (= 0 mod 1) exclusive, and
    the comparison is exact in fixed point.  On the sites the commands reach,
    every point farther than 2**-111 from an endpoint is coded as by the
    rotation by omega itself (the `phase` error model).  The symbols are
    written into a `bytearray`, one byte each, and decoded once.
    """
    if n_lo > n_hi:
        raise ValueError("n_lo must not exceed n_hi")
    one = 1 << PRECISION_BITS
    mask = one - 1
    om = omega().raw
    left = one - om
    val = (n_lo * om + theta.raw) % one
    out = bytearray(b"0") * (n_hi - n_lo + 1)
    for i in range(len(out)):
        if val >= left:
            out[i] = 49  # "1"
        val = (val + om) & mask
    return out.decode()


def saturation_prefix_length(n: int) -> int:
    """Prefix length guaranteeing every length-n factor has appeared.

    Uses the uniform-recurrence gap n + F(k+2) with k the smallest level
    such that F(k) >= n.  `test_saturation_prefix_holds_every_factor` checks
    it by doubling the prefix, for n up to the cap of `--subword-max`.
    """
    if n < 1:
        raise ValueError("factor length must be >= 1")
    return n + fib_number(_cover_level(n) + 2)


def _cover_level(n: int) -> int:
    """The least level k with F(k) >= n."""
    k = 0
    while fib_number(k) < n:
        k += 1
    return k


def _prefix_word(length: int) -> str:
    return fib_word(_cover_level(length))[:length]


def _factors(text: str, n: int) -> set[str]:
    """The distinct length-n windows of text: an n-bit integer (bit i = window
    position i) rolls over the text, and each distinct window is sliced out
    once, at its first offset."""
    if n > len(text):
        return set()
    top = 1 << (n - 1)
    window = int(text[n - 1::-1], 2)
    first = {window: 0}
    for i, ch in enumerate(text[n:], 1):
        window >>= 1
        if ch == "1":
            window |= top
        first.setdefault(window, i)
    return {text[i:i + n] for i in first.values()}


def subwords(n: int) -> frozenset[str]:
    """All length-n factors of the word, read off its saturated prefix."""
    return frozenset(_factors(_prefix_word(saturation_prefix_length(n)), n))


def _factor_counts(text: str, n_max: int) -> list[int]:
    """len(_factors(text, n)) for n = 1..n_max in one pass: the classes of equal
    length-n windows refine those of length n - 1 by the windows' last symbol."""
    sym = np.frombuffer(text.encode(), np.uint8) == ord("1")
    cls = np.zeros(len(text) + 1, dtype=np.int64)  # the one class of empty windows
    counts = []
    for n in range(1, n_max + 1):
        values, cls = np.unique(cls[:-1] * 2 + sym[n - 1:], return_inverse=True)
        counts.append(len(values))
    return counts


def complexity_counts(n_max: int) -> list[int]:
    """len(subwords(n)) for n = 1..n_max, counted on the one prefix that
    saturates every n <= n_max (`saturation_prefix_length` increases with n)."""
    return _factor_counts(_prefix_word(saturation_prefix_length(n_max)), n_max)


def cyclic_permutations(w: str) -> tuple[list[str], int]:
    """All rotations of w in shift order, plus the count of distinct ones."""
    if not w:
        raise ValueError("empty word")
    rots = [w[r:] + w[:r] for r in range(len(w))]
    return rots, len(set(rots))


def special_word(k: int) -> str:
    """The unique length-F(k) factor that is not a rotation of the level word.

    Obtained by flipping the last symbol of the level-k word and prepending it
    to the first F(k)-1 symbols.
    """
    s = fib_word(k)
    return ("1" if s[-1] == "0" else "0") + s[:-1]


def height(w: str) -> int:
    """Number of 1 symbols."""
    return w.count("1")


def fibonacci_identity_check(k: int) -> int:
    """(-1)**(k-1) * (F(k-2)*F(k) - F(k-1)**2), exactly; equals 1 for all k >= 1."""
    if k < 1:
        raise ValueError("index must be >= 1")
    value = fib_number(k - 2) * fib_number(k) - fib_number(k - 1) ** 2
    return (-1) ** (k - 1) * value


def classify_phase_words(theta: PhasePoint, k_max: int) -> tuple[ParityReport, ParityReport]:
    """Test, level by level, whether the phase windows are rotations of the level word.

    The right window at level k is the coding of sites 1..F(k), the left
    window the coding of sites -F(k)+1..0.  On each side, all even levels or
    all odd levels must pass; a report where neither class passes shows an
    implementation error, which the caller records.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if k_max > MAX_WORD_LEVEL:
        raise ValueError("k_max beyond word-level bound")
    f_top = fib_number(k_max)
    right_block = rotation_block(1, f_top, theta)
    left_block = rotation_block(-f_top + 1, 0, theta)
    reports = []
    for side, block in (("right", right_block), ("left", left_block)):
        passed = []
        for k in range(k_max + 1):
            f = fib_number(k)
            window = block[:f] if side == "right" else block[-f:]
            passed.append(window in fib_word(k) * 2)
        reports.append(ParityReport.of(side, passed, passed))
    return reports[0], reports[1]

