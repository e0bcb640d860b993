"""Exact combinatorics of the golden-rotation binary sequence and its hull.

The infinite word w is the coding of the orbit n -> frac(n*omega) by the
interval [1-omega, 1); it is equivalently generated by the substitution
0 -> 1, 1 -> 10.  Finite words are stored packed: bit i of an integer holds
the symbol at position i, so concatenation, slicing, rotation and equality
are cheap big-integer operations even for words of 10**8 symbols.

No CLI path calls `substitute` or `hull_membership_check`; they stay public as
the two definitions a word is checked against.  `substitute` is the rule
0 -> 1, 1 -> 10 itself, from which `fib_word` and its faster concatenation
must not drift.  `hull_membership_check` says at a finite scale whether a
window, taken from any sequence, carries exactly the factors of w: membership
in the hull, over which the paper's bounds are uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .phase import PhasePoint, EndpointMonitor, omega

__all__ = [
    "Word",
    "SubwordSet",
    "ParityReport",
    "SaturationError",
    "PhaseClassificationError",
    "substitute",
    "fib_number",
    "fib_word",
    "rotation_block",
    "subwords",
    "saturation_prefix_length",
    "cyclic_permutations",
    "special_word",
    "height",
    "fibonacci_identity_check",
    "classify_phase_words",
    "hull_membership_check",
]

MAX_WORD_LEVEL = 40  # F_40 ~ 2.7e8 symbols; beyond that memory is the limit


class SaturationError(ValueError):
    """Prefix too short for the requested subword census to saturate."""


class PhaseClassificationError(AssertionError):
    """A phase window failed conjugacy on both parity classes (implementation bug)."""


class Word:
    """Immutable binary word, packed one symbol per bit (bit i = position i)."""

    __slots__ = ("_bits", "_len")

    def __init__(self, bits: int, length: int):
        if length < 0 or bits < 0 or bits >> length:
            raise ValueError("bits inconsistent with length")
        self._bits = bits
        self._len = length

    @classmethod
    def from_str(cls, text: str) -> "Word":
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"not a binary word: {text!r}")
        return cls(bits, len(text))

    @property
    def bits(self) -> int:
        return self._bits

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self._len == other._len
            and self._bits == other._bits
        )

    def __hash__(self) -> int:
        return hash((self._bits, self._len))

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            start, stop, step = idx.indices(self._len)
            if step != 1:
                raise ValueError("only contiguous slices are supported")
            n = max(stop - start, 0)
            return Word((self._bits >> start) & ((1 << n) - 1), n)
        if idx < 0:
            idx += self._len
        if not 0 <= idx < self._len:
            raise IndexError("word index out of range")
        return (self._bits >> idx) & 1

    def __add__(self, other: "Word") -> "Word":
        return Word(self._bits | (other._bits << self._len), self._len + other._len)

    def __iter__(self):
        bits = self._bits
        for _ in range(self._len):
            yield bits & 1
            bits >>= 1

    def to01(self) -> str:
        if self._len == 0:
            return ""
        return format(self._bits, f"0{self._len}b")[::-1]

    def __str__(self) -> str:
        return self.to01()

    def __repr__(self) -> str:
        if self._len <= 40:
            return f"Word('{self.to01()}')"
        return f"Word(<{self._len} symbols>)"

    def ones(self) -> int:
        return self._bits.bit_count()

    def rotate(self, r: int) -> "Word":
        """Cyclic shift moving position r to the front."""
        r %= max(self._len, 1)
        return self[r:] + self[:r]

    def is_rotation_of(self, other: "Word") -> bool:
        if self._len != other._len:
            return False
        return self.to01() in (other.to01() * 2)


@dataclass(frozen=True)
class SubwordSet:
    """All length-n factors seen in a (saturated) prefix of the infinite word."""

    n: int
    members: frozenset

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, w: Word) -> bool:
        return w in self.members


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


def substitute(w: Word) -> Word:
    """Apply 0 -> 1, 1 -> 10 symbol-wise; output length is len(w) + height(w)."""
    bits = 0
    pos = 0
    for ch in w.to01():
        bits |= 1 << pos  # both images start with symbol 1
        pos += 2 if ch == "1" else 1
    return Word(bits, pos)


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


_FIB_WORDS: list[Word] = []


def fib_word(k: int) -> Word:
    """The k-fold substitution image of "1", built by the two-term concatenation."""
    if k < 0:
        raise ValueError("level must be >= 0")
    if k > MAX_WORD_LEVEL:
        raise ValueError(f"level {k} exceeds the practical bound {MAX_WORD_LEVEL}")
    while len(_FIB_WORDS) <= k:
        j = len(_FIB_WORDS)
        if j == 0:
            _FIB_WORDS.append(Word(1, 1))  # "1"
        elif j == 1:
            _FIB_WORDS.append(Word(1, 2))  # "10"
        else:
            _FIB_WORDS.append(_FIB_WORDS[j - 1] + _FIB_WORDS[j - 2])
    return _FIB_WORDS[k]


def rotation_block(n_lo: int, n_hi: int, theta: PhasePoint,
                   monitor: EndpointMonitor | None = None) -> Word:
    """The word v(n_lo) v(n_lo+1) ... v(n_hi) of orbit codings.

    v(n) codes the orbit point n*omega + theta by the interval [1-omega, 1):
    the left endpoint is inclusive, the right endpoint (= 0 mod 1) exclusive,
    and the comparison is exact in fixed point.  If a monitor is supplied,
    evaluations within 2**-64 of either endpoint are recorded.
    """
    if n_lo > n_hi:
        raise ValueError("n_lo must not exceed n_hi")
    bits = theta.bits
    one = 1 << bits
    mask = one - 1
    om = omega(bits).raw
    left = one - om
    val = (n_lo * om + theta.raw) % one
    out = 0
    if monitor is None:
        for i in range(n_hi - n_lo + 1):
            if val >= left:
                out |= 1 << i
            val = (val + om) & mask
    else:
        near = 1 << (bits - 64)
        for i in range(n_hi - n_lo + 1):
            d = min(abs(val - left), val, one - val)
            if d < near:
                monitor.record(n_lo + i, d / one)
            if val >= left:
                out |= 1 << i
            val = (val + om) & mask
    return Word(out, n_hi - n_lo + 1)


def saturation_prefix_length(n: int) -> int:
    """Prefix length guaranteeing every length-n factor has appeared.

    Uses the uniform-recurrence gap n + F(k+2) with k the smallest level
    such that F(k) >= n.  The bound is validated empirically by the
    prefix-doubling check in subwords().
    """
    if n < 1:
        raise ValueError("factor length must be >= 1")
    k = 0
    while fib_number(k) < n:
        k += 1
    return n + fib_number(k + 2)


def _prefix_word(length: int) -> Word:
    k = 0
    while fib_number(k) < length:
        k += 1
    return fib_word(k)[:length]


def _factor_values(word: Word, n: int) -> set[int]:
    """Distinct packed values of the length-n windows of word."""
    if n > len(word):
        return set()
    text = word.to01()
    mask = (1 << n) - 1
    window = word.bits & mask
    seen = {window}
    top = n - 1
    for i in range(n, len(word)):
        window >>= 1
        if text[i] == "1":
            window |= 1 << top
        seen.add(window)
    return seen


def subwords(prefix_length: int, n: int, validate: bool = True) -> SubwordSet:
    """All length-n factors of the length-prefix_length prefix of the word.

    Raises SaturationError if the prefix is below the recurrence bound, or if
    validation is on and doubling the prefix still grows the factor set.
    """
    needed = saturation_prefix_length(n)
    if prefix_length < needed:
        raise SaturationError(
            f"prefix {prefix_length} below the saturation bound {needed} for n={n}"
        )
    values = _factor_values(_prefix_word(prefix_length), n)
    if validate:
        doubled = _factor_values(_prefix_word(2 * prefix_length), n)
        if doubled != values:
            raise SaturationError(
                f"factor census for n={n} still growing at prefix {prefix_length}"
            )
    return SubwordSet(n, frozenset(Word(v, n) for v in values))


def cyclic_permutations(w: Word) -> tuple[list[Word], int]:
    """All rotations of w in shift order, plus the count of distinct ones."""
    if len(w) == 0:
        raise ValueError("empty word")
    rots = [w.rotate(r) for r in range(len(w))]
    return rots, len({r.bits for r in rots})


def special_word(k: int) -> Word:
    """The unique length-F(k) factor that is not a rotation of the level word.

    Obtained by flipping the last symbol of the level-k word and prepending it
    to the first F(k)-1 symbols.
    """
    s = fib_word(k)
    flipped = Word(1 - s[len(s) - 1], 1)
    return flipped + s[: len(s) - 1]


def height(w: Word) -> int:
    """Number of 1 symbols."""
    return w.ones()


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
    all odd levels must pass; anything else is an implementation error.
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
            window = block[:f] if side == "right" else block[len(block) - f:]
            passed.append(window.is_rotation_of(fib_word(k)))
        report = ParityReport.of(side, passed, passed)
        if not (report.even_ok or report.odd_ok):
            raise PhaseClassificationError(
                f"no parity class passes on the {side} side for theta={theta}"
            )
        reports.append(report)
    return reports[0], reports[1]


def hull_membership_check(window: Word, n: int) -> bool:
    """Finite-scale hull test: does the window carry exactly the factors of w?

    True iff the set of length-n factors of the window equals the saturated
    reference census.  The window must be at least as long as the saturation
    bound for the check to be meaningful.
    """
    needed = saturation_prefix_length(n)
    if len(window) < needed:
        raise SaturationError(
            f"window of length {len(window)} too short for a length-{n} hull check"
            f" (need {needed})"
        )
    reference = subwords(needed, n, validate=False)
    observed = _factor_values(window, n)
    return observed == {w.bits for w in reference.members}
