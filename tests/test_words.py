import random

import pytest
from hypothesis import given, strategies as st

from quasitrace.phase import PRECISION_BITS, EndpointMonitor, PhasePoint, omega
from quasitrace import words as W


# independent oracle: build the infinite word prefix by string substitution
def substitute_str(text: str) -> str:
    return "".join("10" if ch == "1" else "1" for ch in text)


def word_prefix_str(length: int) -> str:
    text = "1"
    while len(text) < length:
        text = substitute_str(text)
    return text[:length]


def factor_set_str(text: str, n: int) -> set:
    return {text[i:i + n] for i in range(len(text) - n + 1)}


# ---------------------------------------------------------------------------
# Word container
# ---------------------------------------------------------------------------

def test_word_round_trip_and_slicing():
    w = W.Word.from_str("10110")
    assert w.to01() == "10110"
    assert len(w) == 5
    assert w[0] == 1 and w[1] == 0 and w[-1] == 0
    assert (w[1:4]).to01() == "011"
    assert (w + w).to01() == "1011010110"
    assert w.rotate(2).to01() == "11010"


def test_word_rejects_non_binary():
    with pytest.raises(ValueError):
        W.Word.from_str("10120")


BINARY = st.text(alphabet="01", max_size=80)


@given(BINARY, BINARY, st.integers(-100, 100), st.integers(-100, 100))
def test_word_operations_match_strings(a, b, i, j):
    w, v = W.Word.from_str(a), W.Word.from_str(b)
    assert w.to01() == str(w) == a and len(w) == len(a)
    assert w.ones() == a.count("1")
    assert w == W.Word.from_str(a) and (w == v) == (a == b)
    assert w[i:j].to01() == a[i:j]
    assert (w + v).to01() == a + b
    assert [str(s) for s in w] == list(a)
    rotations_of_b = {b[r:] + b[:r] for r in range(max(len(b), 1))}
    assert w.is_rotation_of(v) == (len(a) == len(b) and a in rotations_of_b)
    if a:
        n = i % (2 * len(a)) - len(a)  # a valid index, negative or not
        assert w[n] == int(a[n])
        r = i % len(a)
        assert w.rotate(i).to01() == a[r:] + a[:r]
        assert w.rotate(i).is_rotation_of(w)


def test_rotation_membership():
    s = W.Word.from_str("10110")
    assert s.rotate(3).is_rotation_of(s)
    assert not W.Word.from_str("11011").is_rotation_of(s)


# ---------------------------------------------------------------------------
# substitution and level words
# ---------------------------------------------------------------------------

def test_substitute_examples():
    assert W.substitute(W.Word.from_str("0")).to01() == "1"
    assert W.substitute(W.Word.from_str("1")).to01() == "10"
    assert W.substitute(W.Word.from_str("101")).to01() == "10110"


def test_substitute_length_law():
    rng = random.Random(1)
    for _ in range(40):
        text = "".join(rng.choice("01") for _ in range(rng.randrange(1, 200)))
        w = W.Word.from_str(text)
        assert len(W.substitute(w)) == len(w) + W.height(w)


def test_fib_numbers():
    assert [W.fib_number(k) for k in range(-1, 8)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    with pytest.raises(ValueError):
        W.fib_number(-2)


def test_fib_number_exact_large():
    assert W.fib_number(60) == 4052739537881  # 13 digits, exact
    assert W.fib_number(90) % W.fib_number(89) >= 0  # arbitrary precision works


def test_fib_word_examples_and_length():
    assert W.fib_word(1).to01() == "10"
    assert W.fib_word(2).to01() == "101"
    assert W.fib_word(3).to01() == "10110"
    for k in range(18):
        assert len(W.fib_word(k)) == W.fib_number(k)
    with pytest.raises(ValueError):
        W.fib_word(-1)
    with pytest.raises(ValueError):
        W.fib_word(W.MAX_WORD_LEVEL + 1)


def test_two_constructions_agree():
    # concatenation recursion equals iterated substitution
    for k in range(1, 22):
        assert W.fib_word(k) == W.substitute(W.fib_word(k - 1))


def test_suffix_alternation():
    for k in range(1, 21):
        suffix = W.fib_word(k).to01()[-2:]
        assert suffix == ("01" if k % 2 == 0 else "10")


# ---------------------------------------------------------------------------
# rotation coding
# ---------------------------------------------------------------------------

def test_rotation_symbol_examples():
    th0 = PhasePoint.zero()
    assert W.rotation_block(1, 1, th0)[0] == 1
    assert W.rotation_block(0, 0, th0)[0] == 0
    assert W.rotation_block(-1, -1, th0)[0] == 1  # exact left-endpoint hit, inclusive


def test_rotation_symbol_flags_exact_endpoint():
    mon = EndpointMonitor()
    W.rotation_block(-1, -1, PhasePoint.zero(), mon)
    assert mon.hits == 1
    assert mon.samples[0] == (-1, 0.0)


def test_rotation_block_examples():
    th0 = PhasePoint.zero()
    assert W.rotation_block(1, 5, th0).to01() == "10110"
    assert W.rotation_block(1, 2, th0).to01() == "10"
    assert W.rotation_block(-2, 0, th0).to01() == "110"
    with pytest.raises(ValueError):
        W.rotation_block(3, 1, th0)


def test_rotation_block_matches_prefix_to_level_25():
    th0 = PhasePoint.zero()
    block = W.rotation_block(1, W.fib_number(25), th0)
    assert block == W.fib_word(25)


def test_rotation_block_consistent_with_symbols():
    theta = PhasePoint.from_decimal("0.731")
    block = W.rotation_block(-40, 40, theta)
    for i, n in enumerate(range(-40, 41)):
        assert block[i] == W.rotation_block(n, n, theta)[0]


@st.composite
def _phases(draw):
    """Random phases, and phases within a few 2**-62 of -m omega, where site m
    sits on the right endpoint and site m - 1 on the left one."""
    if draw(st.booleans()):
        return PhasePoint(draw(st.integers(0, (1 << PRECISION_BITS) - 1)))
    near = omega().times(-draw(st.integers(-60, 100)))
    offset = draw(st.integers(-(1 << (PRECISION_BITS - 62)), 1 << (PRECISION_BITS - 62)))
    return PhasePoint((near.raw + offset) % (1 << PRECISION_BITS))


@given(_phases(), st.integers(-60, 60), st.integers(0, 40))
def test_rotation_symbols_match_block_and_monitor(theta, lo, span):
    sites = range(lo, lo + span + 1)
    block_monitor, symbol_monitor = EndpointMonitor(), EndpointMonitor()
    block = W.rotation_block(lo, lo + span, theta, block_monitor)
    assert [W.rotation_block(n, n, theta, symbol_monitor)[0] for n in sites] == list(block)
    assert W.rotation_block(lo, lo + span, theta) == block
    assert symbol_monitor.hits == block_monitor.hits
    assert symbol_monitor.samples == block_monitor.samples


# ---------------------------------------------------------------------------
# subword census
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [
    (1, {"0", "1"}),
    (2, {"01", "10", "11"}),
    (3, {"010", "011", "101", "110"}),
])
def test_subword_examples(n, expected):
    ss = W.subwords(W.saturation_prefix_length(n), n)
    assert {w.to01() for w in ss.members} == expected


def test_subwords_match_string_oracle():
    for n in (1, 2, 3, 5, 13, 21, 50):
        bound = W.saturation_prefix_length(n)
        ours = {w.to01() for w in W.subwords(bound, n).members}
        oracle = factor_set_str(word_prefix_str(4 * bound), n)
        assert ours == oracle
        assert len(ours) == n + 1


def test_subwords_rejects_short_prefix():
    with pytest.raises(W.SaturationError):
        W.subwords(W.saturation_prefix_length(10) - 1, 10)


def test_cyclic_permutations():
    rots, distinct = W.cyclic_permutations(W.Word.from_str("101"))
    assert [r.to01() for r in rots] == ["101", "011", "110"]
    assert distinct == 3
    _, d2 = W.cyclic_permutations(W.Word.from_str("1111"))
    assert d2 == 1
    rots10, _ = W.cyclic_permutations(W.Word.from_str("10"))
    assert [r.to01() for r in rots10] == ["10", "01"]


def test_special_word_desk_values():
    assert W.special_word(1).to01() == "11"
    assert W.special_word(2).to01() == "010"
    assert W.special_word(3).to01() == "11011"


def test_special_word_is_factor_but_not_rotation():
    for k in range(1, 13):
        b = W.special_word(k)
        n = len(b)
        census = W.subwords(W.saturation_prefix_length(n), n, validate=False)
        assert b in census
        assert not b.is_rotation_of(W.fib_word(k))


def test_height():
    assert W.height(W.fib_word(2)) == 2
    assert W.height(W.fib_word(3)) == 3
    assert W.height(W.Word.from_str("1")) == 1
    for k in range(1, 20):
        assert W.height(W.fib_word(k)) == W.fib_number(k - 1)


def test_fibonacci_identity():
    for k in range(1, 41):
        assert W.fibonacci_identity_check(k) == 1
    with pytest.raises(ValueError):
        W.fibonacci_identity_check(0)


def test_boundary_symbols_of_special_word():
    # leftmost symbol is 0 iff the level is even; rightmost is 0 iff even
    # (the rightmost is the second-to-last symbol of the level word)
    for k in range(1, 17):
        b = W.special_word(k)
        assert (b[0] == 0) == (k % 2 == 0)
        assert (b[len(b) - 1] == 0) == (k % 2 == 0)


# ---------------------------------------------------------------------------
# phase-window classification and hull
# ---------------------------------------------------------------------------

def test_classify_phase_zero():
    right, left = W.classify_phase_words(PhasePoint.zero(), 12)
    assert right.even_ok and right.odd_ok  # exact prefixes
    assert left.even_ok or left.odd_ok


def test_classify_respects_first_symbol_rule():
    # v(1) = 1 predicts the even class on the right side
    for text in ("0", "0.9", "0.2"):
        theta = PhasePoint.from_decimal(text)
        if W.rotation_block(1, 1, theta)[0] == 1:
            right, _ = W.classify_phase_words(theta, 12)
            assert right.even_ok


def test_classify_random_phases():
    rng = random.Random(1234)
    for _ in range(25):
        theta = PhasePoint(rng.getrandbits(PRECISION_BITS))
        right, left = W.classify_phase_words(theta, 12)
        assert right.even_ok or right.odd_ok
        assert left.even_ok or left.odd_ok


def test_hull_membership():
    prefix = W.fib_word(21)[:10000]
    assert W.hull_membership_check(prefix, 20)
    assert not W.hull_membership_check(W.Word(0, 4000), 2)
    block = W.rotation_block(-5000, 5000, PhasePoint.from_fraction(1, 3))
    assert W.hull_membership_check(block, 20)
    with pytest.raises(W.SaturationError):
        W.hull_membership_check(W.Word.from_str("10"), 2)
