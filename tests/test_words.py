import random

import pytest
from hypothesis import given, strategies as st

from quasitrace.cli import parse_theta
from quasitrace.phase import PRECISION_BITS, PhasePoint, omega
from quasitrace import words as W

from oracles import beatty_block


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
# substitution and level words
# ---------------------------------------------------------------------------

def test_substitute_examples():
    assert W.substitute("0") == "1"
    assert W.substitute("1") == "10"
    assert W.substitute("101") == "10110"


def test_substitute_length_law():
    rng = random.Random(1)
    for _ in range(40):
        text = "".join(rng.choice("01") for _ in range(rng.randrange(1, 200)))
        assert len(W.substitute(text)) == len(text) + W.height(text)


def test_fib_numbers():
    assert [W.fib_number(k) for k in range(-1, 8)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    with pytest.raises(ValueError):
        W.fib_number(-2)


def test_fib_number_exact_large():
    assert W.fib_number(60) == 4052739537881  # 13 digits, exact
    assert W.fib_number(90) % W.fib_number(89) >= 0  # arbitrary precision works


def test_fib_word_examples_and_length():
    assert W.fib_word(1) == "10"
    assert W.fib_word(2) == "101"
    assert W.fib_word(3) == "10110"
    for k in range(18):
        assert len(W.fib_word(k)) == W.fib_number(k)
    with pytest.raises(ValueError):
        W.fib_word(-1)
    with pytest.raises(ValueError):
        W.fib_word(W.MAX_WORD_LEVEL + 1)


def test_levels_stop_at_25():
    assert W.MAX_WORD_LEVEL == 25
    assert len(W.fib_word(25)) == 196418
    with pytest.raises(ValueError):
        W.fib_word(26)
    with pytest.raises(ValueError):
        W.classify_phase_words(PhasePoint.zero(), 26)


def test_two_constructions_agree():
    # concatenation recursion equals iterated substitution
    for k in range(1, 22):
        assert W.fib_word(k) == W.substitute(W.fib_word(k - 1))


def test_suffix_alternation():
    for k in range(1, 21):
        suffix = W.fib_word(k)[-2:]
        assert suffix == ("01" if k % 2 == 0 else "10")


# ---------------------------------------------------------------------------
# rotation coding
# ---------------------------------------------------------------------------

def test_rotation_symbol_examples():
    th0 = PhasePoint.zero()
    assert W.rotation_block(1, 1, th0) == "1"
    assert W.rotation_block(0, 0, th0) == "0"
    assert W.rotation_block(-1, -1, th0) == "1"  # exact left-endpoint hit, inclusive


def test_rotation_block_examples():
    th0 = PhasePoint.zero()
    assert W.rotation_block(1, 5, th0) == "10110"
    assert W.rotation_block(1, 2, th0) == "10"
    assert W.rotation_block(-2, 0, th0) == "110"
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
        assert block[i] == W.rotation_block(n, n, theta)


# the 128-bit coding is the coding of the rotation by the true omega on
# every site a command reaches, unless a point lies within 2**-111 of an
# endpoint (the `phase` error model); the exact Beatty form checks it
def test_rotation_block_codes_the_true_rotation():
    rng = random.Random(16)
    thetas = [PhasePoint.zero(), parse_theta("omega/2"), PhasePoint.from_fraction(1, 3)]
    thetas += [PhasePoint(rng.getrandbits(PRECISION_BITS)) for _ in range(6)]
    f = W.fib_number(20)
    for theta in thetas:
        assert W.rotation_block(-f, f, theta) == beatty_block(-f, f, theta)


@pytest.mark.parametrize("sign", [1, -1])
def test_rotation_block_codes_the_true_rotation_near_endpoints(sign):
    # theta = -m omega~ +- 2**-100 puts site m just off the right endpoint and
    # site m - 1 just off the left one: m*(omega - omega~) is below 2**-115
    for m in [sign * W.fib_number(k) for k in range(19)] + [sign * 10**4]:
        for offset in (1 << (PRECISION_BITS - 100), -(1 << (PRECISION_BITS - 100))):
            theta = PhasePoint((-m * omega().raw + offset) % (1 << PRECISION_BITS))
            assert (W.rotation_block(m - 2, m + 1, theta)
                    == beatty_block(m - 2, m + 1, theta)), (m, offset)


@st.composite
def _phases(draw):
    """Random phases, and phases within a few 2**-62 of -m omega, where site m
    sits on the right endpoint and site m - 1 on the left one."""
    if draw(st.booleans()):
        return PhasePoint(draw(st.integers(0, (1 << PRECISION_BITS) - 1)))
    near = -draw(st.integers(-60, 100)) * omega().raw
    offset = draw(st.integers(-(1 << (PRECISION_BITS - 62)), 1 << (PRECISION_BITS - 62)))
    return PhasePoint((near + offset) % (1 << PRECISION_BITS))


@given(_phases(), st.integers(-60, 60), st.integers(0, 40))
def test_rotation_symbols_match_block(theta, lo, span):
    sites = range(lo, lo + span + 1)
    block = W.rotation_block(lo, lo + span, theta)
    assert [W.rotation_block(n, n, theta) for n in sites] == list(block)


# ---------------------------------------------------------------------------
# subword census
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [
    (1, {"0", "1"}),
    (2, {"01", "10", "11"}),
    (3, {"010", "011", "101", "110"}),
])
def test_subword_examples(n, expected):
    assert W.subwords(n) == expected


def test_subwords_match_string_oracle():
    for n in (1, 2, 3, 5, 13, 21, 50):
        bound = W.saturation_prefix_length(n)
        ours = W.subwords(n)
        oracle = factor_set_str(word_prefix_str(4 * bound), n)
        assert ours == oracle
        assert len(ours) == n + 1


def test_saturation_prefix_holds_every_factor():
    # doubling the saturated prefix finds no new factor, and there are n + 1
    # of them; 2000 is the cap on --subword-max
    for n in [*range(1, 201), 500, 1000, 2000]:
        length = W.saturation_prefix_length(n)
        census = W.subwords(n)
        assert W._factors(W._prefix_word(2 * length), n) == census, n
        assert len(census) == n + 1, n


@given(st.text(alphabet="01", max_size=120), st.data())
def test_factors_match_string_windows(text, data):
    n = data.draw(st.integers(1, len(text) + 2))
    assert W._factors(text, n) == factor_set_str(text, n)
    if n > len(text):
        assert W._factors(text, n) == set()


@given(st.text(alphabet="01", max_size=120), st.integers(1, 124))
def test_factor_counts_match_the_census(text, n_max):
    # one refinement pass counts what a census per length finds
    assert W._factor_counts(text, n_max) == [len(W._factors(text, n))
                                             for n in range(1, n_max + 1)]


def test_complexity_counts_are_those_of_subwords():
    assert W.complexity_counts(300) == [len(W.subwords(n)) for n in range(1, 301)]


def test_cyclic_permutations():
    rots, distinct = W.cyclic_permutations("101")
    assert rots == ["101", "011", "110"]
    assert distinct == 3
    _, d2 = W.cyclic_permutations("1111")
    assert d2 == 1
    rots10, _ = W.cyclic_permutations("10")
    assert rots10 == ["10", "01"]


def test_special_word_desk_values():
    assert W.special_word(1) == "11"
    assert W.special_word(2) == "010"
    assert W.special_word(3) == "11011"


def test_special_word_is_factor_but_not_rotation():
    for k in range(1, 13):
        b = W.special_word(k)
        n = len(b)
        census = W.subwords(n)
        assert b in census
        assert b not in W.fib_word(k) * 2  # not a rotation of the level word


def test_height():
    assert W.height(W.fib_word(2)) == 2
    assert W.height(W.fib_word(3)) == 3
    assert W.height("1") == 1
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
        assert (b[0] == "0") == (k % 2 == 0)
        assert (b[-1] == "0") == (k % 2 == 0)


# ---------------------------------------------------------------------------
# phase-window classification and hull
# ---------------------------------------------------------------------------

def test_classify_phase_zero():
    right, left = W.classify_phase_words(PhasePoint.zero(), 12)
    assert right.even_ok and right.odd_ok  # exact prefixes
    assert left.even_ok or left.odd_ok


def test_classify_respects_first_symbol_rule():
    # v(1) = 1 predicts the even class on the right side; theta = 0 has it
    checked = 0
    for text in ("0", "0.9", "0.2"):
        theta = PhasePoint.from_decimal(text)
        if W.rotation_block(1, 1, theta) == "1":
            right, _ = W.classify_phase_words(theta, 12)
            assert right.even_ok
            checked += 1
    assert checked >= 1


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
    assert not W.hull_membership_check("0" * 4000, 2)
    block = W.rotation_block(-5000, 5000, PhasePoint.from_fraction(1, 3))
    assert W.hull_membership_check(block, 20)
    with pytest.raises(W.SaturationError):
        W.hull_membership_check("10", 2)
    # a symbol other than 0 and 1 past the first window would roll in as a 0
    i = prefix.index("0", 5000)
    with pytest.raises(ValueError, match="not a word in 0 and 1"):
        W.hull_membership_check(prefix[:i] + "2" + prefix[i + 1:], 20)
