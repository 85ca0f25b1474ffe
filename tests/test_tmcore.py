"""Sequence, point set and averaging-window basics."""

import random
from fractions import Fraction

import numpy as np
import pytest

from tmqc import tmcore
from tmqc.tmcore import (
    QuasicrystalParams,
    digit_sum,
    point,
    sign_array,
    tm_sign,
)


def bit_loop_digit_sum(n: int) -> int:
    # independent oracle: strip bits one by one
    total = 0
    while n:
        total += n & 1
        n >>= 1
    return total


def doubled_prefix(length: int) -> np.ndarray:
    # independent oracle: the substitution route, starting from (+1) and
    # appending the negated block until the prefix is long enough
    block = np.array([1], dtype=np.int8)
    while len(block) < length:
        block = np.concatenate([block, -block])
    return block[:length]


def direct_point(n: int, params: QuasicrystalParams) -> Fraction:
    # defining sum: f(n) = sum of half-sum + half-difference * eta_m
    if n < 0:
        return -direct_point(-n, params)
    half_sum = (params.a + params.b) / 2
    half_diff = (params.a - params.b) / 2
    return sum((half_sum + half_diff * tm_sign(m) for m in range(n)), Fraction(0))


class TestDigitSum:
    def test_examples(self):
        assert digit_sum(0) == 0
        assert digit_sum(3) == 2
        assert digit_sum(7) == 3

    def test_matches_bit_loop_oracle(self):
        rng = random.Random(1)
        for n in list(range(512)) + [rng.randrange(1 << 40) for _ in range(200)]:
            assert digit_sum(n) == bit_loop_digit_sum(n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            digit_sum(-1)


class TestSign:
    def test_examples(self):
        assert tm_sign(0) == 1
        assert tm_sign(1) == -1
        assert tm_sign(5) == 1

    def test_prefix_matches_sign_up_to_2_20(self):
        # substitution doubling against the closed digit-sum form
        n = 1 << 20
        assert np.array_equal(doubled_prefix(n), sign_array(0, n))

    def test_prefix_examples(self):
        assert list(sign_array(0, 4)) == [1, -1, -1, 1]
        assert len(sign_array(0, 0)) == 0
        eight = sign_array(0, 8)
        assert np.array_equal(eight[4:], -eight[:4])

    def test_sign_array_window(self):
        assert list(sign_array(3, 7)) == [tm_sign(n) for n in range(3, 7)]

    def test_prefix_eta_sum(self):
        # the prefix sum is 0 for even n and eta_{n-1} for odd n, the last
        # term that odd sizes add in the block route of `diffract`
        for n in range(0, 300):
            expected = 0 if n % 2 == 0 else tm_sign(n - 1)
            assert sum(tm_sign(m) for m in range(n)) == expected


class TestPoint:
    def test_examples(self, params21):
        assert point(2, params21) == 3
        assert point(1, params21) == 2
        assert point(-2, params21) == -3

    def test_against_defining_sum(self, params21):
        other = QuasicrystalParams(Fraction(7, 3), Fraction(1, 2))
        for params in (params21, other):
            for n in range(-64, 257):
                assert point(n, params) == direct_point(n, params)

    def test_gaps_are_tile_lengths(self):
        rng = random.Random(7)
        for _ in range(3):
            a = Fraction(rng.randrange(2, 30), rng.randrange(1, 7))
            b = a * Fraction(rng.randrange(1, 10), 11)
            params = QuasicrystalParams(a, b)
            prev = point(0, params)
            for n in range(1, 2048):
                cur = point(n, params)
                assert cur - prev in (params.a, params.b)
                prev = cur

    def test_gaps_large_range(self, params21):
        # exact rational gaps up to 1e5
        prev = Fraction(0)
        for n in range(1, 100_001):
            cur = point(n, params21)
            assert cur - prev in (params21.a, params21.b)
            prev = cur

    def test_even_closed_form(self, params21):
        half_sum = (params21.a + params21.b) / 2
        for m in range(0, 100_001, 2):
            assert point(m, params21) == m * half_sum

    def test_lattice_contained(self, params21):
        s = params21.a + params21.b
        for m in range(1, 1001):
            assert point(2 * m, params21) == m * s


class TestMeyerProperty:
    def test_difference_set_spot_check(self, params21):
        # differences of window points land in the point set plus a fixed
        # finite set of tile combinations
        a, b = params21.a, params21.b
        f_set = {a, -a, b, -b, 2 * a, -2 * a, 2 * b, -2 * b,
                 a + b, -a - b, a - b, b - a}
        window = [point(n, params21) for n in range(-40, 41)]
        big = {point(n, params21) for n in range(-240, 241)}
        for x in window:
            for y in window:
                d = x - y
                assert any(d - g in big for g in f_set | {Fraction(0)}), d


class TestParams:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            QuasicrystalParams(Fraction(1), Fraction(2))
        with pytest.raises(ValueError):
            QuasicrystalParams(Fraction(2), Fraction(2))

    def test_derived_constants(self, params21):
        assert params21.alpha1 == Fraction(3, 2)
        assert params21.alpha0 == Fraction(-1, 2)
        assert params21.alpha2 == Fraction(2)


class TestNumberText:
    def test_short_numbers_are_str(self):
        for x in (0, 7, -12, 10 ** 30 - 1, -(10 ** 30 - 1), Fraction(-3, 7), Fraction(10 ** 29, 3)):
            assert tmcore.number_text(x) == str(x)

    def test_long_integers_give_their_ends_and_digit_count(self):
        assert tmcore.number_text(10 ** 400) == "10000…00000 (401 digits)"
        assert tmcore.number_text(5 ** 400) == "38725…90625 (280 digits)"
        assert tmcore.number_text(-(10 ** 30)) == "-10000…00000 (31 digits)"
        assert tmcore.number_text(Fraction(-1, 3 ** 100)) == "-1/51537…22001 (48 digits)"
        assert tmcore.number_text(Fraction(10 ** 40 + 1, 7)) == "10000…00001 (41 digits)/7"

    def test_digit_count_at_every_power_of_ten(self):
        # 10^d - 1 and 10^d on either side of each count, also past the
        # 4300 digits Python converts to text
        for d in list(range(31, 400)) + [4299, 4300, 4301, 20000]:
            assert tmcore.number_text(10 ** d - 1) == f"99999…99999 ({d} digits)"
            assert tmcore.number_text(10 ** d) == f"10000…00000 ({d + 1} digits)"
        n = 2 ** 5000 * 3 + 12345
        text = str(n)
        assert tmcore.number_text(n) == f"{text[:5]}…{text[-5:]} ({len(text)} digits)"
