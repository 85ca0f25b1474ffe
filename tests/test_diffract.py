"""Fourier sums, product identities and Fourier-coefficient machinery."""

import cmath
import collections
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tmqc import diffract
from tmqc.diffract import (
    ExtinctionError,
    approximant_density,
    density_at_q,
    density_at_qs,
    density_at_sizes,
    eta_sum,
    eta_sums_at_sizes,
    fitted_alpha,
    fourier_sum,
    kappa_closed,
    kappa_eta_at_q,
    kappa_eta_closed,
    kappa_pair,
    riesz_product,
    scaling_exponent_alpha,
    scaling_exponents_at_sizes,
)
from tmqc.spectrum import normalize_wavevector
from tmqc.tmcore import QuasicrystalParams, tm_sign, point


class TestFourierSum:
    def test_trivial_values(self, params21):
        assert fourier_sum(1, 0.0, params21) == pytest.approx(1.0)
        assert fourier_sum(4, 0.0, params21) == pytest.approx(4.0)

    def test_two_term_cancellation(self, params21):
        # f(1)=2, f(2)=3 with tiles (2,1): e^{-2 pi i} + e^{-3 pi i} = 0
        val = fourier_sum(2, math.pi, params21)
        assert abs(val) < 1e-12

    def test_matches_pointwise_definition(self, params21):
        k = 0.7318
        expected = sum(
            cmath.exp(-1j * k * float(point(n, params21))) for n in range(1, 41)
        )
        assert fourier_sum(40, k, params21) == pytest.approx(expected, abs=1e-12)

    def test_weight_forms(self, params21):
        arr = np.arange(1, 9, dtype=float)
        by_arr = fourier_sum(8, 0.0, params21, weights=arr)
        by_call = fourier_sum(8, 0.0, params21, weights=lambda n: float(n))
        assert by_arr == pytest.approx(by_call) == pytest.approx(36.0)


class TestApproximantDensity:
    def test_examples(self, params21):
        assert approximant_density(1, 2.31, params21) == pytest.approx(1.0)
        assert approximant_density(4, 0.0, params21) == pytest.approx(4.0)
        assert approximant_density(2, math.pi, params21) == pytest.approx(0.0, abs=1e-20)

    def test_density_at_sizes_matches_scalar(self, params21):
        sizes = [3, 17, 64, 200, 1001]
        k = 1.234
        vec = density_at_sizes(k, sizes, params21)
        for s, v in zip(sizes, vec):
            assert v == pytest.approx(approximant_density(s, k, params21), rel=1e-10)

    def test_density_at_sizes_preserves_caller_order(self, params21):
        sizes = [64, 8, 512]
        vec = density_at_sizes(0.0, sizes, params21)
        assert list(vec) == [pytest.approx(float(s)) for s in sizes]


# ---------------------------------------------------------------------------
# block route (O(log l)) against the scan and the Kahan oracle
# ---------------------------------------------------------------------------

_U = 2.0 ** -53


def _tiles():
    """Rational tiles 0 < b < a."""
    return st.builds(
        lambda a, ratio: QuasicrystalParams(a, a * ratio),
        st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=16),
        st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64),
    )


_FREQS = st.fractions(min_value=-2, max_value=2, max_denominator=97)


def _sum_tol(l: int, k: float, params: QuasicrystalParams, s_abs: float) -> float:
    """Bound on the float error of |sum_{n<=l} e^{-ik f(n)}| for a scan:
    a random walk of l rounded terms plus the coherent shift from rounding k,
    with phi the largest phase."""
    phi = abs(k) * float(params.a) * l
    return 4 * _U * math.sqrt(l) * (l + phi) + 8 * _U * phi * s_abs + 1e-12


def _assert_same_sum(l, k, params, nu, nu_ref):
    s, s_ref = math.sqrt(nu * l), math.sqrt(nu_ref * l)
    assert abs(s - s_ref) <= _sum_tol(l, k, params, s_ref)


class TestBlockRoute:
    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(params=_tiles(), q=_FREQS, l=st.integers(1, 1 << 12))
    def test_matches_kahan_oracle(self, params, q, l):
        k = params.wave_vector(q)
        (nu,) = density_at_sizes(k, [l], params)
        _assert_same_sum(l, k, params, nu, approximant_density(l, k, params))

    @settings(deadline=None, derandomize=True, max_examples=15)
    @given(params=_tiles(), q=_FREQS, l=st.integers(1, 1 << 22))
    def test_matches_weighted_scan(self, params, q, l):
        k = params.wave_vector(q)
        (nu,) = density_at_sizes(k, [l], params)
        (nu_scan,) = density_at_sizes(k, [l], params, weights=np.ones(l))
        _assert_same_sum(l, k, params, nu, nu_scan)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(x=_FREQS, l=st.integers(1, 1 << 12))
    def test_eta_sums_match_direct(self, x, l):
        direct = abs(eta_sum(l, float(x)))
        for freq in (x, float(x)):
            (nu,) = eta_sums_at_sizes(freq, [l])
            assert abs(math.sqrt(nu * l) - direct) <= 1e-12 * l * (1 + abs(float(x)) * l)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 8, 9, 31, 32, 33])
    def test_small_odd_and_even_sizes(self, params21, l):
        for k in (0.0, 0.7318, -2.2, params21.wave_vector(Fraction(5, 12))):
            (nu,) = density_at_sizes(k, [l], params21)
            assert nu == pytest.approx(approximant_density(l, k, params21), rel=1e-12, abs=1e-14)

    def test_repeated_sizes_in_caller_order(self, params21):
        k = params21.wave_vector(Fraction(3, 17))
        sizes = [33, 4, 33, 1, 1000, 4]
        vec = density_at_sizes(k, sizes, params21)
        assert list(vec) == [density_at_sizes(k, [s], params21)[0] for s in sizes]
        assert vec[0] == vec[2] and vec[1] == vec[5]
        etas = eta_sums_at_sizes(Fraction(3, 17), sizes)
        assert etas[0] == etas[2]
        assert list(etas) == [eta_sums_at_sizes(Fraction(3, 17), [s])[0] for s in sizes]

    def test_integer_frequency_is_geometric_sum(self):
        # z = 1: G_L = L exactly, and T_L = sum_{m<L} eta_m
        for x in (0, 3, Fraction(-2), 1.0):
            for big_l in (1, 2, 3, 7, 8, 1000, (1 << 40) + 5):
                g, t, z_l = diffract._block_sums(x, big_l)
                assert diffract._unscale(g) == big_l
                assert z_l == 1
                if big_l <= 1000:
                    assert diffract._unscale(t) == sum(tm_sign(m) for m in range(big_l))

    def test_half_integer_q_is_bragg(self):
        # q in Z/2 puts z = e^{-4 pi i q} at 1: nu_l / l -> |1 + e^{-ikc} cos kd|^2 / 4
        for params in (QuasicrystalParams(2, 1), QuasicrystalParams(3, 1), QuasicrystalParams(5, 2)):
            for q in (Fraction(1, 2), Fraction(1), Fraction(-3, 2)):
                k = params.wave_vector(q)
                c, d = float(params.a + params.b) / 2, float(params.a - params.b) / 2
                amp = abs(1 + cmath.exp(-1j * k * c) * math.cos(k * d)) ** 2 / 4
                l = 1 << 20
                (nu,) = density_at_sizes(k, [l], params)
                assert nu / l == pytest.approx(amp, abs=1e-9)
                for small in (1, 2, 7, 64, 1001):
                    (nu,) = density_at_sizes(k, [small], params)
                    assert nu == pytest.approx(
                        approximant_density(small, k, params), rel=1e-12, abs=1e-12
                    )

    def test_quarter_is_exactly_extinct_at_dyadic_sizes(self):
        # q = 1/4: z = -1, so G_{2^j} = 0 (j >= 1) and T_{2^j} = 0 (j >= 2)
        for params in (QuasicrystalParams(2, 1), QuasicrystalParams(3, 1), QuasicrystalParams(5, 2)):
            k = params.wave_vector(Fraction(1, 4))
            assert list(density_at_sizes(k, [8, 16, 1024], params)) == [0.0] * 3
            dyadic = [1 << j for j in range(3, 50)]
            assert list(density_at_sizes(k, dyadic, params)) == [0.0] * len(dyadic)
            odd = [(1 << j) + 1 for j in range(3, 50)]
            assert all(nu > 0 for nu in density_at_sizes(k, odd, params))


class TestRieszProduct:
    def test_examples(self):
        assert riesz_product(1, Fraction(1, 2)) == pytest.approx(4.0)
        assert riesz_product(5, Fraction(3)) == 0.0
        assert riesz_product(2, Fraction(1, 3)) == pytest.approx(9.0)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        for n in range(0, 11):
            for k in rng.random(8):
                direct = abs(eta_sum(1 << n, k)) ** 2
                prod = riesz_product(n, k)
                assert prod == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_exact_zero_for_dyadic_fraction(self):
        # any dyadic frequency kills a factor once the orbit reaches 0
        assert riesz_product(6, Fraction(3, 8)) == 0.0


class TestCoefficients:
    def test_trivial_values(self, params21):
        # at k = 0 only c_0 = 1 survives: c_{+-1}(0) = sinc(+-pi) = 0
        even, odd = diffract._partial_kappa_sums(0.0, params21, 1)
        assert even == pytest.approx(1.0)
        assert abs(odd) < 1e-15

    def test_quadrature_oracle(self, params21):
        # c_m(k) = int_0^1 exp(-i k a2 x) exp(-2 pi i m x) dx, summed over
        # the even and the odd |m| <= m_max
        a2 = float(params21.alpha2)

        def by_quadrature(m, k):
            re = quad(lambda x: math.cos(k * a2 * x + 2 * math.pi * m * x), 0, 1, limit=200)[0]
            im = quad(lambda x: -math.sin(k * a2 * x + 2 * math.pi * m * x), 0, 1, limit=200)[0]
            return complex(re, im)

        def sums_by_quadrature(k, m_max):
            cm = {m: by_quadrature(m, k) for m in range(-m_max, m_max + 1)}
            return (sum(c for m, c in cm.items() if m % 2 == 0),
                    sum(c for m, c in cm.items() if m % 2))

        rng = np.random.default_rng(11)
        for k in rng.uniform(0.1, 6.0, size=3):
            got = diffract._partial_kappa_sums(k, params21, 50)
            assert got == pytest.approx(sums_by_quadrature(k, 50), abs=1e-9)
        for k in rng.uniform(0.05, 8.0, size=30):
            got = diffract._partial_kappa_sums(k, params21, 2)
            assert got == pytest.approx(sums_by_quadrature(k, 2), abs=1e-10)

    def test_kappa_at_zero(self, params21):
        pair = kappa_pair(0.0, params21, m_max=2000)
        assert pair.kappa == pytest.approx(1.0)
        assert abs(pair.kappa_eta) < 1e-15
        assert abs(pair.kappa_partial - 1.0) < 1e-3
        assert abs(pair.kappa_eta_partial) < 1e-3

    def test_extinction_locus(self, params21):
        # kappa_eta vanishes iff k (a-b) lies in 2 pi Z; here a-b = 1
        k = 2.0 * math.pi
        assert abs(kappa_eta_closed(k, params21)) < 1e-15
        pair = kappa_pair(k, params21, m_max=20000)
        assert abs(pair.kappa_eta_partial) < 1e-4

    def test_partial_sums_converge_to_closed_forms(self, params21):
        rng = np.random.default_rng(3)
        for k in rng.uniform(0.05, 0.95, size=6):
            pair = kappa_pair(k, params21, m_max=100_000)
            assert abs(pair.kappa_partial - pair.kappa) < 1e-6
            assert abs(pair.kappa_eta_partial - pair.kappa_eta) < 1e-6
            assert pair.converged

    def test_tail_decays_inversely(self, params21):
        # symmetric truncation error is O(1/M)
        k = 0.417
        errs = []
        for m_max in (1000, 2000, 4000, 8000):
            pair = kappa_pair(k, params21, m_max=m_max)
            errs.append(abs(pair.kappa_partial - pair.kappa))
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 < e1 * 0.7

    def test_nonconvergence_flagged_at_tiny_truncation(self, params21):
        pair = kappa_pair(0.9, params21, m_max=2, tol=1e-12)
        assert not pair.converged

    def test_sum_identity(self, params21):
        # kappa + kappa_eta equals the midpoint-regularized series value at 0
        for k in (0.3, 1.7, 4.1):
            theta = float(params21.alpha2) * k
            expected = (1 + cmath.exp(-1j * theta)) / 2
            total = kappa_closed(k, params21) + kappa_eta_closed(k, params21)
            assert total == pytest.approx(expected, abs=1e-14)

    def test_difference_identity(self, params21):
        # kappa - kappa_eta is the series value at the midpoint, e^{-i theta/2}
        for k in (0.3, 1.7, 4.1, 11.0):
            theta = float(params21.alpha2) * k
            diff = kappa_closed(k, params21) - kappa_eta_closed(k, params21)
            assert diff == pytest.approx(cmath.exp(-0.5j * theta), abs=1e-14)

    def test_kappa_eta_near_the_extinction_locus(self, params21):
        # q = 1/3000000021, tiles (2,1): theta/4 = 2 pi / 9000000063; the
        # difference form cancelled to 0.0
        k = params21.wave_vector(Fraction(1, 3000000021))
        ref = math.sin(2 * math.pi / 9000000063) ** 2
        assert abs(kappa_eta_closed(k, params21)) == pytest.approx(ref, rel=1e-9, abs=0.0)
        assert abs(kappa_closed(k, params21)) == pytest.approx(1.0, abs=1e-15)

    def test_kappa_eta_at_large_q(self, params21):
        # q = 1500000000000 + 1/300017: frac(2q(a-b)/(a+b)) = 2/900051; the
        # float k carries a phase error of about u |theta| and gave 7.27e-8
        q = Fraction(1500000000000) + Fraction(1, 300017)
        ref = math.sin(2 * math.pi / 900051) ** 2
        assert abs(kappa_eta_at_q(q, params21)) == pytest.approx(ref, rel=1e-9, abs=0.0)
        assert abs(kappa_eta_closed(params21.wave_vector(q), params21)) > 1000 * ref

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(params=_tiles(), q=_FREQS)
    def test_kappa_eta_at_q_matches_the_float_form(self, params, q):
        exact = kappa_eta_at_q(q, params)
        assert exact == pytest.approx(kappa_eta_closed(params.wave_vector(q), params), abs=1e-13)
        if (2 * q * (params.a - params.b) / (params.a + params.b)).denominator == 1:
            assert exact == 0


class TestBragg:
    # a wave vector is a Bragg position iff the odd part p of its reduced
    # denominator is 1
    def test_examples(self):
        assert normalize_wavevector(Fraction(3, 8)).p == 1
        assert normalize_wavevector(Fraction(1, 3)).p != 1
        assert normalize_wavevector(Fraction(5)).p == 1

    def test_odd_denominator_rule(self):
        for num in range(-20, 21):
            for den in range(1, 40):
                q = Fraction(num, den)
                assert (normalize_wavevector(q).p == 1) == (q.denominator & (q.denominator - 1) == 0)


class TestScalingExponent:
    def test_integer_frequency_is_extinct(self):
        assert scaling_exponent_alpha(1 << 8, Fraction(2)) == -math.inf

    def test_small_case(self):
        assert scaling_exponent_alpha(2, Fraction(1, 2)) == pytest.approx(1.0)

    def test_power_of_two_path_matches_direct(self):
        rng = np.random.default_rng(9)
        for k in rng.random(5):
            fast = scaling_exponent_alpha(64, k)
            direct = math.log(abs(eta_sum(64, k)) ** 2 / 64) / math.log(64)
            assert fast == pytest.approx(direct, abs=1e-9)

    def test_frequency_periodicity(self):
        # the sign-sequence sum is exactly 1-periodic in the frequency
        rng = np.random.default_rng(13)
        for x in rng.random(5):
            a = abs(eta_sum(200, x)) ** 2
            b = abs(eta_sum(200, x + 1.0)) ** 2
            assert a == pytest.approx(b, rel=1e-9)

    def test_eta_sums_at_sizes_matches_direct(self):
        x = 0.2871
        sizes = [2, 7, 33, 100]
        vec = eta_sums_at_sizes(x, sizes)
        for s, v in zip(sizes, vec):
            assert v == pytest.approx(abs(eta_sum(s, x)) ** 2 / s, rel=1e-10)

    def test_non_dyadic_matches_direct(self):
        for x in (0.2871, Fraction(5, 17), Fraction(1, 3)):
            for l in (3, 100, 1000, 4097):
                direct = math.log(abs(eta_sum(l, float(x))) ** 2 / l) / math.log(l)
                assert scaling_exponent_alpha(l, x) == pytest.approx(direct, abs=1e-9)

    def test_huge_non_dyadic_size_does_not_overflow(self):
        # |S_{2^n}(1/3)|^2 = 3^n dominates the three trailing terms, so the
        # exponent at 2^4096 + 3 is the product-route exponent log2(3) - 1
        n = 4096
        _, (t, e), _ = diffract._block_sums(Fraction(1, 3), (1 << n) + 3)
        assert 0.5 <= abs(t) < 1 and e == math.ceil(n * math.log2(3) / 2)
        alpha = scaling_exponent_alpha((1 << n) + 3, Fraction(1, 3))
        assert alpha == pytest.approx(scaling_exponent_alpha(1 << n, Fraction(1, 3)), abs=1e-9)
        assert alpha == pytest.approx(math.log2(3) - 1, abs=1e-9)
        # the density itself can still leave the float range; that is refused by l
        with pytest.raises(ValueError, match=str((1 << 2000) + 1)):
            eta_sums_at_sizes(Fraction(1, 3), [(1 << 2000) + 1])

    def test_dyadic_orbit_below_float_range_is_not_extinct(self):
        # every orbit point 12345 * 2^(j - 4160), j < 4096, is below 2^-50
        # and its float quotient underflows to 0 for j <= 3071; the sum
        # is nonzero, sin(pi x) = pi x there, and the exponent is the closed
        # form of the product
        n = 4096
        x = Fraction(12345, 2**4160)
        log_sq = 2 * n * math.log(2) + 2 * sum(
            math.log(math.pi) + math.log(12345) + (j - 4160) * math.log(2)
            for j in range(n)
        )
        expected = (log_sq - n * math.log(2)) / (n * math.log(2))
        assert scaling_exponent_alpha(1 << n, x) == pytest.approx(expected, rel=1e-12)
        # the smallest subnormal float, 2^-1074, takes the same branch
        log_sq = 4 * math.log(2) + 2 * sum(
            math.log(math.pi) + (j - 1074) * math.log(2) for j in range(2))
        assert scaling_exponent_alpha(4, 5e-324) == pytest.approx(
            (log_sq - 2 * math.log(2)) / (2 * math.log(2)), rel=1e-12)
        # an orbit that reaches 0 exactly is still extinct
        assert scaling_exponent_alpha(1 << 12, Fraction(3, 2**10)) == -math.inf


class TestFloatFrequencyLimit:
    def test_float_refused_and_fraction_exact_from_2_53(self, params21):
        """A float's doubling orbit reaches 0 after its 53 bits (0.3 gave
        -inf at l = 2^60), so float frequencies are refused from l = 2^53 on,
        while a Fraction keeps the exact orbit."""
        for l in (1 << 53, (1 << 53) + 1, 1 << 60):
            with pytest.raises(ValueError, match="pass a Fraction"):
                scaling_exponent_alpha(l, 0.3)
        with pytest.raises(ValueError, match="pass a Fraction"):
            eta_sums_at_sizes(0.3, [16, 1 << 53])
        k = params21.wave_vector(Fraction(1, 3))
        with pytest.raises(ValueError, match="pass a Fraction"):
            density_at_sizes(k, [16, 1 << 53], params21)
        # just below the limit a float is still accepted
        assert math.isfinite(scaling_exponent_alpha((1 << 53) - 1, 0.3))
        assert math.isfinite(eta_sums_at_sizes(0.3, [(1 << 53) - 1])[0])
        assert math.isfinite(density_at_sizes(k, [(1 << 53) - 1], params21)[0])
        for l in (1 << 60, (1 << 60) + 1, 1 << 100):
            assert 0.16 < scaling_exponent_alpha(l, Fraction(3, 10)) < 0.18
        (value,) = eta_sums_at_sizes(Fraction(3, 10), [(1 << 60) + 1])
        assert value > 0 and math.isfinite(value)


def _one_shot_sign_sum(x, l):
    """S_l(x) as a (mantissa, exponent) pair from one `_block_sums` at 2x
    and floor(l/2) alone: (1 - e^{-2 pi i x}) T_L(2x), plus eta_L z^L for
    odd l."""
    m0, e0 = diffract._turn(*x.as_integer_ratio())[1]
    _, (m, e), z_half = diffract._block_sums(2 * x, l // 2)
    s = (m0 * m, e0 + e)
    if l % 2:
        s = diffract._add_scaled(s, (tm_sign(l // 2) * z_half, 0))
    return s


def _one_shot_eta(x, l):
    """|S_l(x)|^2 / l from `_one_shot_sign_sum`."""
    m, e = _one_shot_sign_sum(x, l)
    top = l.bit_length() - 1
    return math.ldexp(abs(m) ** 2, 2 * e - top) / (l / (1 << top))


def _one_shot_alpha(l, x):
    """alpha_l(x) from `_one_shot_sign_sum`."""
    m, e = _one_shot_sign_sum(x, l)
    if m == 0:
        return -math.inf
    return (2.0 * (math.log(abs(m)) + e * math.log(2.0)) - math.log(l)) / math.log(l)


def _size_lists(limit: int):
    """Unsorted size lists with 1, powers of two and repeats."""
    size = st.one_of(
        st.integers(1, limit),
        st.integers(0, limit.bit_length() - 1).map(lambda j: 1 << j),
        st.integers(1, 64),
    )
    return st.builds(
        lambda sizes, pick: [1] + sizes + [sizes[i % len(sizes)] for i in pick],
        st.lists(size, min_size=1, max_size=8),
        st.lists(st.integers(0, 7), max_size=3),
    )


_FLOAT_LIMIT = (1 << 53) - 1
_FLOAT_FREQS = st.one_of(
    st.floats(min_value=-4, max_value=4, allow_nan=False),
    _FREQS.map(float),
)
_EXACT_FREQS = st.one_of(
    _FREQS,
    st.builds(Fraction, st.integers(-(1 << 70), 1 << 70), st.integers(1, 1 << 64)),
)


class TestBlockTable:
    """One table per frequency, walked for every size, equals a table
    built afresh for each size, bit for bit."""

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(params=_tiles(), k=_FLOAT_FREQS, sizes=_size_lists(_FLOAT_LIMIT))
    def test_densities(self, params, k, sizes):
        # the float k goes through the exact route at q = x/2, x = k(a+b)/(2 pi)
        q = Fraction(k * float(params.a + params.b) / (2.0 * math.pi)) / 2
        got = density_at_sizes(k, sizes, params)
        assert list(got) == [_one_shot_q_density(q, l, params) for l in sizes]

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(x=_FLOAT_FREQS, sizes=_size_lists(_FLOAT_LIMIT))
    def test_eta_sums_float(self, x, sizes):
        assert list(eta_sums_at_sizes(x, sizes)) == [_one_shot_eta(x, l) for l in sizes]

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(x=_EXACT_FREQS, sizes=_size_lists(1 << 200))
    def test_eta_sums_fraction(self, x, sizes):
        assert list(eta_sums_at_sizes(x, sizes)) == [_one_shot_eta(x, l) for l in sizes]

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(x=st.one_of(_FLOAT_FREQS, _EXACT_FREQS), sizes=_size_lists(_FLOAT_LIMIT),
           big=_size_lists(1 << 200))
    def test_exponents(self, x, sizes, big):
        if isinstance(x, Fraction):
            sizes = sizes + big
        sizes = [max(l, 2) for l in sizes]
        expected = [_one_shot_alpha(l, x) for l in sizes]
        assert scaling_exponents_at_sizes(x, sizes) == expected
        assert [scaling_exponent_alpha(l, x) for l in sizes] == expected

    def test_dyadic_exponent_below_float_range_matches(self):
        # subnormal orbit quotients take the pi x branch in both routes
        x = Fraction(12345, 2**4160)
        sizes = [1 << 4096, (1 << 4096) + 3, 4]
        assert scaling_exponents_at_sizes(x, sizes) == [_one_shot_alpha(l, x) for l in sizes]

    def test_subnormal_products_do_not_overflow(self):
        # a sine factor below the smallest normal float makes a subnormal
        # digit product; rescaling it used to raise OverflowError
        for x in (5e-324, 2.0 ** -1060, Fraction(1, 2**1060)):
            etas = eta_sums_at_sizes(x, [3, 5, 4])
            assert list(etas) == [abs(eta_sum(l, float(x))) ** 2 / l for l in (3, 5, 4)]
            assert scaling_exponents_at_sizes(x, [3, 4]) == [_one_shot_alpha(l, x) for l in (3, 4)]

    def test_underflowed_orbit_quotient_is_not_extinction(self):
        # at x = 2^-1100 the first orbit quotients r/den underflow to 0.0;
        # their sine factors read 0 and alpha_l -inf.  Against the leading
        # term of S_l = sum_m (-2 pi i x)^m / m! sum_j j^m eta_j, with exact
        # integer moments: the moments through m = 2 vanish at l = 1000
        # (binary blocks of length >= 8), at l = 1002 the first does not
        x = Fraction(1, 2**1100)
        got = scaling_exponents_at_sizes(x, [1000, 1002, 1024])
        assert all(math.isfinite(a) for a in got)
        for l, alpha in zip((1000, 1002), got):
            m, moment = next((m, mo) for m in range(8)
                             if (mo := sum(j**m * tm_sign(j) for j in range(l))) != 0)
            assert (l, m) in ((1000, 3), (1002, 1))
            log_s = (m * (math.log(2 * math.pi) - 1100 * math.log(2)) + math.log(abs(moment))
                     - math.lgamma(m + 1))
            ref = (2 * log_s - math.log(l)) / math.log(l)
            assert alpha == pytest.approx(ref, rel=1e-12)

    def test_refusals(self):
        for bad in ([1], [0], [64, 1], [-3]):
            with pytest.raises(ValueError, match="l must be >= 2"):
                scaling_exponents_at_sizes(Fraction(1, 3), bad)
        for l in (1, 0, -3):
            with pytest.raises(ValueError, match="l must be >= 2"):
                scaling_exponent_alpha(l, Fraction(1, 3))
        for l in (1 << 53, (1 << 53) + 1):
            with pytest.raises(ValueError, match="pass a Fraction"):
                scaling_exponent_alpha(l, 0.3)
            with pytest.raises(ValueError, match="pass a Fraction"):
                scaling_exponents_at_sizes(0.3, [16, l])
        assert scaling_exponents_at_sizes(0.3, []) == []


def _one_shot_q_density(q, l, params):
    """nu_l at k = 4 pi q/(a+b) from one `_block_sums` at 2q and floor(l/2)
    alone, with the phases from the reduced fractions."""
    w = diffract._turn(*q.as_integer_ratio())[0]
    (r,), den = diffract._dyadic_fracs(q * (params.a - params.b) / (params.a + params.b), 1)
    (s, f), c = diffract._sin_cos_pi(r, den)
    s = math.ldexp(s, f)
    cos_kd, sin_kd = (c - s) * (c + s), 2.0 * s * c
    g, t, z_half = diffract._block_sums(2 * q, l // 2)
    total = ((1.0 + w * cos_kd) * diffract._unscale(g)
             - 1j * w * sin_kd * diffract._unscale(t) - 1.0 + z_half)
    if l % 2:
        total += z_half * w * complex(cos_kd, -tm_sign(l // 2) * sin_kd)
    return abs(total) ** 2 / l


class TestDensityAtQ:
    """The exact-phase route of a rational wave vector: density and alpha_l
    from one table at 2q and one walk per size."""

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(params=_tiles(), q=_FREQS, half=st.integers(0, 1 << 11), odd=st.booleans())
    def test_matches_the_kahan_and_direct_oracles(self, params, q, half, odd):
        l = max(1, 2 * half + odd)
        k = params.wave_vector(q)
        ((nu, alpha),) = density_at_q(q, [l], params)
        _assert_same_sum(l, k, params, nu, approximant_density(l, k, params))
        direct = abs(eta_sum(l, float(q)))
        tol = 1e-12 * l * (1 + abs(float(q)) * l)
        if l == 1:
            assert alpha is None
        elif alpha == -math.inf:
            assert direct <= tol
        else:
            assert abs(math.exp(0.5 * (1 + alpha) * math.log(l)) - direct) <= tol

    @settings(deadline=None, derandomize=True, max_examples=10)
    @given(params=_tiles(), q=_FREQS, l=st.integers(1, 1 << 22))
    def test_matches_the_weighted_scan(self, params, q, l):
        k = params.wave_vector(q)
        ((nu, _),) = density_at_q(q, [l], params)
        (nu_scan,) = density_at_sizes(k, [l], params, weights=np.ones(l))
        _assert_same_sum(l, k, params, nu, nu_scan)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(params=_tiles(), q=_EXACT_FREQS, sizes=_size_lists(1 << 62))
    def test_one_table_equals_a_table_per_size(self, params, q, sizes):
        got = density_at_q(q, sizes, params)
        assert got == [density_at_q(q, [l], params)[0] for l in sizes]
        assert [nu for nu, _ in got] == [_one_shot_q_density(q, l, params) for l in sizes]
        assert [al for _, al in got] == [None if l == 1 else _one_shot_alpha(l, q) for l in sizes]

    def test_tiny_frequency_factor_is_scaled(self, params21):
        # at q = 2^-1100, sin(pi q) underflows to 0.0; the factor
        # 1 - e^{-2 pi i q} = 2i sin(pi q) e^{-i pi q} is kept as a scaled
        # pair, so |S_{2L}|^2 = 4 sin^2(pi q) |T_L(2q)|^2 is not read as 0
        q = Fraction(1, 2**1100)
        m, e = diffract._turn(*q.as_integer_ratio())[1]
        assert math.log(abs(m)) + e * math.log(2) == pytest.approx(
            math.log(2 * math.pi) - 1100 * math.log(2), rel=1e-15)
        n = 10  # |S_{2^n}|^2 = 2^{2n} prod_{j<n} (pi 2^{j-1100})^2 to far below 1 ulp
        log_sq = 2 * n * math.log(2) + 2 * sum(
            math.log(math.pi) + (j - 1100) * math.log(2) for j in range(n))
        sizes = [1 << n, 1000, 1002, 1001]
        rows = density_at_q(q, sizes, params21)
        assert rows[0][1] == pytest.approx((log_sq - n * math.log(2)) / (n * math.log(2)), rel=1e-12)
        assert [al for _, al in rows] == scaling_exponents_at_sizes(q, sizes)
        assert all(math.isfinite(al) for _, al in rows)
        for l, (nu, _) in zip(sizes, rows):  # every phase is about 0: nu_l = l
            assert nu == pytest.approx(l, rel=1e-12)

    def test_exact_zeros(self, params21):
        # q = 1/4: z = -1 and T_{2^j}(1/2) = 0 from j = 2 on; q = 1: S_l is
        # 0 at even l and eta_{l-1} = +-1 at odd l
        for l in (8, 16, 1 << 40, 1 << 62):
            assert density_at_q(Fraction(1, 4), [l], params21) == [(0.0, -math.inf)]
        rows = density_at_q(Fraction(1), [2, 3, 1 << 50, (1 << 50) + 1], params21)
        assert [al for _, al in rows] == [-math.inf, -1.0, -math.inf, -1.0]

    def test_refusals(self, params21):
        assert density_at_q(Fraction(1, 3), [], params21) == []
        for bad in ([0], [4, -1]):
            with pytest.raises(ValueError, match="sizes must be >= 1"):
                density_at_q(Fraction(1, 3), bad, params21)
        with pytest.raises(ValueError, match="exceeds the float range"):
            density_at_q(Fraction(1, 3), [(1 << 2100) + 1], params21)


def _grids():
    """Grids start + i step, i < count, that reach past q + n for a step
    n/m, so wave vectors with the same frac(2q) repeat: starts t/d with
    d <= 97 and negative q, dyadic and non-dyadic steps."""
    start = st.builds(lambda t, d: Fraction(t, d), st.integers(-3 * 97, 3 * 97), st.integers(1, 97))
    step = st.one_of(
        st.integers(1, 6).map(lambda j: Fraction(1, 1 << j)),
        st.builds(Fraction, st.integers(1, 3), st.integers(2, 40)),
    )
    return st.builds(
        lambda a, h, extra: [a + i * h for i in range(h.denominator + 1 + extra)],
        start, step, st.integers(0, 8),
    )


class TestDensityAtQs:
    """A grid of rational wave vectors shares one table and one walk per
    size among the q with the same frac(2q)."""

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(params=_tiles(), grid=_grids(), sizes=_size_lists(1 << 62))
    def test_grid_equals_one_call_per_q(self, params, grid, sizes):
        assert len({(2 * q) % 1 for q in grid}) < len(grid)  # tables are shared
        got = density_at_qs(grid, sizes, params)
        assert got == [density_at_q(q, sizes, params) for q in grid]
        for q, values in zip(grid, got):
            assert [nu for nu, _ in values] == [_one_shot_q_density(q, l, params) for l in sizes]
            assert [al for _, al in values] == [
                None if l == 1 else _one_shot_alpha(l, q) for l in sizes
            ]

    def test_empty_inputs_and_refusals(self, params21):
        assert density_at_qs([], [4, 5], params21) == []
        assert density_at_qs([Fraction(1, 3), Fraction(5, 6)], [], params21) == [[], []]
        with pytest.raises(ValueError, match="sizes must be >= 1"):
            density_at_qs([Fraction(1, 3)], [4, 0], params21)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(params=_tiles(), t=st.integers(-10 ** 4, 10 ** 4), d=st.integers(1, 10 ** 4),
           k=st.integers(0, 12), count=st.integers(1, 64),
           sizes=st.lists(st.builds(lambda half, odd: max(1, 2 * half + odd),
                                    st.integers(0, 1 << 39), st.booleans()),
                          min_size=1, max_size=6))
    def test_dyadic_grid_shares_sines_bit_for_bit(self, params, t, d, k, count, sizes):
        # the tables of a step-1/2^k grid meet on their doubling orbits, so
        # they read shared sines; one q at a time, each table has its own
        grid = [Fraction(t, d) + Fraction(i, 1 << k) for i in range(count)]
        got = density_at_qs(grid, sizes, params)
        assert repr(got) == repr([density_at_q(q, sizes, params) for q in grid])

    @pytest.mark.parametrize("grid", [
        [Fraction(1, 3) + Fraction(i, 256) for i in range(257)],  # the benchmark's
        [Fraction(t, 7) for t in range(-7, 15)],  # turns on the tables' orbits
        [Fraction(1, 3), Fraction(3, 5), Fraction(5, 6), Fraction(1, 10), Fraction(-1, 12)],
    ])
    def test_each_sine_once_per_call(self, monkeypatch, grid):
        calls = collections.Counter()
        sin_cos_pi = diffract._sin_cos_pi

        def counted(r, den):
            calls[r, den] += 1
            return sin_cos_pi(r, den)

        monkeypatch.setattr(diffract, "_sin_cos_pi", counted)
        sizes = [1000, 1024, 3000, 4096, 12000, 16384]
        diffract._walk_core(grid, sizes)

        def centred(num, den):  # frac(num/den) in (-1/2, 1/2], over den
            r = num % den
            return (r if 2 * r <= den else r - den), den

        top = (max(sizes) // 2).bit_length() - 1
        tables = {((2 * q) % 1).as_integer_ratio() for q in grid}
        orbits = [centred(num << i, den) for num, den in tables for i in range(top + 1)]
        turns = [centred(*q.as_integer_ratio()) for q in grid]
        assert calls == collections.Counter(turns) + collections.Counter(set(orbits))
        if len(grid) == 257:
            assert (len(orbits), len(set(orbits))) == (128 * 14, 263)


_TILES_21 = QuasicrystalParams(Fraction(2), Fraction(1))
_FRONT_ENDS = [  # (call at frequency x, empty result, smallest size, its message)
    pytest.param(lambda x, sizes: density_at_sizes(x, sizes, _TILES_21), np.zeros(0),
                 1, "sizes must be >= 1", id="density_at_sizes"),
    pytest.param(lambda x, sizes: density_at_qs([x], sizes, _TILES_21), [[]],
                 1, "sizes must be >= 1", id="density_at_qs"),
    pytest.param(eta_sums_at_sizes, np.zeros(0), 1, "sizes must be >= 1", id="eta_sums_at_sizes"),
    pytest.param(scaling_exponents_at_sizes, [], 2, "l must be >= 2",
                 id="scaling_exponents_at_sizes"),
]


class TestFrontEnds:
    """The four front ends of the unit-weight walk core share its checks."""

    @pytest.mark.parametrize("call, empty, least, message", _FRONT_ENDS)
    def test_refusal_contract(self, call, empty, least, message):
        got = call(0.3, [])
        if isinstance(empty, np.ndarray):
            assert isinstance(got, np.ndarray) and got.shape == (0,) and got.dtype == float
        else:
            assert got == empty
        for bad in ([0], [least - 1], [64, 0], [-3, 64]):
            with pytest.raises(ValueError, match=message):
                call(0.3, bad)
        for big in ([1 << 53], [16, (1 << 53) + 1]):
            with pytest.raises(ValueError, match="pass a Fraction"):
                call(0.3, big)
        call(0.3, [least, (1 << 53) - 1])  # just below the limit a float is accepted

    def test_short_weights_are_refused_by_name(self, params21):
        # numpy's broadcast error from inside the chunk loop named neither
        for sizes, have in (([10], 5), ([3, 12, 7], 11), ([(1 << 20) + 2], (1 << 20) + 1)):
            with pytest.raises(ValueError, match=rf"max\(sizes\) = {max(sizes)} .*"
                                                 rf"len\(weights\) = {have}$"):
                density_at_sizes(1.0, sizes, params21, weights=np.ones(have))
        got = density_at_sizes(1.0, [3, 12], params21, weights=np.ones(12))
        assert np.array_equal(got, density_at_sizes(1.0, [3, 12], params21, weights=np.ones(40)))


class TestFittedAlpha:
    def test_bragg_origin(self, params21):
        sizes = [1 << j for j in range(6, 15)]
        fit = fitted_alpha(0.0, sizes, params21)
        assert fit.alpha == pytest.approx(1.0, abs=1e-9)

    def test_rejects_extinct_subsequence(self, params21):
        # dyadic q = 1/4: densities vanish identically at sizes 2^j >= 8
        k = params21.wave_vector(Fraction(1, 4))
        with pytest.raises(ExtinctionError):
            fitted_alpha(k, [1 << j for j in range(6, 14)], params21)

    def test_requires_four_sizes(self, params21):
        with pytest.raises(ValueError):
            fitted_alpha(0.0, [8, 16, 32], params21)
