"""Wave-vector classification, reduction identities, rarefaction domains,
growth regimes and the averaged-weight machinery."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tmqc import diffract, quadfield, rareclass, spectrum
from tmqc.spectrum import (
    GrowthRegime,
    SpectralKind,
    class_invariance_check,
    classify,
    extinction_possible,
    growth_regime,
    halving_reduction,
    marcinkiewicz_norm,
    normalize_wavevector,
    rarefaction_domain,
)
from tmqc.tmcore import QuasicrystalParams, sign_array


def _alpha(p, params, t=1, h=0):
    """The headline exponent alpha of q = t/(2^h p), as `classify` reports it."""
    return classify(Fraction(t, 2**h * p), params).alpha


class TestNormalization:
    def test_examples(self):
        v = normalize_wavevector(Fraction(5, 12))
        assert (v.t, v.h, v.p) == (5, 2, 3)
        v = normalize_wavevector(Fraction(7, 8))
        assert (v.t, v.h, v.p) == (7, 3, 1)
        v = normalize_wavevector(Fraction(1, 3))
        assert (v.t, v.h, v.p) == (1, 0, 3)

    def test_roundtrip_unique(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = Fraction(int(rng.integers(-500, 500)), int(rng.integers(1, 500)))
            v = normalize_wavevector(q)
            assert v.q == q
            assert v.p % 2 == 1
            assert math.gcd(v.t, (1 << v.h) * v.p) == 1


def _order_of_two(p):
    s, x = 1, 2 % p
    while x != 1:
        x, s = 2 * x % p, s + 1
    return s


def _orbit(p, t):
    """The doubling orbit t, 2t, 4t, ... mod p, walked until it returns to t."""
    orbit, w = [t % p], 2 * t % p
    while w != orbit[0]:
        orbit.append(w)
        w = 2 * w % p
    return orbit


def _orbit_mean_fsum(p, t):
    """beta_t(p): the mean of log2|2 sin(pi w / p)| over the doubling orbit
    of t, summed by math.fsum."""
    orbit = _orbit(p, t)
    return math.fsum(math.log2(2 * math.sin(math.pi * min(w, p - w) / p))
                     for w in orbit) / len(orbit)


def _orbit_max_fsum(p):
    """max over 0 < t < p of the mean of log2|2 sin(pi w / p)| over the
    doubling orbit of t, one orbit at a time."""
    seen, best = set(), -math.inf
    for t in range(1, p):
        if t not in seen:
            seen.update(_orbit(p, t))
            best = max(best, _orbit_mean_fsum(p, t))
    return best


class TestClassify:
    def test_bragg(self, params21):
        assert classify(Fraction(1, 4), params21).kind is SpectralKind.BRAGG
        assert classify(Fraction(5), params21).kind is SpectralKind.BRAGG

    @pytest.mark.parametrize("a, b", [(2, 1), (3, 1), (5, 2), (5, 3)])
    @pytest.mark.parametrize("q", ["1/4", "3/8", "7/1024", "-1/4", "0", "1/2", "1", "3/2",
                                   "-3/2", "2", "4"])
    def test_dyadic_extinction_flag_matches_the_density(self, a, b, q):
        # h >= 2, or 2q(a-b)/(a+b) an integer u with u + 2q odd (tiles (3,1)
        # at q = 1, (5,3) at q = 2): nu_l / l is about 0 at l = 2^20 and
        # 2^20 + 3; elsewhere it is a positive constant
        params = QuasicrystalParams(Fraction(a), Fraction(b))
        v = classify(Fraction(q), params)
        assert v.kind is SpectralKind.BRAGG
        sizes = [1 << 20, (1 << 20) + 3]
        rows = diffract.density_at_q(Fraction(q), sizes, params)
        per_site = [nu / l for l, (nu, _) in zip(sizes, rows)]
        if v.extinct:
            assert max(per_site) < 1e-10
        else:
            assert min(per_site) > 1e-3
        assert v.extinct == (Fraction(q).denominator >= 4 or (a, b, q) in {
            (3, 1, "1"), (5, 3, "2")})

    def test_singular_with_exact_exponent(self, params21):
        v = classify(Fraction(1, 3), params21)
        assert v.kind is SpectralKind.SINGULAR_CONTINUOUS
        assert v.alpha == pytest.approx(2 * math.log(3) / math.log(4) - 1, rel=1e-12)
        assert v.exponent_source == "closed-form"
        # single coset mod 3: the residue exponent agrees with the headline
        assert v.residue_alpha == pytest.approx(v.alpha, rel=1e-9)

    def test_residue_resolved_exponent_mod_17(self, params21):
        good = classify(Fraction(3, 17), params21)
        bad = classify(Fraction(1, 17), params21)
        assert good.alpha == bad.alpha  # headline exponent depends on p only
        assert good.residue_alpha == pytest.approx(good.alpha, rel=1e-9)
        assert bad.residue_alpha < -1.0  # subdominant coset: bounded sums

    def test_excluded_on_extinction_locus(self):
        # tiles (4,1): kappa_eta(k) = 0 iff 6q/5 is an integer; q = 5/3 has
        # odd denominator 3 and lands exactly on the locus
        params = QuasicrystalParams(Fraction(4), Fraction(1))
        v = classify(Fraction(5, 3), params)
        assert v.kind is SpectralKind.EXCLUDED
        assert abs(v.kappa_eta) < 1e-12

    def test_near_extinct_is_not_excluded(self, params21):
        # |kappa_eta| = 4.9e-11: the float tolerance read this q as extinct
        v = classify(Fraction(1, 300017), params21)
        assert v.kind is SpectralKind.SINGULAR_CONTINUOUS
        assert 0 < abs(v.kappa_eta) < 1e-10
        assert v.kappa_eta_boundary

    def test_kappa_eta_is_exact_at_large_q(self, params21):
        # frac(2q(a-b)/(a+b)) = 2/900051, as at q = 1/300017; the float k gave
        # |kappa_eta| = 7.27e-8 here
        v = classify(Fraction(1500000000000) + Fraction(1, 300017), params21)
        ref = math.sin(2 * math.pi / 900051) ** 2
        assert abs(v.kappa_eta) == pytest.approx(ref, rel=1e-9, abs=0.0)
        assert abs(v.kappa_eta) == pytest.approx(
            abs(classify(Fraction(1, 300017), params21).kappa_eta), rel=1e-9, abs=0.0)
        assert v.kappa_eta_boundary

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(a=st.fractions(1, 12, max_denominator=6), b=st.fractions(0, 12, max_denominator=6),
           q=st.fractions(0, 4, max_denominator=60), on_grid=st.booleans(),
           j=st.integers(1, 12))
    def test_exact_extinction_matches_kappa_eta(self, a, b, q, on_grid, j):
        # small denominators keep a nonzero |kappa_eta| far above rounding;
        # on_grid puts 2q(a-b)/(a+b) at j/2: extinct for even j, and
        # |kappa_eta| = 1 for odd j
        a, b = max(a, b), min(a, b)
        assume(0 < b < a)
        if on_grid:
            q = Fraction(j, 4) * (a + b) / (a - b)
        assume(normalize_wavevector(q).p > 1)
        params = QuasicrystalParams(a, b)
        v = classify(q, params)
        ke = abs(diffract.kappa_eta_closed(params.wave_vector(q), params))
        assert (v.kind is SpectralKind.EXCLUDED) == (ke < 1e-12)
        assert ke < 1e-12 or ke > 1e-6

    def test_refuses_prime_above_the_coset_spectrum_cap(self, params21):
        with pytest.raises(ValueError, match="2305843009213693951"):
            classify(Fraction(1, 2**61 - 1), params21)

    def test_composite_dominant(self, params21):
        # p = 3^a 5^b: the orbit of 1/3 (t = p/3) is the top of the spectrum
        for q in (Fraction(1, 15), Fraction(7, 45), Fraction(2, 75)):
            v = classify(q, params21)
            assert v.kind is SpectralKind.SINGULAR_CONTINUOUS
            assert v.exponent_source == "orbit-formula"
            assert v.alpha == pytest.approx(math.log(3) / math.log(2) - 1, abs=1e-14)
            assert v.residue_alpha is None

    def test_composite_other_takes_the_orbit_formula(self, params21):
        # the fitted density scan read -0.5256 at q = 1/9; the exact value is
        # the t = 3 orbit, log2(3) - 1, which 1/21 shares through t = 7
        for q in (Fraction(1, 9), Fraction(4, 21)):
            v = classify(q, params21)
            assert v.exponent_source == "orbit-formula"
            assert v.alpha == pytest.approx(math.log2(3) - 1, abs=1e-14)
        # no factor 3: a test-local fsum over every residue's orbit
        for p in (25, 35, 55, 77, 85, 91, 125, 143, 187):
            v = classify(Fraction(1, p), params21)
            assert v.alpha == pytest.approx(2 * _orbit_max_fsum(p) - 1, abs=1e-13), p
            assert v.residue_alpha is None

    def test_composite_alpha_matches_the_circulant_spectrum(self, params21):
        # every odd composite p <= 201: alpha against 2 log2|lambda_1| / s - 1
        # from the FFT of the circulant's exact first column S(2^s)
        for p in range(9, 202, 2):
            if quadfield.is_prime(p):
                continue
            s = _order_of_two(p)
            lam = np.fft.fft(np.asarray(rareclass._svec(p, 1 << s), dtype=float))
            ref = 2 * math.log2(float(np.max(np.abs(lam)))) / s - 1
            assert classify(Fraction(1, p), params21).alpha == pytest.approx(ref, abs=1e-9), p

    def test_composite_above_the_cap_is_refused(self, params21):
        for p in (3000000021, 6917529027641081853, rareclass.MAX_SPECTRUM_P + 1):
            assert not quadfield.is_prime(p)
            with pytest.raises(ValueError, match=str(rareclass.MAX_SPECTRUM_P)):
                classify(Fraction(1, p), params21)

    def test_residue_alpha_matches_the_orbit_sum(self, params21):
        # one t per coset of <2> for every P1, P21 and P23 prime below 2000:
        # t = 1, and for two-coset primes the least non-residue
        checked = 0
        for p in quadfield.primes_up_to(1999)[1:]:
            rec = quadfield.prime_record(p)
            if rec.beta is None:
                continue
            ts = [1]
            if rec.cls is not quadfield.PrimeClass.P1:
                ts.append(next(t for t in range(2, p) if quadfield.quadratic_character(t, p) == -1))
            for t in ts:
                v = classify(Fraction(t, p), params21)
                assert v.exponent_source == "closed-form"
                ref = 2 * _orbit_mean_fsum(p, t) - 1
                assert v.residue_alpha == pytest.approx(ref, abs=1e-12), (p, t)
                checked += 1
        assert checked > 250

    def test_dominant_coset_is_the_record_beta_bit_for_bit(self, params21):
        for p in (17, 137, 9049, 199961):
            rec = quadfield.prime_record(p)
            assert rec.cls is quadfield.PrimeClass.P21
            t = next(t for t in range(2, p) if quadfield.quadratic_character(t, p) == -1)
            assert classify(Fraction(t, p), params21).residue_alpha == 2.0 * rec.beta - 1.0

    def test_one_record_lookup_per_prime(self, params21, monkeypatch):
        # a warm verdict at an Other prime (coset spectrum cached) looks up
        # the prime's record and the order of 2 once each
        classify(Fraction(1, 43), params21)
        names = ("prime_record", "order_of_two")
        real = {name: getattr(quadfield, name) for name in names}
        calls = []

        def counted(name):
            return lambda *args: calls.append(name) or real[name](*args)

        for mod in (quadfield, rareclass):
            for name in names:
                monkeypatch.setattr(mod, name, counted(name))
        v = classify(Fraction(1, 43), params21)
        assert v.exponent_source == "coset-spectrum"
        assert sorted(calls) == ["order_of_two", "prime_record"]

    def test_two_coset_primes_skip_the_orbit_sum(self, params21, monkeypatch):
        def refuse(*args):
            raise AssertionError("O(p) orbit work on a closed-form route")

        monkeypatch.setattr(rareclass, "_log2_sines", refuse)
        monkeypatch.setattr(rareclass, "_coset_spectrum", refuse)
        for q in (Fraction(1, 199961), Fraction(3, 199961), Fraction(5, 7), Fraction(2, 3)):
            v = classify(q, params21)
            assert v.exponent_source == "closed-form"
            assert math.isfinite(v.residue_alpha)

    def test_wave_vectors_over_one_prime_share_its_l_sum(self, params21, monkeypatch):
        # four q over the P21 prime 199961: one O(p) L-sum, not one per q
        calls = []
        real = quadfield.dirichlet_l_one
        monkeypatch.setattr(quadfield, "dirichlet_l_one",
                            lambda p: calls.append(p) or real(p))
        verdicts = [classify(Fraction(t, 199961), params21) for t in (1, 2, 3, 5)]
        assert calls == [199961]
        assert all(v.exponent_source == "closed-form" for v in verdicts)

    def test_verdict_partition(self, params21):
        rng = np.random.default_rng(8)
        kinds = set()
        for _ in range(120):
            q = Fraction(int(rng.integers(1, 300)), int(rng.integers(1, 300)))
            v = classify(q, params21)
            assert v.kind in (
                SpectralKind.BRAGG,
                SpectralKind.SINGULAR_CONTINUOUS,
                SpectralKind.EXCLUDED,
            )
            d = q.denominator
            assert (v.kind is SpectralKind.BRAGG) == (d & (d - 1) == 0)
            kinds.add(v.kind)
        assert SpectralKind.BRAGG in kinds
        assert SpectralKind.SINGULAR_CONTINUOUS in kinds


class TestAlphaExact:
    def test_values(self, params21):
        assert _alpha(3, params21) == pytest.approx(0.5849625007, abs=1e-9)
        assert _alpha(17, params21) == pytest.approx(2 * 0.6332 - 1, abs=2e-3)
        assert _alpha(7, params21) == pytest.approx(
            2 * math.log(7) / (6 * math.log(2)) - 1, rel=1e-12)

    def test_h_independence(self, params21):
        for h in (0, 1, 2, 9):
            assert _alpha(3, params21, h=h) == _alpha(3, params21)

    def test_other_class_delegates_to_spectrum(self, params21):
        a = _alpha(43, params21)
        assert -1.0 < a < 1.0
        beta = rareclass.scaling_exponents(43).beta
        assert a == pytest.approx(2 * beta - 1, rel=1e-12)


class TestHalvingReduction:
    def test_empty_product(self):
        red = halving_reduction(1, 0, 3, 5)
        assert red.prefactor == pytest.approx(1.0)
        assert red.lhs == pytest.approx(red.rhs, rel=1e-12)

    def test_example_prefactor(self):
        red = halving_reduction(1, 1, 3, 5)
        assert red.prefactor == pytest.approx(2 * math.sin(math.pi / 6) ** 2)
        assert red.prefactor == pytest.approx(0.5)

    def test_identity_against_direct_sums(self):
        # both sides recomputed from plain sign-sequence sums
        rng = np.random.default_rng(21)
        cases = 0
        while cases < 15:
            p = int(rng.choice([3, 5, 7, 9, 15]))
            h = int(rng.integers(1, 4))
            n = int(rng.integers(h + 1, 13))
            t = int(rng.integers(1, (1 << h) * p))
            if math.gcd(t, (1 << h) * p) != 1:
                continue
            cases += 1
            red = halving_reduction(t, h, p, n)
            lhs_direct = abs(diffract.eta_sum(1 << n, t / ((1 << h) * p))) ** 2 / (1 << n)
            rhs_direct = red.prefactor * (
                abs(diffract.eta_sum(1 << (n - h), t / p)) ** 2 / (1 << (n - h))
            )
            assert red.lhs == pytest.approx(lhs_direct, rel=1e-9, abs=1e-9)
            assert red.lhs == pytest.approx(rhs_direct, rel=1e-9, abs=1e-9)
            assert red.rhs == pytest.approx(red.lhs, rel=1e-9, abs=1e-9)

    def test_finite_beyond_the_float_range_of_the_product(self):
        # 4^n prod sin^2 overflows from n near 1024, 1.5^n at q = 1/3 does not
        red = halving_reduction(1, 0, 3, 1100)
        assert math.isfinite(red.lhs)
        assert red.lhs == pytest.approx(red.rhs, rel=1e-9)
        assert red.lhs == pytest.approx(1.5**1100, rel=1e-9)
        red = halving_reduction(1, 2, 3, 1100)
        assert red.lhs == pytest.approx(red.rhs, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            halving_reduction(1, 2, 3, 2)   # n <= h
        with pytest.raises(ValueError):
            halving_reduction(3, 1, 3, 5)   # t shares a factor


_DOMAIN_PRIMES = [p for p in quadfield.primes_up_to(211) if p > 2]


def _domain_oracle(t, p, horizon):
    """(min, max) of |S_n(t/p)| / n^beta over 1 <= n <= 2^horizon from one
    cumsum of the signs times the roots e^{-2 pi i (m t mod p)/p}, with beta
    from the orbit formula."""
    m = np.arange(1 << horizon)
    terms = sign_array(0, 1 << horizon) * np.exp(-2j * np.pi * (m * t % p) / p)
    n = np.arange(1, (1 << horizon) + 1, dtype=float)
    mods = np.abs(np.cumsum(terms)) / n ** rareclass.max_orbit_exponent(p)
    return float(mods.min()), float(mods.max())


class TestRarefactionDomain:
    def test_p3_geometry(self):
        dom = rarefaction_domain(1, 3, 16)
        assert (dom.p, dom.t, dom.horizon_exponent) == (3, 1, 16)
        assert round(dom.min_mod, 4) == 0.8288
        assert round(dom.max_mod, 4) == 1.0102
        assert not dom.contains_zero
        assert (dom.min_mod <= 1e-12) == dom.contains_zero
        # the extremes recur on their fibres, so a deeper horizon finds the same
        deep = rarefaction_domain(1, 3, 62)
        assert (deep.min_mod, deep.max_mod) == (dom.min_mod, dom.max_mod)

    def test_p5_minimum_is_f5(self):
        # |S_5(1/5)| / 5^beta with beta = log2(5)/4, from the direct sum
        f5 = abs(diffract.eta_sum(5, 0.2)) / 5 ** (math.log2(5) / 4)
        assert f5 == pytest.approx(0.485627008984356, rel=1e-12)
        dom = rarefaction_domain(1, 5, 22)
        assert dom.min_mod == pytest.approx(f5, rel=1e-12)
        assert dom.argmin_n % 5 == 0 and dom.argmin_n // 5 & (dom.argmin_n // 5 - 1) == 0

    @pytest.mark.parametrize("t, p", [(1, 5), (1, 7), (3, 17), (1, 11), (1, 13)])
    def test_dominant_amplitude_stays_off_zero(self, t, p):
        dom = rarefaction_domain(t, p, 22)
        assert not extinction_possible(dom)
        assert dom.min_mod > 1e-3
        assert dom.argmin_n is not None and dom.argmax_n is not None

    @pytest.mark.parametrize("t, p", [(1, 17), (3, 43)])
    def test_subdominant_domain_is_the_point_zero(self, t, p):
        assert rareclass.residue_exponent(p, t) < rareclass.scaling_exponents(p).beta
        dom = rarefaction_domain(t, p, 16)
        assert dom.min_mod == dom.max_mod == 0.0
        assert dom.argmin_n is None and dom.argmax_n is None
        assert dom.contains_zero and extinction_possible(dom)

    @pytest.mark.parametrize("t, p", [(1, 3), (1, 5), (3, 17), (7, 43)])
    def test_doubling_scales_by_the_exponent(self, t, p):
        # |S_{2^s n}(t/p)| = 2^{s beta} |S_n(t/p)| at a dominant t
        s = quadfield.order_of_two(p)
        beta, beta_t, _ = rareclass.odd_part_exponents(p, t)
        assert beta_t == beta
        ns = list(range(1, 300)) + [(1 << 40) + 12345, (1 << 50) - 3]
        q = Fraction(t, p)
        base = diffract.eta_sums_at_sizes(q, ns) * np.asarray(ns, dtype=float)
        up = diffract.eta_sums_at_sizes(q, [n << s for n in ns]) * np.asarray(
            [float(n << s) for n in ns])
        np.testing.assert_allclose(up / base, 2.0 ** (2 * s * beta), rtol=1e-12)

    @given(p=st.sampled_from(_DOMAIN_PRIMES), pick=st.integers(0, 10**6),
           horizon=st.integers(1, 10))
    @settings(deadline=None, derandomize=True, max_examples=60)
    def test_matches_cumsum_oracle(self, p, pick, horizon):
        beta = rareclass.max_orbit_exponent(p)
        dominant = [t for t in range(1, p)
                    if abs(rareclass.residue_exponent(p, t) - beta) <= 1e-12]
        t = dominant[pick % len(dominant)]
        dom = rarefaction_domain(t, p, horizon)
        assert dom.argmin_n is not None
        lo, hi = _domain_oracle(t, p, horizon)
        assert dom.min_mod == pytest.approx(lo, abs=1e-9)
        assert dom.max_mod == pytest.approx(hi, abs=1e-9)

    def test_horizon_48_at_8191_is_fast(self):
        times = []
        for _ in range(2):
            start = time.perf_counter()
            dom = rarefaction_domain(1365, 8191, 48)
            times.append(time.perf_counter() - start)
        assert dom.argmin_n is not None and 0.0 < dom.min_mod <= dom.max_mod
        assert min(times) < 0.5

    @pytest.mark.parametrize("t, p, horizon", [
        (1, 9, 8), (1, 2, 8), (3, 3, 8), (1, 3, 0), (1, 3, 63), (1, 8388617, 8),
    ])
    def test_validation(self, t, p, horizon):
        with pytest.raises(ValueError):
            rarefaction_domain(t, p, horizon)

    def test_no_extinction_when_origin_excluded(self, params21):
        # nu_l / l^alpha = |kappa_eta| |T_L(2/3)|^2 / l^{2 beta} with
        # L = floor(l/2) (`diffract.density_at_qs`), and
        # |T_L(2/3)| = |S_L(1/3)| = F(L) L^beta, so the ratio is about
        # |kappa_eta| 2^{-2 beta} F(L)^2
        dom = rarefaction_domain(1, 3, 16)
        assert not extinction_possible(dom)
        alpha = _alpha(3, params21)
        k = params21.wave_vector(Fraction(1, 3))
        ke = abs(diffract.kappa_eta_closed(k, params21))
        floor = ke * 2.0 ** -(alpha + 1) * dom.min_mod**2
        rng = np.random.default_rng(42)
        for _ in range(20):
            ns = np.unique(rng.integers(64, (1 << 22) // 3, size=12))
            sizes = [int(3 * n + 1) for n in ns]
            dens = np.array([nu for nu, _ in diffract.density_at_q(Fraction(1, 3), sizes, params21)])
            vals = dens / np.asarray(sizes, dtype=float) ** alpha
            assert vals.min() > 0.9 * floor

    def test_scaling_upper_bound(self, params21):
        # limsup of nu_l / l^alpha is about |kappa_eta| 2^{-2 beta} max_mod^2
        dom = rarefaction_domain(1, 3, 20)
        alpha = _alpha(3, params21)
        k = params21.wave_vector(Fraction(1, 3))
        ke = abs(diffract.kappa_eta_closed(k, params21))
        ns = np.unique(np.round(np.logspace(2, math.log10((1 << 22) // 3), 400)).astype(int))
        sizes = [int(3 * n + 1) for n in ns]
        dens = np.array([nu for nu, _ in diffract.density_at_q(Fraction(1, 3), sizes, params21)])
        vals = dens / np.asarray(sizes, dtype=float) ** alpha
        assert vals.max() <= ke * 2.0 ** -(alpha + 1) * dom.max_mod**2 * 1.05


class TestGrowthRegime:
    def test_examples(self, params21):
        assert growth_regime(_alpha(3, params21)) is GrowthRegime.SIZE_INCREASING
        assert growth_regime(_alpha(7, params21)) is GrowthRegime.SIZE_DECREASING
        assert growth_regime(_alpha(17, params21)) is GrowthRegime.SIZE_INCREASING
        assert growth_regime(0.0) is GrowthRegime.ETALE

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            growth_regime(1.0)
        with pytest.raises(ValueError):
            growth_regime(-1.2)


class TestBraggScaling:
    def test_intensity_per_site_converges(self, params21):
        # dyadic wave vectors: nu_l / l settles (possibly to zero) with
        # vanishing drift once l >= 2^16
        for q, expected in ((Fraction(0), 1.0), (Fraction(1, 2), 0.0625), (Fraction(1, 4), 0.0)):
            k = params21.wave_vector(q)
            sizes = [1 << n for n in range(14, 21)]
            d = diffract.density_at_sizes(k, sizes, params21)
            ratios = d / np.asarray(sizes, dtype=float)
            assert ratios[-1] == pytest.approx(expected, abs=1e-9)
            assert np.max(np.abs(np.diff(ratios)[2:])) < 1e-6


class TestAlphaConsistency:
    def test_fitted_matches_exact(self, params21):
        # moderate horizon; the acceptance gate re-runs q = 1/3 and 1/7 at
        # the full horizon
        horizon = 1 << 22
        for p, t in ((3, 1), (5, 1), (7, 1), (17, 3)):
            ns = np.unique(
                np.round(np.logspace(math.log10(16), math.log10(horizon // p), 90)).astype(int)
            )
            sizes = [int(p * n + 1) for n in ns]
            k = params21.wave_vector(Fraction(t, p))
            fit = diffract.fitted_alpha(k, sizes, params21)
            assert fit.alpha == pytest.approx(_alpha(p, params21), abs=0.05)

    def test_fitted_insensitive_to_dyadic_denominator(self, params21):
        # h >= 1 goes through the halving identity: the sign-sequence
        # density at l = 2^n is exactly 2^n prod sin^2, and its log-log
        # slope over whole order-s cycles equals alpha for any h
        from tmqc.quadfield import order_of_two

        for p, t, h in ((3, 1, 1), (3, 1, 2), (5, 1, 1), (7, 1, 1), (7, 1, 2), (17, 3, 1), (17, 3, 2)):
            s = order_of_two(p)
            q = Fraction(t, (1 << h) * p)
            n_lo = 8
            n_hi = n_lo + 2 * s if s >= 4 else n_lo + 6 * s
            ns = list(range(n_lo, n_hi + 1))
            dens = [diffract.riesz_product(n, q) / 2.0**n for n in ns]
            slope = np.polyfit(
                [n * math.log(2.0) for n in ns], np.log(dens), 1
            )[0]
            assert slope == pytest.approx(_alpha(p, params21, t, h), abs=0.05), (p, t, h)

    def test_physical_comb_with_dyadic_denominator(self, params21):
        # the full comb needs the eta part to outgrow the bounded lattice
        # transient; at p = 3 the coupling is strong enough by l ~ 2^10
        for h in (1, 2):
            q = Fraction(1, (1 << h) * 3)
            k = params21.wave_vector(q)
            sizes = [1 << j for j in range(10, 23)]
            fit = diffract.fitted_alpha(k, sizes, params21)
            assert fit.alpha == pytest.approx(_alpha(3, params21), abs=0.05)


class TestMarcinkiewicz:
    def test_constant_weights(self):
        for horizon in (64, 4096):
            est = marcinkiewicz_norm(np.ones(horizon), horizon)
            assert est.value == pytest.approx(1.0)
        est = marcinkiewicz_norm(np.zeros(1024), 1024)
        assert est.value == 0.0

    def test_square_indicator_decays(self):
        horizon = 1 << 16
        w = np.zeros(horizon)
        k = 1
        while k * k <= horizon:
            w[k * k - 1] = 1.0
            k += 1
        est = marcinkiewicz_norm(w, horizon)
        assert est.value < 0.01
        dy = [v for _, v in est.dyadic_values]
        assert dy[-1] < dy[2]

    def test_identical_weights_identical_intensities(self, params21):
        w = np.ones(1 << 12)
        rep = class_invariance_check(w, w, Fraction(1, 5), 1 << 12, params21)
        assert rep.final_gap == 0.0
        assert rep.bound_ok and rep.gap_ok

    def test_equality_case_at_origin(self, params21):
        w = np.ones(1 << 12)
        rep = class_invariance_check(w, w, Fraction(0), 1 << 12, params21)
        assert rep.intensity_1[-1] == pytest.approx(1.0)
        assert rep.bound_ok

    def test_density_zero_perturbation_converges(self, params21):
        horizon = 1 << 16
        w1 = np.ones(horizon)
        w2 = w1.copy()
        k = 1
        while k * k <= horizon:
            w2[k * k - 1] = -1.0
            k += 1
        rep = class_invariance_check(w1, w2, Fraction(0), horizon, params21)
        assert rep.bound_ok and rep.gap_ok
        assert rep.final_gap < 0.05
        gaps = np.abs(np.array(rep.intensity_1) - np.array(rep.intensity_2))
        assert gaps[-1] < gaps[0]
