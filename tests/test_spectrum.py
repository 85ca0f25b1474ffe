"""Wave-vector classification, reduction identities, rarefaction domains,
growth regimes and the averaged-weight machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tmqc import diffract, rareclass, spectrum
from tmqc.spectrum import (
    GrowthRegime,
    SpectralKind,
    alpha_exact,
    class_invariance_check,
    classify,
    classify_real,
    extinction_possible,
    growth_regime,
    halving_reduction,
    marcinkiewicz_norm,
    normalize_wavevector,
    normalized_densities,
    rarefaction_domain,
)
from tmqc.tmcore import QuasicrystalParams


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


class TestClassify:
    def test_bragg(self, params21):
        assert classify(Fraction(1, 4), params21).kind is SpectralKind.BRAGG
        assert classify(Fraction(5), params21).kind is SpectralKind.BRAGG

    def test_singular_with_exact_exponent(self, params21):
        v = classify(Fraction(1, 3), params21)
        assert v.kind is SpectralKind.SINGULAR_CONTINUOUS
        assert v.alpha == pytest.approx(2 * math.log(3) / math.log(4) - 1, rel=1e-12)
        assert v.exponent_source == "closed-form"
        assert not v.conjectural
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
        v = classify(q, params, horizon_exponent=10)
        ke = abs(diffract.kappa_eta_closed(params.wave_vector(q), params))
        assert (v.kind is SpectralKind.EXCLUDED) == (ke < 1e-12)
        assert ke < 1e-12 or ke > 1e-6

    def test_refuses_prime_above_the_coset_spectrum_cap(self, params21):
        with pytest.raises(ValueError, match="2305843009213693951"):
            classify(Fraction(1, 2**61 - 1), params21)

    def test_composite_dominant(self, params21):
        v = classify(Fraction(1, 15), params21)
        assert v.kind is SpectralKind.SINGULAR_CONTINUOUS
        assert v.exponent_source == "composite-dominant"
        assert v.alpha == pytest.approx(2 * math.log(3) / (2 * math.log(2)) - 1, rel=1e-12)
        assert not v.conjectural

    def test_composite_other_is_fitted_and_flagged(self, params21):
        v = classify(Fraction(1, 21), params21, horizon_exponent=16)
        assert v.kind is SpectralKind.SINGULAR_CONTINUOUS
        assert v.exponent_source == "fitted"
        assert v.conjectural
        assert v.fit is not None

    def test_verdict_partition(self, params21):
        rng = np.random.default_rng(8)
        kinds = set()
        for _ in range(120):
            q = Fraction(int(rng.integers(1, 300)), int(rng.integers(1, 300)))
            v = classify(q, params21, horizon_exponent=12)
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

    def test_irrational_marker(self, params21):
        v = classify_real(0.5641895835477563, params21)
        assert v.kind is SpectralKind.ALMOST_SURE_NULL


class TestAlphaExact:
    def test_values(self):
        assert alpha_exact(3) == pytest.approx(0.5849625007, abs=1e-9)
        assert alpha_exact(17) == pytest.approx(2 * 0.6332 - 1, abs=2e-3)
        assert alpha_exact(7) == pytest.approx(2 * math.log(7) / (6 * math.log(2)) - 1, rel=1e-12)

    def test_h_independence(self):
        for h in (0, 1, 2, 9):
            assert alpha_exact(3, h) == alpha_exact(3, 0)

    def test_other_class_delegates_to_spectrum(self):
        a = alpha_exact(43)
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

    def test_validation(self):
        with pytest.raises(ValueError):
            halving_reduction(1, 2, 3, 2)   # n <= h
        with pytest.raises(ValueError):
            halving_reduction(3, 1, 3, 5)   # t shares a factor


class TestRarefactionDomain:
    def test_p3_geometry(self):
        dom = rarefaction_domain(1, 3, 16, resolution=128)
        assert dom.max_mod > 0
        assert 1.0 < dom.max_mod < 1.3
        # residue profiles: 0 strictly positive, 1 strictly negative,
        # 2 touches zero; the domain still avoids the origin
        (lo0, hi0), (lo1, hi1), (lo2, hi2) = dom.box_bounds
        assert lo0 > 0
        assert hi1 < 0
        assert lo2 < 1e-9 and hi2 >= -1e-9
        assert not dom.contains_zero
        assert dom.min_mod > 0.5
        assert (dom.min_mod <= 1e-12) == dom.contains_zero

    def test_no_extinction_when_origin_excluded(self, params21):
        dom = rarefaction_domain(1, 3, 16, resolution=128)
        assert not extinction_possible(dom)
        alpha = alpha_exact(3)
        k = params21.wave_vector(Fraction(1, 3))
        ke2 = abs(diffract.kappa_eta_closed(k, params21)) ** 2
        floor = ke2 * dom.min_mod**2
        rng = np.random.default_rng(42)
        for _ in range(20):
            ns = np.unique(rng.integers(64, (1 << 22) // 3, size=12))
            sizes = [int(3 * n + 1) for n in ns]
            vals = normalized_densities(Fraction(1, 3), params21, alpha, sizes)
            assert vals.min() > 0.9 * floor

    def test_scaling_upper_bound(self, params21):
        # limsup of nu_l / l^alpha is bounded by |kappa_eta|^2 max_mod^2
        dom = rarefaction_domain(1, 3, 20, resolution=256)
        alpha = alpha_exact(3)
        k = params21.wave_vector(Fraction(1, 3))
        ke2 = abs(diffract.kappa_eta_closed(k, params21)) ** 2
        ns = np.unique(np.round(np.logspace(2, math.log10((1 << 22) // 3), 400)).astype(int))
        sizes = [int(3 * n + 1) for n in ns]
        vals = normalized_densities(Fraction(1, 3), params21, alpha, sizes)
        assert vals.max() <= ke2 * dom.max_mod**2 * 1.05

    def test_degenerate_domain_handling(self):
        from tmqc.spectrum import _polygon_min_max_mod, _zonogon_vertices

        pts = _zonogon_vertices(np.array([3.0, 4.0]), [])
        mn, mx, inside = _polygon_min_max_mod(pts)
        assert mn == mx == pytest.approx(5.0)
        assert not inside
        # a segment through the origin
        pts = _zonogon_vertices(np.array([0.0, 0.0]), [(1.0, 0.0)])
        mn, mx, inside = _polygon_min_max_mod(pts)
        assert mn == pytest.approx(0.0, abs=1e-12)
        assert mx == pytest.approx(1.0)


class TestGrowthRegime:
    def test_examples(self):
        assert growth_regime(alpha_exact(3)) is GrowthRegime.SIZE_INCREASING
        assert growth_regime(alpha_exact(7)) is GrowthRegime.SIZE_DECREASING
        assert growth_regime(alpha_exact(17)) is GrowthRegime.SIZE_INCREASING
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
            assert fit.alpha == pytest.approx(alpha_exact(p), abs=0.05)

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
            assert slope == pytest.approx(alpha_exact(p), abs=0.05), (p, t, h)

    def test_physical_comb_with_dyadic_denominator(self, params21):
        # the full comb needs the eta part to outgrow the bounded lattice
        # transient; at p = 3 the coupling is strong enough by l ~ 2^10
        for h in (1, 2):
            q = Fraction(1, (1 << h) * 3)
            k = params21.wave_vector(q)
            sizes = [1 << j for j in range(10, 23)]
            fit = diffract.fitted_alpha(k, sizes, params21)
            assert fit.alpha == pytest.approx(alpha_exact(3), abs=0.05)


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
