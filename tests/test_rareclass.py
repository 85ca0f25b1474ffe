"""Rarefied sums, the transfer matrix and its spectrum, profiles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmqc import diffract, quadfield, rareclass
from tmqc.rareclass import (
    coquet_decompose,
    coset_eigenvalue,
    cosets_of_two,
    eigenvalues_explicit,
    fractal_profile,
    grabner_composite,
    newman_check,
    positivity_scan,
    profile_period_factor,
    rarefied_series,
    rarefied_sum,
    rarefied_rows,
    rarefied_sum_direct,
    rarefied_vector,
    residue_exponent,
    scaling_exponents,
    transfer_matrix,
)
from tmqc.tmcore import tm_sign

BETA3 = math.log(3) / math.log(4)


class TestRarefiedSums:
    def test_examples(self):
        assert rarefied_sum(3, 0, 1) == 1
        assert rarefied_sum(3, 0, 4) == 2
        assert rarefied_sum(7, 2, 0) == 0

    def test_recursion_matches_direct_exhaustive(self):
        for p in (3, 5, 7, 9):
            for i in range(p):
                for n in range(0, 200):
                    assert rarefied_sum(p, i, n) == rarefied_sum_direct(p, i, n)

    def test_recursion_matches_direct_random(self):
        # vectorized direct summation as the oracle at larger n: popcount
        # signs of the progression members i, i + p, ... below n only
        from tmqc.tmcore import signs_of

        def direct_numpy(p, i, n):
            total = 0
            span = p << 20  # 2^20 members per chunk
            for lo in range(i, n, span):
                members = np.arange(lo, min(lo + span, n), p)
                total += int(signs_of(members).sum(dtype=np.int64))
            return total

        rng = np.random.default_rng(2)
        for p in (3, 5, 7, 9, 11, 13, 15):
            for n in rng.integers(1, 1 << 22, size=6):
                n = int(n)
                i = int(rng.integers(0, p))
                assert rarefied_sum(p, i, n) == direct_numpy(p, i, n)
        # spot checks high up the range
        for n in (int(2**30 - 17), int(2**30 + 5)):
            assert rarefied_sum(3, 1, n) == direct_numpy(3, 1, n)

    def test_vector_examples(self):
        assert rarefied_vector(3, 3).entries == (1, -1, -1)
        assert rarefied_vector(3, 0).entries == (0, 0, 0)
        assert sum(rarefied_vector(5, 16).entries) == 0

    def test_column_sum_identity(self):
        rng = np.random.default_rng(4)
        for p in (3, 5, 7, 11):
            for n in rng.integers(0, 1 << 20, size=20):
                vec = rarefied_vector(p, int(n))  # checked in __post_init__
                expected = sum(tm_sign(m) for m in range(int(n))) if n < 4096 else None
                if expected is not None:
                    assert sum(vec.entries) == expected

    def test_series_matches_scalar(self):
        for p in (3, 7):
            for i in (0, p - 1):
                series = rarefied_series(p, i, 500)
                for n in (1, 2, 17, 100, 499, 500):
                    assert series[n - 1] == rarefied_sum(p, i, n)

    def test_series_chunking_consistent(self):
        a = rarefied_series(5, 2, 5000, chunk=256)
        b = rarefied_series(5, 2, 5000)
        assert np.array_equal(a, b)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            rarefied_sum(4, 0, 10)
        with pytest.raises(ValueError):
            rarefied_sum(3, 3, 10)


def _svec_by_inverse_dft(p, n):
    """S_{p,i}(n) = (1/p) sum_t T_n(t/p) e^{2 pi i i t / p}, with the sign
    sequence sums T_n from the O(log n) block sums; not rounded."""
    sums = [diffract._unscale(diffract._block_sums(Fraction(t, p), n)[1]) for t in range(p)]
    return [
        sum(sums[t] * np.exp(2j * np.pi * i * t / p) for t in range(p)) / p
        for i in range(p)
    ]


class TestBatchedRecursion:
    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(p=st.integers(1, 50).map(lambda k: 2 * k + 1),
           ns=st.lists(st.integers(0, (1 << 62) - 1), min_size=1, max_size=6))
    def test_batch_matches_scalar_recursion(self, p, ns):
        batch = rareclass._svec_batch(p, ns)
        assert batch.shape == (len(ns), p)
        assert batch.tolist() == [rareclass._svec(p, n) for n in ns]

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(p=st.integers(1, 25).map(lambda k: 2 * k + 1),
           ns=st.lists(st.integers(1, (1 << 40) - 1), min_size=1, max_size=3))
    def test_batch_matches_inverse_dft(self, p, ns):
        for n, row in zip(ns, rareclass._svec_batch(p, ns).tolist()):
            approx = _svec_by_inverse_dft(p, n)
            assert max(abs(a - v) for a, v in zip(approx, row)) < 0.25
            assert [round(a.real) for a in approx] == row

    def test_short_samples_and_zero(self):
        ns = [0, 1, 2, 3, 1 << 40, 5]
        assert rareclass._svec_batch(7, ns).tolist() == [rareclass._svec(7, n) for n in ns]

    def test_corrupted_entry_fails_column_sum(self, monkeypatch):
        real = rareclass._check_column_sums

        def corrupted(n_arr, vecs):
            vecs[1, 0] += 1
            real(n_arr, vecs)

        monkeypatch.setattr(rareclass, "_check_column_sums", corrupted)
        with pytest.raises(ArithmeticError, match="prefix-sum identity at n=10"):
            rareclass._svec_batch(5, [3, 10, 17])

    def test_rejects_n_from_2_63(self):
        with pytest.raises(OverflowError):
            rareclass._svec_batch(3, [1 << 63])


class TestRarefiedRows:
    @pytest.mark.parametrize("p, limit", [(3, 200), (9, 150), (137, 400)])
    def test_rows_match_direct_sums(self, p, limit):
        rows = list(rarefied_rows(p, limit))
        assert len(rows) == limit + 1
        for n in range(limit + 1):
            assert rows[n] == tuple(rarefied_sum_direct(p, i, n) for i in range(p))

    def test_zero_limit(self):
        assert list(rarefied_rows(5, 0)) == [(0,) * 5]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(rarefied_rows(4, 10))
        with pytest.raises(ValueError):
            list(rarefied_rows(3, -1))


def _profile_by_apply(p, j, horizon_exponent, resolution):
    """The per-sample loop that profiles used before the batch: the scalar
    recursion and k applications of M on every sample."""
    mat = transfer_matrix(p, verify_up_to=0)
    beta = mat.exponents.beta
    period_bits = profile_period_factor(p) * mat.s
    k_apps, scale = rareclass._profile_refinement(p, mat.exponents)
    xs, vals, raws, ns = [], [], [], []
    seen = set()
    for idx in range(resolution):
        x0 = idx / resolution
        m = 0
        while (m + x0) * period_bits <= horizon_exponent:
            n = int(2.0 ** ((m + x0) * period_bits))
            m += 1
            if n < 1 or n > 1 << horizon_exponent or n in seen:
                continue
            seen.add(n)
            sv = rareclass._svec(p, n)
            nb = float(n) ** beta
            refined = sv
            for _ in range(k_apps):
                refined = mat.apply(refined)
            xs.append(math.log(n) / (period_bits * math.log(2.0)) % 1.0)
            vals.append(refined[j] / (scale * nb))
            raws.append(sv[j] / nb)
            ns.append(n)
    order = np.argsort(np.array(xs))
    return (np.array(xs)[order], np.array(vals)[order],
            np.array(raws, dtype=float)[order], np.array(ns, dtype=np.int64)[order])


class TestProfileBitIdentity:
    # P1, P23, P21, P21, Other
    CASES = [(3, 24, 64), (7, 30, 64), (17, 48, 64), (41, 40, 16), (43, 30, 64)]

    @pytest.mark.parametrize("p, horizon, resolution", CASES)
    def test_fractal_profile_matches_apply_loop(self, p, horizon, resolution):
        for j in (0, 1, p - 1):
            prof = fractal_profile(p, j, horizon, resolution=resolution)
            x, values, raw, n = _profile_by_apply(p, j, horizon, resolution)
            assert np.array_equal(prof.x, x)
            assert np.array_equal(prof.values, values)
            assert np.array_equal(prof.raw, raw)
            assert np.array_equal(prof.n_samples, n)

    @pytest.mark.parametrize("p", [3, 7, 17, 41, 43])
    def test_profile_value_matches_apply_loop(self, p):
        mat = transfer_matrix(p, verify_up_to=0)
        k_apps, scale = rareclass._profile_refinement(p, mat.exponents)
        for n in (1, 6, 1001, (1 << 45) + 3, (1 << 70) + 12345):
            refined = rareclass._svec(p, n)
            for _ in range(k_apps):
                refined = mat.apply(refined)
            for j in (0, p // 2, p - 1):
                expected = refined[j] / (scale * float(n) ** mat.exponents.beta)
                assert rareclass.profile_value(p, j, n, mat) == expected

    def test_samples_never_apply_the_matrix(self, monkeypatch):
        calls = []
        real = rareclass.TransferMatrix.apply
        monkeypatch.setattr(rareclass.TransferMatrix, "apply",
                            lambda self, vec: calls.append(1) or real(self, vec))
        prof = fractal_profile(17, 0, 40, resolution=64)
        k_apps, _ = rareclass._profile_refinement(17, scaling_exponents(17))
        assert len(calls) == k_apps < len(prof.n_samples)

    def test_horizon_above_62_is_refused(self):
        with pytest.raises(ValueError, match=r"2\^62"):
            fractal_profile(3, 0, 63, resolution=4)


class TestTransferMatrix:
    def test_p3_entries(self):
        mat = transfer_matrix(3)
        assert mat.s == 2
        assert mat.column() == (2, -1, -1)
        # circulant structure
        assert mat.entries[1] == (-1, 2, -1)

    def test_recursion_example(self):
        mat = transfer_matrix(3)
        s5 = [rarefied_sum_direct(3, i, 5) for i in range(3)]
        s20 = [rarefied_sum_direct(3, i, 20) for i in range(3)]
        assert mat.apply(s5) == s20

    def test_p7_column_balances(self):
        mat = transfer_matrix(7)
        assert mat.s == 3
        assert sum(mat.column()) == 0

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            transfer_matrix(9)

    def test_violated_recursion_is_arithmetic_error(self, monkeypatch):
        real = rareclass._svec
        # a constant shift would pass: the rows of M sum to zero
        monkeypatch.setattr(rareclass, "_svec",
                            lambda p, n: [real(p, n)[0] + (n == 6)] + real(p, n)[1:])
        with pytest.raises(ArithmeticError, match="p=3, n=6"):
            transfer_matrix(3, verify_up_to=8)

    def test_violated_column_sum_is_arithmetic_error(self):
        with pytest.raises(ArithmeticError, match="prefix-sum identity"):
            rareclass.RarefiedVector(3, 1, (0, 0, 0))


def _orbit_exponent_fsum(p, t):
    """Test-local oracle for residue_exponent: the orbit t 2^j mod p walked
    in Python, one math.sin per step, summed by math.fsum."""
    s = rareclass.order_of_two(p)
    terms, w = [], t % p
    for _ in range(s):
        r = min(w, p - w)
        terms.append(math.log2(2.0 * math.sin(math.pi * r / p)))
        w = 2 * w % p
    return math.fsum(terms) / s


def _cosets_by_scan(p):
    """The set-and-sort scan over all residues that built the cosets before
    the coset spectrum did."""
    sub, x = [], 1
    while True:
        sub.append(x)
        x = 2 * x % p
        if x == 1:
            break
    seen, cosets = set(), []
    for a in range(1, p):
        if a not in seen:
            cs = sorted(a * w % p for w in sub)
            seen.update(cs)
            cosets.append(tuple(cs))
    return cosets


_ODD_PRIMES_2000 = [p for p in quadfield.primes_up_to(2000) if p > 2]


class TestSpectrumOfM:
    def test_p3_single_coset(self):
        eig = eigenvalues_explicit(3)
        assert len(eig) == 1
        assert eig[0] == pytest.approx(3.0, abs=1e-12)

    def test_product_is_p(self):
        for p in _ODD_PRIMES_2000:
            sp = rareclass._coset_spectrum(p)
            assert math.fsum(sp.log2_moduli.tolist()) == pytest.approx(math.log2(p), abs=1e-10)
            eig = eigenvalues_explicit(p)
            phase = 1 + 0j
            for xi in eig:
                phase *= xi / abs(xi)
            assert phase == 1, p
            assert complex(np.prod(eig)) == pytest.approx(p, rel=1e-9), p

    def test_explicit_matches_circulant_eigenvalue(self):
        # exponents, not moduli: the oracle's own rounding reaches 3e-12
        # relative in the modulus at p = 1523 (s = 1522)
        for p in _ODD_PRIMES_2000:
            sp = rareclass._coset_spectrum(p)
            for row, lg in zip(sp.cosets.tolist(), sp.log2_moduli.tolist()):
                oracle = math.log2(abs(coset_eigenvalue(p, min(row)))) / sp.s
                assert abs(lg / sp.s - oracle) <= 1e-12, (p, min(row))

    def test_char_poly_moduli(self):
        for p in (3, 5, 11):
            mat = transfer_matrix(p, verify_up_to=0)
            numeric = np.sort(np.abs(np.linalg.eigvals(np.array(mat.entries, dtype=float))))
            expected = np.sort(mat.eigenvalue_moduli_with_multiplicity())
            assert np.allclose(numeric, expected, atol=1e-6)

    def test_scaling_exponents(self):
        assert scaling_exponents(3).beta == pytest.approx(math.log(3) / (2 * math.log(2)))
        assert scaling_exponents(5).beta == pytest.approx(math.log(5) / (4 * math.log(2)))
        assert scaling_exponents(7).beta == pytest.approx(math.log(7) / (6 * math.log(2)))
        assert scaling_exponents(3).beta1 == 0.0
        for p in (3, 5, 7, 17, 31):
            e = scaling_exponents(p)
            assert 0.0 < e.beta <= 1.0
            assert 1.0 < e.lambda1 <= 2.0**rareclass.order_of_two(p)

    def test_residue_exponent_depends_on_coset(self):
        # two cosets mod 17: <2> carries the small eigenvalue, 3<2> the large
        b1 = residue_exponent(17, 1)
        b3 = residue_exponent(17, 3)
        assert b3 == pytest.approx(scaling_exponents(17).beta, rel=1e-9)
        assert b1 < 0  # subdominant: |mu| = 1/(4+sqrt(17)) * sqrt(17) < 1
        # constant on cosets
        assert residue_exponent(17, 9) == pytest.approx(b1, rel=1e-12)
        assert residue_exponent(17, 5) == pytest.approx(b3, rel=1e-12)


class TestCosetSpectrum:
    def test_cosets_match_the_residue_scan(self):
        for p in _ODD_PRIMES_2000[:80]:
            assert cosets_of_two(p) == _cosets_by_scan(p), p

    def test_scaling_exponents_match_closed_forms(self):
        for p in _ODD_PRIMES_2000:
            rec = quadfield.prime_record(p)
            if rec.beta is not None:
                assert abs(scaling_exponents(p).beta - rec.beta) <= 1e-12, p

    @pytest.mark.parametrize("p", [7, 23, 31, 47, 8191])
    def test_order_is_deterministic(self, p):
        first = eigenvalues_explicit(p)
        rareclass._coset_spectrum.cache_clear()
        assert eigenvalues_explicit(p) == first
        sp = rareclass._coset_spectrum(p)
        rows = [set(row) for row in sp.cosets.tolist()]
        logs = sp.log2_moduli.tolist()
        for i, row in enumerate(rows):
            j = next(k for k, other in enumerate(rows) if p - min(row) in other)
            # -1 is not in <2> for these p: every coset has a distinct conjugate
            assert abs(i - j) == 1, (p, i, j)
            assert logs[i] == logs[j]
            assert (i < j) == (min(row) < min(rows[j]))

    def test_residue_exponent_at_large_p21_primes(self):
        # |mu_t| underflows at these p: the product route failed or gave nan
        for p, t in ((300017, 131072), (300017, 1), (300569, 3), (600169, 5), (999809, 2)):
            assert quadfield.classify_prime(p) is quadfield.PrimeClass.P21
            beta = residue_exponent(p, t)
            assert math.isfinite(beta)
            assert abs(beta - _orbit_exponent_fsum(p, t)) <= 1e-12, (p, t)

    @pytest.mark.parametrize("p, t, exact", [
        # 40-digit mpmath orbit sums, rounded to 20 digits; t and -t share
        # their centred residues, so they share the value
        (131071, 1, -6.3986488636924205989),
        (131071, 131070, -6.3986488636924205989),
        (131071, 3, -5.0244684134349341700),
        (8191, 8190, -4.4139326712035127669),
        (524287, 1, -7.3933769821842077240),
        (524287, 524286, -7.3933769821842077240),
        (524287, 3, -5.9970073219225650026),
    ])
    def test_residue_exponent_to_a_few_ulps(self, p, t, exact):
        # an uncentred sine loses about p ulps in a term: sin(pi w / p) at
        # w near p (the orbits of -1) or sin(2 pi j / p) at j near p/2
        assert abs(residue_exponent(p, t) - exact) <= 4e-15

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(n=st.integers(3, 10**6), u=st.floats(0.0, 1.0, exclude_max=True))
    def test_residue_exponent_matches_orbit_sum(self, n, u):
        p = n
        while p > 3 and not quadfield.is_prime(p):
            p -= 1
        t = 1 + int(u * (p - 1))
        assert abs(residue_exponent(p, t) - _orbit_exponent_fsum(p, t)) <= 1e-12

    def test_refuses_p_above_the_cap(self):
        cap = rareclass.MAX_SPECTRUM_P
        big = 2**61 - 1
        for fn in (lambda: residue_exponent(big, 1), lambda: scaling_exponents(big),
                   lambda: eigenvalues_explicit(big)):
            with pytest.raises(ValueError, match=f"p={big}.*{cap}"):
                fn()
        assert cap >= 10**6

    def test_rejects_composite(self):
        for fn in (residue_exponent, lambda p, t: scaling_exponents(p)):
            with pytest.raises(ValueError, match="odd prime"):
                fn(21, 1)


class TestProfiles:
    def test_period_factor(self):
        assert profile_period_factor(3) == 1
        assert profile_period_factor(17) == 1
        assert profile_period_factor(7) == 4

    def test_p3_profile_within_closed_interval(self):
        prof = fractal_profile(3, 0, 16, resolution=128)
        lo = (1.0 / 3.0) ** BETA3 * 2.0 * math.sqrt(3.0) / 3.0
        hi = 55.0 / 3.0 * (1.0 / 65.0) ** BETA3
        assert prof.bounds[0] >= lo - 1e-9
        assert prof.bounds[1] <= hi + 1e-9
        # Newman window is much wider and must also hold for the raw samples
        assert prof.raw.min() > 3.0 ** (-BETA3) / 20.0
        assert prof.raw.max() < 5.0 * 3.0 ** (-BETA3)

    def test_p3_residue2_touches_zero(self):
        prof = fractal_profile(3, 2, 16, resolution=128)
        assert prof.touches_zero_or_changes_sign()

    def test_p3_residues_0_1_avoid_zero(self):
        p0 = fractal_profile(3, 0, 14, resolution=64)
        p1 = fractal_profile(3, 1, 14, resolution=64)
        assert p0.bounds[0] > 0
        assert p1.bounds[1] < 0

    def test_profile_periodicity_on_fiber(self):
        # n and n * 2^{r s} live on one fiber: the refined values agree
        # exactly (up to rounding) for the vanishing-remainder classes
        for n in (1, 5, 23, 118, 1001):
            for j in range(3):
                a = rareclass.profile_value(3, j, n)
                b = rareclass.profile_value(3, j, 4 * n)
                assert a == pytest.approx(b, abs=1e-12)
            for j in (0, 3):
                a = rareclass.profile_value(7, j, n)
                b = rareclass.profile_value(7, j, n << 12)
                assert a == pytest.approx(b, abs=1e-12)
        # damped-remainder class: agreement within the refinement tolerance
        for n in (3, 50):
            a = rareclass.profile_value(17, 0, n)
            b = rareclass.profile_value(17, 0, n << 8)
            assert a == pytest.approx(b, abs=1e-8)

    def test_p21_remainder_is_damped(self):
        # refined and raw samples differ by the bounded remainder only
        prof = fractal_profile(17, 0, 20, resolution=32)
        assert np.max(np.abs(prof.values - prof.raw) * prof.n_samples**prof.beta) < 260.0
        assert prof.remainder_constant < 260.0


class TestCoquet:
    def test_first_values(self):
        psi, eps = coquet_decompose(1)
        assert eps == 1
        assert psi == pytest.approx(2.0 / 3.0)

    def test_remainder_set_small_range(self):
        for n in range(1, 3000):
            _, eps = coquet_decompose(n)
            assert eps in (-1, 0, 1)
            # the remainder is exactly -eta_n on odd n and 0 on even n
            expected = 0 if n % 2 == 0 else -tm_sign(n)
            assert eps == expected

    def test_fiber_constancy_at_powers_of_four(self):
        base, _ = coquet_decompose(1)
        for m in (4, 16, 64, 256):
            psi, _ = coquet_decompose(m)
            assert psi == pytest.approx(base, rel=1e-12)


class TestNewman:
    def test_small_horizon(self):
        rep = newman_check(10_000)
        assert rep.violations == 0
        assert rep.min_ratio > rep.lower_bound
        assert rep.max_ratio < rep.upper_bound
        assert rep.min_ratio > 0.4  # far inside the classical window


class TestPositivity:
    def test_p3_and_p5_clean(self):
        assert positivity_scan(3, 10_000).violation_count == 0
        assert positivity_scan(5, 10_000).violation_count == 0

    def test_p7_violates(self):
        rep = positivity_scan(7, 10_000)
        assert rep.violation_count > 100
        assert rep.largest_violation > 500


class TestGrabner:
    def test_exact_first_residual(self):
        rep = grabner_composite(1, 1, 500)
        # direct sums: S_{15,0}(15)=1, S_{3,0}(15)=5, S_{5,0}(15)=3
        assert rarefied_sum_direct(15, 0, 15) == 1
        assert rarefied_sum_direct(3, 0, 15) == 5
        assert rarefied_sum_direct(5, 0, 15) == 3
        assert rep.residual_first == Fraction(1) - Fraction(5, 5) - Fraction(3, 3)

    def test_residual_log_bounded(self):
        rep = grabner_composite(1, 1, 2000)
        assert rep.c_max < 5.0
        assert np.all(np.abs(rep.residuals[1:]) <= rep.c_max * np.log(np.arange(2, 2001)))
