"""Rarefied sums, the transfer matrix and its spectrum, profiles."""

import cmath
import decimal
import math
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import circulant

from tmqc import diffract, quadfield, rareclass
from tmqc.rareclass import (
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
                vec = rarefied_vector(p, int(n))  # checked in __init__
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
        # the oracle refuses what the production route refuses
        for route in (rarefied_sum, rarefied_sum_direct):
            with pytest.raises(ValueError, match="n must be >= 0"):
                route(3, 0, -4)

    def test_series_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match=r"residue i must lie in \[0, p\)"):
            rarefied_series(3, 5, 6)
        with pytest.raises(ValueError, match="n must be >= 0"):
            rarefied_series(3, 0, -1)
        with pytest.raises(ValueError, match="odd"):
            rarefied_series(4, 0, 6)
        assert rarefied_series(3, 2, 0).shape == (0,)


def _svec_by_inverse_dft(p, n):
    """S_{p,i}(n) = (1/p) sum_t T_n(t/p) e^{2 pi i i t / p}, with the sign
    sequence sums T_n from the O(log n) block sums; not rounded."""
    sums = [diffract._unscale(diffract._block_sums(Fraction(t, p), n)[1]) for t in range(p)]
    return [
        sum(sums[t] * np.exp(2j * np.pi * i * t / p) for t in range(p)) / p
        for i in range(p)
    ]


def _order_of_two(p):
    """The multiplicative order of 2 mod any odd p."""
    s, x = 1, 2 % p
    while x != 1:
        s, x = s + 1, 2 * x % p
    return s


def _table(p, count, dtype=np.int64, start=None):
    """Rows 0..count-1 of the doubling table from the unit row in `dtype` (or
    from `start`), as one (count, p) array."""
    start = np.eye(1, p, dtype=dtype)[0] if start is None else start
    return np.fromiter(rareclass._doubling_rows(p, count, start), (start.dtype, p), count)


def _read_at(p, j, n, ks=0):
    """(S_{p,j}(n), S_{p,j}(2^ks n)) through the profile's reader: int64 rows
    of the doubling table, and exact rows e + ks read at n's own offsets."""
    top = n.bit_length()
    exact = _table(p, ks + top, object)[ks:]
    raw, refined = rareclass._read_samples(p, j, [n], _table(p, top), exact)
    return int(raw[0]), int(refined[0])


class TestDoublingTable:
    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(p=st.integers(1, 100).map(lambda k: 2 * k + 1), n=st.integers(0, (1 << 62) - 1))
    @example(p=201, n=(1 << 62) - 1)
    @example(p=105, n=(1 << 61) + 12345)
    def test_table_matches_digit_recursion(self, p, n):
        expected = rareclass._svec(p, n)
        assert rareclass._table_vector(p, n) == expected
        # the reader at every residue j at once, one copy of n per j
        lo = _table(p, n.bit_length())
        raw, refined = rareclass._read_samples(p, np.arange(p), [n] * p, lo, lo)
        assert raw.tolist() == refined.tolist() == expected

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(data=st.data(), p=st.integers(1, 100).map(lambda k: 2 * k + 1),
           k=st.integers(0, 3), n=st.integers(0, (1 << 62) - 1))
    def test_refined_read_matches_digit_recursion(self, data, p, k, n):
        # 2^s = 1 mod p, so S(2^(ks) n) reads rows e + ks at n's own offsets
        ks = k * _order_of_two(p)
        expected = rareclass._svec(p, n << ks)
        assert rareclass._table_vector(p, n << ks) == expected
        j = data.draw(st.integers(0, p - 1))
        assert _read_at(p, j, n, ks) == (rareclass._svec(p, n)[j], expected[j])

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(p=st.integers(1, 100).map(lambda k: 2 * k + 1), j=st.integers(0, 200),
           ks=st.lists(st.integers(1, 62), min_size=1, max_size=4),
           extra=st.lists(st.integers(1, (1 << 62) - 1), max_size=4))
    @example(p=201, j=200, ks=[62, 1], extra=[])
    def test_batched_read_matches_digit_recursion(self, p, j, ks, extra):
        # one batch mixing 1, 2^k, 2^k - 1 and 2^62 - 1: exact int64 sums
        j %= p
        ns = [1, (1 << 62) - 1, *(1 << k for k in ks), *((1 << k) - 1 for k in ks), *extra]
        lo = _table(p, 63)
        raw, _ = rareclass._read_samples(p, j, ns, lo, lo)
        assert raw.dtype == np.int64
        assert raw.tolist() == [rareclass._svec(p, n)[j] for n in ns]

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(p=st.integers(1, 25).map(lambda k: 2 * k + 1),
           ns=st.lists(st.integers(1, (1 << 40) - 1), min_size=1, max_size=3))
    def test_table_matches_inverse_dft(self, p, ns):
        for n in ns:
            row = rareclass._table_vector(p, n)
            approx = _svec_by_inverse_dft(p, n)
            assert max(abs(a - v) for a, v in zip(approx, row)) < 0.25
            assert [round(a.real) for a in approx] == row

    def test_short_samples_and_zero(self):
        for n in (0, 1, 2, 3, 1 << 40, 5):
            expected = rareclass._svec(7, n)
            assert rareclass._table_vector(7, n) == expected
            assert [_read_at(7, j, n)[0] for j in range(7)] == expected

    def test_reads_n_from_2_63(self):
        # the exact object rows read any n; the int64 reader refuses n >= 2^63
        # rather than wrap
        for n in (1 << 63, (1 << 100) + 12345):
            assert rareclass._table_vector(3, n) == rareclass._svec(3, n)
            assert rarefied_sum(9, 4, n) == rareclass._svec(9, n)[4]
        lo = _table(3, 64, object)
        for ns in ([1 << 63], [5, (1 << 63) + 7], [1 << 70]):
            with pytest.raises(ValueError, match=r"below 2\^63"):
                rareclass._read_samples(3, 0, ns, lo, lo)

    def test_corrupted_row_fails_row_sum(self, monkeypatch):
        # a rotate step whose first entry is off by one, so row 1 sums to 1:
        # the exact vector refuses it at its set bit 1, the profile at its
        # int64 table's row sums
        real_rotate = rareclass._rotate
        monkeypatch.setattr(rareclass, "_rotate",
                            lambda q, c: real_rotate(q, c) - np.eye(1, len(q), dtype=q.dtype)[0])
        for build in (lambda: rareclass._table_vector(5, 2), lambda: fractal_profile(5, 0, 8, 4)):
            with pytest.raises(ArithmeticError, match="doubling row 1 at p=5 sums to 1"):
                build()


class TestRarefiedRows:
    @pytest.mark.parametrize("p, limit", [(3, 200), (9, 150), (137, 400)])
    def test_rows_match_direct_sums(self, p, limit):
        cells = list(rarefied_rows(p, limit))
        assert len(cells) == limit
        row = [0] * p
        for n, (i, value) in enumerate(cells, 1):
            assert i == (n - 1) % p
            row[i] = value
            assert row == [rarefied_sum_direct(p, r, n) for r in range(p)]

    def test_zero_limit(self):
        assert list(rarefied_rows(5, 0)) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(rarefied_rows(4, 10))
        with pytest.raises(ValueError):
            list(rarefied_rows(3, -1))


def _profile_by_oracles(p, j, horizon_exponent, resolution):
    """The profile's grid and raw samples by the digit recursion, with the
    vector S(n) of every sample (x, raw, n and S sorted by x)."""
    period_bits = profile_period_factor(p) * _order_of_two(p)
    beta = scaling_exponents(p).beta
    xs, raws, ns, vecs = [], [], [], []
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
            xs.append(math.log(n) / (period_bits * math.log(2.0)) % 1.0)
            raws.append(sv[j] / float(n) ** beta)
            ns.append(n)
            vecs.append(sv)
    order = np.argsort(np.array(xs))
    return (np.array(xs)[order], np.array(raws, dtype=float)[order],
            np.array(ns, dtype=np.int64)[order], [vecs[i] for i in order])


def _applied(mat, vec, k):
    """M^k vec, exact: k applications of the transfer matrix."""
    for _ in range(k):
        vec = mat.apply(vec)
    return vec


def _apply_fft(column, vec):
    """M vec in floats, M the circulant with this column: the apply loop at
    primes where the exact O(p^2) product is too slow."""
    return np.fft.irfft(np.fft.rfft(column) * np.fft.rfft(vec), n=len(vec))


def _lambda1_power(p, k):
    return 2.0 ** (k * rareclass._prime_spectrum(p).log2_lambda1)


# applications of M after which M^k S / lambda_1^k is within 1e-12 of
# max |psi| of the projection Pi S (exact for P1 and P23)
_APPLIES = {3: 1, 7: 4, 17: 7, 41: 4, 43: 40}
_PSI_TOL = 1e-12


class TestProfileBitIdentity:
    """x, raw and n of a profile are bit-identical to the digit recursion;
    its values, (Pi S(n))_j / n^beta, lie within 1e-12 of max |psi| of the
    apply loop M^k S(n) / (lambda_1^k n^beta) and of `profile_value`."""

    # P1, P23, P21, P21, Other
    CASES = [(3, 24, 64), (7, 30, 64), (17, 48, 64), (41, 40, 16), (43, 30, 64)]

    @pytest.mark.parametrize("p, horizon, resolution", CASES)
    def test_fractal_profile_matches_apply_loop(self, p, horizon, resolution):
        mat, k = transfer_matrix(p), _APPLIES[p]
        for j in (0, 1, p - 1):
            prof = fractal_profile(p, j, horizon, resolution=resolution)
            x, raw, n, vecs = _profile_by_oracles(p, j, horizon, resolution)
            assert np.array_equal(prof.x, x)
            assert np.array_equal(prof.raw, raw)
            assert np.array_equal(prof.n_samples, n)
            if j == 0:      # the samples are the same for every j
                applied = np.array([_applied(mat, v, k) for v in vecs]) / _lambda1_power(p, k)
                applied /= (n.astype(float) ** prof.beta)[:, None]
            scale = np.abs(prof.values).max()
            assert np.abs(prof.values - applied[:, j]).max() <= _PSI_TOL * scale

    @pytest.mark.parametrize("p", [3, 7, 17, 41, 43])
    def test_profile_value_matches_apply_loop(self, p):
        mat, k = transfer_matrix(p), _APPLIES[p]
        for n in (1, 6, 1001, (1 << 45) + 3, (1 << 70) + 12345):
            refined = _applied(mat, rareclass._svec(p, n), k)
            nb = float(n) ** mat.exponents.beta
            expected = np.array(refined) / (_lambda1_power(p, k) * nb)
            got = np.array([rareclass.profile_value(p, j, n) for j in range(p)])
            assert np.abs(got - expected).max() <= _PSI_TOL * np.abs(expected).max()

    @pytest.mark.parametrize("p", [3, 7, 17, 137])  # P1, P23, P21, P21
    def test_refined_dot_equals_the_generator(self, p):
        # the projected rows pi * Q_e, read by the batched reader at n's
        # offsets, give Pi S(n) (pi convolved with the digit recursion's
        # vector, exactly in rationals) for n up to 2^63 - 1; past it the
        # exact table vector and `profile_value` do
        pi = rareclass._projector(rareclass._prime_spectrum(p))
        beta = rareclass._prime_spectrum(p).exponents.beta
        ns = [1, 2, 6, 1001, (1 << 45) + 3, (1 << 62) - 1, (1 << 63) - 1]
        far = (1 << 70) + 12345
        lo, hi = _table(p, 63), _table(p, 63, start=np.array(pi))
        vecs = {n: rareclass._svec(p, n) for n in [*ns, far]}
        assert rareclass._table_vector(p, far) == vecs[far]
        for j in sorted({*range(0, p, max(1, p // 9)), p - 1}):
            exact = {n: sum(Fraction(pi[(j - i) % p]) * v for i, v in enumerate(sv))
                     for n, sv in vecs.items()}
            raw, refined = rareclass._read_samples(p, j, ns, lo, hi)
            for n, got_raw, got in zip(ns, raw.tolist(), refined.tolist()):
                assert got_raw == vecs[n][j]
                assert abs(got - exact[n]) <= 1e-13 * max(1, max(map(abs, vecs[n])))
            nb = float(far) ** beta
            got = rareclass.profile_value(p, j, far)
            assert abs(got - float(exact[far]) / nb) <= 1e-13 * max(map(abs, vecs[far])) / nb

    @pytest.mark.parametrize("p, horizon", [(3, 24), (7, 30), (17, 48), (137, 40)])
    def test_profile_value_matches_fractal_profile(self, p, horizon):
        for j in (0, p // 2, p - 1):
            prof = fractal_profile(p, j, horizon, resolution=16)
            got = np.array([rareclass.profile_value(p, j, n) for n in prof.n_samples.tolist()])
            assert np.abs(got - prof.values).max() <= _PSI_TOL * np.abs(prof.values).max()

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(p=st.sampled_from([q for q in range(3, 212) if quadfield.is_prime(q)]),
           j=st.integers(0, 210), n=st.integers(1, (1 << 62) - 1))
    @example(p=3, j=2, n=(1 << 62) - 1)         # P1
    @example(p=7, j=3, n=(1 << 61) + 5)         # P23
    @example(p=17, j=5, n=(1 << 62) - 1)        # P21
    @example(p=43, j=11, n=(1 << 62) - 1)       # Other
    @example(p=127, j=100, n=(1 << 60) + 1)     # Other, 18 cosets
    def test_samples_match_profile_value(self, p, j, n):
        # odd primes up to 211 of every class, to the horizon of an n < 2^62
        j %= p
        prof = fractal_profile(p, j, n.bit_length(), resolution=16)
        got = np.array([rareclass.profile_value(p, j, m) for m in prof.n_samples.tolist()])
        assert np.abs(got - prof.values).max() <= _PSI_TOL * np.abs(prof.values).max()

    def test_samples_never_apply_the_matrix(self, monkeypatch):
        # the projected values are read off the two tables: no apply call,
        # and no row at or above the bit length of the largest sample
        calls, rows, reads = [], [], []
        real_apply, real_rows = rareclass.TransferMatrix.apply, rareclass._doubling_rows
        real_read = rareclass._read_samples
        monkeypatch.setattr(rareclass.TransferMatrix, "apply",
                            lambda self, vec: calls.append(1) or real_apply(self, vec))
        monkeypatch.setattr(rareclass, "_doubling_rows",
                            lambda p, count, start: rows.append(count) or real_rows(p, count, start))
        monkeypatch.setattr(rareclass, "_read_samples", lambda p, j, ns, lo, hi: reads.append(
            (len(ns), type(lo), type(hi))) or real_read(p, j, ns, lo, hi))
        prof = fractal_profile(17, 0, 40, resolution=64)
        assert len(prof.n_samples) > 0 and calls == []
        top = int(prof.n_samples.max()).bit_length()
        assert rows == [top] * 2
        # one batched read of every sample, off int64 and float64 rows that
        # stream in as they are built, never as whole tables
        assert [(k, np.ndarray in (lo, hi)) for k, lo, hi in reads] == [
            (len(prof.n_samples), False)]
        assert prof.raw.dtype == prof.values.dtype == np.float64
        assert not np.array_equal(prof.values, prof.raw)

    def test_refinement_from_the_log2_moduli(self):
        # the projector's column against its definition: D, the t whose
        # orbit sum of log2 |2 sin(pi t 2^k / p)| is the largest, by a scan
        for p in (3, 5, 7, 17, 41, 43, 137, 8191):   # P1, P1, P23, P21, P21, Other
            s = _order_of_two(p)
            t = np.arange(1, p)
            logs = sum(np.log2(np.abs(2 * np.sin(np.pi * (t * pow(2, k, p) % p) / p)))
                       for k in range(s))
            dominant = t[logs >= logs.max() - 1e-9]
            i = np.arange(p)[:, None]
            expected = np.cos(2 * np.pi * (i * dominant % p) / p).sum(axis=1) / p
            pi = np.array(rareclass._projector(rareclass._prime_spectrum(p)))
            assert np.abs(pi - expected).max() < 1e-13, p
            # Pi is a projector: pi * pi = pi, as a cyclic convolution
            assert np.abs(_apply_fft(pi, pi) - pi).max() < 1e-13, p
        # lambda_1 is beyond the float range from p = 99961 on; pi is not
        for p in (33289, 99961):
            pi = rareclass._projector(rareclass._prime_spectrum(p))
            assert all(map(math.isfinite, pi)) and pi[0] == pytest.approx((p - 1) / (2 * p))

    @pytest.mark.parametrize("p, k", [(3, 1), (7, 4), (17, 7), (43, 40), (8191, 80)])
    def test_apply_loop_converges_to_the_projection(self, p, k):
        # P1 and P23 exactly (M = 3 Pi at p = 3, M^4 = 49 Pi at p = 7); P21
        # and Other geometrically, at the rate of the next modulus: 0.576 at
        # p = 8191, where k = 40 leaves 2.6e-10 of max |psi| and k = 80 the
        # rounding of the float loop
        spec = rareclass._prime_spectrum(p)
        column = rareclass._svec(p, 1 << spec.s)
        js = sorted({*range(0, p, max(1, p // 50)), p - 1})
        for n in (1, 6, 1001, (1 << 45) + 3):
            sv = rareclass._svec(p, n)
            nb = float(n) ** spec.exponents.beta
            got = np.array([rareclass.profile_value(p, j, n) for j in js])
            if p in (3, 7):
                lam = p ** (k // 2 if p == 7 else k)      # lambda_1^k, an integer
                refined = _applied(transfer_matrix(p), sv, k)
                assert [p * v for v in refined] == [lam * (p * v - sum(sv)) for v in sv]
                expected = np.array(refined) / (lam * nb)
            else:
                vec = np.array(sv, dtype=float)
                for _ in range(k):
                    vec = _apply_fft(np.array(column, dtype=float), vec) / 2.0 ** spec.log2_lambda1
                expected = vec / nb
            assert np.abs(got - expected[js]).max() <= _PSI_TOL * np.abs(expected).max()

    def test_other_class_profile_time_and_memory(self):
        # p = 8191 (Other class): 448 samples of 49 bits over 49 exact and 49
        # projected rows of 8191 entries
        start = time.perf_counter()
        rareclass._svec(8191, (1 << 48) - 1)
        svec_s = time.perf_counter() - start
        start = time.perf_counter()
        prof = fractal_profile(8191, 0, 48, resolution=512)
        elapsed = time.perf_counter() - start
        assert len(prof.n_samples) == 448
        assert elapsed < max(0.3, 10 * svec_s)
        tracemalloc.start()
        try:
            fractal_profile(8191, 0, 48, resolution=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    def test_rows_are_read_as_they_are_built(self):
        # 76 samples of up to 62 bits at p = 8191: whole tables would hold
        # 62 x 8191 x 16 bytes = 8.1 MB (9.4 MB traced); each row's entries at
        # the samples' offsets take 62 x 76 x 24 bytes, so the peak is O(HK + p)
        tracemalloc.start()
        try:
            prof = fractal_profile(8191, 3, 62, resolution=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(prof.n_samples) == 76 and int(prof.n_samples.max()).bit_length() == 62
        assert peak < 4 << 20

    def test_horizon_above_62_is_refused(self):
        with pytest.raises(ValueError, match=r"2\^62"):
            fractal_profile(3, 0, 63, resolution=4)

    def test_profile_value_refuses_p_above_the_spectrum_limit(self):
        # a prime above 2^23 is refused before any O(p) table is built
        with pytest.raises(ValueError, match=r"2\^23"):
            rareclass.profile_value(8388617, 0, 5)


class TestTransferMatrix:
    def test_p3_entries(self):
        mat = transfer_matrix(3)
        assert mat.s == 2
        assert mat.column == (2, -1, -1)
        # circulant structure
        assert circulant(mat.column)[1].tolist() == [-1, 2, -1]

    def test_recursion_example(self):
        mat = transfer_matrix(3)
        s5 = [rarefied_sum_direct(3, i, 5) for i in range(3)]
        s20 = [rarefied_sum_direct(3, i, 20) for i in range(3)]
        assert mat.apply(s5) == s20

    def test_p7_column_balances(self):
        mat = transfer_matrix(7)
        assert mat.s == 3
        assert sum(mat.column) == 0

    def test_rejects_composite(self):
        for p in (9, 2, 1):
            with pytest.raises(ValueError, match="odd prime"):
                transfer_matrix(p)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(data=st.data(),
           p=st.sampled_from([q for q in range(3, 258) if quadfield.is_prime(q)]))
    def test_apply_is_the_dense_circulant_product(self, data, p):
        mat = transfer_matrix(p)
        vec = data.draw(st.lists(st.integers(-(1 << 200), 1 << 200), min_size=p, max_size=p))
        # the dense M in Python ints (object dtype): its column entries reach
        # 2^s / p, beyond int64 for s > 63
        dense = circulant(np.array(mat.column, dtype=object)).tolist()
        assert mat.apply(vec) == [sum(a * b for a, b in zip(row, vec)) for row in dense]

    def test_apply_refuses_a_vector_of_the_wrong_length(self):
        mat = transfer_matrix(3)
        for vec in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(ValueError, match="p=3 entries"):
                mat.apply(vec)

    def test_holds_o_p_integers(self):
        tracemalloc.start()
        try:
            mat = transfer_matrix(8191)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(mat.column) == 8191
        # a dense p x p table of Python ints would take hundreds of MB
        assert peak < 16 << 20

    def test_corrupt_column_is_arithmetic_error(self, monkeypatch):
        # one wrong entry of the column S(2^s) from the digit recursion: the
        # doubling table's row s disagrees
        real = rareclass._svec
        monkeypatch.setattr(rareclass, "_svec", lambda p, n: [real(p, n)[0] + 1] + real(p, n)[1:])
        with pytest.raises(ArithmeticError, match="p=7"):
            transfer_matrix(7)

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


def _coset_eigenvalue(p, t):
    """Test-local oracle of the coset spectrum: the circulant eigenvalue at
    character t, prod over w in t<2> of (1 - zeta^w), zeta = exp(-2 pi i / p),
    as the direct complex product, one power per orbit step.  Its modulus
    equals |xi| of the matching coset."""
    zeta = cmath.exp(-2j * math.pi / p)
    w, mu = t % p, 1.0 + 0j
    for _ in range(rareclass.order_of_two(p)):
        mu *= 1.0 - zeta**w
        w = 2 * w % p
    return mu


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
# the 1476 P1, P21 and P23 primes below 20000
_CLOSED_FORM_PRIMES_20000 = [
    p for p in quadfield.primes_up_to(20_000)[1:]
    if quadfield.classify_prime(p) is not quadfield.PrimeClass.OTHER
]


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
                oracle = math.log2(abs(_coset_eigenvalue(p, min(row)))) / sp.s
                assert abs(lg / sp.s - oracle) <= 1e-12, (p, min(row))

    def test_char_poly_moduli(self):
        for p in (3, 5, 11):
            mat = transfer_matrix(p)
            numeric = np.sort(np.abs(np.linalg.eigvals(circulant(mat.column).astype(float))))
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


def _dominant_row(sp):
    """The coset spectrum's dominant row: the largest modulus, ties to the
    smallest member, as `_prime_spectrum` reads it."""
    top = np.flatnonzero(sp.log2_moduli == sp.log2_moduli.max())
    return top[sp.cosets[top].min(axis=1).argmin()]


class TestCosetSpectrum:
    def test_cosets_match_the_residue_scan(self):
        for p in _ODD_PRIMES_2000[:80]:
            cosets = rareclass._coset_spectrum(p).cosets.tolist()
            assert sorted(tuple(sorted(row)) for row in cosets) == _cosets_by_scan(p), p

    def test_scaling_exponents_match_closed_forms(self):
        # P1, P21 and P23 primes take their exponents from the closed forms,
        # bit for bit, and the coset spectrum is the oracle: its sum of p - 1
        # logarithms cancels down to log2 p, so it drifts with p (worst
        # 1.7e-13 relative below 20000, at p = 19949)
        assert len(_CLOSED_FORM_PRIMES_20000) == 1476
        for p in _CLOSED_FORM_PRIMES_20000:
            rec = quadfield.prime_record(p)
            exps = scaling_exponents(p)
            assert (exps.beta, exps.lambda1, exps.lambda2) == (
                rec.beta, 2.0**rec.log2_lambda1, 2.0**rec.log2_lambda2), p
            sp = rareclass._coset_spectrum(p)
            logs = sorted(sp.log2_moduli.tolist(), reverse=True)
            assert abs(logs[0] / sp.s - rec.beta) <= 4e-13 * rec.beta, p
            beta1 = logs[1] / sp.s if len(logs) > 1 and logs[1] > 0.0 else 0.0
            assert abs(exps.beta1 - beta1) <= 4e-13 * rec.beta, p

    def test_period_factor_matches_the_coset_sign(self):
        # r from the class (1 for P1 and P21, 4 for P23) against the sign
        # of the dominant coset: xi = |xi| (-i)^a, a = s + 2 [sign < 0]
        for p in _CLOSED_FORM_PRIMES_20000:
            sp = rareclass._coset_spectrum(p)
            a = (sp.s + (2 if sp.signs[_dominant_row(sp)] < 0 else 0)) % 4
            assert profile_period_factor(p) == (1, 4, 2, 4)[a], p

    @pytest.mark.parametrize("p", [3, 5, 11, 2963, 1000003,       # P1
                                   7, 23, 2927, 999983,           # P23
                                   17, 41, 401, 9049, 199961])    # P21
    def test_closed_forms_to_40_digits(self, p):
        # beta = (log p + 2 h log eps) / ((p - 1) log 2), h = 0 off P21, at
        # 40 digits from the exact unit; every class is within about 2 ulps
        # (P21 reads at most 1.6e-16 here)
        rec = quadfield.prime_record(p)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            num = Decimal(p).ln()
            if rec.cls is quadfield.PrimeClass.P21:
                eps = rec.epsilon
                assert quadfield._norm_form(p, eps.u, eps.v) in (1, -1)
                num += 2 * rec.h * (eps.u + eps.v * (1 + Decimal(p).sqrt()) / 2).ln()
            exact = num / ((p - 1) * Decimal(2).ln())
        assert abs(Decimal(rec.beta) - exact) <= Decimal(2.5e-16) * exact

    @pytest.mark.parametrize("p", [7, 23, 31, 47, 8191])
    def test_order_is_deterministic(self, p):
        first = eigenvalues_explicit(p)
        rareclass._coset_spectrum.cache_clear()
        assert eigenvalues_explicit(p) == first
        sp = rareclass._coset_spectrum(p)
        # the order eigenvalues_explicit reads them in
        order = np.lexsort((sp.cosets.min(axis=1), -sp.log2_moduli))
        rows = [set(row) for row in sp.cosets[order].tolist()]
        logs = sp.log2_moduli[order].tolist()
        assert first == [rareclass._on_axis(sign * 2.0**lg, sp.s)
                         for sign, lg in zip(sp.signs[order].tolist(), logs)]
        for i, row in enumerate(rows):
            j = next(k for k, other in enumerate(rows) if p - min(row) in other)
            # -1 is not in <2> for these p: every coset has a distinct conjugate
            assert abs(i - j) == 1, (p, i, j)
            assert logs[i] == logs[j]
            assert (i < j) == (min(row) < min(rows[j]))

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(data=st.data(), p=st.sampled_from(quadfield.primes_up_to(1 << 16)[1:]))
    @example(data=None, p=43)
    @example(data=None, p=8191)
    @example(data=None, p=131071)
    def test_orbit_order_sums_match_the_sorted_rows(self, orbit_log2, data, p):
        sp = rareclass._coset_spectrum(p)
        logs, m = sp.log2_moduli, len(sp.log2_moduli)
        oracle = orbit_log2(np.array(sp.cosets), p)
        assert np.all(np.abs(logs - oracle) <= 1e-13 * np.maximum(1.0, np.abs(oracle))), p
        # conjugate cosets tie bit for bit: -C is C itself (s even) or row i + m/2
        for i, row in enumerate(sp.cosets.tolist()):
            k = i if sp.s % 2 == 0 else (i + m // 2) % m
            assert {p - w for w in row} == set(sp.cosets[k].tolist()) and logs[k] == logs[i]
        if m > 2:       # Other: beta_t is t's coset sum, beta the dominant one
            rows = [_dominant_row(sp)]
            if data is not None:
                rows.append(data.draw(st.integers(0, m - 1)))
            for i in rows:
                for t in sp.cosets[i, :3].tolist():
                    assert residue_exponent(p, t) == float(logs[i]) / sp.s, (p, t)
            assert residue_exponent(p, int(sp.cosets[rows[0], 0])) == scaling_exponents(p).beta
        if p < 2000:    # eigenvalues_explicit sorts as the oracle would
            order = np.lexsort((sp.cosets.min(axis=1), -oracle))
            assert eigenvalues_explicit(p) == [
                rareclass._on_axis(sign * rareclass._exp2(lg), sp.s)
                for sign, lg in zip(sp.signs[order].tolist(), logs[order].tolist())]

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


class TestMaxOrbitExponent:
    def test_primes_match_the_coset_spectrum(self):
        for p in quadfield.primes_up_to(2000)[1:]:
            assert rareclass.max_orbit_exponent(p) == pytest.approx(
                scaling_exponents(p).beta, abs=1e-12), p

    def test_composites_take_every_residue(self):
        # t = p/3 reduces to 1/3, whose orbit tops the spectrum
        for p in (9, 15, 21, 45, 75, 3 * 8191):
            assert rareclass.max_orbit_exponent(p) == pytest.approx(
                math.log(3) / (2 * math.log(2)), abs=1e-14)
        # p = 25: the largest orbit exponent over residues of 5 and of 25
        betas = [np.mean([math.log2(2 * math.sin(math.pi * (t * 2**j % 25) / 25))
                          for j in range(20)]) for t in range(1, 25)]
        assert rareclass.max_orbit_exponent(25) == pytest.approx(max(betas), abs=1e-13)

    def test_refusals(self):
        cap = rareclass.MAX_SPECTRUM_P
        for p in (cap + 1, 3000000021):
            with pytest.raises(ValueError, match=f"p={p}.*{cap}"):
                rareclass.max_orbit_exponent(p)
        for p in (1, 2, 10, -3):
            with pytest.raises(ValueError, match="odd"):
                rareclass.max_orbit_exponent(p)


class TestProfiles:
    def test_period_factor(self):
        assert profile_period_factor(3) == 1
        assert profile_period_factor(17) == 1
        assert profile_period_factor(7) == 4
        # the smallest r in (1, 2, 4) with xi^r real and positive, for the
        # dominant eigenvalue xi; it is finite here: |xi| = p where 2
        # generates (Z/p)^*, else |xi| <= 2^s <= 2^999
        for p in _ODD_PRIMES_2000:
            xi = eigenvalues_explicit(p)[0]
            unit = xi / abs(xi)
            r = next(r for r in (1, 2, 4)
                     if abs((unit**r).imag) <= 1e-9 and (unit**r).real > 0)
            assert profile_period_factor(p) == r, p

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
        assert prof.values.min() <= 1e-9 and prof.values.max() >= -1e-9

    def test_p3_residues_0_1_avoid_zero(self):
        p0 = fractal_profile(3, 0, 14, resolution=64)
        p1 = fractal_profile(3, 1, 14, resolution=64)
        assert p0.bounds[0] > 0
        assert p1.bounds[1] < 0

    def test_profile_periodicity_on_fiber(self):
        # n and n * 2^{r s} live on one fiber: the projected values agree
        # up to rounding
        for n in (1, 5, 23, 118, 1001):
            for j in range(3):
                a = rareclass.profile_value(3, j, n)
                b = rareclass.profile_value(3, j, 4 * n)
                assert a == pytest.approx(b, abs=1e-12)
            for j in (0, 3):
                a = rareclass.profile_value(7, j, n)
                b = rareclass.profile_value(7, j, n << 12)
                assert a == pytest.approx(b, abs=1e-12)
        # P21 too, where S(2^(ks) n) / lambda_1^k only tends to the profile
        for n in (3, 50):
            a = rareclass.profile_value(17, 0, n)
            b = rareclass.profile_value(17, 0, n << 8)
            assert a == pytest.approx(b, abs=1e-12)

    def test_p21_remainder_is_damped(self):
        # refined and raw samples differ by the bounded remainder only
        prof = fractal_profile(17, 0, 20, resolution=32)
        assert np.max(np.abs(prof.values - prof.raw) * prof.n_samples**prof.beta) < 260.0
        assert prof.remainder_constant < 260.0


class TestCoquet:
    """Coquet's split S_{3,0}(n) = (S_{3,0}(4n) + eps)/3 at p = 3: the profile
    part S_{3,0}(4n)/(3 n^beta) is `profile_value(3, 0, n)`, and criterion 02
    checks eps on the scan's sums up to n = 10^5."""

    def test_first_values(self):
        assert 3 * rarefied_sum(3, 0, 1) - rarefied_sum(3, 0, 4) == 1
        assert rareclass.profile_value(3, 0, 1) == pytest.approx(2.0 / 3.0)

    def test_remainder_set_small_range(self):
        # the remainder is exactly -eta_n on odd n and 0 on even n
        for n in range(1, 3000):
            eps = 3 * rarefied_sum(3, 0, n) - rarefied_sum(3, 0, 4 * n)
            assert eps == (0 if n % 2 == 0 else -tm_sign(n)), n

    def test_fiber_constancy_at_powers_of_four(self):
        base = rareclass.profile_value(3, 0, 1)
        for m in (4, 16, 64, 256):
            assert rareclass.profile_value(3, 0, m) == pytest.approx(base, rel=1e-12)


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

    @pytest.mark.parametrize("r1, r2", [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3), (4, 1)])
    def test_dominant_exponent_is_the_orbit_formula(self, r1, r2):
        # p = 15 ... 405: the prime 3's exponent log 3 / (2 log 2), within 1 ulp
        rep = grabner_composite(r1, r2, 2)
        assert rep.dominant_exponent == rareclass.max_orbit_exponent(rep.p)
        assert abs(rep.dominant_exponent - rep.dominant_target) <= math.ulp(rep.dominant_target)
