"""Prime classes, fundamental units, L-values and class numbers."""

import math

import numpy as np
import pytest

from tmqc import quadfield, rareclass
from tmqc.quadfield import (
    ClassNumberDriftError,
    PrimeClass,
    class_number,
    classify_prime,
    dirichlet_l_one,
    fundamental_unit,
    is_prime,
    order_of_two,
    prime_record,
    primes_up_to,
    quadratic_character,
)
from tmqc.rareclass import scan_size_increasing

LOG2 = math.log(2.0)


class TestElementary:
    def test_is_prime_small(self):
        assert [p for p in range(2, 40) if is_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        assert not is_prime(1)
        assert is_prime(2**31 - 1)
        assert not is_prime(2**29 - 1)

    def test_sieve_matches(self):
        assert primes_up_to(100) == [p for p in range(2, 101) if is_prime(p)]

    def test_order_examples(self):
        assert order_of_two(3) == 2
        assert order_of_two(7) == 3
        assert order_of_two(17) == 8

    def test_order_brute_force_oracle(self):
        for p in primes_up_to(500):
            if p == 2:
                continue
            s, x = 1, 2 % p
            while x != 1:
                x = (2 * x) % p
                s += 1
            assert order_of_two(p) == s

    def test_order_divides_group_order(self):
        for p in primes_up_to(10_000):
            if p == 2:
                continue
            assert (p - 1) % order_of_two(p) == 0

    def test_order_rejects_composite(self):
        with pytest.raises(ValueError):
            order_of_two(15)


class TestClassification:
    def test_printed_class_members(self):
        p1, p21, p23 = [], [], []
        for p in primes_up_to(199):
            if p == 2:
                continue
            cls = classify_prime(p)
            if cls is PrimeClass.P1:
                p1.append(p)
            elif cls is PrimeClass.P21:
                p21.append(p)
            elif cls is PrimeClass.P23:
                p23.append(p)
        assert p1[:7] == [3, 5, 11, 13, 19, 29, 37]
        assert p21[:5] == [17, 41, 97, 137, 193]
        assert p23[:6] == [7, 23, 47, 71, 79, 103]

    def test_other_class_exists(self):
        assert classify_prime(43) is PrimeClass.OTHER
        assert classify_prime(31) is PrimeClass.OTHER


class TestFundamentalUnit:
    def test_table_values(self):
        assert (fundamental_unit(17).u, fundamental_unit(17).v) == (3, 2)
        assert (fundamental_unit(41).u, fundamental_unit(41).v) == (27, 10)
        assert (fundamental_unit(5).u, fundamental_unit(5).v) == (0, 1)

    def test_norms_exact(self):
        for p in (5, 13, 17, 29, 41, 97, 137, 193):
            eps = fundamental_unit(p)
            assert eps.norm in (1, -1)
            c = (p - 1) // 4
            assert eps.u**2 + eps.u * eps.v - c * eps.v**2 == eps.norm

    def test_unit_exceeds_one(self):
        for p in (5, 17, 41, 97):
            assert fundamental_unit(p).value() > 1.0

    def test_minimality_by_brute_force(self):
        # no smaller unit > 1 exists in a coordinate box around the found one
        for p in (5, 13, 17, 29, 41):
            eps = fundamental_unit(p)
            omega = (1.0 + math.sqrt(p)) / 2.0
            c = (p - 1) // 4
            best = None
            bound = max(abs(eps.u), abs(eps.v)) + 1
            for v in range(0, bound + 1):
                for u in range(-bound, bound + 1):
                    val = u + v * omega
                    if 1.0 < val and u * u + u * v - c * v * v in (1, -1):
                        best = min(best, val) if best else val
            assert best == pytest.approx(eps.value(), rel=1e-12)

    def test_log_value_precision(self):
        eps = fundamental_unit(97)
        assert eps.log_value() == pytest.approx(math.log(eps.value()), rel=1e-12)

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            fundamental_unit(7)

    def test_matches_the_norm_scan(self):
        # oracle: the search that took the norm of every candidate and
        # stopped at the first norm +-1
        checked = 0
        for p in primes_up_to(20_000):
            if p % 4 == 1:
                eps = fundamental_unit(p)
                assert (eps.u, eps.v, eps.norm) == _unit_by_norm_scan(p), p
                checked += 1
        assert checked == 1125

    def test_unit_beyond_the_norm_scan_cap(self):
        # 30 603 continued-fraction steps: the norm scan gave up after 10 000
        p = 1000000033
        eps = fundamental_unit(p)
        assert eps.norm == -1
        assert quadfield._norm_form(p, eps.u, eps.v) == eps.norm


def _unit_by_norm_scan(p):
    """(u, v, norm) of the first convergent candidate of norm +-1, the norm
    taken at every step."""
    sq = math.isqrt(p)
    P, Q = 1, 2
    a = (P + sq) // Q
    h_prev, k_prev = 1, 0
    h_cur, k_cur = a, 1
    for _ in range(10_000):
        u, v = h_cur - k_cur, k_cur
        n = quadfield._norm_form(p, u, v)
        if n in (1, -1) and v != 0:
            return u, v, n
        P = a * Q - P
        Q = (p - P * P) // Q
        a = (P + sq) // Q
        h_cur, h_prev = a * h_cur + h_prev, h_cur
        k_cur, k_prev = a * k_cur + k_prev, k_cur
    raise ArithmeticError(f"continued fraction for p={p} did not close")


class TestLFunctionAndClassNumber:
    def test_character_is_multiplicative(self):
        p = 29
        for a in range(1, p):
            for b in range(1, p):
                assert quadratic_character(a * b, p) == (
                    quadratic_character(a, p) * quadratic_character(b, p)
                )

    def test_class_numbers_small(self):
        assert class_number(17) == 1
        assert class_number(41) == 1
        assert class_number(137) == 1

    def test_analytic_identity_closes(self):
        # 2 h log eps = sqrt(p) L(1, chi_p)
        for p in (17, 41, 97, 137, 193):
            h = class_number(p)
            reg = fundamental_unit(p).log_value()
            assert abs(2 * h * reg - math.sqrt(p) * dirichlet_l_one(p)) < 1e-8

    def test_near_integer_for_more_primes(self):
        for p in primes_up_to(300):
            if p == 2 or classify_prime(p) is not PrimeClass.P21:
                continue
            class_number(p)  # raises ClassNumberDriftError on failure

    def test_matches_euler_criterion_sum(self):
        # oracle: the full-range sum with chi_p from Euler's criterion, one
        # pow per term
        for p in primes_up_to(2000):
            if p % 4 != 1:
                continue
            oracle = -math.fsum(
                quadratic_character(a, p) * math.log(math.sin(math.pi * a / p))
                for a in range(1, p)
            ) / math.sqrt(p)
            assert dirichlet_l_one(p) == pytest.approx(oracle, rel=1e-12, abs=0), p

    def test_gate_holds_up_to_a_million(self):
        # the near-integer gate and Hua's bound for every P21 prime in
        # [980000, 10^6); the rounding margin there is about 2e-14
        checked = 0
        for p in primes_up_to(10**6 - 1):
            if p < 980_000 or classify_prime(p) is not PrimeClass.P21:
                continue
            h = class_number(p)
            raw = math.sqrt(p) * dirichlet_l_one(p) / (2.0 * fundamental_unit(p).log_value())
            assert h >= 1 and abs(raw - h) < 1e-9, p
            checked += 1
        assert checked == 126

    def test_prime_record_takes_h_from_class_number(self, monkeypatch):
        # class_number is the one route to h: a wrong h reaches the record
        real = class_number
        monkeypatch.setattr(quadfield, "class_number", lambda p: real(p) + 1)
        rec = prime_record(17)
        assert rec.h == 2
        assert rec.log2_lambda1 == 0.5 * math.log2(17) + 2 * rec.regulator / LOG2
        assert rec.beta == rec.log2_lambda1 / 8

    def test_unit_is_computed_once_per_prime(self):
        fundamental_unit.cache_clear()
        prime_record(9049)
        info = fundamental_unit.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_l_value_refuses_p_beyond_int64_squares(self):
        # 4294967357 is the first prime = 1 (mod 4) above 2^32
        with pytest.raises(ValueError, match="2\\^32"):
            dirichlet_l_one(4294967357)

    def test_hua_bound(self):
        for p in primes_up_to(500):
            if p == 2 or p % 4 != 1 or not is_prime(p):
                continue
            assert dirichlet_l_one(p) < math.log(p) / 2.0 + 1.0


class TestBetaForClass:
    def test_p21_values(self):
        assert prime_record(17).beta == pytest.approx(0.6332, abs=1e-3)
        assert prime_record(97).beta == pytest.approx(0.3490, abs=1e-3)

    def test_p23_value(self):
        assert prime_record(7).beta == pytest.approx(math.log(7) / (6 * LOG2), rel=1e-12)

    def test_p1_value(self):
        assert prime_record(3).beta == pytest.approx(math.log(3) / (2 * LOG2), rel=1e-12)

    def test_other_class_has_no_closed_form(self):
        rec = prime_record(43)
        assert rec.beta is None

    def test_other_class_lower_bound(self):
        # outside the three closed-form classes the exponent strictly
        # exceeds log p / ((p-1) log 2)
        for p in (31, 43, 73, 89):
            beta = rareclass.scaling_exponents(p).beta
            assert beta > math.log(p) / ((p - 1) * LOG2)


class TestLambda1BeyondTheFloatRange:
    """At p = 99961, the first P21 prime with h log eps above about 709,
    lambda1 = sqrt(p) eps^h leaves the float range; the exponents do not."""

    P = 99961

    def test_lambda1_reads_inf_and_beta_is_the_coset_spectrum_value(self):
        rec = prime_record(self.P)
        assert rec.cls.value == "P21" and rec.h * rec.regulator > 709.8
        # the record holds log2 lambda_1 above the float range and log2
        # lambda_2 of a subnormal lambda_2, both to full precision
        assert rec.log2_lambda1 > 1024.0 and rec.log2_lambda2 < -1022.0
        assert abs(rec.log2_lambda1 + rec.log2_lambda2 - math.log2(self.P)) < 1e-12
        assert rareclass.scaling_exponents(self.P).lambda1 == math.inf
        sp = rareclass._coset_spectrum(self.P)
        assert abs(rec.beta - sp.log2_moduli[0] / sp.s) < 1e-12

    def test_residue_beta_matches_the_orbit_sum(self):
        # beta_t from the closed forms against the sum over the orbit of t
        rec = prime_record(self.P)
        # 2 is a residue mod p, since <2> is the subgroup of quadratic residues
        nonresidue = next(
            t for t in range(3, self.P) if quadfield.quadratic_character(t, self.P) == -1)
        beta_t = {t: rareclass.residue_exponent(self.P, t) for t in (2, nonresidue)}
        for t, beta in beta_t.items():
            orbit = t * rareclass._powers(2, rec.s, self.P) % self.P
            expected = float(rareclass._orbit_log2(orbit, self.P)) / rec.s
            assert beta == pytest.approx(expected, rel=1e-12, abs=1e-14)
        assert beta_t[nonresidue] == rec.beta
        assert beta_t[2] < 0.0 < rec.beta


class TestLog2Record:
    def test_p21_moduli_multiply_to_p(self):
        # lambda_1 lambda_2 = p for every P21 prime below 2 10^5, in log2,
        # including p = 99961 and beyond, where lambda_1 leaves the float
        # range and lambda_2 is subnormal; the exponents take lambda_2 as 2
        # to the record's log2
        checked = 0
        for p in primes_up_to(2 * 10**5):
            if p % 4 != 1 or classify_prime(p) is not PrimeClass.P21:
                continue
            rec = prime_record(p)
            assert abs(rec.log2_lambda1 + rec.log2_lambda2 - math.log2(p)) < 1e-12, p
            assert rareclass.scaling_exponents(p).lambda2 == 2.0**rec.log2_lambda2, p
            checked += 1
        assert checked == 1687

    def test_closed_forms_in_log2(self):
        rec = prime_record(3)
        assert (rec.log2_lambda1, rec.log2_lambda2) == (math.log2(3), -math.inf)
        rec = prime_record(7)
        assert rec.log2_lambda1 == rec.log2_lambda2 == 0.5 * math.log2(7)
        rec = prime_record(43)
        assert (rec.log2_lambda1, rec.log2_lambda2, rec.beta) == (None, None, None)


class TestCrossConsistency:
    def test_lambda1_matches_transfer_spectrum(self):
        for p in (17, 41, 97, 137, 193):
            rec = prime_record(p)
            lam1 = max(abs(x) for x in rareclass.eigenvalues_explicit(p))
            assert 2.0**rec.log2_lambda1 == pytest.approx(lam1, rel=1e-6)

    def test_p1_spectrum_is_p(self):
        for p in (3, 5, 11, 13):
            lam = rareclass.eigenvalues_explicit(p)
            assert len(lam) == 1
            assert lam[0] == pytest.approx(p, rel=1e-10)


class TestSizeIncreasingScan:
    def test_limit_200(self):
        scan = scan_size_increasing(200)
        assert scan.p1 == (3, 5)
        assert scan.p21 == (17,)
        assert scan.p23 == ()
        assert scan.other == (31, 43, 73, 89, 127, 151)

    def test_rejects_small_limit(self):
        with pytest.raises(ValueError):
            scan_size_increasing(2)


def _hua_beta_bound(p):
    """Hua's bound on beta for a P21 prime p: beta = (log p + 2hR) /
    ((p - 1) log 2), and 2hR = sqrt(p) L(1, chi_p) < sqrt(p) (log p / 2 + 1)."""
    return (np.log(p) + np.sqrt(p) * (np.log(p) / 2 + 1)) / ((p - 1) * LOG2)


class TestClosedClassCertificate:
    """beta > 1/2 in the closed-form classes exactly at p = 3, 5 and 17: P1
    and P23 by beta = log p / ((p - 1) log 2), P21 by Hua's bound from
    p = 126 on and by a finite check below it."""

    def test_hua_bound_crosses_one_half_between_125_and_126(self):
        assert round(float(_hua_beta_bound(125)), 4) == 0.5003
        assert round(float(_hua_beta_bound(126)), 4) == 0.4987

    def test_hua_bound_decreases_from_126(self):
        """With N = log p + sqrt(p) (log p / 2 + 1), the bound N / ((p - 1) log 2)
        falls where (p - 1) N' < N, and (p - 1) N' < p N' = N - (log p - 1 +
        sqrt(p) log p / 4) < N for every p >= 3."""
        p = np.geomspace(126.0, 1e15, 4001)
        n_val = np.log(p) + np.sqrt(p) * (np.log(p) / 2 + 1)
        n_prime = 1 / p + (np.log(p) + 4) / (4 * np.sqrt(p))
        assert np.all((p - 1) * n_prime < n_val)         # the sign of the derivative
        # N' is the derivative of N (central differences), and the bound falls
        h = 1e-6 * p
        numeric = (np.log(p + h) + np.sqrt(p + h) * (np.log(p + h) / 2 + 1)
                   - np.log(p - h) - np.sqrt(p - h) * (np.log(p - h) / 2 + 1)) / (2 * h)
        assert np.abs(numeric / n_prime - 1).max() < 1e-6
        bound = _hua_beta_bound(p)
        assert np.all(np.diff(bound) < 0) and bound[0] < 0.5

    def test_closed_classes_give_3_5_17(self):
        # P21 below 126 directly, and the bound holds above it for a stretch
        p21 = [p for p in primes_up_to(2000)[1:] if classify_prime(p) is PrimeClass.P21]
        assert [p for p in p21 if p < 126 and prime_record(p).beta > 0.5] == [17]
        assert all(prime_record(p).beta < _hua_beta_bound(p) for p in p21)
        # P1 and P23: log p / ((p - 1) log 2) falls for p >= 3 and is below
        # 1/2 from p = 7 on
        assert [p for p in (3, 5) if math.log(p) / ((p - 1) * LOG2) > 0.5] == [3, 5]
        q = np.geomspace(3.0, 1e15, 4001)
        assert np.all(np.diff(np.log(q) / ((q - 1) * LOG2)) < 0)
        assert math.log(7) / (6 * LOG2) < 0.5
        closed = [p for p in primes_up_to(2000)[1:]
                  if classify_prime(p) is not PrimeClass.OTHER and prime_record(p).beta > 0.5]
        assert closed == [3, 5, 17]
