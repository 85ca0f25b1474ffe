"""Prime classification by the order of 2, and real-quadratic-field
invariants entering the rarefaction exponents.

Odd primes split by s = ord_2(p) in (Z/pZ)*, with beta = log2 lambda_1 / s:

  P1   s = p-1                     lambda_1 = p,              lambda_2 = 0
  P21  s = (p-1)/2, p = 1 (mod 4)  lambda_1 = sqrt(p) eps^h,  lambda_2 = sqrt(p) eps^-h
  P23  s = (p-1)/2, p = 3 (mod 4)  lambda_1 = lambda_2 = sqrt(p)

For P21 the class number h and fundamental unit eps of Q(sqrt p) enter through
the analytic identity 2 h log eps = sqrt(p) L(1, chi_p), with chi_p the
quadratic character mod p.  Units are computed on exact integer surd triples
(never on floating sqrt p: coefficients grow fast), and h is recovered from a
finite character sum for L(1, chi_p) with a near-integer sanity gate.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "PrimeClass",
    "PrimeClassRecord",
    "is_prime",
    "primes_up_to",
    "order_of_two",
    "classify_prime",
    "fundamental_unit",
    "dirichlet_l_one",
    "class_number",
    "prime_record",
    "ClassNumberDriftError",
]

_LOG2 = math.log(2.0)


class ClassNumberDriftError(ArithmeticError):
    """The analytic class-number value failed the near-integer gate."""


class PrimeClass(Enum):
    P1 = "P1"
    P21 = "P21"
    P23 = "P23"
    OTHER = "Other"


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list:
    """Sieve of Eratosthenes, inclusive."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(sieve) if v]


def _factorize(n: int) -> dict:
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def order_of_two(p: int) -> int:
    """Multiplicative order of 2 mod an odd prime p, by factoring p-1 and
    descending from the full group order."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    s = p - 1
    for f in _factorize(p - 1):
        while s % f == 0 and pow(2, s // f, p) == 1:
            s //= f
    return s


def classify_prime(p: int) -> PrimeClass:
    """Class of an odd prime from the order of 2."""
    return _class_of(p, order_of_two(p))


def _class_of(p: int, s: int) -> PrimeClass:
    """Class of an odd prime p with s = ord_2(p)."""
    if s == p - 1:
        return PrimeClass.P1
    if 2 * s == p - 1:
        return PrimeClass.P21 if p % 4 == 1 else PrimeClass.P23
    return PrimeClass.OTHER


# ---------------------------------------------------------------------------
# fundamental units via exact continued fractions
# ---------------------------------------------------------------------------

class FundamentalUnit(NamedTuple):
    """eps = u + v*omega > 1 with omega = (1 + sqrt p)/2, norm +-1."""

    p: int
    u: int
    v: int
    norm: int

    def value(self) -> float:
        return self.u + self.v * (1.0 + math.sqrt(self.p)) / 2.0

    def log_value(self) -> float:
        """log eps at full precision even when the coordinates are huge:
        num = 2^129 eps through integer square roots at 128 extra bits, then
        log(num / 2^k) + (k - 129) log 2.  Integer true division is
        correctly rounded, so a unit below 2^1000 (k = 129) loses no bits
        to the subtraction of a logarithm near 90."""
        shift = 1 << 128
        sq = math.isqrt(self.p * shift * shift)
        num = 2 * self.u * shift + self.v * (shift + sq)
        k = max(num.bit_length() - 1000, 129)
        return math.log(num / (1 << k)) + (k - 129) * _LOG2

    def __str__(self) -> str:
        return f"{self.u}+{self.v}w"


def _norm_form(p: int, u: int, v: int) -> int:
    # N(u + v*omega) with omega = (1+sqrt p)/2 and p = 1 (mod 4)
    return u * u + u * v - v * v * (p - 1) // 4


@functools.lru_cache(maxsize=16)
def fundamental_unit(p: int) -> FundamentalUnit:
    """Smallest unit > 1 of the ring of integers of Q(sqrt p), p = 1 (mod 4).

    Runs the continued fraction of omega = (1+sqrt p)/2 on the exact surd
    state (P + sqrt(p))/Q; convergents h/k give candidates (h-k) + k*omega.
    A candidate has norm +-1 exactly when the next Q returns to 2, the Q of
    omega, so the search closes at the end of the first period, which it
    always reaches, and the norm is taken once.  All arithmetic is on
    arbitrary-precision integers.  Cached, so `class_number` and
    `prime_record` share one unit per p.
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError("fundamental_unit expects a prime p = 1 (mod 4)")
    sq = math.isqrt(p)
    P, Q = 1, 2
    a = (P + sq) // Q
    h_prev, k_prev = 1, 0
    h_cur, k_cur = a, 1
    while True:
        P = a * Q - P
        Q = (p - P * P) // Q
        if Q == 2:
            break
        a = (P + sq) // Q
        h_cur, h_prev = a * h_cur + h_prev, h_cur
        k_cur, k_prev = a * k_cur + k_prev, k_cur
    u, v = h_cur - k_cur, k_cur
    return FundamentalUnit(p, u, v, _norm_form(p, u, v))


# ---------------------------------------------------------------------------
# L-function, class number, per-class exponents
# ---------------------------------------------------------------------------

def quadratic_character(a: int, p: int) -> int:
    """chi_p(a) by Euler's criterion (0 on multiples of p)."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# terms per numpy pass of the character sum: the working set stays a few
# hundred kB whatever p is
_L_CHUNK = 1 << 14
# a^2 for a <= (p-1)/2 must fit int64; the table then holds under 2 GiB
_L_MAX_P = 1 << 32


def _legendre_half_table(p: int) -> np.ndarray:
    """chi_p(a) for a = 0..(p-1)/2 as int8, p prime = 1 (mod 4).

    The squares a^2 mod p for a <= (p-1)/2 are the quadratic residues, each
    hit once; chi_p(-1) = 1 lets r and p - r share the entry min(r, p - r).
    """
    half = (p - 1) // 2
    chi = np.full(half + 1, -1, dtype=np.int8)
    chi[0] = 0
    for start in range(1, half + 1, _L_CHUNK):
        a = np.arange(start, min(start + _L_CHUNK, half + 1), dtype=np.int64)
        r = a * a % p
        chi[np.minimum(r, p - r)] = 1
    return chi


def dirichlet_l_one(p: int) -> float:
    """L(1, chi_p) for prime p = 1 (mod 4), by the closed character sum
    -(2/sqrt p) * sum_{a <= (p-1)/2} chi_p(a) log sin(pi a / p).

    The sum over the full range 0 < a < p halves because chi_p and the sine
    are both symmetric under a -> p - a.  It runs in numpy passes of
    `_L_CHUNK` terms whose sums are added by `math.fsum`: O(p) time, p/2
    bytes for the character table and a bounded working set besides.  Each
    pass is an elementwise product and a pairwise `np.add.reduce`, not a
    dot product: `np.dot` goes to threaded BLAS, whose idle worker thread
    can take tens of milliseconds to wake.
    The normalization is pinned by the h = 1 entries of the classical unit
    table (see tests); the log 2 part of log(2 sin) drops because the
    character sums to zero.
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError("dirichlet_l_one expects a prime p = 1 (mod 4)")
    if p >= _L_MAX_P:
        raise ValueError(f"dirichlet_l_one supports p < 2^32, got p={p}")
    chi = _legendre_half_table(p)
    half = len(chi) - 1
    parts = []
    for start in range(1, half + 1, _L_CHUNK):
        stop = min(start + _L_CHUNK, half + 1)
        a = np.arange(start, stop, dtype=np.float64)
        logs = np.log(np.sin(a * (math.pi / p)))
        parts.append(float(np.add.reduce(logs * chi[start:stop])))
    return -2.0 * math.fsum(parts) / math.sqrt(p)


# the analytic class number must lie this close to an integer
CLASS_NUMBER_TOL = 1e-6


@functools.lru_cache(maxsize=16)
def class_number(p: int, tol: float = CLASS_NUMBER_TOL) -> int:
    """h = sqrt(p) L(1, chi_p) / (2 log eps) for a prime p = 1 (mod 4),
    rounded, from one unit and one L-value.  The pre-rounding value must
    lie within CLASS_NUMBER_TOL of an integer (ClassNumberDriftError
    otherwise), and L must obey Hua's bound L(1, chi_p) < log(p)/2 + 1
    (ArithmeticError otherwise).  Cached like `fundamental_unit`, so wave
    vectors over one prime share its O(p) L-sum."""
    eps = fundamental_unit(p)
    l_value = dirichlet_l_one(p)
    raw = math.sqrt(p) * l_value / (2.0 * eps.log_value())
    h = round(raw)
    if abs(raw - h) > tol or h < 1:
        raise ClassNumberDriftError(
            f"class number for p={p} drifted from an integer: {raw!r}"
        )
    if not l_value < math.log(p) / 2.0 + 1.0:
        raise ArithmeticError(f"Hua bound violated at p={p}: L={l_value}")
    return h


class PrimeClassRecord(NamedTuple):
    """Classification record for one odd prime, its moduli in log2."""

    p: int
    s: int
    cls: PrimeClass
    log2_lambda1: float | None
    log2_lambda2: float | None
    h: int | None = None
    epsilon: FundamentalUnit | None = None
    regulator: float | None = None

    @property
    def beta(self) -> float | None:
        """log2 lambda_1 / s, None for Other primes."""
        return None if self.log2_lambda1 is None else self.log2_lambda1 / self.s


def prime_record(p: int) -> PrimeClassRecord:
    """Full record: class, s, and log2 lambda_1, log2 lambda_2 from the
    closed forms above (None for Other primes); for P21 they are
    log2(p)/2 +- h R / log 2, R = log eps, with h from `class_number`.  They
    stay finite where lambda_1 or lambda_2 would leave the float range
    (first at p = 99961)."""
    s = order_of_two(p)
    cls = _class_of(p, s)
    if cls is PrimeClass.OTHER:
        return PrimeClassRecord(p, s, cls, None, None)
    if cls is PrimeClass.P1:
        return PrimeClassRecord(p, s, cls, math.log2(p), -math.inf)
    half = 0.5 * math.log2(p)
    if cls is PrimeClass.P23:
        return PrimeClassRecord(p, s, cls, half, half)
    h = class_number(p)
    eps = fundamental_unit(p)
    reg = eps.log_value()
    shift = h * reg / _LOG2
    return PrimeClassRecord(p, s, cls, half + shift, half - shift, h, eps, reg)
