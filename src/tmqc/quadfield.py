"""Prime classification by the order of 2, and real-quadratic-field
invariants entering the rarefaction exponents.

Odd primes split by s = ord_2(p) in (Z/pZ)*:

  P1   s = p-1                     lambda_1 = p,              beta = log p / ((p-1) log 2)
  P21  s = (p-1)/2, p = 1 (mod 4)  lambda_1 = eps^h sqrt(p),  beta = (log p + 2h log eps) / ((p-1) log 2)
  P23  s = (p-1)/2, p = 3 (mod 4)  lambda_1 = sqrt(p),        beta = log p / ((p-1) log 2)

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
    "residue_beta",
    "prime_record",
    "scan_size_increasing",
    "SizeIncreasingScan",
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
        evaluated through integer square roots at 128 extra bits."""
        shift = 1 << 128
        sq = math.isqrt(self.p * shift * shift)
        num = 2 * self.u * shift + self.v * (shift + sq)
        return math.log(num) - math.log(2) - 128 * _LOG2

    def __str__(self) -> str:
        return f"{self.u}+{self.v}w"


def _norm_form(p: int, u: int, v: int) -> int:
    # N(u + v*omega) with omega = (1+sqrt p)/2 and p = 1 (mod 4)
    return u * u + u * v - v * v * (p - 1) // 4


@functools.lru_cache(maxsize=16)
def fundamental_unit(p: int) -> FundamentalUnit:
    """Smallest unit > 1 of the ring of integers of Q(sqrt p), p = 1 (mod 4).

    Runs the continued fraction of omega = (1+sqrt p)/2 on the exact surd
    state (P + sqrt(D))/Q; convergents h/k give candidates (h-k) + k*omega,
    and the first norm +-1 hit is the fundamental unit.  All arithmetic is
    on arbitrary-precision integers.  Cached, so `class_number` and
    `prime_record` share one unit per p.
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError("fundamental_unit expects a prime p = 1 (mod 4)")
    D = p
    sq = math.isqrt(D)
    P, Q = 1, 2
    a = (P + sq) // Q
    h_prev, k_prev = 1, 0
    h_cur, k_cur = a, 1
    for _ in range(10_000):
        u, v = h_cur - k_cur, k_cur
        n = _norm_form(p, u, v)
        if n in (1, -1) and v != 0:
            return FundamentalUnit(p, u, v, n)
        P = a * Q - P
        Q = (D - P * P) // Q
        a = (P + sq) // Q
        h_cur, h_prev = a * h_cur + h_prev, h_cur
        k_cur, k_prev = a * k_cur + k_prev, k_cur
    raise ArithmeticError(f"continued fraction for p={p} did not close")


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


@functools.lru_cache(maxsize=16)
def class_number(p: int, tol: float = 1e-6) -> int:
    """h = sqrt(p) L(1, chi_p) / (2 log eps) for a prime p = 1 (mod 4),
    rounded, from one unit and one L-value.  The pre-rounding value must
    lie within tol of an integer (ClassNumberDriftError otherwise), and L
    must obey Hua's bound L(1, chi_p) < log(p)/2 + 1 (ArithmeticError
    otherwise).  Cached like `fundamental_unit`, so wave vectors over one
    prime share its O(p) L-sum."""
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
    """Classification record for one odd prime."""

    p: int
    s: int
    cls: PrimeClass
    beta: float | None
    lambda1: float | None
    lambda2: float | None
    h: int | None = None
    epsilon: FundamentalUnit | None = None
    regulator: float | None = None


def residue_beta(rec: PrimeClassRecord, t: int) -> float:
    """beta_t = log2 |mu_t| / s at a residue t not divisible by p, for a P1,
    P21 or P23 record, in O(log p).

    P1 has one coset of <2> and P23 two conjugate ones, so every t has the
    record's beta.  For P21, <2> is the subgroup of quadratic residues, and
    the two coset moduli sqrt(p) eps^(+-h) multiply to p: a non-residue t
    (chi_p(t) = -1 by Euler's criterion) carries the record's beta, bit for
    bit, and a residue (log p - 2 h log eps) / ((p-1) log 2).
    """
    p = rec.p
    if t % p == 0:
        raise ValueError("t must be nonzero mod p")
    if rec.beta is None:
        raise ValueError(
            f"no closed exponent formula for class {rec.cls.value}; "
            "use rareclass.residue_exponent instead"
        )
    if rec.cls is PrimeClass.P21 and quadratic_character(t, p) == 1:
        return (math.log(p) - 2.0 * rec.h * rec.regulator) / ((p - 1) * _LOG2)
    return rec.beta


def prime_record(p: int) -> PrimeClassRecord:
    """Full record: class, exponent and (for P21) field invariants, with h
    from `class_number`.  beta is log p / ((p-1) log 2) for P1 and P23 and
    (log p + 2 h log eps) / ((p-1) log 2) for P21; Other primes get None.
    A P21 lambda1 = sqrt(p) eps^h beyond the float range reads inf."""
    s = order_of_two(p)
    cls = _class_of(p, s)
    if cls is PrimeClass.P1:
        return PrimeClassRecord(p, s, cls, math.log(p) / ((p - 1) * _LOG2), float(p), 0.0)
    if cls is PrimeClass.P23:
        return PrimeClassRecord(p, s, cls, math.log(p) / ((p - 1) * _LOG2),
                                math.sqrt(p), math.sqrt(p))
    if cls is PrimeClass.P21:
        h = class_number(p)
        eps = fundamental_unit(p)
        reg = eps.log_value()
        try:
            lam1 = math.exp(h * reg) * math.sqrt(p)
        except OverflowError:  # h log eps above about 709, first at p = 99961
            lam1 = math.inf
        lam2 = math.exp(-h * reg) * math.sqrt(p)
        beta = (math.log(p) + 2.0 * h * reg) / ((p - 1) * _LOG2)
        return PrimeClassRecord(p, s, cls, beta, lam1, lam2, h, eps, reg)
    return PrimeClassRecord(p, s, cls, None, None, None)


class SizeIncreasingScan(NamedTuple):
    """Primes with growth exponent beta > 1/2, by class, below a limit."""

    limit: int
    p1: tuple
    p21: tuple
    p23: tuple
    other: tuple     # via the coset spectrum


def scan_size_increasing(limit: int) -> SizeIncreasingScan:
    """Scan odd primes p < limit of every class for beta > 1/2: beta from
    `prime_record` for P1, P21 and P23, and from the coset spectrum
    (`rareclass.scaling_exponents`) for the Other primes, which have no
    closed formula.
    """
    if limit < 3:
        raise ValueError("limit must be >= 3")
    from . import rareclass  # runtime import; rareclass depends on this module

    hits = {cls: [] for cls in PrimeClass}
    for p in primes_up_to(limit - 1)[1:]:
        rec = prime_record(p)
        beta = rec.beta if rec.beta is not None else rareclass.scaling_exponents(p).beta
        if beta > 0.5:
            hits[rec.cls].append(p)
    return SizeIncreasingScan(limit, *(tuple(hits[cls]) for cls in PrimeClass))
