"""Exact generation of the two-tile aperiodic point set built on the
Prouhet-Thue-Morse sign sequence.

The sign sequence is eta_n = (-1)**s(n) where s(n) counts ones in the binary
expansion of n.  The point set lives on the real line and is generated by two
tile lengths a > b > 0: walking right from the origin, step n has length a
when eta_n = +1 and length b when eta_n = -1.  Vertices f(n) are kept as exact
rationals; the set is extended to negative indices by f(-n) = -f(n).

Everything here is pure and deterministic.  Coordinates only become floats at
the diffraction-evaluation boundary (see `diffract`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable

import numpy as np

__all__ = [
    "QuasicrystalParams",
    "SignedSequencePrefix",
    "PointSet",
    "AveragingSequence",
    "digit_sum",
    "tm_sign",
    "tm_prefix",
    "sign_array",
    "signs_of",
    "prefix_eta_sum",
    "point",
    "point_array",
    "gab",
    "canonical_approximant",
]


def digit_sum(n: int) -> int:
    """Number of ones in the binary expansion of n (n >= 0)."""
    if n < 0:
        raise ValueError("digit_sum is defined for nonnegative integers")
    return bin(n).count("1")


def tm_sign(n: int) -> int:
    """Sign sequence term: +1 if the binary digit sum of n is even, else -1."""
    return -1 if digit_sum(n) & 1 else 1


@dataclass(frozen=True)
class SignedSequencePrefix:
    """A prefix (length, values) of the +-1 sign sequence.

    Invariant: values[n] == tm_sign(n), and the prefix of length 2**m is the
    prefix of length 2**(m-1) followed by its negation.
    """

    length: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.length != len(self.values):
            raise ValueError("length does not match values")

    def __getitem__(self, i: int) -> int:
        return int(self.values[i])


def tm_prefix(length: int) -> SignedSequencePrefix:
    """Prefix of the sign sequence generated by block doubling.

    Starts from (+1) and repeatedly appends the negated block, which is the
    fixed-point substitution route; `tm_sign` is the closed form used as the
    cross-check in tests.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return SignedSequencePrefix(0, np.zeros(0, dtype=np.int8))
    block = np.array([1], dtype=np.int8)
    while len(block) < length:
        block = np.concatenate([block, -block])
    return SignedSequencePrefix(length, block[:length].copy())


_U64 = np.uint64


def sign_array(start: int, stop: int) -> np.ndarray:
    """Vectorized eta_m for m in [start, stop), as an int8 array."""
    if start < 0 or stop < start:
        raise ValueError("need 0 <= start <= stop")
    return signs_of(np.arange(start, stop, dtype=_U64))


def signs_of(m: np.ndarray) -> np.ndarray:
    """eta_m for every entry of a nonnegative integer array, as int8.

    Uses the hardware popcount (numpy >= 2) and falls back to SWAR bit
    counting otherwise.  Only the parity of the popcount matters.
    """
    m = np.asarray(m).astype(_U64, copy=False)
    if hasattr(np, "bitwise_count"):
        pc = np.bitwise_count(m)
    else:  # pragma: no cover - numpy < 2
        x = m.copy()
        x -= (x >> _U64(1)) & _U64(0x5555555555555555)
        x = (x & _U64(0x3333333333333333)) + ((x >> _U64(2)) & _U64(0x3333333333333333))
        x = (x + (x >> _U64(4))) & _U64(0x0F0F0F0F0F0F0F0F)
        pc = (x * _U64(0x0101010101010101)) >> _U64(56)
    return 1 - 2 * (pc & 1).astype(np.int8)


def prefix_eta_sum(n: int) -> int:
    """Sum of eta_m over m < n.  Zero for even n, eta_{n-1} for odd n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 0:
        return 0
    return tm_sign(n - 1)


@dataclass(frozen=True)
class QuasicrystalParams:
    """Tile lengths (a, b) as exact rationals with 0 < b < a.

    Derived constants: alpha1 = (a+b)/2 (mean tile), alpha0 = -(a-b)/2 and
    alpha2 = 2(a-b) (the modulation amplitude entering the Fourier
    coefficients).  `gab_value` is the rational content of (a-b, a+b):
    gcd of the numerators over the common denominator, a length.
    """

    a: Fraction
    b: Fraction
    gab_value: Fraction = field(init=False)

    def __post_init__(self) -> None:
        a, b = Fraction(self.a), Fraction(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (0 < b < a):
            raise ValueError("tile lengths must satisfy 0 < b < a")
        den = (a.denominator * b.denominator) // gcd(a.denominator, b.denominator)
        ai, bi = int(a * den), int(b * den)
        object.__setattr__(self, "gab_value", Fraction(gcd(ai - bi, ai + bi), den))

    @classmethod
    def from_strings(cls, a: str, b: str) -> "QuasicrystalParams":
        return cls(Fraction(a), Fraction(b))

    @property
    def alpha1(self) -> Fraction:
        return (self.a + self.b) / 2

    @property
    def alpha0(self) -> Fraction:
        return -(self.a - self.b) / 2

    @property
    def alpha2(self) -> Fraction:
        return 2 * (self.a - self.b)

    def wave_vector(self, q: Fraction | float) -> float:
        """Physical wave vector k = (4*pi/(a+b)) * q."""
        return 4.0 * np.pi / float(self.a + self.b) * float(q)


def gab(a: int, b: int) -> int:
    """gcd(a-b, a+b) for coprime integers 0 < b < a.

    Equals 2 when a and b are both odd and 1 when exactly one is even.
    """
    if not (isinstance(a, int) and isinstance(b, int)):
        raise TypeError("gab expects integers; clear denominators first")
    if not 0 < b < a:
        raise ValueError("need 0 < b < a")
    if gcd(a, b) != 1:
        raise ValueError("gab requires gcd(a, b) = 1")
    return gcd(a - b, a + b)


def point(n: int, params: QuasicrystalParams) -> Fraction:
    """Vertex f(n) of the point set, as an exact rational.

    Even n: f(n) = n(a+b)/2 (the signed tile excesses cancel in pairs).
    Odd n >= 1: f(n) = n(a+b)/2 + (a-b)/2 * eta_{n-1}.
    Negative n: f(n) = -f(-n).
    """
    if n < 0:
        return -point(-n, params)
    if n % 2 == 0:
        return n * params.alpha1
    return n * params.alpha1 + (params.a - params.b) / 2 * tm_sign(n - 1)


def point_array(n_max: int, params: QuasicrystalParams) -> np.ndarray:
    """f(1..n_max) as float64, for vectorized diffraction scans.

    Floats enter here by design; use `point` when exactness matters.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    half_sum = float(params.alpha1)
    half_diff = float((params.a - params.b) / 2)
    f = n * half_sum
    odd = np.arange(1, n_max + 1) % 2 == 1
    if odd.any():
        eta_prev = sign_array(0, n_max)[np.arange(0, n_max)[odd]]
        f[odd] += half_diff * eta_prev
    return f


@dataclass(frozen=True)
class PointSet:
    """A finite window f(n_min..n_max) of the point set, exact coordinates."""

    params: QuasicrystalParams
    n_min: int
    n_max: int
    coordinates: tuple

    @classmethod
    def window(cls, n_min: int, n_max: int, params: QuasicrystalParams) -> "PointSet":
        if n_min > n_max:
            raise ValueError("empty index range")
        coords = tuple(point(n, params) for n in range(n_min, n_max + 1))
        return cls(params, n_min, n_max, coords)

    def __len__(self) -> int:
        return len(self.coordinates)


def canonical_approximant(l: int, params: QuasicrystalParams) -> PointSet:
    """The l points f(1), ..., f(l): the canonical averaging window [0, f(l)]
    intersected with the positive point set minus the origin."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return PointSet.window(1, l, params)


@dataclass(frozen=True)
class AveragingSequence:
    """An increasing family of truncation sizes used to average approximants.

    `canonical` is the full sequence 1, 2, 3, ...; every other averaging
    sequence used here is a subsequence of it.  The weight support field
    records which comb the sequence averages (all-ones on n >= 1 unless
    stated otherwise).
    """

    kind: str
    lengths: tuple
    weight_support: str = "n >= 1"

    def __post_init__(self) -> None:
        ls = tuple(int(x) for x in self.lengths)
        if any(x <= 0 for x in ls) or any(y <= x for x, y in zip(ls, ls[1:])):
            raise ValueError("lengths must be strictly increasing positive integers")
        object.__setattr__(self, "lengths", ls)

    @classmethod
    def canonical(cls, l_max: int) -> "AveragingSequence":
        return cls("canonical", tuple(range(1, l_max + 1)))

    @classmethod
    def power_of_two(cls, n_max: int) -> "AveragingSequence":
        return cls("power-of-two", tuple(2**j for j in range(n_max + 1)))

    @classmethod
    def custom(cls, lengths: Iterable[int]) -> "AveragingSequence":
        return cls("custom", tuple(lengths))
