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

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "QuasicrystalParams",
    "digit_sum",
    "tm_sign",
    "sign_array",
    "signs_of",
    "point",
]


def digit_sum(n: int) -> int:
    """Number of ones in the binary expansion of n (n >= 0)."""
    if n < 0:
        raise ValueError("digit_sum is defined for nonnegative integers")
    return bin(n).count("1")


def tm_sign(n: int) -> int:
    """Sign sequence term: +1 if the binary digit sum of n is even, else -1."""
    return -1 if digit_sum(n) & 1 else 1


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


class _Frozen:
    """Base of the records that check their fields in `__init__`: each slot
    is set there once, through `object.__setattr__`, and never again."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class QuasicrystalParams(_Frozen):
    """Tile lengths (a, b) as exact rationals with 0 < b < a and
    2^-1020 <= a + b <= 2^1022.

    Derived constants: alpha1 = (a+b)/2 (mean tile), alpha0 = -(a-b)/2 and
    alpha2 = 2(a-b) (the modulation amplitude entering the Fourier
    coefficients).

    Immutable; equal and hashed by (a, b).
    """

    # _k_per_q: 4 pi/(a+b) as a float, the factor of `wave_vector`
    __slots__ = ("a", "b", "_k_per_q")

    def __init__(self, a: Fraction, b: Fraction) -> None:
        a, b = Fraction(a), Fraction(b)
        if not (0 < b < a):
            raise ValueError("tile lengths must satisfy 0 < b < a")
        # then a + b, 2(a - b) and 4 pi/(a + b) are all finite floats
        if not 2.0**-1020 <= a + b <= 2.0**1022:
            raise ValueError("tile lengths must keep a + b in the float range, 2^-1020 to 2^1022")
        init = object.__setattr__
        init(self, "a", a)
        init(self, "b", b)
        init(self, "_k_per_q", 4.0 * np.pi / float(a + b))

    def __reduce__(self):
        return QuasicrystalParams, (self.a, self.b)

    def __eq__(self, other):
        if other.__class__ is not QuasicrystalParams:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"QuasicrystalParams(a={self.a!r}, b={self.b!r})"

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
        """Physical wave vector k = (4*pi/(a+b)) * q; ValueError where k
        is beyond the float range."""
        try:
            k = self._k_per_q * float(q)
        except OverflowError:
            k = math.inf
        if not math.isfinite(k):
            raise ValueError("wave vector k = 4 pi q/(a+b) is beyond the float range")
        return k


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


_LOG10_2 = math.log10(2.0)


def number_text(x: int | Fraction) -> str:
    """x, an int or a rational, as text for a message: str(x), except that
    an integer of more than 30 digits, or a numerator or denominator that
    long, reads as its first and last five digits and its digit count:
    10^400 is "10000…00000 (401 digits)".  No decimal text of the whole
    integer is made, so Python's limit of 4300 digits on that conversion
    does not apply."""
    x = Fraction(x)
    parts = (x.numerator,) if x.denominator == 1 else (x.numerator, x.denominator)
    return "/".join(_integer_text(n) for n in parts)


def _integer_text(n: int) -> str:
    m = abs(n)
    if m < 10 ** 30:
        return str(n)
    digits = int((m.bit_length() - 1) * _LOG10_2) + 1  # the count or one less
    while 10 ** digits <= m:
        digits += 1
    while 10 ** (digits - 1) > m:
        digits -= 1
    sign = "-" if n < 0 else ""
    return f"{sign}{m // 10 ** (digits - 5)}…{m % 10 ** 5:05d} ({digits} digits)"
