"""Finite-size diffraction of the weighted comb on the two-tile point set.

The l-th approximant density at wave vector k is

    nu_l(k) = (1/l) |sum_{n=1}^{l} w(n) exp(-i k f(n))|^2 ,

with all weights equal to one unless stated otherwise.  Scaling of nu_l with
l separates the spectrum: growth like l is a Bragg peak, growth like l^alpha
with alpha in (-1,1) is the singular-continuous signature, and decay like
1/l is the generic (extinct) case.

With unit weights nu_l reduces to two sums over m < L ~ l/2 of z^m and
eta_m z^m, z = exp(-i k (a+b)); both split over the binary blocks of L into
products over its digits, so a density costs O(log l) operations instead of
an l-term scan.  Weighted combs keep the vectorized scan.

Sign-sequence exponential sums S_l(x) = sum_{j<l} eta_j exp(-2 pi i j x) use
the same block products.  At l = 2^n they collapse to the classical product

    |S_{2^n}(x)|^2 = 2^{2n} prod_{j<n} sin^2(pi 2^j x),

which is used both as a fast evaluator and as a structural identity under
test.  The block products read the doubling orbit frac(2^j x): exact when x
is a Fraction, while a float x carries only 53 bits of it, so float
frequencies are refused from l = 2^53 on.  Fourier coefficients c_m of the
tile-modulation phase and their even/odd partial sums kappa, kappa_eta
decide Bragg extinction.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .tmcore import QuasicrystalParams, sign_array, tm_sign

__all__ = [
    "ApproximantValue",
    "FourierCoefficients",
    "AlphaFit",
    "ExtinctionError",
    "fourier_sum",
    "approximant_density",
    "density_at_sizes",
    "eta_sum",
    "eta_sums_at_sizes",
    "riesz_product",
    "coefficient_cm",
    "kappa_pair",
    "kappa_eta_closed",
    "kappa_closed",
    "is_bragg",
    "scaling_exponent_alpha",
    "scaling_exponents_at_sizes",
    "fitted_alpha",
]


class ExtinctionError(ValueError):
    """A sampled approximant density vanished along the requested sizes."""


# ---------------------------------------------------------------------------
# truncated Fourier sums of the weighted comb
# ---------------------------------------------------------------------------

def _weight_at(weights, n: int) -> complex:
    if weights is None:
        return 1.0
    if callable(weights):
        return weights(n)
    return weights[n - 1]


def fourier_sum(l: int, k: float, params: QuasicrystalParams, weights=None) -> complex:
    """sum_{n=1}^{l} w(n) exp(-i k f(n)) with Kahan-compensated accumulation.

    Reference scalar path; use `density_at_sizes` for large scans.  `weights`
    is None (all ones), a sequence indexed by n-1, or a callable of n.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    half_sum = float(params.alpha1)
    half_diff = float((params.a - params.b) / 2)
    sr = si = cr = ci = 0.0  # sums and compensations, real/imag
    for n in range(1, l + 1):
        f = n * half_sum
        if n % 2 == 1:
            f += half_diff * tm_sign(n - 1)
        z = _weight_at(weights, n) * cmath.exp(-1j * k * f)
        y = z.real - cr
        t = sr + y
        cr = (t - sr) - y
        sr = t
        y = z.imag - ci
        t = si + y
        ci = (t - si) - y
        si = t
    return complex(sr, si)


@dataclass(frozen=True)
class ApproximantValue:
    """nu_l(k): the l-th approximant density at wave vector k."""

    l: int
    k: float
    density: float

    def __post_init__(self) -> None:
        if self.density < 0:
            raise ValueError("densities are nonnegative by construction")


def approximant_density(l: int, k: float, params: QuasicrystalParams, weights=None) -> float:
    """(1/l) |fourier_sum|^2."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return abs(fourier_sum(l, k, params, weights)) ** 2 / l


def density_at_sizes(
    k: float,
    sizes: Sequence[int],
    params: QuasicrystalParams,
    weights: np.ndarray | None = None,
    chunk: int = 1 << 20,
) -> np.ndarray:
    """Approximant densities nu_l(k) at several truncation sizes, in caller
    order.

    With unit weights each size costs O(log l).  Splitting n by parity,
    f(2m) = m(a+b) and f(2m+1) = m(a+b) + c + d eta_m give

        sum_{n<2L} e^{-ik f(n)} = (1 + e^{-ikc} cos kd) G_L(z) - i e^{-ikc} sin(kd) T_L(z)

    with c = (a+b)/2, d = (a-b)/2 and z = e^{-ik(a+b)}; G_L and T_L come from
    one `_block_table` built for the largest size.  The float k carries the
    doubling orbit of z exactly only for l < 2^53, so larger sizes raise
    ValueError.

    `weights`, when given, is an array indexed by n-1 covering max(sizes);
    weighted densities are one cumulative O(max(sizes)) pass over n,
    vectorized in chunks.
    """
    caller_sizes = [int(s) for s in sizes]
    if not caller_sizes:
        return np.zeros(0)
    if min(caller_sizes) < 1:
        raise ValueError("sizes must be >= 1")
    if weights is not None:
        return _weighted_density_scan(k, caller_sizes, params, weights, chunk)
    x = k * float(params.a + params.b) / (2.0 * math.pi)  # z = e^{-2 pi i x}
    _check_float_orbit(x, max(caller_sizes))
    kd = k * float((params.a - params.b) / 2)
    rot = cmath.exp(-1j * k * float(params.alpha1))
    even_w = 1.0 + rot * math.cos(kd)
    odd_w = -1j * rot * math.sin(kd)
    # n < 2L covers n = 0..l for odd l and n = 0..l-1 for even l
    table = _block_table(x, ((max(caller_sizes) + 1) // 2).bit_length() - 1)
    out = np.empty(len(caller_sizes))
    for idx, l in enumerate(caller_sizes):
        g, t, z_half = _walk_blocks(table, (l + 1) // 2)
        total = even_w * _unscale(g) + odd_w * _unscale(t) - 1.0  # drop n = 0
        if l % 2 == 0:
            total += z_half  # n = l: f(l) = (l/2)(a+b)
        out[idx] = abs(total) ** 2 / l
    return out


def _weighted_density_scan(k, sizes, params, weights, chunk) -> np.ndarray:
    """The weighted comb: one cumulative pass over n up to max(sizes)."""
    sorted_idx = np.argsort(sizes, kind="stable")
    sizes_arr = np.asarray(sizes, dtype=np.int64)[sorted_idx]
    l_max = int(sizes_arr[-1])
    half_sum = float(params.alpha1)
    half_diff = float((params.a - params.b) / 2)
    out = np.empty(len(sizes_arr))
    total = 0.0 + 0.0j
    pos = 0
    for lo in range(1, l_max + 1, chunk):
        hi = min(lo + chunk, l_max + 1)
        n = np.arange(lo, hi, dtype=np.float64)
        f = n * half_sum
        odd = np.arange(lo, hi) % 2 == 1
        eta_prev = sign_array(lo - 1, hi - 1)
        f[odd] += half_diff * eta_prev[odd]
        ph = np.exp(-1j * k * f)
        ph *= np.asarray(weights[lo - 1 : hi - 1])
        cs = np.cumsum(ph)
        while pos < len(sizes_arr) and sizes_arr[pos] < hi:
            s = int(sizes_arr[pos])
            out[pos] = abs(total + cs[s - lo]) ** 2 / s
            pos += 1
        total += cs[-1]
    result = np.empty(len(out))
    result[sorted_idx] = out
    return result


# ---------------------------------------------------------------------------
# binary block sums
# ---------------------------------------------------------------------------

FLOAT_ORBIT_LIMIT = 1 << 53
_SMALLEST_NORMAL = sys.float_info.min
_LOG_PI = math.log(math.pi)


def _dyadic_fracs(x, n: int) -> tuple:
    """frac(2^j x) for j = 0..n-1, taken in (-1/2, 1/2], as integer
    numerators over the denominator of x: (numerators, den).

    The orbit runs on the integer ratio of x, so it is exact for a Fraction,
    an int and a float alike.  A float is a dyadic rational: its orbit
    reaches 0 once its 53-bit mantissa has been shifted out.
    """
    num, den = x.as_integer_ratio()
    num %= den
    out = []
    for _ in range(n):
        out.append(num if 2 * num <= den else num - den)
        num = 2 * num % den
    return out, den


def _check_float_orbit(x, l: int) -> None:
    """Refuse a float frequency at sizes its 53-bit doubling orbit cannot
    resolve (the orbit of a float reaches 0 after about 53 doublings)."""
    if l >= FLOAT_ORBIT_LIMIT and not isinstance(x, (Fraction, int)):
        raise ValueError(
            f"l = {l} needs more of the frequency's doubling orbit than the 53 "
            "bits of a float hold (float frequencies need l < 2^53); pass a Fraction"
        )


def _rescale(m: complex, e: int) -> tuple:
    """(m, e) -> (m', e') with m 2^e = m' 2^e' and 1/2 <= |m'| < 1 (0 stays 0)."""
    if m == 0:
        return m, e
    f = math.frexp(abs(m))[1]
    if f < -1000:  # subnormal |m|: 2^-f alone would overflow
        return m * 2.0 ** 1000 * math.ldexp(1.0, -f - 1000), e + f
    return m * math.ldexp(1.0, -f), e + f


def _add_scaled(acc: tuple, term: tuple) -> tuple:
    """Sum of two (mantissa, exponent) pairs, at the larger exponent."""
    if term[0] == 0:
        return acc
    if acc[0] == 0:
        return term
    if acc[1] < term[1]:
        acc, term = term, acc
    return acc[0] + term[0] * math.ldexp(1.0, term[1] - acc[1]), acc[1]


def _unscale(pair: tuple) -> complex:
    return pair[0] * math.ldexp(1.0, pair[1])


def _block_table(x, top: int) -> tuple:
    """The per-frequency part of the block sums for z = e^{-2 pi i x}, bits
    0..top: (nums, den, prod_g, prod_t, steps).

    nums/den is the doubling orbit psi_i = frac(2^i x) in (-1/2, 1/2]
    (`_dyadic_fracs`, exact).  With theta_i = pi psi_i, prod_g[j] and
    prod_t[j] are the (mantissa, exponent) products over i < j of
    2 cos(theta_i) e^{-i theta_i} = 1 + z^{2^i} and
    2i sin(theta_i) e^{-i theta_i} = 1 - z^{2^i}, and steps[i] = z^{2^i}.
    Each factor is a sine whose argument is exactly 0 where the factor
    vanishes (z^{2^i} = -1 for G, z^{2^i} = 1 for T).  Every entry depends
    only on the lower bits, so one table built up to the top bit of the
    largest L serves every smaller L unchanged (`_walk_blocks`).
    """
    nums, den = _dyadic_fracs(x, top + 1)
    prod_g, prod_t = [(1 + 0j, 0)], [(1 + 0j, 0)]  # products over i < j
    steps = []  # z^{2^i}
    for i, r in enumerate(nums):  # psi_i = r / den
        s = math.sin(math.pi * (r / den))
        c = math.sin(math.pi * ((den - 2 * abs(r)) / (2 * den)))
        rot = complex(c, -s)  # e^{-i theta}
        steps.append(rot * rot)
        if i < top:
            m, e = prod_g[-1]
            prod_g.append(_rescale(m * (2.0 * c) * rot, e))
            m, e = prod_t[-1]
            prod_t.append(_rescale(m * (2j * s) * rot, e))
    return nums, den, prod_g, prod_t, steps


def _walk_blocks(table: tuple, big_l: int) -> tuple:
    """(G_L, T_L, z^L) from a `_block_table` that reaches the top bit of L.

    A binary block of L of length 2^j at offset o (the sum of the higher
    bits of L) contributes z^o prod_g[j] to G_L and eta_o z^o prod_t[j] to
    T_L.  G_L and T_L are (mantissa, exponent) pairs, value =
    mantissa * 2^exponent, so no L overflows or underflows.
    """
    _, _, prod_g, prod_t, steps = table
    g = t = (0j, 0)
    z_off, eta_off = 1 + 0j, 1  # z^o and eta_o at the current block's offset
    for j in range(big_l.bit_length() - 1, -1, -1):
        if big_l >> j & 1:
            m, e = prod_g[j]
            g = _add_scaled(g, (z_off * m, e))
            m, e = prod_t[j]
            t = _add_scaled(t, (eta_off * z_off * m, e))
            z_off *= steps[j]
            eta_off = -eta_off
    return g, t, z_off


def _block_sums(x, big_l: int) -> tuple:
    """G_L = sum_{m<L} z^m and T_L = sum_{m<L} eta_m z^m for z = e^{-2 pi i x},
    L >= 1, in O(log L) operations; returns (G_L, T_L, z^L)."""
    return _walk_blocks(_block_table(x, big_l.bit_length() - 1), big_l)


# ---------------------------------------------------------------------------
# sign-sequence exponential sums
# ---------------------------------------------------------------------------

def eta_sum(l: int, x: float) -> complex:
    """S_l(x) = sum_{j=0}^{l-1} eta_j exp(-2 pi i j x), direct evaluation."""
    if l < 0:
        raise ValueError("l must be >= 0")
    acc = 0.0 + 0.0j
    for j in range(l):
        acc += tm_sign(j) * cmath.exp(-2j * math.pi * j * x)
    return acc


def eta_sums_at_sizes(x, sizes: Sequence[int]) -> np.ndarray:
    """|S_l(x)|^2 / l at several sizes l, in caller order; O(log l) each.

    S_l(x) is the block sum T_l, read from one `_block_table` built for the
    largest size.  x is a float or a Fraction: a Fraction's doubling orbit is
    exact at every l, a float's only for l < 2^53, so larger sizes with a
    float x raise ValueError.
    """
    caller_sizes = [int(s) for s in sizes]
    if not caller_sizes:
        return np.zeros(0)
    if min(caller_sizes) < 1:
        raise ValueError("sizes must be >= 1")
    _check_float_orbit(x, max(caller_sizes))
    table = _block_table(x, max(caller_sizes).bit_length() - 1)
    out = np.empty(len(caller_sizes))
    for idx, l in enumerate(caller_sizes):
        t, e = _walk_blocks(table, l)[1]
        top = l.bit_length() - 1
        try:  # |t|^2 2^{2e} / l with l = 2^top * (l / 2^top)
            out[idx] = math.ldexp(abs(t) ** 2, 2 * e - top) / (l / (1 << top))
        except OverflowError:
            raise ValueError(f"|S_l|^2 / l at l = {l} exceeds the float range") from None
    return out


def riesz_product(n: int, x) -> float:
    """2^{2n} prod_{j<n} sin^2(pi 2^j x); equals |S_{2^n}(x)|^2.

    Accepts float or Fraction x; the dyadic orbit is exact for both, so
    vanishing factors (dyadic x) give an exact zero.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    value = 1.0
    nums, den = _dyadic_fracs(x, n)
    for r in nums:
        if r == 0:
            return 0.0
        s = math.sin(math.pi * (r / den))
        value *= 4.0 * s * s
    return value


def scaling_exponent_alpha(l: int, x) -> float:
    """Finite-size exponent alpha_l(x) defined by l^{alpha_l} = |S_l(x)|^2/l;
    see `scaling_exponents_at_sizes`."""
    return scaling_exponents_at_sizes(x, [l])[0]


def scaling_exponents_at_sizes(x, sizes: Sequence[int]) -> list:
    """alpha_l(x) for several sizes l >= 2, in caller order, as floats.

    Returns -inf (the explicit extinction marker) where the sum vanishes.
    One `_block_table` is built for the largest size: powers of two read
    its orbit numerators in the product form, in log space; other l walk
    its blocks.  Both cost O(log l) per size and never overflow, so l may be
    astronomically large when x is a Fraction (exact orbit).  A float x is
    limited to l < 2^53 (ValueError beyond).
    """
    caller_sizes = [int(s) for s in sizes]
    if not caller_sizes:
        return []
    if min(caller_sizes) < 2:
        raise ValueError("l must be >= 2")
    _check_float_orbit(x, max(caller_sizes))
    table = _block_table(x, max(caller_sizes).bit_length() - 1)
    return [_alpha_from_table(table, l) for l in caller_sizes]


def _alpha_from_table(table: tuple, l: int) -> float:
    """alpha_l from a `_block_table` that reaches the top bit of l."""
    n = l.bit_length() - 1
    if l == 1 << n:
        log_sq = 2.0 * n * math.log(2.0)  # log 2^{2n}
        nums, den = table[0], table[1]
        for r in nums[:n]:
            s = abs(math.sin(math.pi * (r / den)))
            if s < _SMALLEST_NORMAL:
                if r == 0:
                    return -math.inf
                # r/den underflowed (or went subnormal); sin(pi x) = pi x
                # to far below float precision there
                log_sq += 2.0 * (_LOG_PI + math.log(abs(r)) - math.log(den))
                continue
            log_sq += 2.0 * math.log(s)
        return (log_sq - n * math.log(2.0)) / (n * math.log(2.0))
    t, e = _walk_blocks(table, l)[1]
    if t == 0:
        return -math.inf
    log_sq = 2.0 * (math.log(abs(t)) + e * math.log(2.0))
    return (log_sq - math.log(l)) / math.log(l)


# ---------------------------------------------------------------------------
# Fourier coefficients of the tile-modulation phase
# ---------------------------------------------------------------------------

def _sinc(x: float) -> float:
    """sin(x)/x with the removable singularity filled in."""
    if abs(x) < 1e-8:
        return 1.0 - x * x / 6.0
    return math.sin(x) / x


def coefficient_cm(m: int, k: float, params: QuasicrystalParams) -> complex:
    """c_m(k) = (-1)^m exp(-i k a2/2) sinc(a2 k/2 + m pi), the m-th Fourier
    coefficient of x -> exp(-i k a2 frac(x)) with a2 = 2(a-b)."""
    a2 = float(params.alpha2)
    sign = -1.0 if m % 2 else 1.0
    return sign * cmath.exp(-0.5j * k * a2) * _sinc(0.5 * a2 * k + m * math.pi)


def kappa_closed(k: float, params: QuasicrystalParams) -> complex:
    """Even-index coefficient sum: the Fourier series evaluated at x = 0 and
    x = 1/2 (midpoint regularization at the jump), averaged."""
    theta = float(params.alpha2) * k
    base = (1.0 + cmath.exp(-1j * theta)) / 2.0
    mid = cmath.exp(-0.5j * theta)
    return (base + mid) / 2.0


def kappa_eta_closed(k: float, params: QuasicrystalParams) -> complex:
    """Odd-index coefficient sum; vanishes exactly when k (a-b) is a multiple
    of 2 pi (the Bragg-extinction locus)."""
    theta = float(params.alpha2) * k
    base = (1.0 + cmath.exp(-1j * theta)) / 2.0
    mid = cmath.exp(-0.5j * theta)
    return (base - mid) / 2.0


@dataclass(frozen=True)
class FourierCoefficients:
    """Even/odd coefficient sums at one wave vector.

    kappa/kappa_eta are the closed forms; the partial fields are symmetric
    truncations over |m| <= m_max, kept for convergence control.
    """

    k: float
    m_max: int
    kappa: complex
    kappa_eta: complex
    kappa_partial: complex
    kappa_eta_partial: complex
    converged: bool


def _partial_kappa_sums(k: float, params: QuasicrystalParams, m_max: int) -> tuple:
    a2 = float(params.alpha2)
    m = np.arange(-m_max, m_max + 1)
    x = 0.5 * a2 * k + m * math.pi
    sc = np.where(np.abs(x) < 1e-12, 1.0, np.sin(x) / np.where(x == 0, 1.0, x))
    vals = np.where(m % 2 == 0, 1.0, -1.0) * sc * cmath.exp(-0.5j * a2 * k)
    even = m % 2 == 0
    return complex(vals[even].sum()), complex(vals[~even].sum())


def kappa_pair(
    k: float,
    params: QuasicrystalParams,
    m_max: int = 100_000,
    tol: float = 1e-6,
) -> FourierCoefficients:
    """Closed forms plus symmetric partial sums over |m| <= m_max.

    Convergence is flagged by comparing the truncations at m_max and 2 m_max;
    the symmetric tails cancel in pairs, giving an O(1/m_max) approach.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    kp, ke = _partial_kappa_sums(k, params, m_max)
    kp2, ke2 = _partial_kappa_sums(k, params, 2 * m_max)
    converged = abs(kp - kp2) <= tol and abs(ke - ke2) <= tol
    return FourierCoefficients(
        k=k,
        m_max=m_max,
        kappa=kappa_closed(k, params),
        kappa_eta=kappa_eta_closed(k, params),
        kappa_partial=kp,
        kappa_eta_partial=ke,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Bragg membership and exponent fitting
# ---------------------------------------------------------------------------

def is_bragg(q: Fraction) -> bool:
    """True iff the reduced denominator of q is a power of two, i.e. the
    normalized wave vector sits in the periodized dyadic group."""
    d = Fraction(q).denominator
    return d & (d - 1) == 0


@dataclass(frozen=True)
class AlphaFit:
    """Least-squares exponent of nu_l against l on a log-log grid."""

    alpha: float
    residual: float          # rms residual of the fit in log nu
    sizes: tuple
    densities: tuple


def fitted_alpha(
    k: float,
    sizes: Sequence[int],
    params: QuasicrystalParams,
    weights: np.ndarray | None = None,
) -> AlphaFit:
    """Fit log nu_l(k) = alpha log l + c over the given sizes.

    Sizes should be (roughly) geometrically spaced; at least four are
    required.  A density indistinguishable from zero at any sampled size
    aborts the fit: the subsequence is extinct and the exponent undefined.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 4:
        raise ValueError("need at least four sizes for a stable fit")
    dens = density_at_sizes(k, sizes, params, weights=weights)
    # numerical zero: |sum|^2/l below the rounding floor of an l-term sum
    floor = np.array([(1e-12 * l) ** 2 / l for l in sizes])
    if np.any(dens <= floor):
        bad = int(np.argmax(dens <= floor))
        raise ExtinctionError(
            f"density at size {sizes[bad]} is numerically zero; "
            "the exponent is undefined along this subsequence"
        )
    ll = np.log(np.asarray(sizes, dtype=float))
    lv = np.log(dens)
    coeffs, res = np.polyfit(ll, lv, 1, full=True)[:2]
    rms = math.sqrt(res[0] / len(sizes)) if len(res) else 0.0
    return AlphaFit(float(coeffs[0]), rms, tuple(sizes), tuple(float(d) for d in dens))
