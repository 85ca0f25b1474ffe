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
an l-term scan.  One walk core (`_walk_core`) serves every unit-weight
quantity: it builds the products on the exact frac(2q), shared by every q
with the same frac(2q), and every phase is reduced on integers first.  The
doubling orbits of a grid's tables meet, so one call computes each sine of
them once, and each walk is turned into floats once for all its q.  A
float wave vector k takes the same route at q = k(a+b)/(4 pi), rounded
once to a float.  Weighted combs keep the vectorized scan.

Sign-sequence exponential sums S_l(x) = sum_{j<l} eta_j exp(-2 pi i j x) use
the same block products, at 2x: S_{2L}(x) = (1 - e^{-2 pi i x}) T_L(2x), so
one walk per size gives a wave vector's density and its exponent alpha_l.
At l = 2^n they collapse to the classical product

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
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .tmcore import QuasicrystalParams, sign_array, tm_sign

__all__ = [
    "FourierCoefficients",
    "AlphaFit",
    "ExtinctionError",
    "fourier_sum",
    "approximant_density",
    "density_at_sizes",
    "density_at_q",
    "density_at_qs",
    "eta_sum",
    "eta_sums_at_sizes",
    "riesz_product",
    "kappa_pair",
    "kappa_eta_closed",
    "kappa_eta_at_q",
    "kappa_closed",
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
) -> np.ndarray:
    """Approximant densities nu_l(k) at several truncation sizes, in caller
    order, for a wave vector given as a float.

    With unit weights this is `density_at_q` at the float
    q = k(a+b)/(4 pi): its table is built on frac(2q), the exact integer
    ratio of x = k(a+b)/(2 pi), and its phases on the exact frac(q), so the
    only rounding is that of q itself.  A float carries only 53 bits of the
    doubling orbit, so sizes from 2^53 on raise ValueError; pass a rational
    q to `density_at_q` for those.

    `weights`, when given, is an array indexed by n-1 covering max(sizes);
    weighted densities are one cumulative O(max(sizes)) pass over n,
    vectorized in chunks.
    """
    if weights is not None:
        return _weighted_density_scan(k, _checked_sizes(sizes), params, weights)
    q = k * float(params.a + params.b) / (4.0 * math.pi)
    return np.array([nu for nu, _ in density_at_q(q, sizes, params)], dtype=float)


def density_at_q(q, sizes: Sequence[int], params: QuasicrystalParams) -> list:
    """(nu_l(k), alpha_l(q)) for each size l, in caller order, at the
    rational wave vector k = 4 pi q/(a+b): the one-q case of
    `density_at_qs`."""
    return density_at_qs([q], sizes, params)[0]


def density_at_qs(qs: Sequence, sizes: Sequence[int], params: QuasicrystalParams) -> list:
    """For each rational wave vector q of `qs`, in order, the list of
    (nu_l(k), alpha_l(q)) at k = 4 pi q/(a+b) for each size l, in caller
    order.

    Splitting n by parity, f(2m) = m(a+b) and f(2m+1) = m(a+b) + c + d eta_m
    (c = (a+b)/2, d = (a-b)/2) give, with L = floor(l/2),

        sum_{n<2L} e^{-ik f(n)} = (1 + w cos kd) G_L - i w sin(kd) T_L,

    where w = e^{-ikc} = e^{-2 pi i q}, kd = 2 pi q (a-b)/(a+b), and G_L,
    T_L are the block sums at z = e^{-ik(a+b)} = e^{-2 pi i (2q)}; the
    density adds n = 2L (and n = 2L+1 for odd l) and drops n = 0.  Since
    eta_{2m} = eta_m and eta_{2m+1} = -eta_m, the same walk gives the sign
    sum S_l(q) = (1 - w) T_L (+ eta_L z^L for odd l), so
    |S_{2L}(q)|^2 = 4 sin^2(pi q) |T_L|^2, and at l = 2^n T_L is one
    product entry of the table.

    The walks come from `_walk_core`, shared by the q with the same
    frac(2q), and carry G_L and T_L as complex values and log l, so with
    1 + w cos kd and i w sin kd formed once per q a row costs a few float
    operations.  cos kd and sin kd come from the integer numerator of
    frac(q (a-b)/(a+b)), so every phase is exact at every size.  alpha_l
    is -inf where S_l vanishes and None at l = 1; a density beyond the
    float range raises ValueError.  A float q is exact too, but stands
    for a wave vector known to 53 bits, so it is refused from l = 2^53 on.
    """
    ratio = (params.a - params.b) / (params.a + params.b)
    out = []
    for (t, d), (w, one_minus_w), walks in _walk_core(qs, sizes):  # q = t/d
        num, den = t * ratio.numerator, d * ratio.denominator
        g = math.gcd(num, den)
        (r,), den = _orbit(num // g, den // g, 1)
        (s, f), c = _sin_cos_pi(r, den)
        s = math.ldexp(s, f)
        cos_kd, sin_kd = (c - s) * (c + s), 2.0 * s * c  # exactly 0 where they vanish
        g_factor, t_factor = 1.0 + w * cos_kd, 1j * w * sin_kd
        values = []
        for walk in walks:
            l, log_l, sums, _, z_half, eta = walk
            if sums is None:
                raise ValueError(f"nu_l at l = {l} exceeds the float range")
            total = g_factor * sums[0] - t_factor * sums[1] - 1.0 + z_half
            if l % 2:  # n = l = 2L + 1: f(l) = L(a+b) + c + d eta_L
                total += z_half * w * complex(cos_kd, -eta * sin_kd)
            try:
                nu = abs(total) ** 2 / l
            except OverflowError:
                raise ValueError(f"nu_l at l = {l} exceeds the float range") from None
            alpha = None if l == 1 else _exponent(_sign_sum(walk, one_minus_w), log_l)
            values.append((nu, alpha))
        out.append(values)
    return out


def _weighted_density_scan(k, sizes, params, weights) -> np.ndarray:
    """The weighted comb: one cumulative pass over n up to max(sizes), in
    vectorized chunks of 2^20 terms."""
    if not sizes:
        return np.zeros(0)
    chunk = 1 << 20
    sorted_idx = np.argsort(sizes, kind="stable")
    sizes_arr = np.asarray(sizes, dtype=np.int64)[sorted_idx]
    l_max = int(sizes_arr[-1])
    if len(weights) < l_max:
        raise ValueError(
            f"weights must cover max(sizes) = {l_max} terms, not len(weights) = {len(weights)}"
        )
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
_LOG_2 = math.log(2.0)


def _dyadic_fracs(x, n: int) -> tuple:
    """frac(2^j x) for j = 0..n-1, taken in (-1/2, 1/2], as integer
    numerators over the denominator of x: (numerators, den).

    The orbit runs on the integer ratio of x, so it is exact for a Fraction,
    an int and a float alike.  A float is a dyadic rational: its orbit
    reaches 0 once its 53-bit mantissa has been shifted out.
    """
    return _orbit(*x.as_integer_ratio(), n)


def _orbit(num: int, den: int, n: int) -> tuple:
    """`_dyadic_fracs` of x = num/den, den > 0, on the integers alone."""
    num %= den
    out = []
    for _ in range(n):
        out.append(num if 2 * num <= den else num - den)
        num = 2 * num % den
    return out, den


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


def _sin_cos_pi(r: int, den: int) -> tuple:
    """((s, f), c): sin(pi psi) = s 2^f and c = cos(pi psi) for
    psi = r/den in (-1/2, 1/2].

    c is taken as sin(pi (1/2 - |psi|)), exactly 0 at psi = 1/2.  Where
    r/den underflows or goes subnormal, sin(pi psi) = pi psi to far below
    float precision, taken as (pi r 2^f / den) 2^-f, so the sine is 0 only
    at r = 0.
    """
    s = math.sin(math.pi * (r / den))
    c = math.sin(math.pi * ((den - 2 * abs(r)) / (2 * den)))
    if r != 0 and abs(s) < _SMALLEST_NORMAL:
        f = den.bit_length() - abs(r).bit_length() + 1
        return (math.pi * ((r << f) / den), -f), c
    return (s, 0), c


def _factors(r: int, den: int) -> tuple:
    """The per-bit factors of `_block_table` at psi = r/den in
    (-1/2, 1/2], theta = pi psi: (e^{-i theta}, e^{-2 i theta}, 2 cos theta,
    2i s, f) with sin theta = s 2^f (`_sin_cos_pi`)."""
    (s, f), c = _sin_cos_pi(r, den)
    rot = complex(c, -math.ldexp(s, f))  # e^{-i theta}
    return rot, rot * rot, 2.0 * c, 2j * s, f


def _turn(num: int, den: int) -> tuple:
    """(w, 1 - w) for w = e^{-2 pi i x}, x = num/den, from the exact frac(x);
    1 - w is a (mantissa, exponent) pair: 2i sin(theta) e^{-i theta} with
    theta = pi frac(x), the T factor of `_block_table` one bit below its
    first, so it is 0 only at integer x and keeps its relative precision
    where frac(x) is tiny."""
    (r,), den = _orbit(num, den, 1)
    rot, w, _, two_i_s, f = _factors(r, den)
    return w, _rescale(two_i_s * rot, f)


def _block_table(num: int, den: int, top: int, sines: dict) -> tuple:
    """The per-frequency part of the block sums for z = e^{-2 pi i x},
    x = num/den, bits 0..top: (prod_g, prod_t, steps).

    They are read off the doubling orbit psi_i = frac(2^i x) in (-1/2, 1/2]
    (`_orbit`, exact).  With theta_i = pi psi_i, prod_g[j] and
    prod_t[j] are the (mantissa, exponent) products over i < j of
    2 cos(theta_i) e^{-i theta_i} = 1 + z^{2^i} and
    2i sin(theta_i) e^{-i theta_i} = 1 - z^{2^i}, and steps[i] = z^{2^i}.
    Each factor is a sine whose argument is exactly 0 where the factor
    vanishes (z^{2^i} = -1 for G, z^{2^i} = 1 for T).  Every entry depends
    only on the lower bits, so one table built up to the top bit of the
    largest L serves every smaller L unchanged (`_walk_blocks`).

    `sines` maps each r met so far to `_factors(r, den)` and is filled
    here: the tables of one `_walk_core` call at the same den pass the same
    dict, so orbits that meet compute each sine once.  A product is
    rescaled to 1/2 <= |m| < 1 in place; `_rescale` takes only a subnormal
    |m|.
    """
    nums, den = _orbit(num, den, top + 1)
    frexp, ldexp = math.frexp, math.ldexp
    gm = tm = 1 + 0j
    ge = te = 0
    prod_g, prod_t = [(gm, ge)], [(tm, te)]  # products over i < j
    steps = []  # z^{2^i}
    for i, r in enumerate(nums):  # psi_i = r / den
        factors = sines.get(r)
        if factors is None:
            factors = sines[r] = _factors(r, den)
        rot, step, two_c, two_i_s, f = factors
        steps.append(step)
        if i == top:
            break
        gm = gm * two_c * rot
        if gm:
            k = frexp(abs(gm))[1]
            if k < -1000:
                gm, ge = _rescale(gm, ge)
            else:
                gm *= ldexp(1.0, -k)
                ge += k
        prod_g.append((gm, ge))
        tm = tm * two_i_s * rot
        te += f
        if tm:
            k = frexp(abs(tm))[1]
            if k < -1000:
                tm, te = _rescale(tm, te)
            else:
                tm *= ldexp(1.0, -k)
                te += k
        prod_t.append((tm, te))
    return prod_g, prod_t, steps


def _walk_blocks(table: tuple, big_l: int) -> tuple:
    """(G_L, T_L, z^L, eta_L) from a `_block_table` that reaches the top
    bit of L.

    A binary block of L of length 2^j at offset o (the sum of the higher
    bits of L) contributes z^o prod_g[j] to G_L and eta_o z^o prod_t[j] to
    T_L; past the last block the offset is L.  G_L and T_L are
    (mantissa, exponent) pairs, value = mantissa * 2^exponent, so no L
    overflows or underflows; each block is added as `_add_scaled` adds it.
    """
    prod_g, prod_t, steps = table
    ldexp = math.ldexp
    gm = tm = 0j
    ge = te = 0
    z_off, eta_off = 1 + 0j, 1  # z^o and eta_o at the current block's offset
    rest, j = big_l, big_l.bit_length()  # the blocks still to add lie below bit j
    while rest:
        j -= 1
        if rest >> j & 1:
            rest ^= 1 << j
            m, e = prod_g[j]
            m = z_off * m
            if m:
                if not gm:
                    gm, ge = m, e
                elif ge < e:
                    gm, ge = m + gm * ldexp(1.0, ge - e), e
                else:
                    gm += m * ldexp(1.0, e - ge)
            m, e = prod_t[j]
            m = eta_off * z_off * m
            if m:
                if not tm:
                    tm, te = m, e
                elif te < e:
                    tm, te = m + tm * ldexp(1.0, te - e), e
                else:
                    tm += m * ldexp(1.0, e - te)
            z_off *= steps[j]
            eta_off = -eta_off
    return (gm, ge), (tm, te), z_off, eta_off


def _block_sums(x, big_l: int) -> tuple:
    """G_L = sum_{m<L} z^m and T_L = sum_{m<L} eta_m z^m for z = e^{-2 pi i x},
    L >= 1, in O(log L) operations; returns (G_L, T_L, z^L)."""
    table = _block_table(*x.as_integer_ratio(), big_l.bit_length() - 1, {})
    return _walk_blocks(table, big_l)[:3]


def _checked_sizes(sizes: Sequence[int], least: int = 1) -> list:
    """The sizes as ints; ValueError if one is below `least` (1 or 2)."""
    sizes = [int(s) for s in sizes]
    if sizes and min(sizes) < least:
        raise ValueError("sizes must be >= 1" if least == 1 else f"l must be >= {least}")
    return sizes


def _walk_core(xs: Sequence, sizes: Sequence[int], least: int = 1) -> list:
    """The unit-weight route: for each frequency x of `xs`, in order,
    ((t, d), (w, 1 - w), walks), with x = t/d in lowest terms, w and 1 - w
    from `_turn`, and one walk per size l, in caller order, on the table at
    z = e^{-2 pi i (2x)}:

        (l, log l, (G_L, T_L) as complex values, T_L as a (mantissa,
        exponent) pair, z^L, eta_L),   L = floor(l/2),

    where the complex pair is None if G_L or T_L is beyond the float range.

    Frequencies that agree mod 1/2 share one `_block_table`, built up to
    the top bit of the largest L and keyed on frac(2x) in lowest terms as
    an integer pair, and one list of walks.  The tables at one denominator
    share one dict of sines (`_factors` by orbit numerator), made for this
    call and dropped with it: a grid's doubling orbits meet, so the 128
    tables of 14 bits of `--grid 1/3:1/256:257` need 263 sines, not 1792.
    A float x carries only 53 bits of its doubling orbit, so a float among
    `xs` is refused from l = 2^53 on; Fractions and ints are exact at
    every size.
    """
    ratios = [Fraction(x).as_integer_ratio() for x in xs]
    sizes = _checked_sizes(sizes, least)
    largest = max(sizes, default=0)
    if largest >= FLOAT_ORBIT_LIMIT and not all(isinstance(x, (Fraction, int)) for x in xs):
        raise ValueError(
            f"l = {largest} needs more of the frequency's doubling orbit than the 53 "
            "bits of a float hold (float frequencies need l < 2^53); pass a Fraction"
        )
    top = (largest // 2).bit_length() - 1
    logs = [math.log(l) for l in sizes]
    sines = {}  # den -> {r: _factors(r, den)}, shared by the tables at den
    walks = {}  # (num mod den, den) of frac(2x) -> the walks of its table
    out = []
    for t, d in ratios:
        key = (t % (d >> 1), d >> 1) if d % 2 == 0 else (2 * t % d, d)
        size_walks = walks.get(key)
        if size_walks is None:
            table = _block_table(*key, top, sines.setdefault(key[1], {}))
            size_walks = walks[key] = []
            for l, log_l in zip(sizes, logs):
                g, t_pair, z_half, eta = _walk_blocks(table, l // 2)
                try:
                    sums = _unscale(g), _unscale(t_pair)
                except OverflowError:  # |G_L| or |T_L| from 2^1023 on: no density
                    sums = None
                size_walks.append((l, log_l, sums, t_pair, z_half, eta))
        out.append(((t, d), _turn(t, d), size_walks))
    return out


def _sign_sum(walk: tuple, one_minus_w: tuple) -> tuple:
    """S_l(x) as a (mantissa, exponent) pair from a `_walk_core` walk at l,
    with one_minus_w = 1 - e^{-2 pi i x} (`_turn`):
    S_{2L}(x) = (1 - e^{-2 pi i x}) T_L(2x), and odd l adds the last term
    eta_{2L} e^{-2 pi i 2L x} = eta_L z^L."""
    l, _, _, (m, e), z_half, eta = walk
    s = (one_minus_w[0] * m, one_minus_w[1] + e)
    if l % 2:
        s = _add_scaled(s, (eta * z_half, 0))
    return s


def _exponent(s: tuple, log_l: float) -> float:
    """alpha_l from S_l as a (mantissa, exponent) pair and log l:
    l^{alpha_l} = |S_l|^2 / l, -inf where S_l = 0."""
    m, e = s
    if m == 0:
        return -math.inf
    return (2.0 * (math.log(abs(m)) + e * _LOG_2) - log_l) / log_l


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

    S_l(x) comes from the `_walk_core` walks at x (`_sign_sum`).  x is a
    float or a Fraction: a Fraction's doubling orbit is exact at every l, a
    float's only for l < 2^53, so larger sizes with a float x raise
    ValueError.
    """
    ((_, (_, one_minus_w), walks),) = _walk_core([x], sizes)
    out = np.empty(len(walks))
    for idx, walk in enumerate(walks):
        l = walk[0]
        m, e = _sign_sum(walk, one_minus_w)
        top = l.bit_length() - 1
        try:  # |m|^2 2^{2e} / l with l = 2^top * (l / 2^top)
            out[idx] = math.ldexp(abs(m) ** 2, 2 * e - top) / (l / (1 << top))
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
    The `_walk_core` walks at x give S_l (`_sign_sum`); at l = 2^n the walk
    reads one product entry, and a zero factor makes it exactly 0.
    O(log l) per size, never overflowing, so l may be astronomically large
    when x is a Fraction (exact orbit).  A float x is limited to l < 2^53
    (ValueError beyond).
    """
    ((_, (_, one_minus_w), walks),) = _walk_core([x], sizes, least=2)
    return [_exponent(_sign_sum(walk, one_minus_w), walk[1]) for walk in walks]


# ---------------------------------------------------------------------------
# Fourier coefficients of the tile-modulation phase
# ---------------------------------------------------------------------------

def kappa_closed(k: float, params: QuasicrystalParams) -> complex:
    """Even-index coefficient sum: the Fourier series evaluated at x = 0 and
    x = 1/2 (midpoint regularization at the jump), averaged.  With
    theta = 2 (a-b) k, that average ((1 + e^{-i theta})/2 + e^{-i theta/2})/2
    is e^{-i theta/2} cos^2(theta/4)."""
    theta = float(params.alpha2) * k
    return cmath.exp(-0.5j * theta) * math.cos(0.25 * theta) ** 2


def kappa_eta_closed(k: float, params: QuasicrystalParams) -> complex:
    """Odd-index coefficient sum ((1 + e^{-i theta})/2 - e^{-i theta/2})/2
    = -e^{-i theta/2} sin^2(theta/4), theta = 2 (a-b) k; it vanishes exactly
    when k (a-b) is a multiple of 2 pi (the Bragg-extinction locus).  The
    product form has no cancellation, so |kappa_eta| keeps its relative
    precision near the locus, where the difference form lost every digit."""
    theta = float(params.alpha2) * k
    return -cmath.exp(-0.5j * theta) * math.sin(0.25 * theta) ** 2


def kappa_eta_at_q(q, params: QuasicrystalParams) -> complex:
    """`kappa_eta_closed` at the rational wave vector k = 4 pi q/(a+b), from
    the exact phase: theta/4 = pi u with u = 2q(a-b)/(a+b), reduced mod 1
    as a Fraction before any float is formed.  The float k carries an
    absolute phase error of about u |theta|, which near the extinction
    locus at large |q| is larger than |kappa_eta| itself; this form keeps
    its relative precision at every q."""
    u = 2 * Fraction(q) * (params.a - params.b) / (params.a + params.b)
    (r,), den = _dyadic_fracs(u, 1)
    (s, f), c = _sin_cos_pi(r, den)
    s = math.ldexp(s, f)
    return -complex(c, -s) ** 2 * (s * s)  # -e^{-i theta/2} sin^2(theta/4)


class FourierCoefficients(NamedTuple):
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
    """The even- and odd-index sums over |m| <= m_max of the Fourier
    coefficients c_m(k) = (-1)^m exp(-i k a2/2) sinc(a2 k/2 + m pi) of
    x -> exp(-i k a2 frac(x)), a2 = 2(a-b)."""
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
# exponent fitting
# ---------------------------------------------------------------------------

class AlphaFit(NamedTuple):
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
