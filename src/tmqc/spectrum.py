"""Spectral classification of wave vectors for the unit-weight comb.

Rational q = t/(2^h p) in lowest terms (p odd) determines everything:

  p = 1            Bragg position (dyadic denominator),
  p >= 3, kappa_eta(k) = 0   excluded (tile-modulation extinction),
  p >= 3, kappa_eta(k) != 0  singular-continuous with exponent
                             alpha = 2 beta(p) - 1, independent of h.

Only rational wave vectors are classified: an irrational one cannot be
certified pointwise.

The rarefaction domain at q = t/p is the set of points
sum_j psi_j(n) xi^j = S_n(t/p) / n^beta with xi = exp(-2 pi i t/p); its
moduli are read from the sign-sum walk at the exact rational t/p, over the
scanned n <= 2^H, so its answers hold over those n only.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import diffract, quadfield, rareclass
from .tmcore import QuasicrystalParams

__all__ = [
    "SpectralKind",
    "GrowthRegime",
    "NormalizedWaveVector",
    "SpectralVerdict",
    "RarefactionDomain",
    "HalvingReduction",
    "MarcinkiewiczEstimate",
    "InvarianceReport",
    "normalize_wavevector",
    "classify",
    "halving_reduction",
    "rarefaction_domain",
    "extinction_possible",
    "growth_regime",
    "marcinkiewicz_norm",
    "class_invariance_check",
]

# |kappa_eta| below this, though not zero, sets `kappa_eta_boundary`: a
# float route that reads kappa_eta would take such a q for extinct
_KAPPA_ETA_NEAR_ZERO = 1e-7


class SpectralKind(enum.Enum):
    BRAGG = "Bragg"
    SINGULAR_CONTINUOUS = "SingularContinuous"
    EXCLUDED = "Excluded"


class GrowthRegime(enum.Enum):
    SIZE_INCREASING = "size-increasing"
    ETALE = "etale"
    SIZE_DECREASING = "size-decreasing"


class NormalizedWaveVector(NamedTuple):
    """q = t/(2^h p) in lowest terms with p odd; the split is unique."""

    t: int
    h: int
    p: int

    @property
    def q(self) -> Fraction:
        return Fraction(self.t, (1 << self.h) * self.p)


def normalize_wavevector(q: Fraction) -> NormalizedWaveVector:
    """Split the reduced denominator of q into 2^h times an odd p."""
    q = Fraction(q)
    d = q.denominator
    h = (d & -d).bit_length() - 1
    return NormalizedWaveVector(q.numerator, h, d >> h)


class SpectralVerdict(NamedTuple):
    """Classification of one wave vector with supporting diagnostics."""

    kind: SpectralKind
    q: Fraction | None
    t: int | None
    h: int | None
    p: int | None
    k: float
    alpha: float | None
    kappa_eta: complex
    exponent_source: str | None = None    # closed-form | coset-spectrum | orbit-formula
    kappa_eta_boundary: bool = False      # 0 < |kappa_eta| < 1e-7
    residue_alpha: float | None = None    # coset-resolved exponent at t (primes)
    extinct: bool = False                 # Bragg position whose unit-weight density dies


def classify(q: Fraction, params: QuasicrystalParams) -> SpectralVerdict:
    """Classify a rational normalized wave vector.

    Extinction (kappa_eta = 0) is decided on the exact rational q, and
    kappa_eta itself is computed from its reduced phase
    (`diffract.kappa_eta_at_q`), so |kappa_eta| and `kappa_eta_boundary`
    keep their relative precision at every |q|.  A dyadic q is BRAGG, with
    `extinct` set where its unit-weight density vanishes (`_dyadic_extinct`,
    an exact rational test).  Every
    other odd part p gets the exact exponent alpha = 2 beta(p) - 1, with
    beta(p) the largest orbit exponent max_t beta_t(p), from one
    `rareclass.odd_part_exponents` call, which picks the route and names it
    in `exponent_source`: closed forms for P1, P21 and P23 primes, the
    cached coset spectrum for Other primes, the orbit formula for
    composites.  p above `rareclass.MAX_SPECTRUM_P` raises ValueError
    before any O(p) work, prime or not.

    Diagnostics: for primes the coset-resolved exponent at the residue t is
    reported as `residue_alpha`; when t sits in a subdominant coset the
    approximants at this exact q decay at the subdominant rate even though
    the headline alpha is positive.
    """
    nwv = normalize_wavevector(Fraction(q))
    k = params.wave_vector(nwv.q)
    ke = diffract.kappa_eta_at_q(nwv.q, params)
    # u = 2 q (a - b)/(a + b); |kappa_eta| = sin^2(pi u) vanishes exactly
    # when u is an integer
    u = 2 * nwv.q * (params.a - params.b) / (params.a + params.b)
    if nwv.p == 1:
        return SpectralVerdict(
            SpectralKind.BRAGG, nwv.q, nwv.t, nwv.h, nwv.p, k, None, ke,
            extinct=_dyadic_extinct(nwv, u),
        )
    if u.denominator == 1:
        return SpectralVerdict(
            SpectralKind.EXCLUDED, nwv.q, nwv.t, nwv.h, nwv.p, k, None, ke
        )
    beta, res_beta, source = rareclass.odd_part_exponents(nwv.p, nwv.t % nwv.p)
    return SpectralVerdict(
        SpectralKind.SINGULAR_CONTINUOUS, nwv.q, nwv.t, nwv.h, nwv.p, k,
        2.0 * beta - 1.0, ke,
        exponent_source=source,
        kappa_eta_boundary=abs(ke) < _KAPPA_ETA_NEAR_ZERO,
        residue_alpha=None if res_beta is None else 2.0 * res_beta - 1.0,
    )


def _dyadic_extinct(nwv: NormalizedWaveVector, u: Fraction) -> bool:
    """Whether the unit-weight density vanishes at the dyadic q = t/2^h.

    With z = e^{-2 pi i 2q}, w = e^{-2 pi i q} and kd = pi u (see
    `diffract.density_at_qs`): for h >= 2, z is a root of unity of order
    2^{h-1} >= 2, so G_L and T_L vanish at L = 2^n for n >= h, and
    nu_l = 0 exactly at l = 2^n for n >= h + 1.  For h <= 1, z = 1 and w = (-1)^{2q};
    nu_l grows like l |1 + w cos kd|^2 / 4 unless 1 + w cos kd = 0, which
    holds exactly when u is an integer with u + 2q odd (tiles (3,1) at
    q = 1)."""
    if nwv.h >= 2:
        return True
    return u.denominator == 1 and (u.numerator + int(2 * nwv.q)) % 2 == 1


# ---------------------------------------------------------------------------
# dyadic halving of the denominator
# ---------------------------------------------------------------------------

class HalvingReduction(NamedTuple):
    """(1/2^n)|S_{2^n}(t/(2^h p))|^2 factors as prefactor times the density
    at the odd denominator: both sides are carried for verification."""

    t: int
    h: int
    p: int
    n: int
    prefactor: float
    reduced_density: float
    lhs: float

    @property
    def rhs(self) -> float:
        return self.prefactor * self.reduced_density


def halving_reduction(t: int, h: int, p: int, n: int) -> HalvingReduction:
    """Split the dyadic part of the denominator out of the sign-sequence
    density at q = t/(2^h p); requires n > h.  Both densities come from
    `diffract.eta_sums_at_sizes` at the exact rationals, which carries S_l
    as a (mantissa, exponent) pair, so they stay finite wherever
    |S_l|^2 / l does (1.5^1100 at q = 1/3, n = 1100)."""
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be odd and >= 3")
    if h < 0 or n <= h:
        raise ValueError("need 0 <= h < n")
    if math.gcd(t, (1 << h) * p) != 1:
        raise ValueError("t must be coprime to 2^h p")
    q_full = Fraction(t, (1 << h) * p)
    pref = 2.0**h
    for j in range(h):
        pref *= math.sin(math.pi * float(Fraction(t * (1 << j), (1 << h) * p) % 1)) ** 2
    (reduced,) = diffract.eta_sums_at_sizes(Fraction(t, p), [1 << (n - h)])
    (lhs,) = diffract.eta_sums_at_sizes(q_full, [1 << n])
    return HalvingReduction(t, h, p, n, pref, float(reduced), float(lhs))


# ---------------------------------------------------------------------------
# rarefaction domain (the sign-sum walk)
# ---------------------------------------------------------------------------

class RarefactionDomain(NamedTuple):
    """Extreme moduli of F(n) = |S_n(t/p)| / n^beta over the scanned n <= 2^H,
    with the n attaining each (None where the domain is the point 0)."""

    p: int
    t: int
    horizon_exponent: int
    min_mod: float
    max_mod: float
    argmin_n: int | None
    argmax_n: int | None
    contains_zero: bool


def rarefaction_domain(t: int, p: int, horizon_exponent: int) -> RarefactionDomain:
    """The rarefaction domain at q = t/p, read from the sign-sum walk.

    The domain's point sum_j psi_j(n) xi^j, xi = e^{-2 pi i t/p}, is
    S_n(t/p) / n^beta, so its moduli are F(n) = sqrt(|S_n|^2 / n * n) / n^beta
    with |S_n|^2 / n from `diffract.eta_sums_at_sizes` at the exact
    Fraction(t, p), over every n <= 2^min(H, 14) and 64 log-spaced n per
    octave up to 2^H.  At a dominant t (beta_t = beta, from one
    `rareclass.odd_part_exponents` call) |S_{2^s n}| = 2^{s beta} |S_n|
    exactly, so F is constant along each fibre n 2^{ks} and every finite-n
    modulus is the domain's modulus on its fibre.  At a subdominant t the
    sums grow at beta_t < beta, F tends to 0 on every fibre, and the domain
    is the point 0.  The minimum is over the scanned n only: it bounds
    inf F from above, so `contains_zero` (min_mod <= 1e-12) can miss a
    deeper dip between the samples above 2^14.

    Refused with ValueError: p not an odd prime or above 2^23, t not
    coprime to p, H outside [1, 62].
    """
    if not quadfield.is_prime(p) or p == 2:
        raise ValueError("rarefaction domains are built for odd primes")
    if math.gcd(t, p) != 1:
        raise ValueError("t must be coprime to p")
    if not 1 <= horizon_exponent <= rareclass.MAX_PROFILE_HORIZON:
        raise ValueError(
            f"horizon_exponent must lie in [1, {rareclass.MAX_PROFILE_HORIZON}]"
        )
    beta, beta_t, _ = rareclass.odd_part_exponents(p, t % p)
    if beta_t != beta:
        return RarefactionDomain(p, t, horizon_exponent, 0.0, 0.0, None, None, True)
    # every n <= 2^min(H, 14), then floor(2^(o + k/64)), k = 1..64, per octave o
    ns = list(range(1, (1 << min(horizon_exponent, 14)) + 1))
    for octave in range(14, horizon_exponent):
        ns.extend(int(2.0 ** (octave + k / 64)) for k in range(1, 65))
    sizes = np.asarray(ns, dtype=float)
    mods = np.sqrt(diffract.eta_sums_at_sizes(Fraction(t, p), ns) * sizes) / sizes**beta
    lo, hi = int(np.argmin(mods)), int(np.argmax(mods))
    return RarefactionDomain(
        p, t, horizon_exponent, float(mods[lo]), float(mods[hi]), ns[lo], ns[hi],
        bool(mods[lo] <= 1e-12),
    )


def extinction_possible(domain: RarefactionDomain) -> bool:
    """True when the domain reaches the origin, that is when the scanned
    amplitude F(n) = |S_n(t/p)| / n^beta falls to 1e-12 or is the point 0
    of a subdominant t: only then can a subsequence of approximants die at
    the singular wave vector.  False means no scanned n <= 2^H comes that
    close; min_mod bounds inf F from above, so this is no proof that
    every subsequence keeps nu_l / l^alpha away from zero."""
    return domain.contains_zero


def growth_regime(alpha: float, tol: float = 1e-12) -> GrowthRegime:
    """Map the exponent to its regime; exact zero (within tol) is etale."""
    if not -1.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (-1, 1)")
    if alpha > tol:
        return GrowthRegime.SIZE_INCREASING
    if alpha < -tol:
        return GrowthRegime.SIZE_DECREASING
    return GrowthRegime.ETALE


# ---------------------------------------------------------------------------
# Marcinkiewicz pseudo-norm and class invariance of intensities
# ---------------------------------------------------------------------------

def _weights_array(weights, length: int) -> np.ndarray:
    if callable(weights):
        return np.array([weights(n) for n in range(1, length + 1)])
    arr = np.asarray(weights)
    if len(arr) < length:
        raise ValueError("weight array shorter than requested horizon")
    return arr[:length]


class MarcinkiewiczEstimate(NamedTuple):
    """Truncated stand-in for limsup (1/l) sum_{n<=l} |w(n)|: the maximum of
    the averaged absolute weights over the dyadic tail window [L/2, L]."""

    horizon: int
    value: float
    window_lo: int
    dyadic_values: tuple   # (l, average) pairs for monotonicity diagnostics


def marcinkiewicz_norm(weights, horizon: int) -> MarcinkiewiczEstimate:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    w = np.abs(_weights_array(weights, horizon)).astype(float)
    means = np.cumsum(w) / np.arange(1, horizon + 1)
    lo = max(1, horizon // 2)
    dyads = []
    j = 1
    while (1 << j) <= horizon:
        dyads.append((1 << j, float(means[(1 << j) - 1])))
        j += 1
    return MarcinkiewiczEstimate(
        horizon=horizon,
        value=float(means[lo - 1 :].max()),
        window_lo=lo,
        dyadic_values=tuple(dyads),
    )


class InvarianceReport(NamedTuple):
    """Per-horizon comparison of intensities of two weight sequences."""

    q: Fraction
    horizons: tuple
    intensity_1: tuple
    intensity_2: tuple
    norm_gap: tuple              # averaged |w1 - w2| per horizon
    bound_ok: bool               # I_i <= (average |w_i|)^2 + tol everywhere
    gap_ok: bool                 # |sqrt I_1 - sqrt I_2| <= norm gap + tol
    final_gap: float             # |I_1 - I_2| at the largest horizon


def class_invariance_check(
    w1,
    w2,
    q: Fraction,
    horizon: int,
    params: QuasicrystalParams,
    tol: float = 1e-9,
) -> InvarianceReport:
    """Check that intensities per site respect the averaged-weight bound and
    that Marcinkiewicz-close weights give close intensities.

    Both inequalities are exact (triangle inequality); tol only absorbs
    rounding.  Horizons are dyadic up to `horizon`.
    """
    a1 = _weights_array(w1, horizon)
    a2 = _weights_array(w2, horizon)
    k = params.wave_vector(q)
    horizons = [1 << j for j in range(8, horizon.bit_length()) if (1 << j) <= horizon]
    if not horizons or horizons[-1] != horizon:
        horizons.append(horizon)
    d1 = diffract.density_at_sizes(k, horizons, params, weights=a1)
    d2 = diffract.density_at_sizes(k, horizons, params, weights=a2)
    ls = np.asarray(horizons, dtype=float)
    i1 = d1 / ls
    i2 = d2 / ls
    m1 = np.cumsum(np.abs(a1)) / np.arange(1, horizon + 1)
    m2 = np.cumsum(np.abs(a2)) / np.arange(1, horizon + 1)
    mg = np.cumsum(np.abs(a1 - a2)) / np.arange(1, horizon + 1)
    idx = np.asarray(horizons) - 1
    bound_ok = bool(
        np.all(i1 <= m1[idx] ** 2 + tol) and np.all(i2 <= m2[idx] ** 2 + tol)
    )
    gap_ok = bool(np.all(np.abs(np.sqrt(i1) - np.sqrt(i2)) <= mg[idx] + tol))
    return InvarianceReport(
        q=Fraction(q),
        horizons=tuple(horizons),
        intensity_1=tuple(float(v) for v in i1),
        intensity_2=tuple(float(v) for v in i2),
        norm_gap=tuple(float(v) for v in mg[idx]),
        bound_ok=bound_ok,
        gap_ok=gap_ok,
        final_gap=float(abs(i1[-1] - i2[-1])),
    )
