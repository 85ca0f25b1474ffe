"""Spectral classification of wave vectors for the unit-weight comb.

Rational q = t/(2^h p) in lowest terms (p odd) determines everything:

  p = 1            Bragg position (dyadic denominator),
  p >= 3, kappa_eta(k) = 0   excluded (tile-modulation extinction),
  p >= 3, kappa_eta(k) != 0  singular-continuous with exponent
                             alpha = 2 beta(p) - 1, independent of h.

Only rational wave vectors are classified: an irrational one cannot be
certified pointwise.

The rarefaction domain at q = t/p is the image in the complex plane of the
box of profile ranges under z = sum_j y_j xi^j with xi = exp(-2 pi i t/p);
being the image of a box under a linear map it is a zonogon, so its extreme
moduli are computed exactly from the boundary rather than by sampling.
"""

from __future__ import annotations

import cmath
import enum
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

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
    conjectural: bool = False             # always False: every exponent is exact
    kappa_eta_boundary: bool = False      # 0 < |kappa_eta| < 1e-7
    residue_alpha: float | None = None    # coset-resolved exponent at t (primes)
    extinct: bool = False                 # Bragg position whose unit-weight density dies


def _prime_betas(p: int, t: int) -> tuple:
    """(beta(p), beta_t(p), source) for an odd prime p <= the coset-spectrum
    limit: one `prime_record`, then the closed forms for P1, P21 and P23
    (O(log p) for the residue), else the cached coset spectrum and the O(s)
    orbit sum of t."""
    rec = quadfield.prime_record(p)
    if rec.beta is not None:
        return rec.beta, quadfield.residue_beta(rec, t), "closed-form"
    beta = rareclass.scaling_exponents(p).beta
    return beta, rareclass.residue_exponent(p, t), "coset-spectrum"


def classify(q: Fraction, params: QuasicrystalParams) -> SpectralVerdict:
    """Classify a rational normalized wave vector.

    Extinction (kappa_eta = 0) is decided on the exact rational q, and
    kappa_eta itself is computed from its reduced phase
    (`diffract.kappa_eta_at_q`), so |kappa_eta| and `kappa_eta_boundary`
    keep their relative precision at every |q|.  A dyadic q is BRAGG, with
    `extinct` set where its unit-weight density vanishes (`_dyadic_extinct`,
    an exact rational test).  Every
    other odd part p gets the exact exponent alpha = 2 beta(p) - 1, with
    beta(p) the largest orbit exponent max_t beta_t(p):

      P1, P21, P23 primes   closed forms from `quadfield.prime_record`
      Other primes          the cached coset spectrum (`rareclass`)
      composites            `rareclass.max_orbit_exponent`

    p above `rareclass.MAX_SPECTRUM_P` raises ValueError before any O(p)
    work, prime or not.

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
    p = nwv.p
    # O(1), first: nothing factors p - 1 or builds an O(p) table above the cap
    rareclass.check_spectrum_size(p)
    if quadfield.is_prime(p):
        beta, res_beta, source = _prime_betas(p, nwv.t % p)
        res_alpha = 2.0 * res_beta - 1.0
    else:
        beta, res_alpha, source = rareclass.max_orbit_exponent(p), None, "orbit-formula"
    return SpectralVerdict(
        SpectralKind.SINGULAR_CONTINUOUS, nwv.q, nwv.t, nwv.h, nwv.p, k,
        2.0 * beta - 1.0, ke,
        exponent_source=source,
        kappa_eta_boundary=abs(ke) < _KAPPA_ETA_NEAR_ZERO,
        residue_alpha=res_alpha,
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
    density at q = t/(2^h p); requires n > h."""
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
    reduced = diffract.riesz_product(n - h, Fraction(t, p)) / 2.0 ** (n - h)
    lhs = diffract.riesz_product(n, q_full) / 2.0**n
    return HalvingReduction(t, h, p, n, pref, reduced, lhs)


# ---------------------------------------------------------------------------
# rarefaction domain (zonogon geometry)
# ---------------------------------------------------------------------------

class RarefactionDomain(NamedTuple):
    """Image of the profile-range box under z = sum_j y_j xi^j.

    Bounds are empirical profile ranges, so the domain is an estimate of the
    true object; its extreme moduli over the zonogon are computed exactly.
    """

    p: int
    t: int
    xi: complex
    box_bounds: tuple
    min_mod: float
    max_mod: float
    contains_zero: bool
    vertices: tuple
    horizon_exponent: int = 0


def _zonogon_vertices(center: np.ndarray, gens: list) -> list:
    """Boundary vertices of center + sum of segments [-g, g], counterclockwise.

    Generators are flipped into the upper half-plane and sorted by angle;
    walking them twice (once added, once subtracted) traces the boundary.
    """
    gens = [g for g in gens if math.hypot(g[0], g[1]) > 0.0]
    if not gens:
        return [(float(center[0]), float(center[1]))]
    fixed = []
    for g in gens:
        ang = math.atan2(g[1], g[0])
        if ang < 0 or (ang == 0 and g[0] < 0):
            g = (-g[0], -g[1])
            ang = math.atan2(g[1], g[0])
        fixed.append((ang, g))
    fixed.sort(key=lambda t: t[0])
    start = np.array(center, dtype=float) - sum((np.array(g) for _, g in fixed), np.zeros(2))
    verts = [start]
    cur = start
    for _, g in fixed:
        cur = cur + 2.0 * np.array(g)
        verts.append(cur)
    for _, g in fixed:
        cur = cur - 2.0 * np.array(g)
        verts.append(cur)
    return [(float(v[0]), float(v[1])) for v in verts[:-1]]


def _polygon_min_max_mod(verts: list, tol: float = 1e-12) -> tuple:
    """(min |z|, max |z|, contains origin) for a convex polygon."""
    pts = np.array(verts)
    mods = np.hypot(pts[:, 0], pts[:, 1])
    max_mod = float(mods.max())
    if len(pts) == 1:
        return float(mods[0]), max_mod, bool(mods[0] <= tol)
    inside = True
    sign = 0.0
    m = len(pts)
    for i in range(m):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % m]
        cross = (bx - ax) * (0.0 - ay) - (by - ay) * (0.0 - ax)
        if abs(cross) <= tol:
            continue
        if sign == 0.0:
            sign = math.copysign(1.0, cross)
        elif math.copysign(1.0, cross) != sign:
            inside = False
            break
    if sign == 0.0:
        # degenerate (all boundary edges collinear with the origin):
        # decide by distance instead of winding
        inside = False
    min_mod = math.inf
    for i in range(m):
        a = pts[i]
        b = pts[(i + 1) % m]
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0.0 else float(np.clip(-(a @ ab) / denom, 0.0, 1.0))
        closest = a + t * ab
        min_mod = min(min_mod, float(math.hypot(*closest)))
    if inside:
        return 0.0, max_mod, True
    return min_mod, max_mod, min_mod <= tol


def rarefaction_domain(
    t: int,
    p: int,
    horizon_exponent: int,
    profiles: Sequence[rareclass.FractalProfile] | None = None,
    resolution: int = 256,
) -> RarefactionDomain:
    """Build the rarefaction domain at q = t/p from empirical profile bounds.

    The box [inf psi_j, sup psi_j]^p maps linearly onto a zonogon; min and
    max modulus are taken on its boundary (max at a vertex, min at an edge
    projection or zero if the origin is enclosed).
    """
    if not quadfield.is_prime(p) or p == 2:
        raise ValueError("rarefaction domains are built for odd primes")
    if math.gcd(t, p) != 1:
        raise ValueError("t must be coprime to p")
    if profiles is None:
        profiles = [
            rareclass.fractal_profile(p, j, horizon_exponent, resolution=resolution)
            for j in range(p)
        ]
    bounds = tuple(pr.bounds for pr in profiles)
    xi = cmath.exp(-2j * math.pi * t / p)
    dirs = [xi**j for j in range(p)]
    center = np.array([0.0, 0.0])
    gens = []
    for (lo, hi), d in zip(bounds, dirs):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        center += np.array([mid * d.real, mid * d.imag])
        gens.append((half * d.real, half * d.imag))
    verts = _zonogon_vertices(center, gens)
    min_mod, max_mod, contains = _polygon_min_max_mod(verts)
    return RarefactionDomain(
        p=p, t=t, xi=xi, box_bounds=bounds,
        min_mod=min_mod, max_mod=max_mod, contains_zero=contains,
        vertices=tuple(verts), horizon_exponent=horizon_exponent,
    )


def extinction_possible(domain: RarefactionDomain) -> bool:
    """True when the domain reaches the origin: only then can a subsequence
    of approximants die at the singular wave vector.  When False, every
    subsequence keeps nu_l / l^alpha bounded away from zero."""
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
