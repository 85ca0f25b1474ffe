"""Spectral classification of wave vectors for the unit-weight comb.

Rational q = t/(2^h p) in lowest terms (p odd) determines everything:

  p = 1            Bragg position (dyadic denominator),
  p >= 3, kappa_eta(k) = 0   excluded (tile-modulation extinction),
  p >= 3, kappa_eta(k) != 0  singular-continuous with exponent
                             alpha = 2 beta(p) - 1, independent of h.

Irrational wave vectors cannot be certified pointwise; they are classified
as almost-sure null per the ergodic average of log|sin| under doubling.

The rarefaction domain at q = t/p is the image in the complex plane of the
box of profile ranges under z = sum_j y_j xi^j with xi = exp(-2 pi i t/p);
being the image of a box under a linear map it is a zonogon, so its extreme
moduli are computed exactly from the boundary rather than by sampling.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

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
    "classify_real",
    "alpha_exact",
    "halving_reduction",
    "rarefaction_domain",
    "extinction_possible",
    "growth_regime",
    "normalized_densities",
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
    ALMOST_SURE_NULL = "AlmostSureNull"


class GrowthRegime(enum.Enum):
    SIZE_INCREASING = "size-increasing"
    ETALE = "etale"
    SIZE_DECREASING = "size-decreasing"


@dataclass(frozen=True)
class NormalizedWaveVector:
    """q = t/(2^h p) in lowest terms with p odd; the split is unique."""

    t: int
    h: int
    p: int

    @property
    def q(self) -> Fraction:
        return Fraction(self.t, (1 << self.h) * self.p)

    def physical_k(self, params: QuasicrystalParams) -> float:
        return params.wave_vector(self.q)


def normalize_wavevector(q: Fraction) -> NormalizedWaveVector:
    """Split the reduced denominator of q into 2^h times an odd p."""
    q = Fraction(q)
    d = q.denominator
    h = (d & -d).bit_length() - 1
    return NormalizedWaveVector(q.numerator, h, d >> h)


def alpha_exact(p: int, h: int = 0) -> float:
    """alpha = 2 beta(p) - 1 for an odd prime p; constant in h by the dyadic
    halving identity, so h only participates in the signature."""
    if h < 0:
        raise ValueError("h must be >= 0")
    rec = quadfield.prime_record(p)
    if rec.beta is not None:
        beta = rec.beta
    else:
        beta = rareclass.scaling_exponents(p).beta
    return 2.0 * beta - 1.0


@dataclass(frozen=True)
class SpectralVerdict:
    """Classification of one wave vector with supporting diagnostics."""

    kind: SpectralKind
    q: Fraction | None
    t: int | None
    h: int | None
    p: int | None
    k: float
    alpha: float | None
    kappa_eta: complex
    exponent_source: str | None = None    # closed-form | composite-dominant | fitted
    conjectural: bool = False
    kappa_eta_boundary: bool = False      # 0 < |kappa_eta| < 1e-7
    residue_alpha: float | None = None    # coset-resolved exponent at t (primes)
    fit: diffract.AlphaFit | None = None


def _composite_split_3_5(p: int) -> tuple | None:
    """(r1, r2) when p = 3^{r1} 5^{r2} with r1, r2 >= 1, else None."""
    r1 = 0
    while p % 3 == 0:
        p //= 3
        r1 += 1
    r2 = 0
    while p % 5 == 0:
        p //= 5
        r2 += 1
    return (r1, r2) if p == 1 and r1 >= 1 and r2 >= 1 else None


def classify(
    q: Fraction,
    params: QuasicrystalParams,
    horizon_exponent: int = 20,
) -> SpectralVerdict:
    """Classify a rational normalized wave vector.

    Extinction (kappa_eta = 0) is decided on the exact rational q.  For odd
    prime p the exponent comes from the closed per-class formulas
    (delegating to the coset spectrum outside the three classes); primes
    above `rareclass.MAX_SPECTRUM_P` raise ValueError.
    For p = 3^{r1} 5^{r2} the dominant-prime exponent log3/(2 log 2) is used.
    Other composite p get a fitted exponent flagged as conjectural.

    Diagnostics: for primes the coset-resolved exponent at the residue t is
    reported as `residue_alpha`; when t sits in a subdominant coset the
    approximants at this exact q decay at the subdominant rate even though
    the headline alpha is positive.
    """
    nwv = normalize_wavevector(Fraction(q))
    k = nwv.physical_k(params)
    ke = diffract.kappa_eta_closed(k, params)
    if nwv.p == 1:
        return SpectralVerdict(
            SpectralKind.BRAGG, nwv.q, nwv.t, nwv.h, nwv.p, k, None, ke
        )
    # |kappa_eta| = sin^2(2 pi q (a - b)/(a + b)) vanishes exactly when
    # 2 q (a - b)/(a + b) is an integer
    if (2 * nwv.q * (params.a - params.b) / (params.a + params.b)).denominator == 1:
        return SpectralVerdict(
            SpectralKind.EXCLUDED, nwv.q, nwv.t, nwv.h, nwv.p, k, None, ke
        )
    boundary = abs(ke) < _KAPPA_ETA_NEAR_ZERO
    p = nwv.p
    if quadfield.is_prime(p):
        # first: it refuses p above the coset-spectrum limit before the
        # closed forms factor p - 1
        res_alpha = 2.0 * rareclass.residue_exponent(p, nwv.t % p) - 1.0
        alpha = alpha_exact(p, nwv.h)
        return SpectralVerdict(
            SpectralKind.SINGULAR_CONTINUOUS, nwv.q, nwv.t, nwv.h, nwv.p, k,
            alpha, ke,
            exponent_source="closed-form",
            kappa_eta_boundary=boundary,
            residue_alpha=res_alpha,
        )
    if _composite_split_3_5(p) is not None:
        beta = math.log(3.0) / (2.0 * math.log(2.0))
        return SpectralVerdict(
            SpectralKind.SINGULAR_CONTINUOUS, nwv.q, nwv.t, nwv.h, nwv.p, k,
            2.0 * beta - 1.0, ke,
            exponent_source="composite-dominant",
            kappa_eta_boundary=boundary,
        )
    sizes = _prime_progression_sizes(p, horizon_exponent)
    fit = diffract.fitted_alpha(k, sizes, params)
    return SpectralVerdict(
        SpectralKind.SINGULAR_CONTINUOUS, nwv.q, nwv.t, nwv.h, nwv.p, k,
        fit.alpha, ke,
        exponent_source="fitted",
        conjectural=True,
        kappa_eta_boundary=boundary,
        fit=fit,
    )


def classify_real(k_over_scale: float, params: QuasicrystalParams) -> SpectralVerdict:
    """Verdict for a wave vector given only as a real number: treated as
    irrational, hence almost-sure null; no pointwise claim is made."""
    k = params.wave_vector(k_over_scale)
    return SpectralVerdict(
        SpectralKind.ALMOST_SURE_NULL, None, None, None, None, k,
        -1.0, diffract.kappa_eta_closed(k, params),
    )


def _prime_progression_sizes(p: int, horizon_exponent: int, per_octave: int = 4) -> list:
    """Sizes l = p N + 1 with N log-spaced up to 2^horizon_exponent / p."""
    n_top = max(16, ((1 << horizon_exponent) - 1) // p)
    count = max(8, per_octave * int(math.log2(n_top / 4)))
    # a set of Python ints, not np.unique, which imports numpy.ma on first use
    ns = sorted({int(n) for n in np.round(np.logspace(math.log10(4), math.log10(n_top), count))})
    return [int(p * n + 1) for n in ns]


# ---------------------------------------------------------------------------
# dyadic halving of the denominator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalvingReduction:
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

@dataclass(frozen=True)
class RarefactionDomain:
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
    vertices: tuple = field(repr=False)
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


def normalized_densities(
    q: Fraction,
    params: QuasicrystalParams,
    alpha: float,
    sizes: Sequence[int],
) -> np.ndarray:
    """nu_l(k)/l^alpha over the given sizes, for extinction scans."""
    k = params.wave_vector(q)
    dens = diffract.density_at_sizes(k, sizes, params)
    return dens / np.asarray([float(s) for s in sizes]) ** alpha


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


@dataclass(frozen=True)
class MarcinkiewiczEstimate:
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


@dataclass(frozen=True)
class InvarianceReport:
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
