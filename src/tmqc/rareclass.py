"""Arithmetic of p-rarefied partial sums of the sign sequence.

For an odd integer p >= 3 and residue i, S_{p,i}(n) is the sum of eta_m over
m < n with m = i (mod p).  The vector S(n) of all p residues obeys the exact
doubling relation S(2^s n) = M S(n), where s is the multiplicative order of 2
mod p and M is the p x p circulant matrix with entries S_{p,i-j}(2^s).  The
spectrum of M drives everything: the leading modulus lambda_1 gives the
growth exponent beta = log(lambda_1)/(s log 2), and continuous log-periodic
profiles psi_{p,j} interpolate S_{p,j}(n)/n^beta.

Two independent implementations of the sums are kept side by side: plain
summation (the oracle) and a binary digit recursion derived from
eta_{2m} = eta_m, eta_{2m+1} = -eta_m:

    S_{p,i}(2m) = S_{p, i/2 mod p}(m) - S_{p, (i-1)/2 mod p}(m)

with an additive boundary term eta_m at residue 2m mod p when the argument is
odd.  The recursion is exact integer arithmetic in O(p log n).  Profiles
run it once over all their samples together (`_svec_batch`); a table of
consecutive n is one running scan instead (`rarefied_rows`).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .tmcore import sign_array, signs_of, tm_sign
from .quadfield import PrimeClass, _factorize, classify_prime, is_prime, order_of_two

__all__ = [
    "RarefiedVector",
    "TransferMatrix",
    "ScalingExponents",
    "FractalProfile",
    "NewmanReport",
    "PositivityReport",
    "GrabnerReport",
    "rarefied_sum",
    "rarefied_sum_direct",
    "rarefied_vector",
    "rarefied_rows",
    "rarefied_series",
    "transfer_matrix",
    "cosets_of_two",
    "coset_eigenvalue",
    "residue_exponent",
    "eigenvalues_explicit",
    "scaling_exponents",
    "profile_period_factor",
    "profile_value",
    "fractal_profile",
    "coquet_decompose",
    "newman_check",
    "positivity_scan",
    "grabner_composite",
]

_LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# rarefied sums
# ---------------------------------------------------------------------------

def _check_p(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd integer >= 3")


def _svec(p: int, n: int) -> list:
    """Exact S_{p,*}(n) via the binary digit recursion, iterating over the
    bits of n from the most significant end.  Tracks eta of the current
    prefix m and the residue 2m mod p for the odd-bit boundary term."""
    if n == 0:
        return [0] * p
    inv2 = pow(2, -1, p)
    perm_num = [(i * inv2) % p for i in range(p)]
    perm_den = [((i - 1) * inv2) % p for i in range(p)]
    s = [0] * p
    m_mod = 0        # current prefix m modulo p
    eta_m = 1        # eta of the current prefix
    for bit in bin(n)[2:]:
        s = [s[perm_num[i]] - s[perm_den[i]] for i in range(p)]
        m_mod = (2 * m_mod) % p
        if bit == "1":
            s[m_mod] += eta_m
            m_mod = (m_mod + 1) % p
            eta_m = -eta_m
    return s


def _svec_batch(p: int, ns: Sequence[int]) -> np.ndarray:
    """Exact S_{p,*}(n) for every n in `ns`, as an (len(ns), p) int64 array.

    Runs `_svec`'s bit loop once over all samples together, aligned on the
    top bit of the largest n: a leading zero bit maps S = 0 to 0 and keeps
    the prefix at 0, so shorter n need no special case.  Entries are
    bounded by n/p + 1, so the state fits int64 for 0 <= n < 2^63.  Every
    row is checked against the column-sum identity.
    """
    n_arr = np.asarray(ns, dtype=np.int64)
    if n_arr.size and int(n_arr.min()) < 0:
        raise ValueError("n must be >= 0")
    inv2 = pow(2, -1, p)
    res = np.arange(p)
    perm_num = res * inv2 % p
    perm_den = (res - 1) * inv2 % p
    rows = np.arange(n_arr.size)
    s = np.zeros((n_arr.size, p), dtype=np.int64)
    m_mod = np.zeros(n_arr.size, dtype=np.int64)    # prefix m modulo p
    eta_m = np.ones(n_arr.size, dtype=np.int64)     # eta of the prefix
    top = int(n_arr.max()).bit_length() if n_arr.size else 0
    for b in range(top - 1, -1, -1):
        s = s[:, perm_num] - s[:, perm_den]
        m_mod = 2 * m_mod % p
        bit = n_arr >> b & 1
        s[rows, m_mod] += bit * eta_m
        m_mod = (m_mod + bit) % p
        eta_m -= 2 * bit * eta_m
    _check_column_sums(n_arr, s)
    return s


def _check_column_sums(n_arr: np.ndarray, vecs: np.ndarray) -> None:
    """Raise ArithmeticError unless each row of `vecs` sums to the prefix
    sum of the sign sequence at its n: 0 for even n, eta_{n-1} for odd n."""
    odd = (n_arr & 1).astype(bool)
    expected = np.zeros(n_arr.size, dtype=np.int64)
    expected[odd] = signs_of(n_arr[odd] - 1)
    bad = np.flatnonzero(vecs.sum(axis=1) != expected)
    if bad.size:
        raise ArithmeticError(
            f"rarefied column sum violates the prefix-sum identity at n={int(n_arr[bad[0]])}"
        )


def rarefied_sum(p: int, i: int, n: int) -> int:
    """S_{p,i}(n), exact, via the digit recursion (O(p log n))."""
    _check_p(p)
    if not 0 <= i < p:
        raise ValueError("residue i must lie in [0, p)")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _svec(p, n)[i]


def rarefied_sum_direct(p: int, i: int, n: int) -> int:
    """Oracle implementation: plain O(n/p) summation over the progression."""
    _check_p(p)
    if not 0 <= i < p:
        raise ValueError("residue i must lie in [0, p)")
    return sum(tm_sign(m) for m in range(i, n, p))


@dataclass(frozen=True)
class RarefiedVector:
    """The integer vector (S_{p,0}(n), ..., S_{p,p-1}(n))."""

    p: int
    n: int
    entries: tuple

    def __post_init__(self) -> None:
        # column sum equals the plain prefix sum of the sign sequence
        total = sum(self.entries)
        expected = 0 if self.n % 2 == 0 else tm_sign(self.n - 1)
        if total != expected:
            raise ArithmeticError("rarefied column sum violates the prefix-sum identity")

    def __getitem__(self, i: int) -> int:
        return self.entries[i]


def rarefied_vector(p: int, n: int) -> RarefiedVector:
    _check_p(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    return RarefiedVector(p, n, tuple(_svec(p, n)))


def rarefied_rows(p: int, limit: int) -> Iterator[tuple]:
    """The vectors S_{p,*}(n) for n = 0..limit in order, as tuples.

    One running scan, S(n+1) = S(n) + eta_n e_{n mod p}, over
    `sign_array(0, limit)`.  Each row is checked against the column-sum
    identity, and the last one against the digit recursion, before it is
    yielded.
    """
    _check_p(p)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    eta = sign_array(0, limit).tolist()
    s = [0] * p
    for n in range(limit + 1):
        if n:
            s[(n - 1) % p] += eta[n - 1]
        row = tuple(s)
        if sum(row) != (eta[n - 1] if n % 2 else 0):
            raise ArithmeticError(
                f"rarefied column sum violates the prefix-sum identity at n={n}"
            )
        if n == limit and row != rarefied_vector(p, limit).entries:
            raise ArithmeticError(f"rarefied scan disagrees with the digit recursion at n={n}")
        yield row


def rarefied_series(p: int, i: int, n_max: int, chunk: int = 1 << 22) -> np.ndarray:
    """S_{p,i}(n) for n = 1..n_max as an int64 array (vectorized scan).

    Values are bounded by n_max, far inside int64 range.
    """
    _check_p(p)
    out = np.empty(n_max, dtype=np.int64)
    total = 0
    for start in range(0, n_max, chunk):
        stop = min(start + chunk, n_max)
        eta = sign_array(start, stop).astype(np.int64)
        idx = np.arange(start, stop)
        eta[idx % p != i] = 0
        np.cumsum(eta, out=eta)
        out[start:stop] = eta + total
        total = int(out[stop - 1])
    return out


# ---------------------------------------------------------------------------
# transfer matrix and its spectrum
# ---------------------------------------------------------------------------

# the largest p whose coset spectrum is computed: the coset table holds p - 1
# int32 residues; at the cap it takes about 0.5 s and 130 MB to build
MAX_SPECTRUM_P = 1 << 23


def _check_spectrum_prime(p: int) -> None:
    if p > MAX_SPECTRUM_P:
        raise ValueError(
            f"p={p} exceeds the coset-spectrum limit p <= 2^23 = {MAX_SPECTRUM_P}"
        )
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")


def _powers(base: int, count: int, p: int) -> np.ndarray:
    """base^k mod p for k = 0..count-1 as int64: a block of ceil(sqrt(count))
    consecutive powers times the powers of the block's stride, so the Python
    loops take O(sqrt(count)) steps.  Needs p^2 < 2^63."""
    width = math.isqrt(count - 1) + 1
    head = [1]
    for _ in range(width):
        head.append(head[-1] * base % p)
    stride = head.pop()                 # base^width
    steps = [1]
    for _ in range((count - 1) // width):
        steps.append(steps[-1] * stride % p)
    block = np.array(steps, dtype=np.int64)[:, None] * np.array(head, dtype=np.int64) % p
    return block.ravel()[:count]


def _primitive_root(p: int) -> int:
    """The smallest generator of (Z/pZ)*, p an odd prime."""
    factors = _factorize(p - 1)
    g = 2
    while any(pow(g, (p - 1) // f, p) == 1 for f in factors):
        g += 1
    return g


def _orbit_log2(w: np.ndarray, p: int) -> np.ndarray:
    """Sum over the last axis of log2 |1 - zeta^w| = log2(2 sin(pi r / p)),
    r = min(w, p - w).

    The centred residue keeps the sine's argument in (0, pi/2], where it is
    well conditioned; an uncentred one (pi w / p near w = p, or 2 pi j / p
    near j = p/2) loses about p ulps in the sine.  Terms are summed in
    increasing r, so orbits with the same centred residues (a coset C and
    its conjugate -C) get bit-identical sums.
    """
    r = np.minimum(w, p - w)
    r.sort(axis=-1)
    x = r * (math.pi / p)
    del r                   # the float work runs in place, one array at a time
    np.sin(x, out=x)
    x *= 2.0
    np.log2(x, out=x)
    return x.sum(axis=-1)


@dataclass(frozen=True, eq=False)
class _CosetSpectrum:
    """The cosets a<2> of (Z/pZ)* with their eigenvalues
    xi_a = (-2i)^s prod_{j in a<2>} sin(2 pi j / p) = (-i)^s sign_a |xi_a|,
    ordered by |xi_a| descending, then by smallest representative.

    cosets       (m, s) int32, one coset per row, m = (p - 1)/s
    log2_moduli  (m,) log2 |xi_a|
    signs        (m,) sign of the sine product: -1 to the count of j > p/2
    """

    p: int
    s: int
    cosets: np.ndarray
    log2_moduli: np.ndarray
    signs: np.ndarray


@functools.lru_cache(maxsize=4)
def _coset_spectrum(p: int) -> _CosetSpectrum:
    """The coset spectrum of an odd prime p <= MAX_SPECTRUM_P, built once.

    With g a primitive root, row i of the table holds g^(i + m j) for
    j < s: that is g^i <g^m> = g^i <2>.  The arrays are read-only, since
    every caller shares them.
    """
    _check_spectrum_prime(p)
    s = order_of_two(p)
    m = (p - 1) // s
    powers = _powers(_primitive_root(p), p - 1, p)
    table = np.ascontiguousarray(powers.reshape(s, m).T, dtype=np.int32)
    del powers              # the int64 block, before the sums need memory
    logs = _orbit_log2(table, p)
    order = np.lexsort((table.min(axis=1), -logs))
    table, logs = table[order], logs[order]
    signs = 1 - 2 * (np.count_nonzero(table > p // 2, axis=1) & 1)
    for arr in (table, logs, signs):
        arr.flags.writeable = False
    return _CosetSpectrum(p, s, table, logs, signs)


def _exp2(x: float) -> float:
    """2^x, reading inf beyond the float range."""
    return 2.0**x if x < 1024.0 else math.inf


def _on_axis(v: float, s: int) -> complex:
    """v (-i)^s, with exactly zero components off the axis."""
    return (complex(v, 0.0), complex(0.0, -v), complex(-v, 0.0), complex(0.0, v))[s % 4]


def cosets_of_two(p: int) -> list:
    """Cosets of the subgroup <2> inside (Z/pZ)*, each sorted, listed by
    smallest representative."""
    rows = np.sort(_coset_spectrum(p).cosets, axis=1)
    return [tuple(row) for row in rows[np.argsort(rows[:, 0])].tolist()]


def coset_eigenvalue(p: int, t: int) -> complex:
    """Circulant eigenvalue at character t: prod over w in t<2> of (1 - zeta^w),
    zeta = exp(-2 pi i / p).  Its modulus equals |xi| of the matching coset.

    The direct complex product, one power per orbit step: kept as the
    independent oracle of the coset spectrum, which nothing else calls.
    """
    if t % p == 0:
        raise ValueError("t must be nonzero mod p")
    s = order_of_two(p)
    zeta = cmath.exp(-2j * math.pi / p)
    w = t % p
    mu = 1.0 + 0j
    for _ in range(s):
        mu *= 1.0 - zeta**w
        w = (2 * w) % p
    return mu


def residue_exponent(p: int, t: int) -> float:
    """Growth exponent of the sign-sequence exponential sum at frequency t/p:
    log2|mu_t| / s.  It is constant on cosets of <2>, so for primes with two
    cosets the exponent genuinely depends on the residue t: only the coset
    carrying lambda_1 grows at the headline rate.

    log2|mu_t| is summed over the orbit t 2^j mod p (j < s) alone, as in
    `_orbit_log2`: O(s) numpy work and no coset table.  |mu_t| itself, which
    leaves the float range at large s, is never formed.
    """
    _check_spectrum_prime(p)
    if t % p == 0:
        raise ValueError("t must be nonzero mod p")
    s = order_of_two(p)
    return float(_orbit_log2(t % p * _powers(2, s, p) % p, p)) / s


def eigenvalues_explicit(p: int) -> list:
    """One eigenvalue xi_a = (-2i)^s * prod_{j in a<2>} sin(2 pi j / p) per
    coset, in the coset spectrum's order: modulus descending, equal moduli
    (conjugate cosets) by smallest representative.  Their product equals p.
    Each lies exactly on an axis; a modulus beyond the float range reads inf."""
    sp = _coset_spectrum(p)
    return [
        _on_axis(sign * _exp2(lg), sp.s)
        for sign, lg in zip(sp.signs.tolist(), sp.log2_moduli.tolist())
    ]


@dataclass(frozen=True)
class ScalingExponents:
    """beta from lambda_1; beta1 from the two-case lambda_2 rule.

    The rule has a gap at lambda_2 = 1; in that boundary band beta1 is None
    and `lambda2_boundary` is set instead of silently picking a branch.
    """

    beta: float
    beta1: float | None
    lambda1: float
    lambda2: float
    lambda2_boundary: bool = False


@dataclass(frozen=True)
class TransferMatrix:
    """The circulant p x p integer matrix M with M[i][j] = S_{p,i-j}(2^s)."""

    p: int
    s: int
    entries: tuple              # row tuples, exact integers
    eigenvalues: tuple          # explicit coset eigenvalues, |.| descending
    exponents: ScalingExponents

    def column(self) -> tuple:
        """First column (S_{p,0}(2^s), ..., S_{p,p-1}(2^s))."""
        return tuple(row[0] for row in self.entries)

    def apply(self, vec: Sequence[int]) -> list:
        return [sum(row[j] * vec[j] for j in range(self.p)) for row in self.entries]

    def eigenvalue_moduli_with_multiplicity(self) -> list:
        """Moduli of the full p-point spectrum: each coset value s-fold, plus
        the single zero from the balanced column sum."""
        mods = []
        for xi in self.eigenvalues:
            mods.extend([abs(xi)] * self.s)
        mods.append(0.0)
        return sorted(mods, reverse=True)


def scaling_exponents(p: int, boundary_tol: float = 1e-9) -> ScalingExponents:
    """(beta, beta1) for an odd prime p, from the two largest coset moduli
    of the coset spectrum."""
    sp = _coset_spectrum(p)
    l1 = float(sp.log2_moduli[0])
    l2 = float(sp.log2_moduli[1]) if len(sp.log2_moduli) > 1 else -math.inf
    lam1, lam2 = _exp2(l1), _exp2(l2)
    beta = l1 / sp.s
    if abs(lam2 - 1.0) <= boundary_tol:
        return ScalingExponents(beta, None, lam1, lam2, lambda2_boundary=True)
    beta1 = l2 / sp.s if lam2 > 1.0 else 0.0
    return ScalingExponents(beta, beta1, lam1, lam2)


def transfer_matrix(p: int, verify_up_to: int = 50) -> TransferMatrix:
    """Build M = (S_{p,i-j}(2^s)) and verify S(2^s n) = M S(n) exactly on
    n = 1..verify_up_to before returning."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    s = order_of_two(p)
    col = _svec(p, 1 << s)
    rows = tuple(tuple(col[(i - j) % p] for j in range(p)) for i in range(p))
    mat = TransferMatrix(p, s, rows, tuple(eigenvalues_explicit(p)), scaling_exponents(p))
    for n in range(1, verify_up_to + 1):
        if mat.apply(_svec(p, n)) != _svec(p, n << s):
            raise ArithmeticError(f"transfer recursion failed at p={p}, n={n}")
    return mat


# ---------------------------------------------------------------------------
# fractal profiles
# ---------------------------------------------------------------------------

def profile_period_factor(p: int) -> int:
    """The integer r in the profile argument log n / (r s log 2): the smallest
    r in {1, 2, 4} for which the dominant eigenvalue power xi^r is real and
    positive, so that the interpolating profile has period one."""
    xi = eigenvalues_explicit(p)[0]
    for r in (1, 2, 4):
        z = xi**r
        if abs(z.imag) <= 1e-9 * abs(z) and z.real > 0:
            return r
    raise ValueError(f"no period factor in {{1,2,4}} for p={p}")


def _profile_refinement(p: int, exps: ScalingExponents) -> tuple:
    """(k, scale): apply the transfer matrix k times and divide by scale to
    evaluate the profile on the fiber of n.

    P1:  one application;     the remainder vanishes at even arguments and
                              M^2 = p M, so (M S(n))_j / (p n^beta) is exact.
    P23: four applications;   one application advances the profile argument
                              by a quarter period (r = 4), four return to the
                              fiber with scale lambda_1^4 = p^2; exact.
    P21: k applications with  (lambda_2/lambda_1)^k < 1e-12; geometric
                              damping of the bounded remainder.
    Other: no refinement (equal-modulus dominant cosets need not contract).
    """
    cls = classify_prime(p)
    if cls is PrimeClass.P1:
        return 1, exps.lambda1
    if cls is PrimeClass.P23:
        return 4, exps.lambda1**4
    if cls is PrimeClass.P21:
        ratio = exps.lambda2 / exps.lambda1
        k = max(1, min(80, math.ceil(math.log(1e-12) / math.log(ratio))))
        return k, exps.lambda1**k
    return 0, 1.0


def _refined_row(mat: TransferMatrix, j: int, k: int) -> list:
    """Row j of M^k as exact integers.  M is circulant, so M^k is too: with
    c = M^k e_0, (M^k)[j][i] = c[(j - i) mod p]."""
    c = [1] + [0] * (mat.p - 1)
    for _ in range(k):
        c = mat.apply(c)
    return [c[(j - i) % mat.p] for i in range(mat.p)]


@dataclass(frozen=True)
class FractalProfile:
    """Samples of the log-periodic profile for one residue j.

    `raw` holds S_{p,j}(n)/n^beta at x = frac(log n / (r s log 2)).
    `values` holds the same samples with the bounded remainder iterated away
    through the transfer matrix (exact for the classes whose remainder
    vanishes at even arguments; geometrically damped otherwise), so `bounds`
    estimates inf/sup of the profile itself rather than of the transient.
    """

    p: int
    j: int
    r: int
    s: int
    beta: float
    x: np.ndarray
    values: np.ndarray
    raw: np.ndarray
    n_samples: np.ndarray
    bounds: tuple
    remainder_constant: float   # fitted C in |S - n^beta psi| <= C n^{beta1}

    def touches_zero_or_changes_sign(self, tol: float = 1e-9) -> bool:
        return bool(self.values.min() <= tol and self.values.max() >= -tol)


def profile_value(p: int, j: int, n: int, mat: TransferMatrix | None = None) -> float:
    """The profile evaluated on the fiber of n (refined, see
    `_profile_refinement`); exact up to rounding for the classes whose
    remainder vanishes at even arguments."""
    if mat is None:
        mat = transfer_matrix(p, verify_up_to=0)
    if not 0 <= j < p:
        raise ValueError("residue j must lie in [0, p)")
    if n < 1:
        raise ValueError("n must be >= 1")
    k_apps, scale = _profile_refinement(p, mat.exponents)
    row = _refined_row(mat, j, k_apps)
    refined = sum(c * v for c, v in zip(row, _svec(p, n)))
    return refined / (scale * float(n) ** mat.exponents.beta)


# the largest horizon: the batched recursion needs every sample n < 2^63
MAX_PROFILE_HORIZON = 62


def fractal_profile(
    p: int,
    j: int,
    horizon_exponent: int,
    resolution: int = 1024,
) -> FractalProfile:
    """Sample S_{p,j}(n)/n^beta on a log-equidistributed grid.

    n runs over floor(2^{(m + x0) r s}) for a lattice of x0 in [0,1), capped
    at 2^horizon_exponent <= 2^62.  Applying M advances log n by s log 2
    exactly, so the refined evaluation stays on the fiber of x.  All samples
    share one batched digit recursion (`_svec_batch`) and one exact row of
    M^k (`_refined_row`).
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if not 0 <= j < p:
        raise ValueError("residue j must lie in [0, p)")
    if not 1 <= horizon_exponent <= MAX_PROFILE_HORIZON:
        raise ValueError(
            f"horizon_exponent must lie in [1, {MAX_PROFILE_HORIZON}]: "
            f"samples n up to 2^{MAX_PROFILE_HORIZON} keep the exact sums in int64"
        )
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    mat = transfer_matrix(p, verify_up_to=0)
    exps = mat.exponents
    r = profile_period_factor(p)
    s = mat.s
    beta = exps.beta
    period_bits = r * s
    k_apps, scale = _profile_refinement(p, exps)
    row = _refined_row(mat, j, k_apps)

    n_cap = 1 << horizon_exponent
    ns = []
    seen = set()
    for idx in range(resolution):
        x0 = idx / resolution
        m = 0
        while (m + x0) * period_bits <= horizon_exponent:
            n = int(2.0 ** ((m + x0) * period_bits))
            m += 1
            if n < 1 or n > n_cap or n in seen:
                continue
            seen.add(n)
            ns.append(n)
    xs, vals, raws = [], [], []
    # refined values in Python ints: c ~ lambda_1^k and S overflow int64
    for n, sv in zip(ns, _svec_batch(p, ns).tolist()):
        nb = float(n) ** beta
        raws.append(sv[j] / nb)
        vals.append(sum(c * v for c, v in zip(row, sv)) / (scale * nb))
        xs.append(math.log(n) / (period_bits * _LOG2) % 1.0)
    order = np.argsort(np.array(xs))
    x_arr = np.array(xs)[order]
    v_arr = np.array(vals)[order]
    raw_arr = np.array(raws, dtype=float)[order]
    n_arr = np.array(ns, dtype=np.int64)[order]
    # remainder constant: |S - n^beta psi| <= C n^{beta1}; with psi estimated
    # by the refined value, the residual is the remainder itself
    beta1 = exps.beta1 if exps.beta1 is not None else 0.0
    resid = np.abs(raw_arr - v_arr) * n_arr.astype(float) ** (beta - beta1)
    c_fit = float(resid.max()) if len(resid) else 0.0
    return FractalProfile(
        p=p, j=j, r=r, s=s, beta=beta,
        x=x_arr, values=v_arr, raw=raw_arr, n_samples=n_arr,
        bounds=(float(v_arr.min()), float(v_arr.max())),
        remainder_constant=c_fit,
    )


# ---------------------------------------------------------------------------
# classical inequalities and decompositions for small p
# ---------------------------------------------------------------------------

_BETA3 = math.log(3.0) / math.log(4.0)


def coquet_decompose(n: int) -> tuple:
    """Split S_{3,0}(n) into profile part and integer remainder.

    The profile value on the fiber of n is S_{3,0}(4n)/(3 n^beta) exactly
    (M^2 = 3M and the remainder vanishes at even arguments), so
    eps = 3 S(n) - S(4n) is an exact integer in {0, +-1} and S reconstructs
    bit-exactly as (S(4n) + eps)/3.  Returns (psi_value, eps).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s_n = rarefied_sum(3, 0, n)
    s_4n = rarefied_sum(3, 0, 4 * n)
    eps = 3 * s_n - s_4n
    if eps not in (-1, 0, 1):
        raise ArithmeticError(f"remainder {eps} outside {{0,+-1}} at n={n}")
    if (s_4n + eps) % 3 != 0 or (s_4n + eps) // 3 != s_n:
        raise ArithmeticError(f"exact reconstruction failed at n={n}")
    psi = s_4n / (3.0 * float(n) ** _BETA3)
    return psi, eps


@dataclass(frozen=True)
class NewmanReport:
    n_max: int
    violations: int
    min_ratio: float
    max_ratio: float
    argmin: int
    argmax: int
    lower_bound: float
    upper_bound: float


def newman_check(n_max: int) -> NewmanReport:
    """Verify 3^{-beta}/20 < S_{3,0}(n)/n^beta < 5*3^{-beta} and S > 0 for
    1 <= n <= n_max.  S is exact (int64 cumulative sums); the comparisons run
    in float64, which is safe because the observed ratios sit an order of
    magnitude inside the bounds."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    lower = 3.0 ** (-_BETA3) / 20.0
    upper = 5.0 * 3.0 ** (-_BETA3)
    series = rarefied_series(3, 0, n_max)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    ratio = series / n**_BETA3
    violations = int(np.count_nonzero((series <= 0) | (ratio <= lower) | (ratio >= upper)))
    i_min, i_max = int(ratio.argmin()), int(ratio.argmax())
    return NewmanReport(
        n_max=n_max,
        violations=violations,
        min_ratio=float(ratio[i_min]),
        max_ratio=float(ratio[i_max]),
        argmin=i_min + 1,
        argmax=i_max + 1,
        lower_bound=lower,
        upper_bound=upper,
    )


@dataclass(frozen=True)
class PositivityReport:
    p: int
    n_max: int
    violation_count: int
    largest_violation: int          # 0 when there is none
    count_in_last_decade: int       # violations with n in (n_max/10, n_max]


def positivity_scan(p: int, n_max: int) -> PositivityReport:
    """Count n <= n_max with S_{p,0}(n) <= 0.

    For the primes whose residue-0 sums are eventually positive the count
    stabilizes (no hits in the last decade); a persistent stream of hits is
    the signature of a profile with sign changes.
    """
    _check_p(p)
    series = rarefied_series(p, 0, n_max)
    bad = np.nonzero(series <= 0)[0]
    count = int(bad.size)
    largest = int(bad[-1] + 1) if count else 0
    in_last = int(np.count_nonzero(bad + 1 > n_max // 10)) if count else 0
    return PositivityReport(p, n_max, count, largest, in_last)


@dataclass(frozen=True)
class GrabnerReport:
    r1: int
    r2: int
    p: int
    n_max: int
    residual_first: Fraction        # exact residual at N = 1
    c_max: float                    # max |residual| / log N over N >= 2
    dominant_exponent: float
    dominant_target: float
    residuals: np.ndarray = field(repr=False)


def grabner_composite(r1: int, r2: int, n_max: int) -> GrabnerReport:
    """Composite rarefaction p = 3^{r1} 5^{r2}: the residue-0 sum at arguments
    pN splits into the 3-power and 5-power parts up to a logarithmically
    bounded residual, and its growth is dominated by the exponent of the
    prime 3, log 3 / (2 log 2)."""
    if r1 < 1 or r2 < 1:
        raise ValueError("need r1, r2 >= 1")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    p3, p5 = 3**r1, 5**r2
    p = p3 * p5
    top = p * n_max
    s_p = rarefied_series(p, 0, top)
    s_3 = rarefied_series(p3, 0, top)
    s_5 = rarefied_series(p5, 0, top)
    N = np.arange(1, n_max + 1)
    idx = p * N - 1
    resid = s_p[idx] - s_3[idx] / p5 - s_5[idx] / p3
    c_max = float(np.max(np.abs(resid[1:]) / np.log(N[1:])))
    # dominant exponent: log-log fit over a window spanning whole periods of
    # the log-4-periodic modulation, so the oscillation does not bias the slope
    lo = max(2, n_max // 64)
    sel = np.unique(np.round(np.logspace(math.log10(lo), math.log10(n_max), 80)).astype(int))
    y = s_p[p * sel - 1].astype(float)
    keep = y > 0
    slope = float(np.polyfit(np.log(p * sel[keep].astype(float)), np.log(y[keep]), 1)[0])
    target = math.log(3.0) / (2.0 * _LOG2)
    resid_first = (
        Fraction(int(s_p[p - 1]))
        - Fraction(int(s_3[p - 1]), p5)
        - Fraction(int(s_5[p - 1]), p3)
    )
    return GrabnerReport(
        r1=r1, r2=r2, p=p, n_max=n_max,
        residual_first=resid_first,
        c_max=c_max,
        dominant_exponent=slope,
        dominant_target=target,
        residuals=resid,
    )
