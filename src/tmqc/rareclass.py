"""Arithmetic of p-rarefied partial sums of the sign sequence.

For an odd integer p >= 3 and residue i, S_{p,i}(n) is the sum of eta_m over
m < n with m = i (mod p).  The vector S(n) of all p residues obeys the exact
doubling relation S(2^s n) = M S(n), where s is the multiplicative order of 2
mod p and M is the p x p circulant matrix M[i][j] = S_{p,i-j}(2^s).  The
spectrum of M drives everything: the leading modulus lambda_1 gives the
growth exponent beta = log(lambda_1)/(s log 2), and continuous log-periodic
profiles psi_{p,j} interpolate S_{p,j}(n)/n^beta.

The sums have one production route, a table of the doubling products
(Gelfond 1968, Newman 1969) Q_e(x) = prod_{k<e} (1 - x^(2^k)) =
sum_{m<2^e} eta_m x^m, reduced mod x^p - 1.  With the set bits
e_1 > e_2 > ... of n and c_i the sum of the bits above e_i,

    S_{p,j}(n) = sum_i (-1)^(i-1) Q_{e_i}[(j - c_i) mod p],

and as 2^s = 1 mod p the refined S_{p,j}(2^(ks) n) reads rows e_i + ks at
the same offsets.  Its oracles are plain summation and the binary digit
recursion S_{p,i}(2m) = S_{p, i/2 mod p}(m) - S_{p, (i-1)/2 mod p}(m), plus
eta_m at residue 2m mod p for an odd argument (from eta_{2m} = eta_m and
eta_{2m+1} = -eta_m), exact in O(p log n).  A table of consecutive n is one
running scan instead (`rarefied_rows`).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .tmcore import _Frozen, number_text, sign_array, tm_sign
from .quadfield import (PrimeClass, _factorize, is_prime, order_of_two, prime_record,
                        primes_up_to, quadratic_character)

__all__ = [
    "RarefiedVector",
    "TransferMatrix",
    "ScalingExponents",
    "SizeIncreasingScan",
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
    "residue_exponent",
    "max_orbit_exponent",
    "odd_part_exponents",
    "eigenvalues_explicit",
    "scaling_exponents",
    "scan_size_increasing",
    "profile_period_factor",
    "profile_value",
    "fractal_profile",
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


def _doubling_rows(p: int, count: int) -> Iterator[list]:
    """Rows Q_0, ..., Q_{count-1} of the doubling-product table, the
    coefficients of Q_e(x) mod x^p - 1, so Q_e[i] = S_{p,i}(2^e).  Row e + 1
    is row e minus row e rotated by 2^e mod p; each row from e = 1 on is
    checked, as it is built, to sum to Q_e(1) = 0."""
    q = [1] + [0] * (p - 1)
    for e in range(count):
        if e:
            sh = pow(2, e - 1, p)
            q = [a - b for a, b in zip(q, q[-sh:] + q[:-sh])]
            if sum(q):
                raise ArithmeticError(f"doubling row {e} at p={p} sums to {sum(q)}, not 0")
        yield q


def _table_vector(p: int, n: int, rows: Iterable[list] | None = None) -> list:
    """S_{p,*}(n) from rows Q_0, Q_1, ... (`_doubling_rows(p, n.bit_length())`
    if not given): the sum over the set bits e_i of n of row e_i rotated by
    c_i, signed by the parity of the bits above e_i.  Rows are read in
    increasing e, so a generator of them is read in O(p) memory."""
    vec = [0] * p
    for e, q in zip(range(n.bit_length()), rows or _doubling_rows(p, n.bit_length())):
        if n >> e & 1:
            head = n >> e + 1
            c = (head << e + 1) % p
            op = operator.sub if head.bit_count() & 1 else operator.add
            vec = list(map(op, vec, q[-c:] + q[:-c]))
    return vec


def _read_residue(p: int, n: int, lo: Sequence[list], hi: Sequence[list]) -> tuple:
    """(S_{p,j}(n), S_{p,j}(2^(ks) n)) from rows 0, 1, ... (`lo`) and ks,
    ks + 1, ... (`hi`) of the doubling-product table, pre-rotated to j:
    row[c] = Q_e[(j - c) mod p].  One walk down the set bits e of n reads
    both at c = (bits of n above e) mod p, two bits (signs + and -) a pass."""
    raw = refined = 0
    rest = n            # the bits of n at and below e
    while rest:
        e = rest.bit_length() - 1
        c = (n - rest) % p
        rest ^= 1 << e
        raw += lo[e][c]
        refined += hi[e][c]
        if not rest:
            break
        e = rest.bit_length() - 1
        c = (n - rest) % p
        rest ^= 1 << e
        raw -= lo[e][c]
        refined -= hi[e][c]
    return raw, refined


def _check_sum_args(p: int, i: int, n: int) -> None:
    _check_p(p)
    if not 0 <= i < p:
        raise ValueError("residue i must lie in [0, p)")
    if n < 0:
        raise ValueError("n must be >= 0")


def rarefied_sum(p: int, i: int, n: int) -> int:
    """S_{p,i}(n), exact, from the doubling-product table (O(p log n))."""
    _check_sum_args(p, i, n)
    return _table_vector(p, n)[i]


def rarefied_sum_direct(p: int, i: int, n: int) -> int:
    """Oracle implementation: plain O(n/p) summation over the progression."""
    _check_sum_args(p, i, n)
    return sum(tm_sign(m) for m in range(i, n, p))


class RarefiedVector(_Frozen):
    """The integer vector (S_{p,0}(n), ..., S_{p,p-1}(n)).

    Immutable; equal and hashed by (p, n, entries)."""

    __slots__ = ("p", "n", "entries")

    def __init__(self, p: int, n: int, entries: tuple) -> None:
        # column sum equals the plain prefix sum of the sign sequence
        expected = 0 if n % 2 == 0 else tm_sign(n - 1)
        if sum(entries) != expected:
            raise ArithmeticError("rarefied column sum violates the prefix-sum identity")
        init = object.__setattr__
        init(self, "p", p)
        init(self, "n", n)
        init(self, "entries", entries)

    def __reduce__(self):
        return RarefiedVector, (self.p, self.n, self.entries)

    def __eq__(self, other):
        if other.__class__ is not RarefiedVector:
            return NotImplemented
        return (self.p, self.n, self.entries) == (other.p, other.n, other.entries)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.entries))

    def __repr__(self) -> str:
        return f"RarefiedVector(p={self.p!r}, n={self.n!r}, entries={self.entries!r})"

    def __getitem__(self, i: int) -> int:
        return self.entries[i]


def rarefied_vector(p: int, n: int) -> RarefiedVector:
    _check_sum_args(p, 0, n)
    return RarefiedVector(p, n, tuple(_table_vector(p, n)))


def rarefied_rows(p: int, limit: int) -> Iterator[tuple]:
    """The table of S_{p,*}(n), n = 0..limit (S(0) = 0), as the one cell
    that changes at each n = 1..limit: (i, S_{p,i}(n)), i = (n - 1) mod p.

    One running scan, S(n) = S(n - 1) + eta_{n-1} e_i, over
    `sign_array(0, limit)`.  The running total of eta is checked against the
    prefix-sum identity at every n, and S(limit) against the digit
    recursion, before the cell is yielded."""
    _check_p(p)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    eta = sign_array(0, limit).tolist()
    s = [0] * p
    total = 0
    for n in range(1, limit + 1):
        i = (n - 1) % p
        s[i] += eta[n - 1]
        total += eta[n - 1]
        if total != (eta[n - 1] if n % 2 else 0):
            raise ArithmeticError(f"rarefied column sum violates the prefix-sum identity at n={n}")
        if n == limit and tuple(s) != RarefiedVector(p, n, tuple(_svec(p, n))).entries:
            raise ArithmeticError(f"rarefied scan disagrees with the digit recursion at n={n}")
        yield i, s[i]


def rarefied_series(p: int, i: int, n_max: int, chunk: int = 1 << 22) -> np.ndarray:
    """S_{p,i}(n) for n = 1..n_max as an int64 array (vectorized scan).

    Values are bounded by n_max, far inside int64 range.
    """
    _check_sum_args(p, i, n_max)
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


def check_spectrum_size(p: int) -> None:
    """Refuse an odd part p above MAX_SPECTRUM_P, prime or not: an O(1)
    test, made before any O(p) work (or factoring p - 1)."""
    if p > MAX_SPECTRUM_P:
        raise ValueError(
            f"p={number_text(p)} exceeds the coset-spectrum limit p <= 2^23 = {MAX_SPECTRUM_P}"
        )


def _check_spectrum_prime(p: int) -> None:
    check_spectrum_size(p)
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


class _CosetSpectrum(NamedTuple):
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
    The exponents and the profile period of an Other prime come from it;
    for P1, P21 and P23 primes the closed forms do, and it is their oracle.

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


def max_orbit_exponent(p: int) -> float:
    """beta(p) = max over 0 < t < p of beta_t(p), where
    beta_t(p) = (1/s) sum_{j<s} log2 |2 sin(pi 2^j t / p)| and s = ord_2(p),
    for any odd p >= 3, prime or composite: log2 |lambda_1| / s of the
    circulant M.

    t runs over every nonzero residue, coprime to p or not: t/p in lower
    terms is a smaller denominator whose orbit is an eigenvalue of M too
    (p = 15: t = 5 is the orbit of 1/3, log 3/(2 log 2)).  Each doubling
    orbit is labelled by its least member by pointer jumping (after k rounds
    a label is the least of 2^k consecutive members, and t -> t 2^(2^k) mod p
    is one multiplication), then its terms log2(2 sin(pi r / p)), r the
    centred residue (`_orbit_log2`), are summed once by `np.bincount`.
    A round that lowers no label leaves every label at its orbit's least
    member (the windows t, t 2^(2^k), ... then all share one minimum and
    cover the orbit), so the rounds stop there: about log2 of the longest
    orbit, at most log2 p.  O(p log p) numpy work on arrays of length p
    (about 6 s at p near MAX_SPECTRUM_P on a 2-core Xeon box, mostly
    gathers); p above MAX_SPECTRUM_P is refused first.
    """
    check_spectrum_size(p)
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be odd and >= 3")
    t = np.arange(1, p, dtype=np.int32)
    label = t.copy()                            # least orbit member seen so far
    idx = np.empty(p - 1, dtype=np.int64)       # t 2^(2^k) < p^2 < 2^46
    step = 2                                    # 2^(2^k) mod p
    while True:
        np.multiply(t, step, out=idx, dtype=np.int64)
        np.remainder(idx, p, out=idx)
        idx -= 1
        jumped = label[idx]
        if not (jumped < label).any():
            break
        np.minimum(label, jumped, out=label)
        step = step * step % p
    del idx, jumped
    terms = _orbit_log2(t[:, None], p)          # one-member rows: the term of each t
    heads = (np.flatnonzero(label == t) + 1).astype(np.int32)
    del t
    orbit = np.searchsorted(heads, label)       # each t's orbit, numbered by head
    del label
    sums = np.bincount(orbit, weights=terms, minlength=len(heads))
    return float(np.max(sums / np.bincount(orbit, minlength=len(heads))))


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


class ScalingExponents(NamedTuple):
    """beta from lambda_1; beta1 from the two-case lambda_2 rule, None in
    the boundary band of its gap at lambda_2 = 1 rather than either branch."""

    beta: float
    beta1: float | None
    lambda1: float
    lambda2: float


class TransferMatrix(NamedTuple):
    """The circulant p x p matrix M[i][j] = S_{p,i-j}(2^s), held as its column."""

    p: int
    s: int
    column: tuple               # (S_{p,0}(2^s), ..., S_{p,p-1}(2^s)), exact
    eigenvalues: tuple          # explicit coset eigenvalues, |.| descending
    exponents: ScalingExponents

    def apply(self, vec: Sequence[int]) -> list:
        """M vec, exact: (M vec)_i is a reversed window of the doubled column."""
        if len(vec) != self.p:
            raise ValueError(f"vec must have p={self.p} entries, got {len(vec)}")
        cc = self.column * 2
        return [sum(map(operator.mul, cc[i + self.p:i:-1], vec)) for i in range(self.p)]

    def eigenvalue_moduli_with_multiplicity(self) -> list:
        """Moduli of the full p-point spectrum: each coset value s-fold, plus
        the single zero from the balanced column sum."""
        mods = []
        for xi in self.eigenvalues:
            mods.extend([abs(xi)] * self.s)
        mods.append(0.0)
        return sorted(mods, reverse=True)


# |lambda_2 - 1| within this is the boundary band of the lambda_2 rule
_LAMBDA2_BOUNDARY_TOL = 1e-9


class _PrimeSpectrum(NamedTuple):
    """What exponents and profiles read of one odd prime p <= MAX_SPECTRUM_P:
    log2 of the two largest coset moduli, the exponents, the profile period
    factor r and the refinement (k, scale = lambda_1^k, inf beyond the
    float range)."""

    p: int
    s: int
    cls: PrimeClass
    r: int
    log2_lambda1: float
    log2_lambda2: float
    exponents: ScalingExponents
    k: int
    scale: float


def _prime_spectrum(p: int) -> _PrimeSpectrum:
    """The one place that picks the route by the class of p, from one
    `prime_record` lookup after p above MAX_SPECTRUM_P or not an odd prime
    is refused.  P1, P21 and P23 take the record's closed forms, Other
    primes the two largest moduli of the coset spectrum.

    r is the least of 1, 2, 4 with xi^r real and positive, xi the dominant
    eigenvalue: xi = |xi| (-i)^a, a = s + 2c mod 4, c the count of the
    dominant coset's members above p/2 (the sign of its sine product); r = 1
    at a = 0, 2 at a = 2, 4 at odd a.  P1 (a = 2(p - 1)) and P21 (the
    non-residues, c = (p - 1)/4, a = p - 1) have a = 0; P23 has odd s.

    k: 0 for Other primes, whose equal-modulus dominant cosets need not
    contract; r where the moduli tie (P23: r doublings return to the fiber
    with scale p^2, exactly); else the least k in [1, 80] with
    (lambda_2/lambda_1)^k < 1e-12, geometric damping for P21 and k = 1 for
    P1 (lambda_2 = 0: the remainder vanishes at even arguments and
    M^2 = p M, exactly).
    """
    _check_spectrum_prime(p)
    rec = prime_record(p)
    if rec.cls is PrimeClass.OTHER:     # at least three cosets
        sp = _coset_spectrum(p)
        l1, l2 = sp.log2_moduli[:2].tolist()
        r, k = (1, 4, 2, 4)[(sp.s + (2 if sp.signs[0] < 0 else 0)) % 4], 0
    else:
        l1, l2 = rec.log2_lambda1, rec.log2_lambda2
        r = 4 if rec.cls is PrimeClass.P23 else 1
        k = r if l1 == l2 else max(1, min(80, math.ceil(math.log2(1e-12) / (l2 - l1))))
    lam2 = _exp2(l2)
    beta1 = None if abs(lam2 - 1.0) <= _LAMBDA2_BOUNDARY_TOL else max(l2, 0.0) / rec.s
    exps = ScalingExponents(l1 / rec.s, beta1, _exp2(l1), lam2)
    return _PrimeSpectrum(p, rec.s, rec.cls, r, l1, l2, exps, k, _exp2(k * l1))


def scaling_exponents(p: int) -> ScalingExponents:
    """(beta, beta1, lambda_1, lambda_2) for an odd prime p <= MAX_SPECTRUM_P,
    from `_prime_spectrum`'s log2 moduli l1, l2: beta = l1 / s, beta1 =
    l2 / s where lambda_2 > 1 (beta for P23), else 0, and lambda = 2^l (inf
    beyond the float range).  The closed forms are within 2.5e-16 of 40
    digits; the coset spectrum, their oracle in tests, is 3.0e-13 relative
    off at worst below p = 20000 (its p - 1 logarithms cancel to log2 p)."""
    return _prime_spectrum(p).exponents


def residue_exponent(p: int, t: int) -> float:
    """Growth exponent of the sign-sequence exponential sum at frequency t/p,
    beta_t(p) = log2|mu_t| / s, for an odd prime p <= MAX_SPECTRUM_P: constant
    on the cosets of <2>, only the one carrying lambda_1 grows at the rate
    beta.  See `_residue_exponent`."""
    return _residue_exponent(_prime_spectrum(p), t)


def _residue_exponent(spec: _PrimeSpectrum, t: int) -> float:
    """beta_t at a residue t not divisible by the prime of `spec`.  P1 has
    one coset of <2>, so every t has beta.  With two (P21, P23), <2> is the
    quadratic residues, which carry lambda_2: a residue t (Euler's
    criterion) reads log2 lambda_2 / s, a non-residue beta.  Other primes
    sum log2|mu_t| over the orbit t 2^j mod p (j < s) alone, as in
    `_orbit_log2`, in O(s) and without forming |mu_t|."""
    p, s = spec.p, spec.s
    if t % p == 0:
        raise ValueError("t must be nonzero mod p")
    cosets = (p - 1) // s
    if cosets > 2:
        return float(_orbit_log2(t % p * _powers(2, s, p) % p, p)) / s
    if cosets == 2 and quadratic_character(t, p) == 1:
        return spec.log2_lambda2 / s
    return spec.exponents.beta


def odd_part_exponents(p: int, t: int) -> tuple:
    """(beta(p), beta_t(p) or None, source) for an odd p >= 3 and a residue
    t not divisible by p, the route picked here alone: `max_orbit_exponent`
    for a composite p ("orbit-formula", no beta_t), and for a prime one
    `_prime_spectrum` ("closed-form" for P1, P21 and P23, else
    "coset-spectrum").  p above MAX_SPECTRUM_P is refused before any O(p)
    work, prime or not."""
    check_spectrum_size(p)
    if not is_prime(p):
        return max_orbit_exponent(p), None, "orbit-formula"
    spec = _prime_spectrum(p)
    source = "coset-spectrum" if spec.cls is PrimeClass.OTHER else "closed-form"
    return spec.exponents.beta, _residue_exponent(spec, t), source


class SizeIncreasingScan(NamedTuple):
    """Primes with growth exponent beta > 1/2, by class, below a limit."""

    limit: int
    p1: tuple
    p21: tuple
    p23: tuple
    other: tuple     # via the coset spectrum


def scan_size_increasing(limit: int) -> SizeIncreasingScan:
    """Scan odd primes p < limit of every class for beta > 1/2, beta read
    by the route of `scaling_exponents`."""
    if limit < 3:
        raise ValueError("limit must be >= 3")
    hits = {cls: [] for cls in PrimeClass}
    for p in primes_up_to(limit - 1)[1:]:
        spec = _prime_spectrum(p)
        if spec.exponents.beta > 0.5:
            hits[spec.cls].append(p)
    return SizeIncreasingScan(limit, *(tuple(hits[cls]) for cls in PrimeClass))


def transfer_matrix(p: int) -> TransferMatrix:
    """Build M from its column S_{p,*}(2^s) by the digit recursion
    (`_prime_spectrum` refuses all but odd primes <= MAX_SPECTRUM_P),
    checked against row s of the doubling-product table, Q_s[i] =
    S_{p,i}(2^s).  One O(p s) check suffices: with the column right, S(2^s n) = M S(n) holds for every n,
    since sum_{m < 2^s n} eta_m x^m = Q_s(x) sum_{a < n} eta_a x^(2^s a)
    and x^(2^s) = x mod x^p - 1."""
    spec = _prime_spectrum(p)
    col = tuple(_svec(p, 1 << spec.s))
    if list(col) != _table_vector(p, 1 << spec.s):
        raise ArithmeticError(f"transfer column disagrees with the doubling table at p={p}")
    return TransferMatrix(p, spec.s, col, tuple(eigenvalues_explicit(p)), spec.exponents)


# ---------------------------------------------------------------------------
# fractal profiles
# ---------------------------------------------------------------------------

def profile_period_factor(p: int) -> int:
    """The integer r in the profile argument log n / (r s log 2), for which
    the profile has period one (see `_prime_spectrum`)."""
    return _prime_spectrum(p).r


def _profile_spectrum(p: int) -> _PrimeSpectrum:
    """`_prime_spectrum(p)`, refused where the profile scale is inf (first
    at p = 99961, a P21 prime), before any doubling-table work."""
    spec = _prime_spectrum(p)
    if math.isinf(spec.scale):
        raise ValueError(f"p={p}: the profile scale lambda1^k = 2^{spec.k * spec.log2_lambda1:.6g}"
                         " is beyond the float range")
    return spec


class FractalProfile(NamedTuple):
    """Samples of the log-periodic profile for one residue j.

    `raw` holds S_{p,j}(n)/n^beta at x = frac(log n / (r s log 2)).
    `values` holds the same samples with the bounded remainder iterated away
    by k doublings, S_{p,j}(2^(ks) n) (exact for the classes whose remainder
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


def profile_value(p: int, j: int, n: int) -> float:
    """The profile evaluated on the fiber of n (refined, see
    `_prime_spectrum`); exact up to rounding for the classes whose
    remainder vanishes at even arguments."""
    if not 0 <= j < p:
        raise ValueError("residue j must lie in [0, p)")
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = _profile_spectrum(p)     # refuses p above MAX_SPECTRUM_P first
    return (_table_vector(p, n << spec.k * spec.s)[j]
            / (spec.scale * float(n) ** spec.exponents.beta))


# the largest horizon: `FractalProfile.n_samples` is an int64 array, so every
# sample n <= 2^horizon must lie below 2^63
MAX_PROFILE_HORIZON = 62


def fractal_profile(
    p: int,
    j: int,
    horizon_exponent: int,
    resolution: int = 1024,
) -> FractalProfile:
    """Sample S_{p,j}(n)/n^beta on a log-equidistributed grid.

    n runs over floor(2^{(m + x0) r s}) for a lattice of x0 in [0,1), capped
    at 2^horizon_exponent <= 2^62.  A doubling by M advances log n by s log 2
    exactly, so the refined value S_{p,j}(2^(ks) n) stays on the fiber of x.
    Each sample is one `_read_residue` walk over rows e < H (H the bit
    length of the largest sample) and rows ks + e of the doubling-product
    table, whose largest-sample vector is checked against the recursion.
    beta, beta1, r, k and the scale come from one `_prime_spectrum` record
    (moduli in log2); an inf scale is refused before any table work.
    """
    spec = _profile_spectrum(p)     # refuses p above MAX_SPECTRUM_P first
    if not 0 <= j < p:
        raise ValueError("residue j must lie in [0, p)")
    if not 1 <= horizon_exponent <= MAX_PROFILE_HORIZON:
        raise ValueError(
            f"horizon_exponent must lie in [1, {MAX_PROFILE_HORIZON}]: "
            f"samples n up to 2^{MAX_PROFILE_HORIZON} fit the int64 sample array"
        )
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    r, s, exps, scale = spec.r, spec.s, spec.exponents, spec.scale
    beta, period_bits, ks = exps.beta, r * s, spec.k * s

    ns = []
    for idx in range(resolution):
        x0 = idx / resolution
        m = 0
        while (m + x0) * period_bits <= horizon_exponent:
            ns.append(int(2.0 ** ((m + x0) * period_bits)))
            m += 1
    ns = [n for n in dict.fromkeys(ns) if 1 <= n <= 1 << horizon_exponent]  # first of each n
    n_top = max(ns)
    top = n_top.bit_length()
    low, high = [], []
    for e, q in enumerate(_doubling_rows(p, ks + top)):
        if e < top:
            low.append(q)
        if e >= ks:
            high.append(q)
    if _table_vector(p, n_top, low) != _svec(p, n_top):
        raise ArithmeticError(f"doubling table disagrees with the digit recursion at n={n_top}")
    lo, hi = ([q[j::-1] + q[:j:-1] for q in rows] for rows in (low, high))  # pre-rotated to j
    xs, vals, raws = [], [], []
    for n in ns:
        raw, refined = _read_residue(p, n, lo, hi)
        nb = float(n) ** beta
        raws.append(raw / nb)
        vals.append(refined / (scale * nb))
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


class NewmanReport(NamedTuple):
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


class PositivityReport(NamedTuple):
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


class GrabnerReport(NamedTuple):
    r1: int
    r2: int
    p: int
    n_max: int
    residual_first: Fraction        # exact residual at N = 1
    c_max: float                    # max |residual| / log N over N >= 2
    dominant_exponent: float
    dominant_target: float
    residuals: np.ndarray


def grabner_composite(r1: int, r2: int, n_max: int) -> GrabnerReport:
    """Composite rarefaction p = 3^{r1} 5^{r2}: the residue-0 sum at arguments
    pN splits into the 3-power and 5-power parts up to a logarithmically
    bounded residual, and its growth is dominated by the exponent of the
    prime 3, log 3 / (2 log 2).  `dominant_exponent` is the orbit formula's
    `max_orbit_exponent(p)`; the tests fit it from the series as the oracle."""
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
        dominant_exponent=max_orbit_exponent(p),
        dominant_target=target,
        residuals=resid,
    )
