"""Generate the committed reference values in perfbench/refs/ (run once).

    python3 perfbench/make_refs.py

Floats come from the library's independent oracle routes, not from the
production routes the workloads time:

- densities: the Kahan scalar `approximant_density` (one pass per size);
- finite-size exponents alpha_l: the direct `eta_sum`;
- exponents of verdicts: eigenvalues of the p x p circulant, taken with
  numpy's FFT of its first column (which diagonalizes a circulant).  The
  column is summed directly (`rarefied_sum_direct`) when 2^s <= 2^20, and
  by the exact digit recursion (`rarefied_vector`) for p = 137;
- profile samples S_{p,j}(n)/n^beta: the vectorized `rarefied_series`
  for n <= 2^24;
- rarefied integers: `rarefied_sum_direct`, stored as per-row digests.

Where no independent route exists at the size used (the P21 exponents for
p >= 9049, coset exponents whose FFT rounding bound exceeds 1e-9, refined
profile values, raw profile samples above 2^24), the reference is the
seed's own output, labelled "seed".  Seed-labelled
exponents are cross-checked here against the orbit formula
beta_t(p) = (1/s) sum_j log2|2 sin(pi 2^j t / p)| before they are written.
"""

from __future__ import annotations

import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from tmqc import diffract, quadfield, rareclass, spectrum, tmcore  # noqa: E402

import workloads as W  # noqa: E402
from check import row_digest  # noqa: E402

U = 2.0 ** -53
PARAMS = tmcore.QuasicrystalParams(Fraction(2), Fraction(1))
ORACLE_MAX_N = 1 << 24
DIRECT_COLUMN_MAX_S = 20
REF_JOBS = 2                          # each worker needs ~150 MB at l = 2^24


def sig13(x):
    return None if x is None else float(f"{x:.13g}")


# ---------------------------------------------------------------------------
# comb densities and finite-size exponents
# ---------------------------------------------------------------------------

def _comb_entry(task):
    q_str, sizes = task
    q = Fraction(q_str)
    k = PARAMS.wave_vector(q)
    out = {}
    for l in sizes:
        dens = diffract.approximant_density(l, k, PARAMS)
        sq = abs(diffract.eta_sum(l, float(q))) ** 2
        alpha = None if sq == 0.0 else math.log(sq / l) / math.log(l)
        out[f"{q_str}|{l}"] = [sig13(dens), sig13(alpha)]
    return out


def comb_refs() -> dict:
    deep = [int(s) for s in W.DEEP_SIZES.split(",")]
    grid = [int(s) for s in W.GRID_SIZES.split(",")]
    tasks = [(str(Fraction(q)), deep) for q in W.DEEP_Q]
    seen = set()
    for start in W.GRID_STARTS:
        for q in W.grid_values(f"{start}:{W.GRID_STEP}:{W.GRID_COUNT}"):
            if str(q) not in seen:
                seen.add(str(q))
                tasks.append((str(q), grid))
    values = {}
    with ProcessPoolExecutor(max_workers=REF_JOBS) as pool:
        for part in pool.map(_comb_entry, tasks, chunksize=4):
            values.update(part)
    return {
        "sources": {"density": "kahan approximant_density",
                    "alpha_l": "direct eta_sum"},
        "values": values,
    }


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _order_of_two(p: int) -> int:
    s, x = 1, 2 % p
    while x != 1:
        x = 2 * x % p
        s += 1
    return s


def _circulant_spectrum(p: int, s: int) -> tuple:
    """(eigenvalues indexed by character t, column l1 norm, column source)."""
    if s <= DIRECT_COLUMN_MAX_S:
        col = [rareclass.rarefied_sum_direct(p, i, 1 << s) for i in range(p)]
        src = "circulant-fft (direct-sum column)"
    else:
        col = list(rareclass.rarefied_vector(p, 1 << s).entries)
        src = "circulant-fft (digit-recursion column)"
    lam = np.fft.fft(np.asarray(col, dtype=float))
    return lam, float(sum(abs(c) for c in col)), src


def _orbit_beta(p: int, t: int, s: int) -> float:
    w = np.empty(s, dtype=np.int64)
    cur = t % p
    for j in range(s):
        w[j] = cur
        cur = 2 * cur % p
    return float(np.mean(np.log2(np.abs(2.0 * np.sin(np.pi * w / p)))))


def _orbit_headline(p: int, s: int) -> float:
    """max over cosets of <2> in (Z/pZ)* of the orbit exponent."""
    seen = np.zeros(p, dtype=bool)
    best = -math.inf
    for t in range(1, p):
        if seen[t] or math.gcd(t, p) != 1:
            continue
        cur = t
        for _ in range(s):
            seen[cur] = True
            cur = 2 * cur % p
        best = max(best, _orbit_beta(p, t, s))
    return best


def _term_sum_tol(p: int, s: int) -> float:
    """Bound on the rounding of an exponent 2 beta - 1 whose beta is a mean
    of s logarithms, each of size <= 1 + log2 p, in float64."""
    return 2.0 * U * (s * (1.0 + math.log2(p)) + 64.0)


FFT_TOL_LIMIT = 1e-9


def _seed_exponents(q: Fraction, p: int, t: int, s: int) -> tuple:
    """The seed's (alpha, residue_alpha), checked against the orbit formula."""
    v = spectrum.classify(q, PARAMS)
    dev = max(abs(v.alpha - (2 * _orbit_headline(p, s) - 1)),
              abs(v.residue_alpha - (2 * _orbit_beta(p, t, s) - 1)))
    if dev > FFT_TOL_LIMIT:
        raise SystemExit(f"seed exponent at {q} disagrees with the orbit formula by {dev}")
    print(f"  {q}: seed vs orbit formula {dev:.2e}", file=sys.stderr)
    return v.alpha, v.residue_alpha


def verdict_refs() -> dict:
    """Per q: exact t, h, p, kind; exponents with their source and tolerance.

    An FFT eigenvalue is used only where its rounding bound (relative to the
    column's l1 norm, so loose for tiny eigenvalues) stays below 1e-9;
    elsewhere the seed's value is used, labelled "seed".
    """
    out = {}
    spectra = {}
    ln2 = math.log(2.0)
    for slot in W.VERDICT_SLOTS:
        for q_str in slot:
            q = Fraction(q_str)
            nwv = spectrum.normalize_wavevector(q)
            p, t = nwv.p, nwv.t
            rec = {"t": t, "h": nwv.h, "p": p}
            out[q_str] = rec
            if p == 1:
                rec.update(kind="Bragg", alpha=None, alpha_src=None, alpha_tol=0.0,
                           residue_alpha=None, residue_src=None, residue_tol=0.0,
                           alpha_t=None)
                continue
            rec["kind"] = "SingularContinuous"
            s = _order_of_two(p)
            base_tol = _term_sum_tol(p, s)
            rec["alpha_t"] = max(2 * _orbit_beta(p, t, s) - 1, -1.0)
            fft = {}
            if s <= DIRECT_COLUMN_MAX_S or p < 1000:
                if p not in spectra:
                    spectra[p] = _circulant_spectrum(p, s)
                lam, l1, src = spectra[p]
                mods = np.abs(lam)
                for key, idx in (("alpha", int(np.argmax(mods[1:])) + 1), ("residue_alpha", t % p)):
                    tol = base_tol + 16 * U * (1 + math.log2(p)) * l1 / mods[idx] / (s * ln2)
                    if tol <= FFT_TOL_LIMIT:
                        fft[key] = (2 * math.log(mods[idx]) / (s * ln2) - 1, src, tol)
            seed = None
            prime = quadfield.is_prime(p)
            for key in ("alpha", "residue_alpha"):
                if key == "residue_alpha" and not prime:
                    # the seed reports no coset exponent for composite p
                    rec.update(residue_alpha=None, residue_src="seed", residue_tol=0.0)
                    continue
                short = "alpha" if key == "alpha" else "residue"
                if key in fft:
                    val, src, tol = fft[key]
                else:
                    if seed is None:
                        seed = _seed_exponents(q, p, t, s)
                    val, src, tol = seed[0 if key == "alpha" else 1], "seed", base_tol
                rec.update({key: val, f"{short}_src": src, f"{short}_tol": tol})
    return {"values": out}


# ---------------------------------------------------------------------------
# profiles and rarefied tables
# ---------------------------------------------------------------------------

def profile_refs() -> dict:
    out = {}
    p = W.PROFILE_P
    for j in W.PROFILE_J:
        prof = rareclass.fractal_profile(p, j, W.PROFILE_HORIZON, resolution=W.PROFILE_RESOLUTION)
        series = rareclass.rarefied_series(p, j, ORACLE_MAX_N)
        rows = []
        for n, raw, psi in zip(prof.n_samples, prof.raw, prof.values):
            n = int(n)
            if n <= ORACLE_MAX_N:
                raw = int(series[n - 1]) / float(n) ** prof.beta
            rows.append([n, float(raw), float(psi)])
        del series
        out[f"{p}|{j}"] = {
            "rs": prof.r * prof.s,
            "s": prof.s,
            "rows": rows,
            "bounds": [prof.bounds[0], prof.bounds[1]],
        }
    tables = {}
    p, limit = W.RAREFY_P, W.RAREFY_LIMIT
    tables[f"{p}|{limit}"] = [
        row_digest([n] + [rareclass.rarefied_sum_direct(p, i, n) for i in range(p)])
        for n in range(limit + 1)
    ]
    return {
        "sources": {"n": "seed (sampling grid)",
                    "raw": f"rarefied_series for n <= {ORACLE_MAX_N}, seed above",
                    "psi": "seed", "bounds": "seed",
                    "rarefy": "rarefied_sum_direct, sha256 per row"},
        "oracle_max_n": ORACLE_MAX_N,
        "profiles": out,
        "rarefy": tables,
    }


def _write(name: str, obj: dict) -> None:
    path = os.path.join(HERE, "refs", name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def main() -> int:
    _write("verdicts.json", verdict_refs())
    _write("profiles.json", profile_refs())
    _write("comb.json", comb_refs())
    return 0


if __name__ == "__main__":
    sys.exit(main())
