"""Check CLI output records against the committed references.

Values are read by column name.  Exact fields (t, h, p, kind, l, n and the
rarefied integers) compare exactly.  Floats compare within a tolerance set
from the term count and float64's unit roundoff u = 2^-53, not from the
observed deviations:

- densities nu_l = |S|^2 / l and exponents alpha_l (|S|^2 = l^(1+alpha))
  compare as |S|.  Each of the l terms carries a rounding error of about
  u |phi| from its phase (|phi| <= |k| f(l)), and the running sum one of
  about u per partial sum (each <= l).  Taken as a random walk, with four
  standard deviations, that is 4 u sqrt(l) (l + |k| f(l)).  The rounding
  of k itself turns every phase by the same relative u, which moves S
  coherently, by up to 2 u |k| f(l) times the largest partial sum; that is
  taken as |S|, with a factor 4 of margin.  So the bound is
  4 u sqrt(l) (l + |k| f(l)) + 8 u |k| f(l) |S|.  At l = 2^24 and
  q = 3/11 (|S| ~ 80) it is about 1e-4: it admits the ~1.5e-9 relative
  drift between routes (6e-8 in |S|) and rejects a 1e-3 relative error of
  the density (0.04 in |S|), tested;
- verdict exponents use the per-entry tolerance written by make_refs.py;
- profile samples use a bound relative to the profile's largest value.

The diagnostic spectrum columns `source`, `conjectural` and `kappa_eta_abs`
are not compared.  A verdict flagged `conjectural` is checked on kind, t, h
and p only, and its distance to the orbit value
alpha_t = max(2 beta_t(p) - 1, -1) is reported as the conjectural gap.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import workloads as W

U = 2.0 ** -53
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
HALF_SUM, HALF_DIFF = 1.5, 0.5       # (a+b)/2 and (a-b)/2 for the default a=2, b=1
K_SCALE = 4.0 * math.pi / 3.0         # k = 4 pi / (a+b) * q
MAX_REFINEMENTS = 80                  # cap on transfer-matrix applications per profile sample


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    gap: float = 0.0
    notes: list = field(default_factory=list)

    def add(self, other: "Result") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.gap = max(self.gap, other.gap)
        self.notes.extend(other.notes)


class Refs:
    """The committed reference files, loaded on first use."""

    def __init__(self):
        self._cache: dict = {}

    def __getitem__(self, name: str) -> dict:
        if name not in self._cache:
            with open(os.path.join(REFS_DIR, f"{name}.json"), encoding="utf-8") as fh:
                self._cache[name] = json.load(fh)
        return self._cache[name]


def _float(text: str):
    return None if text == "" else float(text)


def _sum_modulus(sq_over_l: float | None, l: int) -> float:
    return 0.0 if sq_over_l is None else math.sqrt(max(sq_over_l, 0.0) * l)


def _alpha_modulus(alpha: float | None, l: int) -> float:
    return 0.0 if alpha is None else math.exp(0.5 * (1.0 + alpha) * math.log(l))


def _sum_bound(l: int, phase: float, modulus: float) -> float:
    return 4.0 * U * math.sqrt(l) * (l + phase) + 8.0 * U * phase * modulus


# ---------------------------------------------------------------------------
# per-command checks; each returns (expected record count, failures, gap)
# ---------------------------------------------------------------------------

def _check_diffract(argv: list, rows: list, refs: Refs, notes: list) -> tuple:
    values = refs["comb"]["values"]
    sizes = [int(s) for s in W.flag(argv, "--sizes").split(",")]
    expected = [(str(q), l) for q in W.grid_values(W.flag(argv, "--grid")) for l in sizes]
    bad = 0
    for (q_str, l), row in zip(expected, rows):
        ref = values.get(f"{q_str}|{l}")
        if ref is None or row["q"] != q_str or int(row["l"]) != l:
            bad += 1
            continue
        q = float(Fraction(q_str))
        k_ref = K_SCALE * q
        ok = abs(float(row["k"]) - k_ref) <= 4 * U * abs(k_ref)
        dens_ref, alpha_ref = ref
        f_l = l * HALF_SUM + HALF_DIFF
        s_ref = _sum_modulus(dens_ref, l)
        s_out = _sum_modulus(_float(row["density"]), l)
        ok &= abs(s_out - s_ref) <= _sum_bound(l, abs(k_ref) * f_l, s_ref) + 1e-12 * s_ref  # 12 printed digits
        e_ref = _alpha_modulus(alpha_ref, l)
        e_out = _alpha_modulus(_float(row["alpha_l"]), l)
        slack = 1e-12 * math.log(l) * (1.0 + abs(alpha_ref or 0.0)) * e_ref  # refs keep 13 digits
        ok &= abs(e_out - e_ref) <= _sum_bound(l, 2 * math.pi * abs(q) * l, e_ref) + slack
        if not ok:
            bad += 1
            if len(notes) < 5:
                notes.append(f"diffract q={q_str} l={l}: density {row['density']} vs {dens_ref}, "
                             f"alpha_l {row['alpha_l']!r} vs {alpha_ref}")
    return len(expected), bad + abs(len(rows) - len(expected)), 0.0


def _check_spectrum(argv: list, rows: list, refs: Refs, notes: list) -> tuple:
    values = refs["verdicts"]["values"]
    expected = [tok.strip() for tok in W.flag(argv, "--q").split(",") if tok.strip()]
    bad, gap = 0, 0.0
    for q_str, row in zip(expected, rows):
        ref = values.get(q_str)
        if ref is None or row["q"] != q_str:
            bad += 1
            continue
        ok = (int(row["t"]), int(row["h"]), int(row["p"]), row["kind"]) == (
            ref["t"], ref["h"], ref["p"], ref["kind"])
        alpha = _float(row["alpha"])
        if ok and row.get("conjectural") == "True":
            gap = max(gap, abs(alpha - ref["alpha_t"]))
        elif ok:
            if ref["alpha"] is None:
                ok = alpha is None
            else:
                ok = alpha is not None and abs(alpha - ref["alpha"]) <= ref["alpha_tol"]
            res = _float(row["residue_alpha"])
            if ref["residue_alpha"] is not None:
                ok &= res is not None and abs(res - ref["residue_alpha"]) <= ref["residue_tol"]
            elif res is not None:
                # the seed prints no coset exponent for composite p; one that
                # is printed must be the orbit value
                ok &= ref["alpha_t"] is not None and abs(res - ref["alpha_t"]) <= ref["alpha_tol"]
        if not ok:
            bad += 1
            if len(notes) < 5:
                notes.append(f"spectrum q={q_str}: {dict(row)} vs {ref}")
    return len(expected), bad + abs(len(rows) - len(expected)), gap


def _check_profile(argv: list, rows: list, refs: Refs, notes: list) -> tuple:
    p, j = int(W.flag(argv, "--p")), int(W.flag(argv, "--j"))
    ref = refs["profiles"]["profiles"].get(f"{p}|{j}")
    if ref is None:
        return len(rows) or 1, len(rows) or 1, 0.0
    ref_rows = ref["rows"]
    rs, s = ref["rs"], ref["s"]
    raw_scale = max(abs(r[1]) for r in ref_rows)
    psi_scale = max(abs(r[2]) for r in ref_rows)
    bad = 0
    ln_n_max = 0.0
    for (n_ref, raw_ref, psi_ref), row in zip(ref_rows, rows):
        if row["n"] == "" or int(row["n"]) != n_ref:
            bad += 1
            continue
        ln_n = math.log(n_ref)
        ln_n_max = max(ln_n_max, ln_n)
        x_ref = ln_n / (rs * math.log(2.0)) % 1.0
        dx = abs(float(row["x"]) - x_ref)
        ok = min(dx, 1.0 - dx) <= 64 * U * (1.0 + ln_n)
        ok &= abs(float(row["raw"]) - raw_ref) <= 16 * U * (4.0 + ln_n) * raw_scale
        psi_tol = 4 * U * (2 * MAX_REFINEMENTS * s + MAX_REFINEMENTS * p + 4 * ln_n + 8)
        ok &= abs(float(row["psi"]) - psi_ref) <= psi_tol * psi_scale
        if not ok:
            bad += 1
            if len(notes) < 5:
                notes.append(f"profile p={p} j={j} n={n_ref}: {dict(row)} vs {[raw_ref, psi_ref]}")
    expected = len(ref_rows) + 1
    if len(rows) == expected:
        last = rows[-1]
        lo, hi = ref["bounds"]
        tol = 4 * U * (2 * MAX_REFINEMENTS * s + MAX_REFINEMENTS * p + 4 * ln_n_max + 8) * psi_scale
        if last["x"] != "" or last["n"] != "" or abs(float(last["psi"]) - lo) > tol \
                or abs(float(last["raw"]) - hi) > tol:
            bad += 1
            notes.append(f"profile p={p} j={j}: bounds row {dict(last)} vs {ref['bounds']}")
    return expected, min(expected, bad + abs(len(rows) - expected)), 0.0


def row_digest(values) -> str:
    return hashlib.sha256(",".join(str(int(v)) for v in values).encode()).hexdigest()[:16]


def _check_rarefy(argv: list, rows: list, refs: Refs, notes: list) -> tuple:
    p, limit = int(W.flag(argv, "--p")), int(W.flag(argv, "--limit"))
    digests = refs["profiles"]["rarefy"].get(f"{p}|{limit}")
    if digests is None:
        return limit + 1, limit + 1, 0.0
    columns = ["n"] + [f"s{i}" for i in range(p)]
    bad = 0
    for digest, row in zip(digests, rows):
        try:
            ok = row_digest([row[c] for c in columns]) == digest
        except (KeyError, ValueError):
            ok = False
        if not ok:
            bad += 1
            if len(notes) < 5:
                notes.append(f"rarefy p={p} n={row.get('n')}: row differs from rarefied_sum_direct")
    return len(digests), min(len(digests), bad + abs(len(rows) - len(digests))), 0.0


_CHECKS = {
    "diffract": _check_diffract,
    "spectrum": _check_spectrum,
    "profile": _check_profile,
    "rarefy": _check_rarefy,
}


def expected_records(argv: list, refs: Refs) -> int:
    return _CHECKS[argv[0]](argv, [], refs, [])[0]


def check_call(argv: list, rc: int, stdout: str, refs: Refs) -> Result:
    """Compare one invocation's output with the references.  A nonzero exit
    fails every record the invocation should have produced."""
    out = Result()
    if rc != 0:
        n = expected_records(argv, refs)
        out.attempted, out.failed = n, n
        out.notes.append(f"{' '.join(argv[:2])}...: exit code {rc}")
        return out
    rows = list(csv.DictReader(io.StringIO(stdout)))
    out.attempted, failed, out.gap = _CHECKS[argv[0]](argv, rows, refs, out.notes)
    out.failed = min(failed, out.attempted)
    return out
