"""The four benchmark workloads and their committed input pools.

Every workload is a fixed list of CLI invocations whose shape (sizes, grid
length, denominators, horizon) is fixed; the seed only picks, per slot, one
entry from a pool of inputs with the same cost.  So every seed has the same
size profile, and `cost_band` of the invocations is seed-invariant.
"""

from __future__ import annotations

import random
from fractions import Fraction

# comb-deep: few wave vectors at huge truncation sizes.  Cost does not depend
# on q (one cumulative pass to max(sizes)); all q are non-dyadic.
DEEP_Q = ["1/3", "3/17", "1/5", "2/7", "5/12", "3/11"]
DEEP_PICKS = 2
DEEP_SIZES = "65537,1048575,16777216"

# comb-grid: 257 wave vectors at small sizes, dyadic and non-dyadic l mixed.
GRID_STARTS = ["0", "1/3", "1/7", "2/5"]
GRID_STEP = "1/256"
GRID_COUNT = 257
GRID_SIZES = "1000,1024,3000,4096,12000,16384"
GRID_JOBS = 2

# verdicts: one slot per class of denominator.  Within a slot the odd part
# p of the denominator is fixed, so the cost is fixed; only t (and for 1/3
# and the dyadic slot, the power of two) varies.  Slots with two cosets of
# <2> keep t inside one coset.
VERDICT_SLOTS = [
    ["1/3", "2/3", "1/6", "5/6"],                 # P1, p = 3
    ["5/12", "7/12", "1/12", "11/12"],            # P1, p = 3, h = 2
    ["1/7", "2/7", "3/7", "5/14"],                # P23
    ["3/17", "5/17", "6/17", "7/17"],             # P21, dominant coset
    ["1/17", "2/17", "4/17", "9/17"],             # P21, subdominant coset
    ["1/137", "2/137", "4/137", "8/137"],         # P21, coset of 1
    ["3/137", "6/137", "12/137", "24/137"],       # P21, coset of 3
    ["1/9049", "2/9049", "3/9049", "5/9049"],     # P21, L(1, chi_p) dominated
    ["1/49033", "2/49033", "3/49033", "5/49033"],
    ["1/99089", "2/99089", "3/99089", "5/99089"],
    ["1/199961", "2/199961", "3/199961", "5/199961"],
    ["1/9", "2/9", "4/9", "5/9"],                 # composite, fitted
    ["1/21", "2/21", "4/21", "5/21"],             # composite, fitted
    ["1/15", "2/15", "4/15", "7/15"],             # 3^a 5^b
    ["1/45", "2/45", "4/45", "7/45"],             # 3^a 5^b
    ["1/43", "2/43", "3/43", "5/43"],             # Other
    ["1/8191", "2/8191", "3/8191", "5/8191"],     # Other, eigenvalue product
    ["1/131071", "2/131071", "3/131071", "5/131071"],
    ["7/1024", "3/1024", "5/1024", "9/1024"],     # dyadic: Bragg
]

# profiles: one residue j of the p = 17 profile (all j cost the same: the
# whole rarefied vector is computed and refined), then a fixed rarefy table.
PROFILE_P = 17
PROFILE_J = [0, 5, 11]
PROFILE_HORIZON = 48
PROFILE_RESOLUTION = 512
RAREFY_P = 137
RAREFY_LIMIT = 2000

NAMES = ("comb-deep", "comb-grid", "verdicts", "profiles")


def invocations(workload: str, seed: int) -> list:
    """The argv lists the workload runs, in order, for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "comb-deep":
        grid = ",".join(rng.sample(DEEP_Q, DEEP_PICKS))
        return [["diffract", "--grid", grid, "--sizes", DEEP_SIZES, "--jobs", "1"]]
    if workload == "comb-grid":
        grid = f"{rng.choice(GRID_STARTS)}:{GRID_STEP}:{GRID_COUNT}"
        return [["diffract", "--grid", grid, "--sizes", GRID_SIZES,
                 "--jobs", str(GRID_JOBS)]]
    if workload == "verdicts":
        qs = ",".join(rng.choice(slot) for slot in VERDICT_SLOTS)
        return [["spectrum", "--q", qs]]
    if workload == "profiles":
        j = rng.choice(PROFILE_J)
        return [
            ["profile", "--p", str(PROFILE_P), "--j", str(j),
             "--horizon", str(PROFILE_HORIZON), "--resolution", str(PROFILE_RESOLUTION)],
            ["rarefy", "--p", str(RAREFY_P), "--limit", str(RAREFY_LIMIT)],
        ]
    raise ValueError(f"unknown workload {workload!r}; pick from {NAMES}")


def flag(argv: list, name: str) -> str:
    return argv[argv.index(name) + 1]


def grid_values(spec: str) -> list:
    """The wave vectors of a --grid value, parsed by the CLI itself.  The
    import is deferred so the harness holds no numpy while it runs
    repetitions (see run.py)."""
    from tmqc.cli import _parse_grid

    return _parse_grid(spec)


def _odd_part(q: str) -> int:
    d = Fraction(q).denominator
    while d % 2 == 0:
        d //= 2
    return d


def cost_band(argvs: list) -> tuple:
    """The input properties the cost depends on; equal for every seed."""
    band = []
    for argv in argvs:
        cmd = argv[0]
        if cmd == "diffract":
            band.append((cmd, len(grid_values(flag(argv, "--grid"))),
                         flag(argv, "--sizes"), flag(argv, "--jobs")))
        elif cmd == "spectrum":
            band.append((cmd, tuple(_odd_part(q) for q in flag(argv, "--q").split(","))))
        elif cmd == "profile":
            band.append((cmd, flag(argv, "--p"), flag(argv, "--horizon"),
                         flag(argv, "--resolution")))
        else:
            band.append(tuple(argv))
    return tuple(band)
