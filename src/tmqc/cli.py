"""Command-line surface: scans, tables and plot data in CSV or JSON.

One binary, subcommands::

    tmqc sequence        first terms: digit sum, sign, vertex coordinate
    tmqc diffract        approximant densities over a grid of rational q
    tmqc classify-primes per-prime class/unit/exponent table
    tmqc spectrum        spectral verdicts for a list of rational q
    tmqc profile         log-periodic profile samples for one residue
    tmqc rarefy          rarefied sum vectors over a range of n
    tmqc marcinkiewicz   averaged-weight pseudo-norm estimates

Rationals are written "num/den".  Densities print with 12 significant
digits; all other floats use shortest round-trip formatting, so identical
configurations produce byte-identical files.  A JSON config file may mirror
any flag; explicit flags win.  Exit codes: 0 success, 1 usage or parse
error, 2 numerical sanity failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from . import diffract, quadfield, rareclass, spectrum, tmcore

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


class _GivenParser(_Parser):
    """Parses only what the command line states: no flag has a default or
    is required, so the namespace holds exactly the flags given, with
    argparse's prefix abbreviations resolved.  `dests` names the flags
    added (not --help)."""

    def __init__(self, *args, **kwargs):
        self.dests = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        if kwargs.get("default") is argparse.SUPPRESS:  # --help
            return super().add_argument(*args, **kwargs)
        kwargs.update(default=argparse.SUPPRESS, required=False)
        action = super().add_argument(*args, **kwargs)
        self.dests.add(action.dest)
        return action


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r} ({exc})") from exc


def _parse_grid(spec: str) -> list:
    """Comma list of rationals, or "start:step:count"."""
    spec = spec.strip()
    if not spec:
        return []
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError("grid range must be start:step:count")
        start, step = _parse_fraction(parts[0]), _parse_fraction(parts[1])
        try:
            count = int(parts[2])
        except ValueError as exc:
            raise UsageError("grid count must be an integer") from exc
        if count < 0:
            raise UsageError("grid count must be >= 0")
        return [start + i * step for i in range(count)]
    return [_parse_fraction(tok) for tok in spec.split(",") if tok.strip()]


def _parse_sizes(spec: str) -> list:
    try:
        sizes = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad size list: {spec!r}") from exc
    if any(s < 1 for s in sizes):
        raise UsageError("sizes must be positive")
    if any(s >= diffract.FLOAT_ORBIT_LIMIT for s in sizes):
        # densities take the wave vector as a float, whose doubling orbit
        # resolves sizes below 2^53 only
        raise UsageError(f"sizes must be below 2^53 = {diffract.FLOAT_ORBIT_LIMIT}")
    return sizes


def _fmt_density(x: float) -> str:
    return f"{x:.12g}"


def _emit(records: list, columns: list, fmt: str, out_path: str | None) -> None:
    """Write records (list of dicts) as CSV or JSON, deterministically."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([rec[c] for c in columns])
        text = buf.getvalue()
    else:
        text = json.dumps(records, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_sequence(args) -> list:
    params = tmcore.QuasicrystalParams(args.a, args.b)
    records = []
    for n in range(args.limit + 1):
        records.append(
            {
                "n": n,
                "digit_sum": tmcore.digit_sum(n),
                "sign": tmcore.tm_sign(n),
                "f": str(tmcore.point(n, params)),
            }
        )
    return records


def _diffract_rows(a: str, b: str, q_str: str, sizes: list) -> list:
    params = tmcore.QuasicrystalParams.from_strings(a, b)
    q = Fraction(q_str)
    k = params.wave_vector(q)
    rows = []
    dens = diffract.density_at_sizes(k, sizes, params)
    for l, nu in zip(sizes, dens):
        al = diffract.scaling_exponent_alpha(l, q) if l >= 2 else None
        rows.append(
            {
                "q": q_str,
                "k": k,
                "l": l,
                "density": _fmt_density(float(nu)),
                "alpha_l": None if al is None or math.isinf(al) else al,
            }
        )
    return rows


def _diffract_worker(task):
    return _diffract_rows(*task)


def _cmd_diffract(args) -> list:
    grid = _parse_grid(args.grid)
    sizes = _parse_sizes(args.sizes)
    tasks = [(str(args.a), str(args.b), str(q), sizes) for q in grid]
    records: list = []
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for rows in pool.map(_diffract_worker, tasks):
                records.extend(rows)
    else:
        for task in tasks:
            records.extend(_diffract_worker(task))
    return records


def _regime_name(beta: float) -> str:
    alpha = 2.0 * beta - 1.0
    if not -1.0 < alpha < 1.0:
        return ""
    return spectrum.growth_regime(alpha).value


def _cmd_classify_primes(args) -> list:
    records = []
    for p in quadfield.primes_up_to(args.limit - 1):
        if p == 2:
            continue
        rec = quadfield.prime_record(p)
        records.append(
            {
                "p": p,
                "s": rec.s,
                "class": rec.cls.value,
                "h": rec.h,
                "epsilon": str(rec.epsilon) if rec.epsilon else None,
                "beta": rec.beta,
                "regime": _regime_name(rec.beta) if rec.beta is not None else "",
            }
        )
    return records


def _cmd_spectrum(args) -> list:
    params = tmcore.QuasicrystalParams(args.a, args.b)
    records = []
    for tok in args.q.split(","):
        tok = tok.strip()
        if not tok:
            continue
        q = _parse_fraction(tok)
        v = spectrum.classify(q, params, horizon_exponent=args.horizon)
        records.append(
            {
                "q": tok,
                "t": v.t,
                "h": v.h,
                "p": v.p,
                "kind": v.kind.value,
                "alpha": v.alpha,
                "residue_alpha": v.residue_alpha,
                "kappa_eta_abs": abs(v.kappa_eta),
                "source": v.exponent_source,
                "conjectural": v.conjectural,
            }
        )
    return records


def _cmd_profile(args) -> list:
    try:
        prof = rareclass.fractal_profile(
            args.p, args.j, args.horizon, resolution=args.resolution
        )
    except ValueError as exc:  # p, residue, horizon or resolution out of range
        raise UsageError(str(exc)) from exc
    records = [
        {
            "x": float(x),
            "psi": float(v),
            "raw": float(rw),
            "n": int(n),
        }
        for x, v, rw, n in zip(prof.x, prof.values, prof.raw, prof.n_samples)
    ]
    summary = {
        "x": None,
        "psi": prof.bounds[0],
        "raw": prof.bounds[1],
        "n": None,
    }
    # bounds summary row goes last so column-oriented plotting can drop it
    records.append(summary)
    return records


def _rarefy_columns(p: int) -> list:
    return ["n"] + [f"s{i}" for i in range(p)]


def _cmd_rarefy(args) -> list:
    try:
        rows = rareclass.rarefied_rows(args.p, args.limit)
        keys = _rarefy_columns(args.p)
        return [dict(zip(keys, (n, *row))) for n, row in enumerate(rows)]
    except ValueError as exc:  # p or limit out of range
        raise UsageError(str(exc)) from exc


_WEIGHT_FAMILIES = ("ones", "zero", "squares", "random")


def _weights_by_name(name: str, horizon: int, seed: int) -> np.ndarray:
    if name == "ones":
        return np.ones(horizon)
    if name == "zero":
        return np.zeros(horizon)
    if name == "squares":
        w = np.zeros(horizon)
        k = 1
        while k * k <= horizon:
            w[k * k - 1] = 1.0
            k += 1
        return w
    if name == "random":
        rng = np.random.default_rng(seed)
        return rng.choice([-1.0, 1.0], size=horizon)
    raise UsageError(f"unknown weight family {name!r}; pick from {_WEIGHT_FAMILIES}")


def _cmd_marcinkiewicz(args) -> list:
    w = _weights_by_name(args.weights, 1 << args.horizon, args.seed)
    est = spectrum.marcinkiewicz_norm(w, 1 << args.horizon)
    records = [
        {"l": l, "mean_abs_weight": v, "estimate": None}
        for l, v in est.dyadic_values
    ]
    records.append({"l": est.horizon, "mean_abs_weight": None, "estimate": est.value})
    return records


_COLUMNS = {
    "sequence": ["n", "digit_sum", "sign", "f"],
    "diffract": ["q", "k", "l", "density", "alpha_l"],
    "classify-primes": ["p", "s", "class", "h", "epsilon", "beta", "regime"],
    "spectrum": [
        "q", "t", "h", "p", "kind", "alpha", "residue_alpha",
        "kappa_eta_abs", "source", "conjectural",
    ],
    "profile": ["x", "psi", "raw", "n"],
    "marcinkiewicz": ["l", "mean_abs_weight", "estimate"],
}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _build_parser(cls: type = _Parser) -> _Parser:
    top = cls(prog="tmqc", description=__doc__,
              formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--config", help="JSON file mirroring flags; flags override")
    sub = top.add_subparsers(dest="command", required=True)
    top.commands = sub.choices

    def common(p):
        p.add_argument("--a", default="2", help="tile length a as num/den")
        p.add_argument("--b", default="1", help="tile length b as num/den")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sequence", help="digit sums, signs and vertices")
    common(p)
    p.add_argument("--limit", type=int, default=16, help="largest index n")

    p = sub.add_parser("diffract", help="approximant densities over a q grid")
    common(p)
    p.add_argument("--grid", required=True, help="comma list of q, or start:step:count")
    p.add_argument("--sizes", default="256,1024,4096,16384", help="comma list of l")

    p = sub.add_parser("classify-primes", help="prime class/unit/exponent table")
    common(p)
    p.add_argument("--limit", type=int, default=200, help="scan primes below this")

    p = sub.add_parser("spectrum", help="verdicts for rational wave vectors")
    common(p)
    p.add_argument("--q", required=True, help="comma list of rationals")
    p.add_argument("--horizon", type=int, default=20,
                   help="log2 horizon for fitted exponents")

    p = sub.add_parser("profile", help="log-periodic profile samples")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--horizon", type=int, default=20)
    p.add_argument("--resolution", type=int, default=256)

    p = sub.add_parser("rarefy", help="rarefied sum vectors")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--limit", type=int, default=32, help="largest argument n")

    p = sub.add_parser("marcinkiewicz", help="averaged-weight pseudo-norm")
    common(p)
    p.add_argument("--weights", default="ones",
                   help=f"weight family: {', '.join(_WEIGHT_FAMILIES)}")
    p.add_argument("--horizon", type=int, default=16, help="log2 horizon")

    return top


def _config_path(argv: list) -> str | None:
    """The --config value, read without building the subcommands' parsers
    (which costs milliseconds); the full parse checks its placement."""
    top = _Parser(add_help=False)
    top.add_argument("--config")
    return top.parse_known_args(argv)[0].config


def _parse_args(argv: list) -> argparse.Namespace:
    """The command line, with the JSON config (if any) filling the flags it
    does not give, required flags included.

    Config values go back through the parser as flag tokens, so each one
    meets its flag's own type and choices; a value that is not a string or
    a number is refused.  Keys that name no flag of the subcommand are
    ignored, so one config can serve several subcommands.
    """
    config = _config_path(argv)
    if not config:
        return _build_parser().parse_args(argv)
    given_parser = _build_parser(_GivenParser)
    given = given_parser.parse_args(argv)
    try:
        with open(config, "r", encoding="utf-8") as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {config!r}: {exc}") from exc
    if not isinstance(conf, dict):
        raise UsageError("config must be a JSON object of flag values")
    flags = given_parser.commands[given.command].dests
    extra = []
    for key, value in conf.items():
        attr = key.replace("-", "_")
        if attr not in flags or hasattr(given, attr):
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(
                f"config value for {key!r} must be a string or a number, "
                f"not {json.dumps(value)}"
            )
        extra.append(f"--{attr}={value}")
    try:
        return _build_parser().parse_args(argv + extra)
    except UsageError as exc:
        raise UsageError(f"config {config!r}: {exc}") from exc


_HANDLERS = {
    "sequence": _cmd_sequence,
    "diffract": _cmd_diffract,
    "classify-primes": _cmd_classify_primes,
    "spectrum": _cmd_spectrum,
    "profile": _cmd_profile,
    "rarefy": _cmd_rarefy,
    "marcinkiewicz": _cmd_marcinkiewicz,
}


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        if hasattr(args, "a"):
            args.a = _parse_fraction(str(args.a))
            args.b = _parse_fraction(str(args.b))
            if not 0 < args.b < args.a:
                raise UsageError("tile lengths must satisfy 0 < b < a")
        records = _HANDLERS[args.command](args)
        if args.command == "rarefy":
            columns = _rarefy_columns(args.p)
        else:
            columns = _COLUMNS[args.command]
        _emit(records, columns, args.format, args.out)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, diffract.ExtinctionError) as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
