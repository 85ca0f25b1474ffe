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
# argparse translates its messages through gettext, which imports locale
# inside the first parse (about 2 ms); importing it here puts that cost in
# start-up instead of the first command
import locale  # noqa: F401
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import diffract, quadfield, rareclass, spectrum, tmcore

__all__ = ["main"]


class UsageError(Exception):
    pass


def __getattr__(name: str):
    """`ProcessPoolExecutor`, imported on first access: no command runs a
    pool, but perfbench/spans.py wraps the name (with `_diffract_worker`),
    and importing it at start-up would load multiprocessing."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _emit(columns: list, rows: list, fmt: str, out_path: str | None) -> None:
    """Write rows (sequences in column order) as CSV or JSON (one object
    per row, keys in column order), deterministically."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        records = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(records, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: each returns (columns, rows), a row being a tuple in column
# order
# ---------------------------------------------------------------------------

def _cmd_sequence(args) -> tuple:
    params = tmcore.QuasicrystalParams(args.a, args.b)
    rows = [
        (n, tmcore.digit_sum(n), tmcore.tm_sign(n), str(tmcore.point(n, params)))
        for n in range(args.limit + 1)
    ]
    return ["n", "digit_sum", "sign", "f"], rows


def _diffract_worker(params, q: Fraction, sizes: list) -> list:
    """The rows of one wave vector: one block table for the densities and
    one for the exponents."""
    k = params.wave_vector(q)
    dens = diffract.density_at_sizes(k, sizes, params)
    alphas = diffract.scaling_exponents_at_sizes(q, [max(l, 2) for l in sizes])
    return [
        (str(q), k, l, _fmt_density(float(nu)), None if l < 2 or math.isinf(al) else al)
        for l, nu, al in zip(sizes, dens, alphas)
    ]


def _cmd_diffract(args) -> tuple:
    """All wave vectors in this process; `--jobs` is accepted and ignored,
    since a q costs O(log l) per size and a pool costs more than it saves."""
    params = tmcore.QuasicrystalParams(args.a, args.b)
    grid = _parse_grid(args.grid)
    sizes = _parse_sizes(args.sizes)
    rows = [row for q in grid for row in _diffract_worker(params, q, sizes)]
    return ["q", "k", "l", "density", "alpha_l"], rows


def _regime_name(beta: float) -> str:
    alpha = 2.0 * beta - 1.0
    if not -1.0 < alpha < 1.0:
        return ""
    return spectrum.growth_regime(alpha).value


def _cmd_classify_primes(args) -> tuple:
    rows = []
    for p in quadfield.primes_up_to(args.limit - 1):
        if p == 2:
            continue
        rec = quadfield.prime_record(p)
        rows.append((
            p,
            rec.s,
            rec.cls.value,
            rec.h,
            str(rec.epsilon) if rec.epsilon else None,
            rec.beta,
            _regime_name(rec.beta) if rec.beta is not None else "",
        ))
    return ["p", "s", "class", "h", "epsilon", "beta", "regime"], rows


def _cmd_spectrum(args) -> tuple:
    params = tmcore.QuasicrystalParams(args.a, args.b)
    rows = []
    for tok in args.q.split(","):
        tok = tok.strip()
        if not tok:
            continue
        q = _parse_fraction(tok)
        try:
            v = spectrum.classify(q, params, horizon_exponent=args.horizon)
        except ValueError as exc:  # an odd part the exponent routes refuse
            raise UsageError(f"q={tok}: {exc}") from exc
        rows.append((
            tok, v.t, v.h, v.p, v.kind.value, v.alpha, v.residue_alpha,
            abs(v.kappa_eta), v.exponent_source, v.conjectural,
        ))
    columns = [
        "q", "t", "h", "p", "kind", "alpha", "residue_alpha",
        "kappa_eta_abs", "source", "conjectural",
    ]
    return columns, rows


def _cmd_profile(args) -> tuple:
    try:
        prof = rareclass.fractal_profile(
            args.p, args.j, args.horizon, resolution=args.resolution
        )
    except ValueError as exc:  # p, residue, horizon or resolution out of range
        raise UsageError(str(exc)) from exc
    rows = [
        (float(x), float(v), float(rw), int(n))
        for x, v, rw, n in zip(prof.x, prof.values, prof.raw, prof.n_samples)
    ]
    # bounds summary row goes last so column-oriented plotting can drop it
    rows.append((None, prof.bounds[0], prof.bounds[1], None))
    return ["x", "psi", "raw", "n"], rows


def _cmd_rarefy(args) -> tuple:
    try:
        rows = [(n, *row) for n, row in enumerate(rareclass.rarefied_rows(args.p, args.limit))]
    except ValueError as exc:  # p or limit out of range
        raise UsageError(str(exc)) from exc
    return ["n"] + [f"s{i}" for i in range(args.p)], rows


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


def _cmd_marcinkiewicz(args) -> tuple:
    w = _weights_by_name(args.weights, 1 << args.horizon, args.seed)
    est = spectrum.marcinkiewicz_norm(w, 1 << args.horizon)
    rows = [(l, v, None) for l, v in est.dyadic_values]
    rows.append((est.horizon, None, est.value))
    return ["l", "mean_abs_weight", "estimate"], rows


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
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="accepted and ignored: every command runs in one process")
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
        columns, rows = _HANDLERS[args.command](args)
        _emit(columns, rows, args.format, args.out)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, diffract.ExtinctionError) as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
