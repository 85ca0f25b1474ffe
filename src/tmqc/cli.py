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

import csv
import functools
import gc
import io
import math
import sys
import types
from fractions import Fraction
from itertools import accumulate, repeat

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


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r} ({exc})") from exc


# a wave vector at one size costs about 620 bytes of peak memory and 11 us
# (measured at 10^5 and 4 10^5): 2.6 GB and 45 s at 2^22
MAX_GRID_COUNT = 1 << 22


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
        if count > MAX_GRID_COUNT:  # refused before the grid is built
            raise UsageError(f"grid count must be at most 2^22 = {MAX_GRID_COUNT}")
        # start + i * step as running sums: the same exact values, one
        # Fraction addition each instead of a product and a sum
        return list(accumulate(repeat(step, count), initial=start))[:count]
    return [_parse_fraction(tok) for tok in spec.split(",") if tok.strip()]


# a rational q is exact in its phases at any size (`diffract.density_at_qs`);
# sizes are capped like profile horizons, so every l is a signed 64-bit
# integer for whatever reads the table
MAX_SIZE = 1 << 62


def _parse_sizes(spec: str) -> list:
    try:
        sizes = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad size list: {spec!r}") from exc
    if any(s < 1 for s in sizes):
        raise UsageError("sizes must be positive")
    if any(s > MAX_SIZE for s in sizes):
        raise UsageError(f"sizes must be at most 2^62 = {MAX_SIZE}")
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
    elif rows:
        import json  # on demand: most runs write CSV

        # rows that the C encoder writes one at a time: its item separator
        # carries a row's inner indentation (every value is a scalar)
        encode = json.JSONEncoder(separators=(",\n    ", ": "), allow_nan=False).encode
        text = _json_records([encode(dict(zip(columns, row)))[1:-1] for row in rows])
    else:
        text = "[]\n"
    _write(text, out_path)


def _json_records(bodies: list) -> str:
    """The indent=2 layout of json.dumps for a non-empty list of objects,
    written by hand around their bodies: each body is an object's members
    joined by a comma, a newline and four spaces.  The brackets go onto the
    first and last body in place, so the text is built by one join, with
    no second copy of it."""
    bodies[0] = "[\n  {\n    " + bodies[0]
    bodies[-1] += "\n  }\n]\n"
    return "\n  },\n  {\n    ".join(bodies)


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: each returns (columns, rows), a row being a tuple in column
# order, for `_emit`; `diffract`, `profile` and `rarefy` return their
# finished text instead
# ---------------------------------------------------------------------------

# a row costs about 210 bytes of peak memory and 8 us (measured at 10^5 and
# 10^6 rows): 3.5 GB and 2 minutes at 2^24
MAX_SEQUENCE_LIMIT = 1 << 24


def _cmd_sequence(args) -> tuple:
    if args.limit > MAX_SEQUENCE_LIMIT:  # refused before any row is made
        raise UsageError(f"--limit must be at most 2^24 = {MAX_SEQUENCE_LIMIT}")
    rows = [
        (n, tmcore.digit_sum(n), tmcore.tm_sign(n), str(tmcore.point(n, args.params)))
        for n in range(args.limit + 1)
    ]
    return ["n", "digit_sum", "sign", "f"], rows


def _diffract_worker(params, qs: list, sizes: list) -> list:
    """The rows of the wave vectors qs, in grid order: density and alpha_l
    from one exact block table per distinct frac(2q) and one walk per size
    (`diffract.density_at_qs`)."""
    rows = []
    for q, values in zip(qs, diffract.density_at_qs(qs, sizes, params)):
        try:
            k = params.wave_vector(q)
        except ValueError as exc:  # k beyond the float range
            raise UsageError(f"q={tmcore.number_text(q)}: {exc}") from exc
        try:
            q_text = str(q)
        except ValueError as exc:  # Python makes no decimal text past 4300 digits
            raise UsageError(f"q={tmcore.number_text(q)}: too many digits to write "
                             "(the limit is 4300)") from exc
        rows.extend(
            (q_text, k, l, _fmt_density(nu), None if al is None or math.isinf(al) else al)
            for l, (nu, al) in zip(sizes, values)
        )
    return rows


def _cmd_diffract(args) -> str:
    """All wave vectors in this process (`--jobs` is accepted and ignored,
    since a q costs O(log l) per size and a pool costs more than it saves),
    in the bytes `_emit` would write.  A row is one f-string: q and the
    density are texts that neither format escapes (a rational and a
    `_fmt_density`), k is a finite float, l an int and alpha_l a finite
    float or missing, so the cells between the values are fixed per
    format."""
    rows = _diffract_worker(args.params, _parse_grid(args.grid), _parse_sizes(args.sizes))
    if args.format == "csv":
        q_, k_, l_, nu_, al_, null = "", ",", ",", ",", ",", ""
    else:  # a line is a record body for `_json_records`; q and density are JSON strings
        q_, k_, l_ = '"q": "', '",\n    "k": ', ',\n    "l": '
        nu_, al_, null = ',\n    "density": "', '",\n    "alpha_l": ', "null"
    lines = [
        f"{q_}{q}{k_}{k!r}{l_}{l}{nu_}{nu}{al_}{null if al is None else repr(al)}"
        for q, k, l, nu, al in rows
    ]
    if args.format == "csv":
        return "\n".join(["q,k,l,density,alpha_l", *lines, ""])
    return _json_records(lines) if lines else "[]\n"


def _regime_name(beta: float) -> str:
    alpha = 2.0 * beta - 1.0
    if not -1.0 < alpha < 1.0:
        return ""
    return spectrum.growth_regime(alpha).value


# `quadfield.dirichlet_l_one` takes p < 2^32, the L-value of each P21 prime
MAX_PRIME_LIMIT = 1 << 32


def _cmd_classify_primes(args) -> tuple:
    if args.limit > MAX_PRIME_LIMIT:  # refused before the sieve, which would take gigabytes
        raise UsageError(f"--limit must be at most 2^32 = {MAX_PRIME_LIMIT}")
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
    rows = []
    for tok in args.q.split(","):
        tok = tok.strip()
        if not tok:
            continue
        q = _parse_fraction(tok)
        try:
            v = spectrum.classify(q, args.params)
        except ValueError as exc:  # odd part above the coset-spectrum cap, or k too large
            raise UsageError(f"q={tok}: {exc}") from exc
        rows.append((
            tok, v.t, v.h, v.p, v.kind.value, v.alpha, v.residue_alpha,
            abs(v.kappa_eta), v.exponent_source,
        ))
    columns = [
        "q", "t", "h", "p", "kind", "alpha", "residue_alpha",
        "kappa_eta_abs", "source",
    ]
    return columns, rows


def _cmd_profile(args) -> str:
    """The profile samples, then the bounds row, in the bytes `_emit` would
    write.  Every cell is an int or a float, which neither format quotes,
    so a row is one f-string of `repr`s.  JSON has no text for a value that
    is not finite, so there such a value fails the run."""
    try:
        prof = rareclass.fractal_profile(
            args.p, args.j, args.horizon, resolution=args.resolution
        )
    except ValueError as exc:  # p, residue, horizon or resolution out of range
        raise UsageError(str(exc)) from exc
    samples = zip(prof.x.tolist(), prof.values.tolist(), prof.raw.tolist(),
                  prof.n_samples.tolist())
    lo, hi = prof.bounds
    # bounds summary row goes last so column-oriented plotting can drop it
    if args.format == "csv":
        rows = [f"{x!r},{psi!r},{raw!r},{n}\n" for x, psi, raw, n in samples]
        return "".join(["x,psi,raw,n\n", *rows, f",{lo!r},{hi!r},\n"])
    if not all(np.isfinite(a).all() for a in (prof.x, prof.values, prof.raw)):
        raise ArithmeticError("profile value is not finite, and JSON has no text for it")
    return _json_records([
        f'"x": {x!r},\n    "psi": {psi!r},\n    "raw": {raw!r},\n    "n": {n}'
        for x, psi, raw, n in samples
    ] + [f'"x": null,\n    "psi": {lo!r},\n    "raw": {hi!r},\n    "n": null'])


# a table has (limit + 1)(p + 1) cells; one costs at most about 55 bytes of peak memory
# and 0.5 us (p = 3 in JSON, at 4*10^6 and 1.6*10^7 cells): 0.9 GB and 9 s at 2^24
MAX_RAREFY_CELLS = 1 << 24


def _cmd_rarefy(args) -> str:
    """The table of S_{p,*}(n), n = 0..limit, in the bytes `_emit` would
    write, rendered from the running scan `rareclass.rarefied_rows`.  Row n
    differs from row n - 1 only in the one cell the scan yields, so each
    cell keeps its text and one cell is formatted per row.  The cells sit
    in blocks of isqrt(p) + 1, each block keeping its joined text, so a row
    re-joins the one block that changed and then the about sqrt(p) block
    texts: O(sqrt p) joins a row instead of O(p).  The whole text is built
    before anything is written, so a failed check of the scan writes
    nothing."""
    p = args.p
    if (cells := (max(args.limit, 0) + 1) * (p + 1)) > MAX_RAREFY_CELLS:
        raise UsageError(f"--limit and --p give a table of {tmcore.number_text(cells)} cells; "
                         f"it may hold at most 2^24 = {MAX_RAREFY_CELLS}")
    if args.format == "csv":
        n_label, labels, sep = "", [""] * p, ","
    else:  # a line is a record body for `_json_records`
        n_label, labels, sep = '"n": ', [f'"s{i}": ' for i in range(p)], ",\n    "
    width = math.isqrt(len(labels)) + 1
    blocks = [[label + "0" for label in labels[k:k + width]] for k in range(0, p, width)]
    row = [n_label + "0"] + [sep.join(block) for block in blocks]
    lines = [sep.join(row)]
    try:
        for n, (i, value) in enumerate(rareclass.rarefied_rows(p, args.limit), 1):
            b, k = divmod(i, width)
            block = blocks[b]
            block[k] = labels[i] + str(value)
            row[0] = n_label + str(n)
            row[b + 1] = sep.join(block)
            lines.append(sep.join(row))
    except ValueError as exc:  # p or limit out of range
        raise UsageError(str(exc)) from exc
    if args.format == "csv":
        return "\n".join([",".join(["n"] + [f"s{i}" for i in range(p)]), *lines, ""])
    return _json_records(lines)


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


# the run holds about 33 bytes per weight at its peak (measured for every
# family at 2^20-2^23 weights): 4.2 GiB at 2^27, 8.3 GiB at 2^28
MAX_WEIGHT_HORIZON = 27


def _cmd_marcinkiewicz(args) -> tuple:
    if not 0 <= args.horizon <= MAX_WEIGHT_HORIZON:
        raise UsageError(
            f"horizon must be in [0, {MAX_WEIGHT_HORIZON}] (log2 of the number of weights)"
        )
    if args.seed < 0:  # numpy's generators take only non-negative seeds
        raise UsageError(f"--seed must be >= 0, not {args.seed}")
    w = _weights_by_name(args.weights, 1 << args.horizon, args.seed)
    est = spectrum.marcinkiewicz_norm(w, 1 << args.horizon)
    rows = [(l, v, None) for l, v in est.dyadic_values]
    rows.append((est.horizon, None, est.value))
    return ["l", "mean_abs_weight", "estimate"], rows


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# A subcommand's flags, in the order its help lists them: name -> (type,
# default, required, choices, help).  `_table_args` reads a command line
# against them, and `_add_flags` gives them to argparse.
_COMMON = {
    "out": (str, None, False, None, "output path (default stdout)"),
    "format": (str, "csv", False, ("csv", "json"), None),
}
_TILES = {
    "a": (str, "2", False, None, "tile length a as num/den"),
    "b": (str, "1", False, None, "tile length b as num/den"),
}
_PRIME = {"p": (int, None, True, None, None)}

# name: (help, flags, handler), in the order `tmqc -h` lists them
_SUBCOMMANDS = {
    "sequence": ("digit sums, signs and vertices", {
        **_COMMON, **_TILES,
        "limit": (int, 16, False, None, "largest index n"),
    }, _cmd_sequence),
    "diffract": ("approximant densities over a q grid", {
        **_COMMON, **_TILES,
        "grid": (str, None, True, None, "comma list of q, or start:step:count"),
        "sizes": (str, "256,1024,4096,16384", False, None, "comma list of l"),
        "jobs": (int, None, False, None, "accepted and ignored: the grid runs in one process"),
    }, _cmd_diffract),
    "classify-primes": ("prime class/unit/exponent table", {
        **_COMMON,
        "limit": (int, 200, False, None, "scan primes below this"),
    }, _cmd_classify_primes),
    "spectrum": ("verdicts for rational wave vectors", {
        **_COMMON, **_TILES,
        "q": (str, None, True, None, "comma list of rationals"),
    }, _cmd_spectrum),
    "profile": ("log-periodic profile samples", {
        **_COMMON, **_PRIME,
        "j": (int, 0, False, None, None),
        "horizon": (int, 20, False, None, None),
        "resolution": (int, 256, False, None, None),
    }, _cmd_profile),
    "rarefy": ("rarefied sum vectors", {
        **_COMMON, **_PRIME,
        "limit": (int, 32, False, None, "largest argument n"),
    }, _cmd_rarefy),
    "marcinkiewicz": ("averaged-weight pseudo-norm", {
        **_COMMON,
        "weights": (str, "ones", False, None, f"weight family: {', '.join(_WEIGHT_FAMILIES)}"),
        "horizon": (int, 16, False, None, "log2 horizon"),
        "seed": (int, 0, False, None, "seed of the random family"),
    }, _cmd_marcinkiewicz),
}


def _parse_args(argv: list):
    """The command line, read from the flag table where it has the usual
    shape (`_table_args`), and by argparse otherwise (`_argparse_args`).
    argparse prints every help text and makes every refusal, so the two
    routes give one outcome, byte for byte, on any line.

    A JSON config (`--config`) gives each key that names a flag of the
    subcommand as a `--flag=value` token before the command line's own
    flags.  A flag keeps its last value, so the command line wins; a config
    may supply a required flag, and each value meets its flag's type and
    choices.  A value that is not a string or a number is refused, a parse
    error of a config run names the config, and keys of other subcommands
    are ignored, so one config can serve several.
    """
    args = _table_args(argv)
    return _argparse_args(argv) if args is None else args


def _plain_value(text: str) -> bool:
    """Whether argparse takes `text` after a flag as the flag's value in
    either spelling, `--flag text` or `--flag=text`: it does not start
    with "-", or it is "-" and a digit (the `_Parser` rule)."""
    return text[:1] != "-" or text[1:2].isdecimal()


def _table_args(argv: list) -> types.SimpleNamespace | None:
    """The attributes argparse sets for a line of the usual shape, read
    from the flag table; None for any other line.  The shape: an optional
    leading `--config FILE` or `--config=FILE`, spelled out in full, then a
    subcommand, then only `--flag VALUE` or `--flag=VALUE` tokens for its
    flags, each VALUE a `_plain_value` that passes the flag's type and
    choices, with every required flag given.  Help, abbreviations, `--`,
    stray tokens and refused values are left to argparse."""
    config, rest = None, argv
    if argv[:1] == ["--config"] and len(argv) > 1:
        config, rest = argv[1], argv[2:]
    elif argv and argv[0].startswith("--config="):
        config, rest = argv[0][len("--config="):], argv[1:]
    if config is not None and not (config and _plain_value(config)):
        return None
    if not rest or rest[0] not in _SUBCOMMANDS:
        return None
    name, tokens = rest[0], rest[1:]
    flags = _SUBCOMMANDS[name][1]
    if config is not None:
        tokens = _config_tokens(config, name) + tokens
    values = {}
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, None)
        spec = flags.get(flag[2:]) if flag[:2] == "--" else None
        if spec is None or value is None or not _plain_value(value):
            return None
        kind, _, _, choices, _ = spec
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[flag[2:]] = value
    for flag, (_, default, required, _, _) in flags.items():
        if flag not in values:
            if required:
                return None
            values[flag] = default
    return types.SimpleNamespace(command=name, **values)


@functools.cache
def _parser_class() -> type:
    """`_Parser`, argparse's parser with tmqc's rules.  It is made on first
    use, so only a command line that goes to argparse imports it (with the
    gettext and locale it loads)."""
    import argparse
    import re

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # a token of "-" and a digit is a value, such as the rational
            # "-1/3" or the grid "-1/3:1/256:5"; argparse takes only plain
            # negative integers and decimals for values, and no tmqc option
            # starts with "-" and a digit
            self._negative_number_matcher = re.compile(r"^-\d")

        def error(self, message):  # exit 1 on usage errors, not argparse's 2
            raise UsageError(message)

    return _Parser


def _add_flags(parser, flags: dict) -> None:
    for flag, (kind, default, required, choices, help_text) in flags.items():
        parser.add_argument(f"--{flag}", type=kind, default=default, required=required,
                            choices=choices, help=help_text)


def _build_parser():
    """The tmqc parser with all seven subcommands: about 1 ms to build on a
    2-core Xeon box, after about 0.9 ms to import argparse with gettext and
    locale.  `_argparse_args` builds it only to print or refuse a
    command line that names no subcommand; it is also the reference that
    the tests hold `_parse_args` to."""
    import argparse

    top = _parser_class()(prog="tmqc", description=__doc__,
                          formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--config", help="JSON file mirroring flags; flags override")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _SUBCOMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_text), flags)
    return top


def _command_parser(name: str):
    """The parser of subcommand `name` alone, as `_build_parser` makes it
    (about 0.1 ms to build once argparse is imported)."""
    parser = _parser_class()(prog=f"tmqc {name}")
    _add_flags(parser, _SUBCOMMANDS[name][1])
    return parser


def _argparse_args(argv: list):
    """The command line read by argparse, with two parsers: a head parser
    with the top-level options and a positional that takes the subcommand
    and everything after it, then that subcommand's own parser.  A line
    whose head names no subcommand (help before the command, no command,
    an unknown one, a malformed top-level option) goes to the full parser,
    which prints or refuses it."""
    import argparse

    head = _parser_class()(add_help=False)
    head.add_argument("-h", "--help", action="store_true")
    head.add_argument("--config")
    head.add_argument("command", nargs=argparse.PARSER)
    try:
        ns = head.parse_args(argv)
    except UsageError:
        ns = None
    if ns is None or ns.help or ns.command[0] not in _SUBCOMMANDS:
        return _build_parser().parse_args(argv)
    name, *flags = ns.command
    parser = _command_parser(name)
    if ns.config is not None:  # an empty path too: it names no file
        flags = _config_tokens(ns.config, name) + flags
    try:
        args = parser.parse_args(flags)
    except UsageError as exc:
        if ns.config is None:
            raise
        raise UsageError(f"config {ns.config!r}: {exc}") from exc
    args.command = name
    return args


def _config_tokens(path: str, name: str) -> list:
    """`--flag=value` for each key of the JSON config at `path` that names
    a flag of subcommand `name`."""
    import json  # on demand, as in `_emit`

    try:
        with open(path, "r", encoding="utf-8") as fh:
            conf = json.load(fh)
    # ValueError: not UTF-8, not JSON, or an integer past 4300 digits;
    # RecursionError: arrays or objects nested too deep for the decoder
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(conf, dict):
        raise UsageError("config must be a JSON object of flag values")
    flags = _SUBCOMMANDS[name][1]
    tokens = []
    for key, value in conf.items():
        if key not in flags:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(
                f"config value for {key!r} must be a string or a number, "
                f"not {json.dumps(value)}"
            )
        tokens.append(f"--{key}={value}")
    return tokens


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        if hasattr(args, "a"):
            try:
                args.params = tmcore.QuasicrystalParams(
                    _parse_fraction(args.a), _parse_fraction(args.b))
            except ValueError as exc:  # b >= a, or a + b beyond the float range
                raise UsageError(f"--a {args.a} --b {args.b}: {exc}") from exc
        table = _SUBCOMMANDS[args.command][2](args)
        if isinstance(table, str):
            _write(table, args.out)
        else:
            _emit(*table, args.format, args.out)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, diffract.ExtinctionError) as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 2


# Everything made so far lives until exit.  Moving it to the permanent
# generation keeps the collector from rescanning it during a command:
# without this, a generation-1 pass over objects left from import (1.0-1.7
# ms) fell inside a 3 ms `diffract` run.  Library modules leave their
# importers' heap alone; only the CLI owns its process.
gc.freeze()

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
