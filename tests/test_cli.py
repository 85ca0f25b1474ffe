"""Command-line surface: determinism, formats, exit codes."""

import argparse
import cmath
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmqc import cli, diffract, rareclass, tmcore


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, r)) for r in body]


def _tmqc_process(argv):
    """(exit code, stdout, stderr) of `tmqc argv` in a fresh interpreter
    whose address space is capped at 2 GB, stopped after 20 s: a command
    that builds a huge table ends in a MemoryError or a timeout, not in a
    machine out of memory."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    cap = 2 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    done = subprocess.run([sys.executable, "-m", "tmqc", *argv], capture_output=True,
                          text=True, timeout=20, preexec_fn=limit,
                          env=dict(os.environ, PYTHONPATH=src))
    return done.returncode, done.stdout, done.stderr


class TestHugeInputs:
    # refused before any list is built: the first ran past 20 s, the
    # second ended in a MemoryError traceback under a 2 GB address space
    @pytest.mark.parametrize("argv, message", [
        (["sequence", "--limit", "100000000"], "--limit must be at most 2^24 = 16777216"),
        (["diffract", "--grid", "0:1/256:1000000000", "--sizes", "8"],
         "grid count must be at most 2^22 = 4194304"),
        (["rarefy", "--p", "3", "--limit", "1000000000"],
         "--limit and --p give a table of 4000000004 cells; it may hold at most "
         "2^24 = 16777216"),
        (["rarefy", "--p", "1000000000001", "--limit", "-1"],     # a row of p labels
         "--limit and --p give a table of 1000000000002 cells; it may hold at most "
         "2^24 = 16777216"),
        (["profile", "--p", "3", "--horizon", "62", "--resolution", "100000000"],
         "resolution must lie in [1, 2^15 = 32768]"),
    ], ids=["sequence", "diffract", "rarefy", "rarefy-wide", "profile"])
    def test_refused_at_once(self, argv, message):
        assert _tmqc_process(argv) == (1, "", f"error: {message}\n")

    def test_caps_are_inclusive(self, capsys):
        with mock.patch.object(cli, "MAX_SEQUENCE_LIMIT", 3):
            code, out, _ = run_cli(["sequence", "--limit", "3"], capsys)
            assert code == 0 and len(out.splitlines()) == 5
            assert run_cli(["sequence", "--limit", "4"], capsys)[0] == 1
        with mock.patch.object(cli, "MAX_GRID_COUNT", 3):
            code, out, _ = run_cli(["diffract", "--grid", "0:1/8:3", "--sizes", "8"], capsys)
            assert code == 0 and len(out.splitlines()) == 4
            assert run_cli(["diffract", "--grid", "0:1/8:4", "--sizes", "8"], capsys)[0] == 1
        with mock.patch.object(cli, "MAX_RAREFY_CELLS", 12):     # (2 + 1)(3 + 1) cells
            code, out, _ = run_cli(["rarefy", "--p", "3", "--limit", "2"], capsys)
            assert code == 0 and len(out.splitlines()) == 4
            assert run_cli(["rarefy", "--p", "3", "--limit", "3"], capsys)[0] == 1
        with mock.patch.object(rareclass, "MAX_PROFILE_RESOLUTION", 2):  # n = 1, 2, 4
            code, out, _ = run_cli(["profile", "--p", "3", "--horizon", "2",
                                    "--resolution", "2"], capsys)
            assert code == 0 and len(out.splitlines()) == 5
            assert run_cli(["profile", "--p", "3", "--horizon", "2",
                            "--resolution", "3"], capsys)[0] == 1


class TestSequence:
    def test_first_rows(self, capsys):
        code, out, _ = run_cli(["sequence", "--limit", "3"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "digit_sum", "sign", "f"]
        assert [r["n"] for r in rows] == ["0", "1", "2", "3"]
        assert [r["f"] for r in rows[:3]] == ["0", "2", "3"]
        assert [r["sign"] for r in rows[:3]] == ["1", "-1", "-1"]

    def test_zero_limit_single_row(self, capsys):
        code, out, _ = run_cli(["sequence", "--limit", "0"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0]["n"] == "0"

    def test_malformed_tile_length(self, capsys):
        code, _, err = run_cli(["sequence", "--a", "x/y"], capsys)
        assert code == 1
        assert "rational" in err

    def test_tile_ordering_enforced(self, capsys):
        code, _, err = run_cli(["sequence", "--a", "1", "--b", "2"], capsys)
        assert code == 1

    _BEYOND_THE_FLOAT_RANGE = [
        (["sequence", "--a", "1e400"], "--a 1e400 --b 1"),
        (["spectrum", "--q", "1/3", "--a", "3e-400", "--b", "1e-400"], "--a 3e-400 --b 1e-400"),
        (["diffract", "--grid", "1/3", "--sizes", "8", "--a", "2e308"], "--a 2e308 --b 1"),
        (["spectrum", "--q", "1/3,1e400"], "q=1e400"),
        (["spectrum", "--q", "-2e308"], "q=-2e308"),
        (["diffract", "--grid", "1e400", "--sizes", "8"], "q=10000…00000 (401 digits)"),
        # the full text of q was a traceback: Python makes no decimal text
        # of an integer of more than 4300 digits
        (["diffract", "--grid", "1e5000", "--sizes", "8"], "q=10000…00000 (5001 digits)"),
    ]

    def test_q_past_the_digit_limit_is_usage_error(self, capsys):
        # k is finite, but Python makes no decimal text of 10^5000: that
        # was a traceback
        code, out, err = run_cli(["diffract", "--grid", "1e-5000", "--sizes", "8"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: q=1/10000…00000 (5001 digits): too many digits to write " \
                      "(the limit is 4300)\n"

    @pytest.mark.parametrize("argv, value", _BEYOND_THE_FLOAT_RANGE,
                             ids=[" ".join(argv) for argv, _ in _BEYOND_THE_FLOAT_RANGE])
    def test_beyond_the_float_range_is_usage_error(self, capsys, argv, value):
        # were exit 2: a float of a + b or of q overflowed, or 4 pi/(a + b) divided by 0
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {value}: ") and "float range" in err


class TestDeterminism:
    def test_byte_identical_runs(self, capsys, tmp_path):
        args = ["diffract", "--grid", "0,1/3,1/4", "--sizes", "64,256", "--format", "json"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ["diffract", "--grid", "0,1/3,1/4", "--sizes", "1,64,255"],
        ["spectrum", "--q", "1/3,1/8,5/3,3/17"],
        ["rarefy", "--p", "5", "--limit", "40"],
        ["profile", "--p", "7", "--horizon", "8", "--resolution", "8"],
        ["marcinkiewicz", "--horizon", "6"],
        ["sequence", "--limit", "3"],
        ["diffract", "--grid", "", "--sizes", "4"],
    ])
    def test_json_is_the_indent_2_dump(self, capsys, argv):
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n"

    def test_json_rows_with_awkward_values(self, tmp_path):
        columns = ["a", 'b "q"', "\u00e9,\n    x"]
        rows = [(1, "x,\n    y", None), (-0.0, True, 1e300), (2**70, "\u00fc\t", 0.1)]
        path = tmp_path / "out.json"
        for some in (rows, rows[:1], []):
            cli._emit(columns, some, "json", str(path))
            records = [dict(zip(columns, row)) for row in some]
            expected = json.dumps(records, indent=2, allow_nan=False) + "\n"
            assert path.read_text(encoding="utf-8") == expected
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="JSON compliant"):
                cli._emit(columns, [(1, "x", bad)], "json", None)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            ["sequence", "--limit", "4", "--out", str(path)], capsys
        )
        assert code == 0 and out == ""
        assert path.read_text().startswith("n,digit_sum,sign,f")


class TestDiffract:
    def test_zero_wave_vector_density_is_size(self, capsys):
        code, out, _ = run_cli(["diffract", "--grid", "0", "--sizes", "16,64"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["density"] for r in rows] == ["16", "64"]

    def test_dyadic_grid_shows_spikes_and_extinctions(self, capsys):
        code, out, _ = run_cli(
            ["diffract", "--grid", "0:1/64:33", "--sizes", "4096", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        dens = {r["q"]: float(r["density"]) for r in rows}
        assert dens["0"] == pytest.approx(4096.0)
        assert dens["1/2"] > 100.0
        assert dens["1/4"] < 1e-12   # extinct dyadic position
        _, out, _ = run_cli(
            ["diffract", "--grid", "1/3", "--sizes", "4096", "--format", "json"],
            capsys,
        )
        assert float(json.loads(out)[0]["density"]) > 10.0  # singular growth

    def test_empty_grid(self, capsys):
        code, out, _ = run_cli(["diffract", "--grid", "", "--sizes", "16"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert rows == []

    def test_sizes_above_2_62_are_usage_errors(self, capsys):
        # a rational q is exact in its phases at every size; the cap keeps l
        # a 64-bit integer: exit 1, no traceback
        for grid in ("", "1/3"):
            code, out, err = run_cli(
                ["diffract", "--grid", grid, "--sizes", f"64,{(1 << 62) + 1}"], capsys
            )
            assert code == 1 and out == ""
            assert "2^62" in err
        code, _, _ = run_cli(["diffract", "--grid", "1/3", "--sizes", str(1 << 62)], capsys)
        assert code == 0

    def test_large_sizes_match_the_exact_block_sums(self, capsys):
        # the float-k route was 7.4% off at 2^50 + 1 and printed 1.1e-16 for
        # 2.96e8 at 2^53 - 1; the reference sums n <= l by the blocks of
        # (l + 1) // 2 at the exact z frequency 2/3, the CLI's route by those
        # of l // 2 plus the last term
        sizes = [(1 << 50) + 1, (1 << 53) - 1, 1 << 60]
        code, out, _ = run_cli(
            ["diffract", "--grid", "1/3", "--sizes", ",".join(map(str, sizes))], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        k = tmcore.QuasicrystalParams(2, 1).wave_vector(Fraction(1, 3))
        rot, kd = cmath.exp(-1.5j * k), 0.5 * k
        for l, row in zip(sizes, rows):
            g, t, z_half = diffract._block_sums(Fraction(2, 3), (l + 1) // 2)
            total = ((1 + rot * math.cos(kd)) * diffract._unscale(g)
                     - 1j * rot * math.sin(kd) * diffract._unscale(t) - 1)
            if l % 2 == 0:
                total += z_half
            assert float(row["density"]) == pytest.approx(abs(total) ** 2 / l, rel=1e-9)
            (m, e) = diffract._block_sums(Fraction(1, 3), l)[1]
            alpha = (2 * (math.log(abs(m)) + e * math.log(2)) - math.log(l)) / math.log(l)
            assert float(row["alpha_l"]) == pytest.approx(alpha, abs=1e-12)
        assert float(rows[1]["density"]) == pytest.approx(2.96381e8, rel=1e-5)

    @pytest.mark.parametrize("grid, sizes, message", [
        ("0:1/4", "16", "grid range must be start:step:count"),
        ("0:1/4:2:3", "16", "grid range must be start:step:count"),
        ("0:1/4:x", "16", "grid count must be an integer"),
        ("0:1/4:-1", "16", "grid count must be >= 0"),
        ("1/3", "16,x", "bad size list"),
        ("1/3", "16,0", "sizes must be positive"),
        ("1/3", "-4", "sizes must be positive"),
    ])
    def test_parse_errors_are_usage_errors(self, capsys, grid, sizes, message):
        code, out, err = run_cli(["diffract", "--grid", grid, "--sizes", sizes], capsys)
        assert (code, out) == (1, "")
        assert message in err

    def test_negative_grid_start(self, capsys):
        # argparse read "-1/3:1/256:5" as an option and refused the flag
        code, out, _ = run_cli(["diffract", "--grid", "-1/3:1/256:5", "--sizes", "4,5"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["q"] for r in rows[::2]] == ["-1/3", "-253/768", "-125/384", "-247/768",
                                               "-61/192"]
        _, same, _ = run_cli(["diffract", "--grid=-1/3:1/256:5", "--sizes", "4,5"], capsys)
        assert same == out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("grid, sizes", [
        ("0,1/3,1/4,1,3/2", "1,2,7,64,255"),  # l = 1 and exact zeros leave alpha_l out
        ("-1/3:1/64:65", "1,7,255,4097"),
        ("1e-300,5/7,-123456789/1000", "5,4611686018427387904"),
        ("", "4"),
    ])
    def test_rows_are_the_reference_rendering(self, capsys, grid, sizes, fmt):
        columns = ["q", "k", "l", "density", "alpha_l"]
        rows = cli._diffract_worker(tmcore.QuasicrystalParams(2, 1), cli._parse_grid(grid),
                                    cli._parse_sizes(sizes))
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
            want = buf.getvalue()
        else:
            want = json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
        argv = ["diffract", "--grid", grid, "--sizes", sizes, "--format", fmt]
        assert run_cli(argv, capsys)[:2] == (0, want)

    def test_parallel_jobs_match_serial(self, capsys):
        base = ["diffract", "--grid", "0,1/3,1/5,1/7", "--sizes", "128,512"]
        _, serial, _ = run_cli(base + ["--jobs", "1"], capsys)
        _, parallel, _ = run_cli(base + ["--jobs", "2"], capsys)
        assert serial == parallel


class TestClassifyPrimes:
    def test_table_rows(self, capsys):
        code, out, _ = run_cli(
            ["classify-primes", "--limit", "200", "--format", "json"], capsys
        )
        assert code == 0
        rows = {r["p"]: r for r in json.loads(out)}
        assert rows[17]["epsilon"] == "3+2w"
        assert rows[17]["h"] == 1
        assert abs(rows[17]["beta"] - 0.6332) < 1e-3
        assert rows[41]["epsilon"] == "27+10w"
        assert rows[3]["regime"] == "size-increasing"
        assert rows[7]["regime"] == "size-decreasing"
        assert rows[43]["class"] == "Other"

    def test_limit_above_2_32_is_refused_before_the_sieve(self, capsys, monkeypatch):
        from tmqc import quadfield

        def no_sieve(n):
            raise AssertionError(f"sieved up to {n}")

        monkeypatch.setattr(quadfield, "primes_up_to", no_sieve)
        code, out, err = run_cli(["classify-primes", "--limit", "4294967297"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: --limit must be at most 2^32 = 4294967296\n"


class TestSpectrumCommand:
    def test_verdicts(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--q", "1/4,1/3,5/3", "--a", "4", "--b", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = {r["q"]: r for r in json.loads(out)}
        assert rows["1/4"]["kind"] == "Bragg"
        assert rows["1/3"]["kind"] == "SingularContinuous"
        assert abs(rows["1/3"]["alpha"] - 0.585) < 1e-2
        assert rows["5/3"]["kind"] == "Excluded"

    def test_json_round_trip(self, capsys):
        args = ["spectrum", "--q", "1/3,1/8", "--format", "json"]
        _, out, _ = run_cli(args, capsys)
        rows = json.loads(out)
        assert json.loads(json.dumps(rows)) == rows


    @pytest.mark.parametrize("q", ["1/300017", "1/8388593"])
    def test_near_extinct_is_not_excluded(self, capsys, q):
        # |kappa_eta| = 4.9e-11 and 6.2e-14: a float tolerance read both as 0
        code, out, _ = run_cli(["spectrum", "--q", q], capsys)
        assert code == 0
        row = parse_csv(out)[1][0]
        assert row["kind"] == "SingularContinuous"
        assert 0 < float(row["kappa_eta_abs"]) < 1e-10
        assert math.isfinite(float(row["alpha"]))

    @pytest.mark.parametrize("q", ["-1/3", "-1/3,1/4", "-5/12,-7/1024"])
    def test_negative_rationals(self, capsys, q):
        # argparse read a leading "-1/3" as an option and refused the flag
        code, out, _ = run_cli(["spectrum", "--q", q], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["q"] for r in rows] == [tok.strip() for tok in q.split(",")]
        _, same, _ = run_cli(["spectrum", f"--q={q}"], capsys)
        assert same == out

    def test_kappa_eta_at_large_q(self, capsys):
        # the float k printed 7.27e-8; frac(2q/3) = 2/900051 exactly
        q = Fraction(1500000000000) + Fraction(1, 300017)
        code, out, _ = run_cli(["spectrum", "--q", str(q)], capsys)
        assert code == 0
        row = parse_csv(out)[1][0]
        assert float(row["kappa_eta_abs"]) == pytest.approx(
            math.sin(2 * math.pi / 900051) ** 2, rel=1e-9, abs=0.0)

    def test_extinct_stays_excluded(self, capsys):
        # tiles (5,2): 2q(a-b)/(a+b) = 1 at q = 7/6, whose odd part is 3
        code, out, _ = run_cli(["spectrum", "--a", "5", "--b", "2", "--q", "7/6"], capsys)
        assert code == 0
        row = parse_csv(out)[1][0]
        assert (row["p"], row["kind"], row["alpha"]) == ("3", "Excluded", "")

    def test_residue_exponent_at_large_primes(self, capsys):
        # were a traceback (math domain error) and residue_alpha = nan
        code, out, _ = run_cli(["spectrum", "--q", "131072/300017,3/300569"], capsys)
        assert code == 0
        for row in parse_csv(out)[1]:
            assert row["kind"] == "SingularContinuous"
            assert -1.1 < float(row["residue_alpha"]) < -0.9

    def test_p21_prime_with_lambda1_beyond_the_float_range(self, capsys):
        # was exit 2, "math range error", from sqrt(p) eps^h at p = 99961
        code, out, err = run_cli(["spectrum", "--q", "1/99961,3/99961"], capsys)
        assert (code, err) == (0, "")
        rows = parse_csv(out)[1]
        assert [(r["p"], r["kind"], r["source"]) for r in rows] == [
            ("99961", "SingularContinuous", "closed-form")] * 2

    def test_prime_above_the_cap_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["spectrum", "--q", "1152921504606846976/2305843009213693951"], capsys
        )
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == ""
        assert "2305843009213693951" in err and str(rareclass.MAX_SPECTRUM_P) in err

    @pytest.mark.parametrize("q", ["1/3000000021", "1/6917529027641081853"])
    def test_composite_above_the_cap_is_usage_error(self, capsys, q):
        # the fitted route printed alpha -1.0000076905621675 (below the least
        # exponent, -1) for the first, and asked for a Fraction on the second
        start = time.perf_counter()
        code, out, err = run_cli(["spectrum", "--q", q], capsys)
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == ""
        assert q[2:] in err and str(rareclass.MAX_SPECTRUM_P) in err

    def test_huge_odd_part_is_named_by_its_size(self, capsys):
        # p = 5^400 was printed in full, 280 digits
        code, out, err = run_cli(["spectrum", "--q", "1e-400"], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: q=1e-400: p=38725…90625 (280 digits) exceeds the coset-spectrum "
            f"limit p <= 2^23 = {rareclass.MAX_SPECTRUM_P}\n"
        )

    def test_composite_rows(self, capsys):
        code, out, _ = run_cli(["spectrum", "--q", "1/9,4/21,7/45"], capsys)
        assert code == 0
        for row in parse_csv(out)[1]:
            assert (row["source"], row["residue_alpha"]) == ("orbit-formula", "")
            assert float(row["alpha"]) == pytest.approx(math.log2(3) - 1, abs=1e-14)

    def test_horizon_flag_is_gone(self, capsys):
        code, out, err = run_cli(["spectrum", "--q", "1/9", "--horizon", "12"], capsys)
        assert (code, out) == (1, "")
        assert "--horizon" in err


def _fresh_python(code):
    """Run `code` in a fresh interpreter that imports tmqc from this tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImports:
    def test_spectrum_does_not_import_numpy_ma(self):
        out = _fresh_python(
            "import contextlib, io, sys\n"
            "from tmqc import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['spectrum', '--q', '1/9,4/21']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        assert out.split() == ["False"]

    def test_no_pool_machinery_at_start_up(self):
        out = _fresh_python(
            "import sys\n"
            "import tmqc.cli\n"
            "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "print(tmqc.cli.ProcessPoolExecutor is ProcessPoolExecutor)\n"
        )
        assert out.split() == ["False", "False", "True"]

    def test_argparse_loads_only_for_help_and_refusals(self):
        """A well-formed command line is read from the flag table: neither
        the import nor the command loads argparse (with gettext and
        locale), json or the pool machinery.  Help and refusals still come
        from argparse."""
        out = _fresh_python(
            "import contextlib, io, sys\n"
            "import tmqc.cli\n"
            "budget = ('argparse', 'gettext', 'locale', 'json', 'concurrent.futures')\n"
            "print(*[name in sys.modules for name in budget])\n"
            "for argv in (['diffract', '--grid', '1/3,2/5', '--sizes', '64', '--jobs', '1'],\n"
            "             ['spectrum', '--q', '1/9,1/17'], ['profile', '--p', '17', '--horizon', '8'],\n"
            "             ['rarefy', '--p', '5', '--limit', '6']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert tmqc.cli.main(argv) == 0\n"
            "print(*[name in sys.modules for name in budget])\n"
            "for argv in (['spectrum', '-h'], ['spectrum', '--nope']):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        try:\n"
            "            code = tmqc.cli.main(argv)\n"
            "        except SystemExit as exc:\n"
            "            code = exc.code\n"
            "    print(code, repr(out.getvalue()[:20]), repr(err.getvalue()))\n"
        )
        lines = out.splitlines()
        assert lines[:2] == ["False False False False False"] * 2
        assert lines[2:] == ["0 'usage: tmqc spectrum' ''",
                             "1 '' 'error: the following arguments are required: --q\\n'"]


def _first_difference(got, want):
    """None if the texts are equal, else the first line that differs (a
    plain == on megabyte strings has pytest diff them for minutes)."""
    if got == want:
        return None
    got_lines, want_lines = got.split("\n"), want.split("\n")
    i = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
             min(len(got_lines), len(want_lines)))
    return i, got_lines[i:i + 1], want_lines[i:i + 1]


def _reference_profile(p, j, horizon, resolution, fmt):
    """The profile table as the generic writers render `fractal_profile`'s
    rows, the bounds row last."""
    prof = rareclass.fractal_profile(p, j, horizon, resolution=resolution)
    columns = ["x", "psi", "raw", "n"]
    rows = list(zip(prof.x.tolist(), prof.values.tolist(), prof.raw.tolist(),
                    prof.n_samples.tolist()))
    rows.append((None, *prof.bounds, None))
    if fmt == "json":
        return json.dumps([dict(zip(columns, row)) for row in rows], indent=2,
                          allow_nan=False) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


@st.composite
def _profile_cases(draw):
    """(p, j, horizon, resolution, format, to_file): primes of every class
    (P1 3, 5, 11; P23 7, 23; P21 17, 41; Other 31, 43), any residue j,
    horizon <= 20."""
    p = draw(st.sampled_from([3, 5, 7, 11, 17, 23, 31, 41, 43]))
    return (p, draw(st.integers(0, p - 1)), draw(st.integers(1, 20)),
            draw(st.integers(1, 96)), draw(st.sampled_from(["csv", "json"])),
            draw(st.booleans()))


def _run_to_text(argv, to_file):
    """(exit code, output text) of `main(argv)`, the output read from
    `--out FILE` when to_file (stdout then must stay empty)."""
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table")
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv + (["--out", path] if to_file else []))
        if not to_file:
            return code, stdout.getvalue()
        assert stdout.getvalue() == ""
        with open(path, encoding="utf-8") as fh:
            return code, fh.read()


class TestProfileCommand:
    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(case=_profile_cases())
    @example(case=(3, 0, 1, 1, "json", False))
    @example(case=(17, 5, 20, 96, "csv", True))
    @example(case=(43, 42, 20, 64, "json", True))
    def test_table_is_the_reference_rendering(self, case):
        # each row is rendered from one template; it must give the bytes
        # csv.writer and json.dumps give for the same rows
        p, j, horizon, resolution, fmt, to_file = case
        argv = ["profile", "--p", str(p), "--j", str(j), "--horizon", str(horizon),
                "--resolution", str(resolution), "--format", fmt]
        code, text = _run_to_text(argv, to_file)
        assert code == 0
        want = _reference_profile(p, j, horizon, resolution, fmt)
        assert _first_difference(text, want) is None

    def test_p3_residue0_within_window(self, capsys):
        code, out, _ = run_cli(
            ["profile", "--p", "3", "--j", "0", "--horizon", "14",
             "--resolution", "64", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        samples = [r for r in rows if r["n"] is not None]
        lo = (1 / 3) ** (math.log(3) / math.log(4)) * 2 * math.sqrt(3) / 3
        hi = 55 / 3 * (1 / 65) ** (math.log(3) / math.log(4))
        assert all(lo - 1e-9 <= r["psi"] <= hi + 1e-9 for r in samples)
        summary = rows[-1]
        assert summary["n"] is None

    def test_p3_residue2_sign(self, capsys):
        code, out, _ = run_cli(
            ["profile", "--p", "3", "--j", "2", "--horizon", "12",
             "--resolution", "64", "--format", "json"],
            capsys,
        )
        rows = json.loads(out)
        vals = [r["psi"] for r in rows if r["n"] is not None]
        assert min(vals) <= 1e-9 and max(vals) >= -1e-9

    def test_small_horizon_matches_direct(self, capsys):
        from tmqc.rareclass import profile_value

        code, out, _ = run_cli(
            ["profile", "--p", "3", "--j", "0", "--horizon", "4",
             "--resolution", "8", "--format", "json"],
            capsys,
        )
        rows = [r for r in json.loads(out) if r["n"] is not None]
        assert rows
        for r in rows:
            assert r["psi"] == pytest.approx(profile_value(3, 0, r["n"]), abs=1e-12)

    def test_prime_above_the_cap_is_usage_error(self, capsys):
        # refused by the coset spectrum before any O(p s) work on M's column
        code, out, err = run_cli(
            ["profile", "--p", "8388617", "--horizon", "8", "--resolution", "2"], capsys)
        assert (code, out) == (1, "")
        assert "coset-spectrum limit" in err and "Traceback" not in err

    @pytest.mark.parametrize("p", [3, 7, 17])  # P1, P23, P21
    def test_closed_form_classes_skip_the_coset_spectrum(self, capsys, monkeypatch, p):
        def refuse(p):
            raise AssertionError("coset spectrum read on a closed-form route")

        monkeypatch.setattr(rareclass, "_coset_spectrum", refuse)
        code, out, err = run_cli(
            ["profile", "--p", str(p), "--horizon", "20", "--resolution", "16"], capsys)
        assert (code, err) == (0, "") and out.startswith("x,psi,raw,n\n")

    @pytest.mark.parametrize("p, horizon, resolution", [(33289, 4, 1), (99961, 20, 64)])
    def test_large_p21_primes_are_projected(self, capsys, p, horizon, resolution):
        # lambda1 = sqrt(p) eps^h is inf at p = 99961: the profile reads no
        # power of it, and builds rows below the largest sample's bit length
        # only (33289 took 66 s over s + 5 rows; 99961 was refused)
        start = time.perf_counter()
        code, out, err = run_cli(["profile", "--p", str(p), "--horizon", str(horizon),
                                  "--resolution", str(resolution)], capsys)
        assert (code, err) == (0, "") and time.perf_counter() - start < 2.0
        _, rows = parse_csv(out)
        first = rows[0]
        assert (first["n"], first["raw"]) == ("1", "1.0")
        # at n = 1, S = delta: psi is pi[0] = (p - 1) / (2p)
        assert float(first["psi"]) == pytest.approx((p - 1) / (2 * p), rel=1e-15)

    @pytest.mark.parametrize("flags, message", [
        (["--horizon", "0"], "horizon"),
        (["--resolution", "0"], "resolution"),
        (["--horizon", "63"], "2^62"),
        (["--horizon", "64"], "2^62"),
    ])
    def test_out_of_range_is_usage_error(self, capsys, flags, message):
        code, out, err = run_cli(
            ["profile", "--p", "3", "--resolution", "8"] + flags, capsys)
        assert (code, out) == (1, "")
        assert message in err and "Traceback" not in err


def _reference_rarefy(p, limit, fmt):
    """The rarefy table as the generic writers render the scan's rows."""
    columns = ["n"] + [f"s{i}" for i in range(p)]
    row = [0] * p
    rows = [(0, *row)]
    for n, (i, value) in enumerate(rareclass.rarefied_rows(p, limit), 1):
        row[i] = value
        rows.append((n, *row))
    if fmt == "json":
        return json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


@st.composite
def _rarefy_cases(draw):
    """(p, limit, format, to_file): odd p <= 301, and a limit of 0, below
    p, equal to p or up to 3p."""
    p = draw(st.integers(1, 150).map(lambda k: 2 * k + 1))
    limit = draw(st.one_of(st.just(0), st.integers(1, p - 1), st.just(p),
                           st.integers(p + 1, 3 * p)))
    return p, limit, draw(st.sampled_from(["csv", "json"])), draw(st.booleans())


class TestRarefy:
    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(case=_rarefy_cases())
    @example(case=(3, 0, "csv", False))
    @example(case=(301, 301, "json", True))
    @example(case=(301, 903, "csv", True))
    def test_table_is_the_reference_rendering(self, case):
        # the table is rendered cell by cell from the running scan; it must
        # give the bytes csv.writer and json.dumps give for the same rows
        p, limit, fmt, to_file = case
        argv = ["rarefy", "--p", str(p), "--limit", str(limit), "--format", fmt]
        code, text = _run_to_text(argv, to_file)
        assert code == 0
        assert _first_difference(text, _reference_rarefy(p, limit, fmt)) is None

    def test_vectors(self, capsys):
        code, out, _ = run_cli(["rarefy", "--p", "3", "--limit", "4"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "s0", "s1", "s2"]
        assert [rows[3][c] for c in ("s0", "s1", "s2")] == ["1", "-1", "-1"]

    def test_rejects_even_p(self, capsys):
        code, _, err = run_cli(["rarefy", "--p", "4"], capsys)
        assert code == 1

    def test_rejects_negative_limit(self, capsys):
        code, out, err = run_cli(["rarefy", "--p", "3", "--limit", "-1"], capsys)
        assert (code, out) == (1, "")
        assert "limit" in err


class TestGoldenBytes:
    """sha256 of whole `profile`, `rarefy`, `spectrum`, `classify-primes`
    and `diffract` outputs, pinned so that a change of route keeps every
    byte.  The `profile` digests at p = 3, 7, 17 and 137 (P1, P23, P21)
    pin the closed-form exponents and projectors; p = 43 (Other) the coset
    spectrum and its projector."""

    PROFILE = ["--horizon", "48", "--resolution", "512"]
    GRID_SIZES = "1000,1024,3000,4096,12000,16384"  # the benchmark grid's sizes
    # the 76 wave vectors of the benchmark's verdict pool: every prime class,
    # both P21 cosets, composites, Other primes up to 131071 and a dyadic q
    VERDICTS = ",".join(
        f"{t}/{d}" for ts, d in [
            ((1, 2), 3), ((1, 5), 6), ((5, 7, 1, 11), 12), ((1, 2, 3), 7), ((5,), 14),
            ((3, 5, 6, 7, 1, 2, 4, 9), 17), ((1, 2, 4, 8, 3, 6, 12, 24), 137),
            ((1, 2, 3, 5), 9049), ((1, 2, 3, 5), 49033), ((1, 2, 3, 5), 99089),
            ((1, 2, 3, 5), 199961), ((1, 2, 4, 5), 9), ((1, 2, 4, 5), 21),
            ((1, 2, 4, 7), 15), ((1, 2, 4, 7), 45), ((1, 2, 3, 5), 43),
            ((1, 2, 3, 5), 8191), ((1, 2, 3, 5), 131071), ((7, 3, 5, 9), 1024),
        ] for t in ts
    )

    @pytest.mark.parametrize("argv, digest", [
        (["profile", "--p", "3", *PROFILE],
         "9eb8b3bcb90a6820892a0a42a57fb9c4fed54d093d54d9fafb2bcfdd0c8c4078"),
        (["profile", "--p", "7", *PROFILE],
         "35709be1dc868d6204d7f8a6c0ced9129c8eef32e76dce21d342282e48bad88a"),
        (["profile", "--p", "17", "--j", "0", *PROFILE],
         "12ba7d06a76bc39f5d621c80657c8ba952a33634ff305ea58a969ed36d07b538"),
        (["profile", "--p", "17", "--j", "5", *PROFILE],
         "42af1787400b3e10b114b9fa37ed52134fa2f8fdce171baa64772e3d9aceae2d"),
        (["profile", "--p", "17", "--j", "11", *PROFILE],
         "ffca9637fb0198d90fe0904ba886b9e9a4fbe0b63279c2eb0e51921edf61d858"),
        (["profile", "--p", "43", *PROFILE],
         "9abe47fb2e426f145c9a5969acedc622cae55263306731470fc6cd9cfc38d584"),
        (["profile", "--p", "137", *PROFILE],
         "a8c847fd308d176247d4400dd48989876f5aa500648d14868a2161d2a2c8bffc"),
        (["rarefy", "--p", "137", "--limit", "2000", "--format", "csv"],
         "db7a0c8fff0fecbbd9cf426810b4caf1f3fa576476691a525b9e990dcb363e12"),
        (["rarefy", "--p", "137", "--limit", "2000", "--format", "json"],
         "94c7d49393b954192547ecad4e9d45930818819356f511bef07cd8017855088d"),
        (["spectrum", "--q", VERDICTS, "--format", "csv"],
         "8cab22cbafe1ceecda1851d02eef5b670973258b5bb6880edaa6af963a7ac1b2"),
        (["spectrum", "--q", VERDICTS, "--format", "json"],
         "0576b07ea49b3844013bc250447c4f5870842725eb5606fc743121e9066dbec0"),
        (["classify-primes", "--limit", "20000"],
         "df1ff5a125e827f6f5bac6acf3829897f19092ee9af14654041f437ed4ca4182"),
        (["profile", "--p", "17", "--j", "5", *PROFILE, "--format", "json"],
         "491835b59649e803ee548a9f9d162ad65922a56ff0cc0b1b3aa73434ab95cd81"),
        (["profile", "--p", "43", "--horizon", "30", "--format", "json"],
         "bea265e9beae16de2d2e25bfed7f37e25a3337b3164ca524273b64e89c234baf"),
        (["diffract", "--grid", "1/3:1/256:257", "--sizes", GRID_SIZES],
         "40f6234c4c74a1a00c04fc61784bf7310cd772c858f02bf660ce55b5c4f0d618"),
        (["diffract", "--grid", "1/3:1/256:257", "--sizes", GRID_SIZES, "--format", "json"],
         "e0b4080cc940dc057420742c96b8885b0e128f7a266e45b94b16663400781381"),
        (["diffract", "--grid", "0:1/256:257", "--sizes", GRID_SIZES],
         "37436664a6e4af58254be59537cae25220d5edeb24d9a6e9e39e31a17ac6de5b"),
        (["diffract", "--grid", "3/11,1/5", "--sizes", "65537,1048575,16777216"],
         "64988ae387e41abf72a82aa9f3a2af86b8d5f2adb6e10532675496835bc3bd19"),
        (["diffract", "--grid", "3/11,1/5", "--sizes", "65537,1048575,16777216",
          "--format", "json"],
         "9c2b820678655a18235130d19c3a34789151bc455426a352dfdd96ddce1b78d1"),
        # odd l and l = 1
        (["diffract", "--grid", "-1/3:1/64:65", "--sizes", "1,7,255,4097"],
         "e4db2ac24631ca55c7e8a507a8dbc297d397755324aa1a6ad1d5cf252dedd39b"),
        # a sine taken as pi psi below the normal range, and exact zeros
        (["diffract", "--grid", "1e-300,1/2,1,3/2", "--sizes", "5,4611686018427387904"],
         "7bb839db04a7754a9dc49aefd00bdafc6a61640e68ab7627f49dbcc38995c875"),
    ])
    def test_output_digest(self, argv, digest):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(argv) == 0
        assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == digest


class TestMarcinkiewiczCommand:
    def test_ones(self, capsys):
        code, out, _ = run_cli(
            ["marcinkiewicz", "--weights", "ones", "--horizon", "10",
             "--format", "json"],
            capsys,
        )
        rows = json.loads(out)
        assert rows[-1]["estimate"] == pytest.approx(1.0)

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(["marcinkiewicz", "--weights", "nope"], capsys)
        assert code == 1

    @pytest.mark.parametrize("horizon", ["-1", "28", "40"])
    def test_horizon_out_of_range_is_usage_error(self, capsys, horizon):
        # -1 raised "negative shift count"; 30 asked numpy for 8 GiB
        code, out, err = run_cli(["marcinkiewicz", "--horizon", horizon], capsys)
        assert (code, out) == (1, "")
        assert "[0, 27]" in err

    def test_negative_seed_is_usage_error(self, capsys):
        # numpy's default_rng raised "expected non-negative integer"
        code, out, err = run_cli(
            ["marcinkiewicz", "--weights", "random", "--seed", "-1"], capsys)
        assert (code, out) == (1, "")
        assert "--seed" in err and "Traceback" not in err

    def test_horizon_zero(self, capsys):
        code, out, _ = run_cli(["marcinkiewicz", "--horizon", "0"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [{"l": "1", "mean_abs_weight": "", "estimate": "1.0"}]


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"limit": 2, "a": "3", "b": "1"}))
        code, out, _ = run_cli(
            ["--config", str(conf), "sequence"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert rows[1]["f"] == "3"  # tile a = 3
        # explicit flag wins over the config value
        code, out, _ = run_cli(
            ["--config", str(conf), "sequence", "--a", "2"], capsys
        )
        _, rows = parse_csv(out)
        assert rows[1]["f"] == "2"

    def test_prefix_abbreviation_beats_config(self, capsys, tmp_path):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"limit": 5}))
        code, out, _ = run_cli(["--config", str(conf), "sequence", "--lim", "1"], capsys)
        assert code == 0
        assert len(parse_csv(out)[1]) == 2

    def test_config_supplies_required_flag(self, capsys, tmp_path):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"grid": "1/3"}))
        code, out, err = run_cli(["--config", str(conf), "diffract", "--sizes", "64"], capsys)
        assert (code, err) == (0, "")
        assert out == run_cli(["diffract", "--grid", "1/3", "--sizes", "64"], capsys)[1]

    def test_bad_config(self, capsys, tmp_path):
        conf = tmp_path / "broken.json"
        conf.write_text("{not json")
        code, _, err = run_cli(["--config", str(conf), "sequence"], capsys)
        assert code == 1

    def _run_with_config(self, capsys, tmp_path, conf, argv):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(conf))
        return run_cli(["--config", str(path)] + argv, capsys)

    def test_number_for_text_flag_goes_through_the_parser(self, capsys, tmp_path):
        # {"sizes": 5} used to reach the size parser as an int (AttributeError)
        code, out, _ = self._run_with_config(
            capsys, tmp_path, {"sizes": 5}, ["diffract", "--grid", "1/3"])
        assert code == 0
        assert out == run_cli(["diffract", "--grid", "1/3", "--sizes", "5"], capsys)[1]

    def test_text_for_int_flag_is_typed_by_the_parser(self, capsys, tmp_path):
        # {"jobs": "2"} used to reach the pool test as a str (TypeError)
        argv = ["diffract", "--grid", "1/3,1/5", "--sizes", "64"]
        code, out, _ = self._run_with_config(capsys, tmp_path, {"jobs": "2"}, argv)
        assert code == 0
        assert out == run_cli(argv + ["--jobs", "1"], capsys)[1]
        code, out, err = self._run_with_config(capsys, tmp_path, {"jobs": "two"}, argv)
        assert (code, out) == (1, "")
        assert "--jobs" in err and "invalid int value" in err

    def test_key_of_another_command_is_ignored(self, capsys, tmp_path):
        argv = ["rarefy", "--p", "5", "--limit", "6"]
        code, out, err = self._run_with_config(capsys, tmp_path, {"seed": 3}, argv)
        assert (code, err) == (0, "")
        assert out == run_cli(argv, capsys)[1]

    def test_choices_apply_to_config_values(self, capsys, tmp_path):
        code, out, err = self._run_with_config(
            capsys, tmp_path, {"format": "xml"}, ["sequence"])
        assert (code, out) == (1, "")
        assert "invalid choice" in err

    @pytest.mark.parametrize("value", [[1024, 4096], None, True, {"l": 5}])
    def test_non_scalar_config_value_is_usage_error(self, capsys, tmp_path, value):
        code, out, err = self._run_with_config(
            capsys, tmp_path, {"sizes": value}, ["diffract", "--grid", "1/3"])
        assert (code, out) == (1, "")
        assert "'sizes'" in err and "Traceback" not in err


class TestExitCodes:
    def test_numerical_flag_failure_is_exit_2(self, capsys, monkeypatch):
        from tmqc import quadfield

        def corrupted(p):
            return 1e9

        monkeypatch.setattr(quadfield, "dirichlet_l_one", corrupted)
        code, _, err = run_cli(["classify-primes", "--limit", "20"], capsys)
        assert code == 2
        assert "failed" in err

    def test_violated_identity_is_exit_2(self, capsys, monkeypatch):
        from tmqc import rareclass

        real = rareclass._svec
        monkeypatch.setattr(rareclass, "_svec",
                            lambda p, n: [v + (n == 3) for v in real(p, n)])
        # rarefy asks the digit recursion for its last row only
        code, out, err = run_cli(["rarefy", "--p", "5", "--limit", "3"], capsys)
        assert (code, out) == (2, "")
        assert "prefix-sum identity" in err

    def test_corrupted_sign_in_rarefy_scan_is_exit_2(self, capsys, monkeypatch):
        from tmqc import rareclass

        real = rareclass.sign_array

        def flipped(start, stop):
            out = real(start, stop)
            out[5] = -out[5]
            return out

        monkeypatch.setattr(rareclass, "sign_array", flipped)
        code, out, err = run_cli(["rarefy", "--p", "5", "--limit", "12"], capsys)
        assert (code, out) == (2, "")
        assert "prefix-sum identity at n=6" in err

    def test_doubling_table_disagreement_in_profile_is_exit_2(self, capsys, monkeypatch):
        from tmqc import rareclass

        real = rareclass._svec
        monkeypatch.setattr(rareclass, "_svec",
                            lambda p, n: [v + (i == 0) for i, v in enumerate(real(p, n))])
        code, out, err = run_cli(
            ["profile", "--p", "17", "--horizon", "12", "--resolution", "8"], capsys)
        assert (code, out) == (2, "")
        assert "doubling table disagrees" in err

    def test_non_finite_profile_value_is_exit_2_in_json(self, capsys, monkeypatch):
        from tmqc import rareclass

        real = rareclass.fractal_profile

        def with_nan(*args, **kwargs):
            prof = real(*args, **kwargs)
            prof.values[1] = math.nan
            return prof

        monkeypatch.setattr(rareclass, "fractal_profile", with_nan)
        argv = ["profile", "--p", "3", "--horizon", "6", "--resolution", "4"]
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
        assert (code, out) == (2, "")
        assert "not finite" in err
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and ",nan," in out

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["sequence", "--limit", "3"],
        ["rarefy", "--p", "5", "--limit", "7"],
        ["profile", "--p", "3", "--horizon", "6", "--resolution", "4"],
        ["spectrum", "--q", "1/3", "--format", "json"],
    ])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        path = str(tmp_path / "missing" / "table")
        code, out, err = run_cli(argv + ["--out", path], capsys)
        assert (code, out) == (1, "")
        assert path in err and "Traceback" not in err


class TestPerCommandFlags:
    """Each subcommand takes only the flags it reads: tiles for sequence,
    diffract and spectrum, --jobs for diffract, --seed for marcinkiewicz."""

    @pytest.mark.parametrize("argv", [
        ["rarefy", "--p", "5", "--seed", "1"],
        ["profile", "--p", "3", "--a", "3"],
        ["classify-primes", "--jobs", "2"],
        ["spectrum", "--q", "1/3", "--seed", "1"],
    ], ids=" ".join)
    def test_flag_of_another_command_is_usage_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err

    def test_flags_where_they_are_read(self, capsys):
        for argv in (["sequence", "--limit", "2", "--a", "3"],
                     ["diffract", "--grid", "1/3", "--sizes", "8", "--jobs", "1", "--b", "1/2"],
                     ["spectrum", "--q", "1/3", "--a", "5", "--b", "2"],
                     ["marcinkiewicz", "--weights", "random", "--seed", "3", "--horizon", "4"]):
            assert run_cli(argv, capsys)[0] == 0


def _main_outcome(argv):
    """(exit code or SystemExit code, stdout, stderr) of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


_CONFIG = {"q": "1/3", "grid": "1/3", "sizes": "8", "limit": 2, "p": 3,
           "horizon": 4, "resolution": 4}
_TOP_LEVEL_ARGVS = [
    [], ["-h"], ["--help"], ["--he"], ["-h", "spectrum"], ["--config", "CONF", "--help", "rarefy"],
    ["frobnicate"], ["spec"], ["--config"],
    ["--bogus", "spectrum", "--q", "1/3"], ["--bogus", "x", "spectrum"],
    ["-x", "-h"], ["--", "spectrum", "--q", "1/3"], ["spectrum", "--q", "1/3", "extra"],
    ["CONF"], ["--config", "CONF", "-h"], ["--conf=CONF", "spectrum"],
    ["spectrum", "--config", "CONF"], ["--config", "MISSING", "spectrum"],
]
_SUBCOMMAND_ARGVS = [
    argv for name in cli._SUBCOMMANDS for argv in (
        [name, "-h"], [name], [name, "--nope"], [name, "--format", "xml"], [name, "--a"],
        ["--config", "CONF", name], ["--config", "CONF", name, "-h"],
        ["--config=CONF", name, "--limit", "x"],
    )
]


def _leading_config(argv):
    """(path, subcommand, rest) for a command line that opens with a config
    option (--config X, or --config=X and its abbreviations) followed by a
    subcommand's name; None for any other."""
    first, *tail = argv or [""]
    if first == "--config" and tail:
        path, tail = tail[0], tail[1:]
    elif first.startswith("--conf") and "=" in first:
        path = first.split("=", 1)[1]
    else:
        return None
    if tail and tail[0] in cli._SUBCOMMANDS:
        return path, tail[0], tail[1:]
    return None


def _reference_parse(argv):
    """argv read by the full seven-subcommand parser.  A leading config is
    spelled out: each of its keys that names a flag of the subcommand
    becomes a --flag=value token right after the subcommand's name, and a
    parse error of that line names the config."""
    full = cli._build_parser()
    config = _leading_config(argv)
    if config is None:
        return full.parse_args(argv)
    path, name, rest = config
    try:
        with open(path, encoding="utf-8") as fh:
            conf = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise cli.UsageError(f"cannot read config {path!r}: {exc}") from exc
    (subparsers,) = [a for a in full._actions if isinstance(a, argparse._SubParsersAction)]
    flags = subparsers.choices[name]._option_string_actions
    tokens = [f"--{key}={value}" for key, value in conf.items() if f"--{key}" in flags]
    try:
        return full.parse_args([name] + tokens + rest)
    except cli.UsageError as exc:
        raise cli.UsageError(f"config {path!r}: {exc}") from exc


class TestLazyParser:
    """Reading a command line from the flag table, or with a head parser
    and the invoked subcommand's parser, changes nothing a user sees:
    help, usage errors, exit codes and output equal the full parser's,
    byte for byte, with a leading config read as the flags it mirrors."""

    @pytest.mark.parametrize("argv", _TOP_LEVEL_ARGVS + _SUBCOMMAND_ARGVS, ids=" ".join)
    def test_same_outcome_as_the_full_parser(self, argv, tmp_path, monkeypatch):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps(_CONFIG))
        argv = [a.replace("MISSING", str(tmp_path / "missing.json"))
                .replace("CONF", str(conf)) for a in argv]
        outcome = _main_outcome(argv)
        monkeypatch.setattr(cli, "_parse_args", _reference_parse)
        assert _main_outcome(argv) == outcome

    def test_builds_one_subcommand(self, monkeypatch, capsys, tmp_path):
        """A well-formed command line is read from the flag table and
        builds no parser; the full parser is built where the head names no
        subcommand."""
        built, calls = [], []
        real_init = argparse.ArgumentParser.__init__
        real_build, real_command = cli._build_parser, cli._command_parser

        def recording_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        def recording_build():
            calls.append("full")
            return real_build()

        def recording_command(name):
            calls.append(name)
            return real_command(name)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
        monkeypatch.setattr(cli, "_build_parser", recording_build)
        monkeypatch.setattr(cli, "_command_parser", recording_command)
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"limit": 1}))
        for argv in (["spectrum", "--q", "1/3"], ["--config", str(conf), "sequence"],
                     ["--config=" + str(conf), "rarefy", "--p=5", "--format", "json"]):
            assert run_cli(argv, capsys)[0] == 0
            assert (built, calls) == ([], [])
        assert run_cli(["frobnicate"], capsys)[0] == 1
        assert calls == ["full"] and "tmqc" in built


# values that argparse reads, types, refuses or takes for an option
_PARSE_VALUES = ["3", "1/3", "-1/3", "-5", "-x", "", " 5", "5_000", "xml", "json", "csv"]


def _flag_spellings(name):
    """The flags of subcommand `name` in full and every prefix of them,
    unique or shared (`--h` is --help or --horizon), each flag with one
    dash, three dashes and none, with flags of other subcommands,
    `--config` and an unknown flag."""
    flags = [f"--{flag}" for flag in cli._SUBCOMMANDS[name][1]] + ["--help"]
    prefixes = {flag[:k] for flag in flags for k in range(3, len(flag) + 1)}
    misspelt = {spelling for flag in flags for spelling in (flag[1:], "-" + flag, flag[2:])}
    return sorted(prefixes | misspelt) + ["--seed", "--jobs", "--config", "--nope"]


@st.composite
def _command_lines(draw):
    """A command line of one subcommand: an optional leading config (CONF
    or BAD, spelled in full, with "=" or abbreviated), the subcommand, often
    its required flags, then flags in full, abbreviated, with "=", with or
    without a value, repeated, stray values and "--"; sometimes -h or
    --help at any position.  Half the lines take only well-formed flags."""
    name = draw(st.sampled_from(list(cli._SUBCOMMANDS)))
    table = cli._SUBCOMMANDS[name][1]
    flag, value = st.sampled_from(_flag_spellings(name)), st.sampled_from(_PARSE_VALUES)
    good = st.sampled_from([
        tokens
        for key, (kind, _, _, choices, _) in table.items()
        for text in choices or (["3", "-5", " 5", "5_000"] if kind is int else ["3", "-1/3"])
        for tokens in ([f"--{key}", text], [f"--{key}={text}"])
    ])
    item = st.one_of(
        good,
        st.tuples(flag, value).map(list),
        st.tuples(flag, value).map(lambda fv: ["=".join(fv)]),
        flag.map(lambda f: [f]),
        value.map(lambda v: [v]),
        st.just(["--"]),
    )
    head = draw(st.sampled_from([[], [], ["--config", "CONF"], ["--config=CONF"],
                                 ["--conf=CONF"], ["--config", "BAD"]]))
    argv = head + [name]
    if draw(st.booleans()):
        argv += [token for key, (kind, _, required, _, _) in table.items() if required
                 for token in (f"--{key}", "3" if kind is int else "1/3")]
    items = st.lists(good if draw(st.booleans()) else item, max_size=4)
    argv += [token for tokens in draw(items) for token in tokens]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help"])))
    return argv


class TestParseEquivalence:
    """The flag table and argparse read any command line alike: exit code,
    stdout and stderr equal the full parser's."""

    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(argv=_command_lines())
    @example(argv=["--config", "CONF", "profile", "--p", "5", "--p=3", "--horizon", " 5"])
    @example(argv=["diffract", "--grid", "-1/3", "--sizes=5_000", "--format=json"])
    @example(argv=["spectrum", "--q=", "--a", "3", "--out", ""])
    @example(argv=["--config", "BAD", "sequence", "--limit", "2"])
    def test_same_outcome_as_the_full_parser(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"CONF": _CONFIG, "BAD": {"limit": "x", "format": "xml"}}
            for key, conf in paths.items():
                paths[key] = os.path.join(tmp, f"{key}.json")
                with open(paths[key], "w", encoding="utf-8") as fh:
                    json.dump(conf, fh)
            argv = [paths.get(token, token) for token in argv]
            argv = [token.replace("=CONF", "=" + paths["CONF"]) for token in argv]
            cwd = os.getcwd()
            os.chdir(tmp)  # --out writes its table here
            try:
                outcome = _main_outcome(argv)
                with mock.patch.object(cli, "_parse_args", _reference_parse):
                    assert _main_outcome(argv) == outcome
            finally:
                os.chdir(cwd)

    @pytest.mark.parametrize("argv", [
        ["--config=", "sequence"], ["--config", "", "sequence"], ["--conf=CONF", "sequence"],
        ["--config=-1", "sequence"], ["--config", "-1", "sequence"],
        ["--config", "-x", "sequence"], ["spectrum", "--q", "-x"], ["spectrum", "--q", "-x y"],
        ["spectrum", "--q=-x"], ["spectrum", "--q", "1/3", "-q", "1"],
        ["sequence", "limit", "2"], ["rarefy", "---p", "3"], ["profile", "-p", "3"],
    ], ids=repr)
    def test_same_outcome_as_the_argparse_route(self, argv, tmp_path, monkeypatch):
        """Odd configs and spellings, read with the table and with
        argparse alone; the reference above cannot spell an empty
        config."""
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps(_CONFIG))
        argv = [token.replace("CONF", str(conf)) for token in argv]
        monkeypatch.chdir(tmp_path)
        outcome = _main_outcome(argv)
        monkeypatch.setattr(cli, "_table_args", lambda argv: None)
        assert _main_outcome(argv) == outcome


class TestConfigChanges:
    """Where a config run differs from the parse before config values were
    read as leading flag tokens: the config is read, and its values
    checked, before the command line's own flags."""

    def _run(self, capsys, tmp_path, conf, argv):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(conf))
        return (str(path),) + run_cli(["--config", str(path)] + argv, capsys)

    def test_bad_value_is_refused_where_the_line_gives_the_flag(self, capsys, tmp_path):
        path, code, out, err = self._run(
            capsys, tmp_path, {"limit": "x"}, ["sequence", "--limit", "2"])
        assert (code, out) == (1, "")
        assert err == f"error: config {path!r}: argument --limit: invalid int value: 'x'\n"
        _, code, out, err = self._run(
            capsys, tmp_path, {"sizes": [8]}, ["diffract", "--grid", "1/3", "--sizes", "8"])
        assert (code, out) == (1, "")
        assert err == "error: config value for 'sizes' must be a string or a number, not [8]\n"

    def test_parse_errors_name_the_config(self, capsys, tmp_path):
        path, code, out, err = self._run(capsys, tmp_path, {"limit": 2}, ["sequence", "--nope"])
        assert (code, out, err) == (1, "", f"error: config {path!r}: unrecognized arguments: --nope\n")
        path, code, out, err = self._run(capsys, tmp_path, {}, ["spectrum"])
        assert (code, out) == (1, "")
        assert err == f"error: config {path!r}: the following arguments are required: --q\n"

    @pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
    def test_help_after_the_command_is_the_commands_help(self, capsys, tmp_path, name):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps(_CONFIG))
        with_config = _main_outcome(["--config", str(conf), name, "-h"])
        assert with_config == _main_outcome([name, "-h"])
        assert with_config[0] == ("SystemExit", 0)

    def test_config_after_the_command_is_the_commands_error(self, capsys, tmp_path):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps(_CONFIG))
        code, out, err = run_cli(["spectrum", "--config", str(conf)], capsys)
        assert (code, out, err) == (1, "", "error: the following arguments are required: --q\n")
        code, out, err = run_cli(["sequence", "--config", str(conf)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: --config {conf}\n"

    @pytest.mark.parametrize("argv", [["--config=", "sequence"], ["--config", "", "sequence"]],
                             ids=["joined", "separate"])
    def test_empty_config_path_is_usage_error(self, capsys, argv):
        # an empty path names no file; both spellings ran with the defaults
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read config '': ")

    def test_unreadable_config_comes_before_the_line(self, capsys, tmp_path):
        path = str(tmp_path / "missing.json")
        code, out, err = run_cli(["--config", path, "sequence", "--nope"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read config {path!r}: ")

    @pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 200_000], ids=["bytes", "nesting"])
    def test_undecodable_config_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_cli(["--config", str(path), "sequence"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read config {str(path)!r}: ")
