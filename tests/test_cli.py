"""Command-line surface: determinism, formats, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

from tmqc import cli, rareclass


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, r)) for r in body]


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


class TestDeterminism:
    def test_byte_identical_runs(self, capsys, tmp_path):
        args = ["diffract", "--grid", "0,1/3,1/4", "--sizes", "64,256", "--format", "json"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

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

    def test_sizes_from_2_53_are_usage_errors(self, capsys):
        # densities take k as a float, exact only below 2^53: exit 1, no traceback
        for grid in ("", "1/3"):
            code, out, err = run_cli(
                ["diffract", "--grid", grid, "--sizes", f"64,{1 << 53}"], capsys
            )
            assert code == 1 and out == ""
            assert "2^53" in err
        code, _, _ = run_cli(["diffract", "--grid", "1/3", "--sizes", str((1 << 53) - 1)], capsys)
        assert code == 0

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

    def test_prime_above_the_cap_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["spectrum", "--q", "1152921504606846976/2305843009213693951"], capsys
        )
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == ""
        assert "2305843009213693951" in err and str(rareclass.MAX_SPECTRUM_P) in err


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


class TestProfileCommand:
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


class TestRarefy:
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

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 1
