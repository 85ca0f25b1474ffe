"""Tests of the benchmark harness: the reference check and the seeded inputs.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads as W  # noqa: E402
from tmqc import cli, quadfield  # noqa: E402

REFS = check.Refs()


def _run(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


@functools.lru_cache(maxsize=None)
def _seed_output(argv: tuple) -> tuple:
    return _run(argv)


@pytest.mark.parametrize("workload", W.NAMES)
def test_seed_outputs_have_no_failures(workload):
    for argv in W.invocations(workload, 0):
        rc, out = _seed_output(tuple(argv))
        res = check.check_call(argv, rc, out, REFS)
        assert res.attempted > 0
        assert res.failed == 0, res.notes


def test_perturbed_density_fails():
    argv = W.invocations("comb-grid", 0)[0]
    rc, out = _seed_output(tuple(argv))
    lines = out.splitlines()
    header = lines[0].split(",")
    col = header.index("density")
    rows = [line.split(",") for line in lines[1:]]
    top = max(range(len(rows)), key=lambda i: float(rows[i][col]))
    rows[top][col] = f"{float(rows[top][col]) * (1 + 1e-3):.12g}"
    text = "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"
    res = check.check_call(argv, rc, text, REFS)
    assert res.failed == 1
    assert 0 < res.failed / res.attempted


def test_perturbed_deep_density_fails():
    # q = 3/11 at l = 2^24: |S| ~ 80, where the tolerance is loosest
    # relative to the density
    argv = ["diffract", "--grid", "3/11", "--sizes", "16777216", "--jobs", "1"]
    rc, out = _run(argv)
    assert check.check_call(argv, rc, out, REFS).failed == 0
    header, row = out.splitlines()
    cells = row.split(",")
    col = header.split(",").index("density")
    cells[col] = f"{float(cells[col]) * (1 + 1e-3):.12g}"
    res = check.check_call(argv, rc, "\n".join([header, ",".join(cells)]) + "\n", REFS)
    assert res.failed == res.attempted == 1


def test_wrong_class_number_fails(monkeypatch):
    real = quadfield.class_number
    monkeypatch.setattr(quadfield, "class_number", lambda p, tol=1e-6: real(p, tol) + 1)
    argv = W.invocations("verdicts", 0)[0]
    rc, out = _run(argv)
    res = check.check_call(argv, rc, out, REFS)
    assert res.failed > 0


def test_nonzero_exit_fails_every_record():
    argv = W.invocations("verdicts", 0)[0]
    res = check.check_call(argv, 2, "", REFS)
    assert res.failed == res.attempted == len(W.VERDICT_SLOTS)


def test_seed_changes_inputs_but_not_cost_band():
    for workload in W.NAMES:
        runs = [W.invocations(workload, seed) for seed in range(16)]
        assert W.invocations(workload, 3) == runs[3]
        assert len({repr(r) for r in runs}) > 1, workload
        assert len({W.cost_band(r) for r in runs}) == 1, workload


def test_every_pooled_input_has_references():
    comb = REFS["comb"]["values"]
    verdicts = REFS["verdicts"]["values"]
    profiles = REFS["profiles"]["profiles"]
    for q in W.DEEP_Q:
        for l in W.DEEP_SIZES.split(","):
            assert f"{q}|{l}" in comb
    for start in W.GRID_STARTS:
        for q in W.grid_values(f"{start}:{W.GRID_STEP}:{W.GRID_COUNT}"):
            for l in W.GRID_SIZES.split(","):
                assert f"{q}|{l}" in comb
    assert all(q in verdicts for slot in W.VERDICT_SLOTS for q in slot)
    assert all(f"{W.PROFILE_P}|{j}" in profiles for j in W.PROFILE_J)
