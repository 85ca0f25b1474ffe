"""Shared fixtures and the acceptance-summary reporter.

Tests named test_criterion_NN_* are the acceptance gate; one PASS/FAIL line
per criterion is printed at the end of the run.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from tmqc import quadfield
from tmqc.tmcore import QuasicrystalParams

_CRITERION_RE = re.compile(r"test_criterion_(\d+[a-z]?)(?:_|$)")
_SENTENCE_RE = re.compile(r"^.*?\.(?=\s|$)")
_results: dict = {}


@pytest.fixture(scope="session")
def params21() -> QuasicrystalParams:
    return QuasicrystalParams(Fraction(2), Fraction(1))


def _orbit_log2(w: np.ndarray, p: int) -> np.ndarray:
    """Per row of residues w (the last axis), the sum of log2 |1 - zeta^w| =
    log2(2 sin(pi r / p)) over the centred residues r = min(w, p - w) in
    increasing r, exactly rounded by `math.fsum`.  numpy's pairwise sum of
    the sorted terms drifts by up to 9e-13 relative at p = 61609, so it
    cannot check the coset spectrum's orbit-order sums to 1e-13."""
    r = np.sort(np.minimum(w, p - w), axis=-1)
    x = np.log2(2.0 * np.sin(r * (math.pi / p)))
    return np.array([math.fsum(row) for row in x.reshape(-1, x.shape[-1]).tolist()]
                    ).reshape(x.shape[:-1])


@pytest.fixture(scope="session")
def orbit_log2():
    """The sorted-row oracle of `rareclass._coset_spectrum`'s log2 moduli."""
    return _orbit_log2


@pytest.fixture(autouse=True)
def fresh_class_numbers():
    """Each test computes its class numbers afresh, so a test that patches
    what `quadfield.class_number` calls (the L-value, the unit) reaches it."""
    quadfield.class_number.cache_clear()


def pytest_runtest_makereport(item, call):
    if call.when != "call":
        return
    m = _CRITERION_RE.match(item.name)
    if not m:
        return
    doc = " ".join((item.function.__doc__ or "").split())
    sentence = _SENTENCE_RE.match(doc)
    label = sentence.group(0) if sentence else doc or item.name
    key = (m.group(1), item.name)
    _results[key] = (label, call.excinfo is None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for (num, name), (label, ok) in sorted(_results.items()):
        status = "PASS" if ok else "FAIL"
        tw.write_line(f"ACCEPTANCE {num:<3s} {status:4s} {label}")
