"""What importing the CLI leaves behind, checked in a fresh interpreter: no
generated record code, no JSON until a command writes or reads JSON, and the
start-up heap frozen out of the collector's reach."""

from __future__ import annotations

import os
import subprocess
import sys

import tmqc

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(tmqc.__file__)))


def _fresh(code: str) -> str:
    """stdout of `code` run by a new interpreter that imports this tmqc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_loads_neither_dataclasses_nor_json():
    got = _fresh("import sys, tmqc.cli; print(sorted({'dataclasses', 'json'} & set(sys.modules)))")
    assert got == "[]"


def test_cli_import_freezes_the_heap():
    assert int(_fresh("import gc, tmqc.cli; print(gc.get_freeze_count())")) > 0


def test_library_import_leaves_the_heap_alone():
    assert int(_fresh("import gc, tmqc; print(gc.get_freeze_count())")) == 0
