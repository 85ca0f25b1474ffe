"""tmqc benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload comb-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Closed loop, one client: repetitions of the workload run back to back until
`--seconds` is used up (at least three, or one of each kind when traced).
Each repetition is a fresh process (perfbench/rep.py) that imports tmqc.cli
(set-up) and then runs the workload's invocations in-process.  Every output
record is checked against perfbench/refs/.

The host's speed drifts by up to 1.6x for minutes at a time, and differs
between processes.  So each repetition also times a fixed probe
computation, independent of tmqc, right after the workload in the same
process (rep.py).  Each time a repetition measures is scaled by
PROBE_NOMINAL_S over that repetition's probe time, and the run reports the
median of the scaled times: seconds at the speed where the probe takes
PROBE_NOMINAL_S.  The raw times are printed in the `#` lines.

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics; the names and units come from BENCHMARK.json.  The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

REP_TIMEOUT_S = 150
MIN_REPS = 3
PROBE_NOMINAL_S = 0.1


def _rep(argvs: list, traced: bool, spool: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), ROOT, "1" if traced else "0", spool]
    cmd += [" ".join(argv) for argv in argvs]
    t0 = time.perf_counter()
    # own session, so a timed-out repetition is killed with its pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {REP_TIMEOUT_S} s", "elapsed": time.perf_counter() - t0}
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return {"error": err[-2000:] or f"exit code {proc.returncode}", "elapsed": elapsed}
    rep = json.loads(out)
    rep["elapsed"] = elapsed
    rep["traced"] = traced
    return rep


def _warm_up() -> None:
    """Import once untimed, so byte-code compilation is not counted as set-up."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import tmqc.cli"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   capture_output=True, timeout=REP_TIMEOUT_S)


def run_workload(workload: str, seed: int, seconds: float, traced: bool, refs: check.Refs) -> dict:
    argvs = W.invocations(workload, seed)
    spool_root = os.path.join(ROOT, ".perfbench_tmp")
    spool = os.path.join(spool_root, str(os.getpid()))
    os.makedirs(spool, exist_ok=True)
    try:
        _warm_up()
        reps = []
        start = time.perf_counter()
        while True:
            want_traced = traced and len(reps) % 2 == 1
            reps.append(_rep(argvs, want_traced, spool))
            elapsed = time.perf_counter() - start
            longest = max(r["elapsed"] for r in reps)
            done = len(reps) >= (2 if traced else MIN_REPS)
            if done and elapsed + longest > seconds:
                break
    finally:
        shutil.rmtree(spool, ignore_errors=True)
        try:
            os.rmdir(spool_root)
        except OSError:
            pass

    total = check.Result()
    good = [r for r in reps if "error" not in r]
    for r in reps:
        if "error" in r:
            for argv in argvs:
                n = check.expected_records(argv, refs)
                total.attempted += n
                total.failed += n
            total.notes.append(f"repetition failed: {r['error'].strip().splitlines()[-1:]}")
            continue
        for call in r["calls"]:
            total.add(check.check_call(call["argv"], call["rc"], call["stdout"], refs))
    return {"workload": workload, "seed": seed, "argvs": argvs, "reps": reps,
            "good": good, "check": total}


def _scaled_median(reps: list, key: str) -> float:
    return statistics.median(r[key] / r["probe_s"] for r in reps) * PROBE_NOMINAL_S


def end_to_end(run: dict) -> dict:
    plain = [r for r in run["good"] if not r["traced"]]
    rows = [sum(max(c["stdout"].count("\n") - 1, 0) for c in r["calls"]) for r in plain]
    wall_s = _scaled_median(plain, "wall_s")
    return {
        "wall_s": wall_s,
        "rows_per_s": statistics.median(rows) / wall_s,
        "setup_s": _scaled_median(run["good"], "setup_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "_reps": len(plain),
    }


def per_layer(run: dict) -> dict:
    traced = [r for r in run["good"] if r["traced"]]
    plain = [r for r in run["good"] if not r["traced"]]
    layers = [r["layers"] for r in traced]
    out = spans.median_numbers(layers)
    counts = [{k: v for k, v in rep.items() if k.endswith((".calls", ".terms"))} for rep in layers]
    out["_counts_repeat"] = all(c == counts[0] for c in counts)
    out["trace.overhead_s"] = (_scaled_median(traced, "wall_s")
                               - _scaled_median(plain, "wall_s"))
    out["spectrum.classify.conjectural_gap"] = run["check"].gap
    return out


def _metric_specs(traced: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if traced else "end_to_end"]


def report(run: dict, traced: bool) -> dict:
    chk = run["check"]
    values = per_layer(run) if traced else end_to_end(run)
    metrics = {}
    for spec in _metric_specs(traced):
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    frac = chk.failed / chk.attempted if chk.attempted else 1.0
    print(f"# workload {run['workload']} seed {run['seed']}: "
          + " ; ".join(" ".join(a) for a in run["argvs"]))
    print(f"#   repetitions {len(run['reps'])} ({len(run['good'])} ran), "
          f"records {chk.attempted}, failed_frac {frac:.6g}")
    for note in chk.notes[:5]:
        print(f"#   check: {note}")
    if traced:
        if values["_parent_only"]:
            print("#   layer numbers are parent-only: no worker spans came back from the pool")
        if not values["_counts_repeat"]:
            print("#   warning: counts differ between traced repetitions")
    else:
        walls = " ".join(f"{r['wall_s']:.3f}" for r in run["good"])
        probes = " ".join(f"{r['probe_s']:.4f}" for r in run["good"])
        print(f"#   wall_s is the median over {values['_reps']} untraced repetitions of "
              f"wall * {PROBE_NOMINAL_S} / probe; raw {walls} s; probe {probes} s")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": chk.failed == 0 and chk.attempted > 0,
            "attempted": chk.attempted, "failed": chk.failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "tmqc", "cli.py")):
        print("error: no tmqc source under src/ in this checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one fresh harness per workload: Linux starts a child's peak RSS
        # at its parent's, so the harness must stay small while reps run
        for name in W.NAMES:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if subprocess.run(cmd, cwd=ROOT).returncode != 0:
                return 1
        return 0
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), check.Refs())
    if not run["good"] or (args.trace and not any(r["traced"] for r in run["good"])):
        print(f"error: every repetition of {args.workload} failed: {run['check'].notes[:1]}",
              file=sys.stderr)
        return 1
    print(json.dumps(report(run, bool(args.trace))))
    return 0

if __name__ == "__main__":
    sys.exit(main())
