"""One repetition of a workload, in a fresh process.

    python3 perfbench/rep.py <checkout> <trace 0|1> <spool dir> <invocation>...

Each <invocation> is one CLI argv with its words separated by spaces.
Times the import of tmqc.cli (set-up), then calls tmqc.cli.main(argv)
in-process for each invocation with stdout captured, and prints one JSON
object: set-up time, wall time from the first main call to the end of the
last, each invocation's exit code and output, peak RSS, the time of a
fixed probe computation run after the peak RSS is read, and (traced) the
per-layer numbers.  Nothing but `sys` and `time` is imported before the
timed import, so set-up pays for every module the program needs.
"""

import sys
import time


PROBE_ROUNDS = 3


def probe() -> float:
    """Seconds for a fixed mix of interpreter-bound and numpy-bound work,
    independent of tmqc: a gauge of the host's current speed.  Median of
    PROBE_ROUNDS rounds."""
    import statistics

    import numpy as np

    times = []
    for _ in range(PROBE_ROUNDS):
        t0 = time.perf_counter()
        s = 0
        for j in range(400_000):
            s += j * j
        np.cumsum(np.exp(-1j * np.arange(1_000_000, dtype=np.float64)))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    checkout, traced, spool = sys.argv[1:4]
    argvs = [arg.split(" ") for arg in sys.argv[4:]]
    sys.path.insert(0, checkout + "/src")

    t0 = time.perf_counter()
    import tmqc.cli
    setup_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import resource

    tracer = None
    if traced == "1":
        sys.path.insert(0, checkout + "/perfbench")
        import spans

        tracer = spans.Tracer(spool)
        tracer.install()

    calls = []
    real_stdout = sys.stdout
    first = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = tmqc.cli.main(list(argv))
            else:
                rc = tracer.main_span(tmqc.cli.main, list(argv))
        calls.append({"argv": argv, "rc": rc, "stdout": buf.getvalue(),
                      "stderr": err.getvalue()[-2000:]})
    wall_s = time.perf_counter() - first

    # getrusage reports the largest reaped pool worker, not their sum; it
    # is 0 when no pool ran
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calls": calls,
        "peak_rss_mb": kb / 1024.0,
        "probe_s": probe(),
    }
    if tracer is not None:
        result["layers"] = spans.layer_numbers(tracer.spans, tracer.counters)
    real_stdout.write(json.dumps(result))
    real_stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
