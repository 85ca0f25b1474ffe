"""Spans and counters recorded from the benchmark's side of each layer.

`Tracer.install()` replaces each traced public function with a wrapper in
every tmqc module namespace that binds it by name (so `tm_sign` is wrapped
in `tmcore`, `diffract` and `rareclass` alike).  A wrapper records one span
(name, start, end, parent) per call, plus counts taken from its arguments
and return value.  `tm_sign` is called per term, so it is only counted.

Pool workers of `diffract --jobs N` inherit the wrappers when the pool
forks; each worker task appends its spans to a file in `spool_dir`, and the
parent reads them back as children of the `cli.main` span that was running.
The `ProcessPoolExecutor` that `cli` binds is wrapped too, so each
`cli.main` span records how many workers its pool had (0: no pool).  If a
pool ran but no worker spans came back (a spawn-based pool imports fresh,
unwrapped modules), the numbers are labelled parent-only.

Self time of a span is its duration minus the part of its interval covered
by its children (worker task spans overlap, hence a union, not a sum).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time

_MODULES = ("tmqc", "tmqc.tmcore", "tmqc.diffract", "tmqc.quadfield",
            "tmqc.rareclass", "tmqc.spectrum", "tmqc.cli")

# (home module, attribute) -> span name
SPANNED = {
    ("tmcore", "sign_array"): "tmcore.sign_array",
    ("diffract", "density_at_sizes"): "diffract.density_at_sizes",
    ("diffract", "eta_sums_at_sizes"): "diffract.eta_sums_at_sizes",
    ("diffract", "eta_sum"): "diffract.eta_sum",
    ("diffract", "scaling_exponent_alpha"): "diffract.scaling_exponent_alpha",
    ("diffract", "fitted_alpha"): "diffract.fitted_alpha",
    ("quadfield", "prime_record"): "quadfield.prime_record",
    ("quadfield", "dirichlet_l_one"): "quadfield.dirichlet_l_one",
    ("quadfield", "fundamental_unit"): "quadfield.fundamental_unit",
    ("quadfield", "class_number"): "quadfield.class_number",
    ("rareclass", "fractal_profile"): "rareclass.fractal_profile",
    ("rareclass", "transfer_matrix"): "rareclass.transfer_matrix",
    ("rareclass", "rarefied_vector"): "rareclass.rarefied_vector",
    ("rareclass", "eigenvalues_explicit"): "rareclass.eigenvalues_explicit",
    ("spectrum", "classify"): "spectrum.classify",
    ("cli", "_diffract_worker"): "cli.diffract_task",
}
METHODS = {("rareclass", "TransferMatrix", "apply"): "rareclass.TransferMatrix.apply"}
COUNTED = {("tmcore", "tm_sign"): "tmcore.tm_sign"}


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


_COUNTED_SPANS = {
    "tmcore.sign_array", "diffract.density_at_sizes", "diffract.eta_sums_at_sizes",
    "diffract.eta_sum", "diffract.scaling_exponent_alpha", "quadfield.dirichlet_l_one",
    "quadfield.prime_record", "rareclass.fractal_profile",
}


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts for one call, from its arguments (in parameter order)
    and result."""
    if name == "tmcore.sign_array":
        return {"terms": args[1] - args[0]}
    if name == "diffract.density_at_sizes":
        sizes = [int(s) for s in args[1]]
        return {"terms": max(sizes, default=0), "values": len(sizes)}
    if name == "diffract.eta_sums_at_sizes":
        return {"terms": max((int(s) for s in args[1]), default=0)}
    if name == "diffract.eta_sum":
        return {"terms": int(args[0])}
    if name == "diffract.scaling_exponent_alpha":
        l = int(args[0])
        if _is_pow2(l):
            return {"product": 1, "product_terms": l.bit_length() - 1}
        return {"product": 0}
    if name == "quadfield.dirichlet_l_one":
        return {"terms": int(args[0]) - 1}
    if name == "quadfield.prime_record":
        return {"p21": int(result.cls.value == "P21")}
    return {"samples": len(result.n_samples)}  # rareclass.fractal_profile


class Tracer:
    """Span store of one process.  Spans are lists
    [name, start, end, parent_index, counts]."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.owner_pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.counters = {name: 0 for name in COUNTED.values()}
        self.pool_workers = 0

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if name in _COUNTED_SPANS:
                rec[4] = _counts(name, tuple(sig.bind(*args, **kwargs).arguments.values()), result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def worker_task(self, fn):
        """Wrap the pool task so a forked worker spools its spans."""
        inner = self.span("cli.diffract_task", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == tracer.owner_pid:
                return inner(*args, **kwargs)
            base, saved_stack = len(tracer.spans), tracer.stack
            tracer.stack = []
            before = dict(tracer.counters)
            try:
                return inner(*args, **kwargs)
            finally:
                mine = tracer.spans[base:]
                del tracer.spans[base:]
                tracer.stack = saved_stack
                for rec in mine:
                    if rec[3] >= 0:
                        rec[3] -= base
                counts = {k: v - before[k] for k, v in tracer.counters.items()}
                path = os.path.join(tracer.spool_dir, f"worker-{os.getpid()}.jsonl")
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"spans": mine, "counters": counts}) + "\n")

        return wrapper

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(m) for m in _MODULES}
        home = {m.rsplit(".", 1)[-1]: mods[m] for m in _MODULES}
        plan = [(k, v, self.span) for k, v in SPANNED.items()]
        plan += [(k, v, self.counter) for k, v in COUNTED.items()]
        for (mod_name, attr), name, make in plan:
            original = getattr(home[mod_name], attr)
            if attr == "_diffract_worker":
                wrapped = self.worker_task(original)
            else:
                wrapped = make(name, original)
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        for (mod_name, cls_name, attr), name in METHODS.items():
            cls = getattr(home[mod_name], cls_name)
            setattr(cls, attr, self.span(name, getattr(cls, attr)))
        mods["tmqc.cli"].ProcessPoolExecutor = self.pool(mods["tmqc.cli"].ProcessPoolExecutor)

    def pool(self, cls):
        """Wrap the pool constructor so the running cli.main span learns its
        worker count."""
        tracer = self

        @functools.wraps(cls)
        def make(*args, **kwargs):
            executor = cls(*args, **kwargs)
            tracer.pool_workers = max(tracer.pool_workers, executor._max_workers)
            return executor

        return make

    def main_span(self, fn, argv: list):
        """Run cli.main(argv) under a `cli.main` span; returns its result
        and attaches the worker spans spooled meanwhile."""
        before = set(os.listdir(self.spool_dir))
        self.pool_workers = 0
        rc = self.span("cli.main", fn)(argv)
        main_idx = max(i for i, s in enumerate(self.spans) if s[0] == "cli.main")
        self.spans[main_idx][4] = {"pool_workers": self.pool_workers}
        for fname in sorted(set(os.listdir(self.spool_dir)) - before):
            path = os.path.join(self.spool_dir, fname)
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    chunk = json.loads(line)
                    base = len(self.spans)
                    for rec in chunk["spans"]:
                        rec[3] = main_idx if rec[3] < 0 else rec[3] + base
                        self.spans.append(rec)
                    for k, v in chunk["counters"].items():
                        self.counters[k] += v
            os.remove(path)
        return rc


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _union_length(intervals: list, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_numbers(spans: list, counters: dict) -> dict:
    """Per-layer calls, self time and counts from one traced repetition."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    calls: dict = {}
    self_s: dict = {}
    totals: dict = {}
    for i, s in enumerate(spans):
        name = s[0]
        kids = [(spans[c][1], spans[c][2]) for c in children.get(i, [])]
        own = (s[2] - s[1]) - _union_length(kids, s[1], s[2])
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        for k, v in (s[4] or {}).items():
            totals[(name, k)] = totals.get((name, k), 0) + v

    # classify calls that reached the fitted route
    fitted = set()
    for s in spans:
        if s[0] == "diffract.fitted_alpha":
            p = s[3]
            while p >= 0 and spans[p][0] != "spectrum.classify":
                p = spans[p][3]
            if p >= 0:
                fitted.add(p)

    def c(name):
        return calls.get(name, 0)

    def t(name, key):
        return totals.get((name, key), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in list(SPANNED.values()) + list(METHODS.values()) + ["cli.main"]:
        out[f"{name}.calls"] = c(name)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("tmcore.sign_array", "diffract.density_at_sizes",
                 "diffract.eta_sums_at_sizes", "diffract.eta_sum",
                 "quadfield.dirichlet_l_one"):
        out[f"{name}.terms"] = t(name, "terms")
    out["tmcore.tm_sign.calls"] = counters.get("tmcore.tm_sign", 0)
    alpha = "diffract.scaling_exponent_alpha"
    out[f"{alpha}.product_frac"] = ratio(t(alpha, "product"), c(alpha))
    terms = (t("diffract.density_at_sizes", "terms") + t("diffract.eta_sums_at_sizes", "terms")
             + t("diffract.eta_sum", "terms") + t(alpha, "product_terms"))
    values = t("diffract.density_at_sizes", "values") + c(alpha)
    out["diffract.terms_per_value"] = ratio(terms, values)
    out["quadfield.dirichlet_l_one.calls_per_p21"] = ratio(
        c("quadfield.dirichlet_l_one"), t("quadfield.prime_record", "p21"))
    out["rareclass.apply_per_sample"] = ratio(
        c("rareclass.TransferMatrix.apply"), t("rareclass.fractal_profile", "samples"))
    out["spectrum.classify.fitted_frac"] = ratio(len(fitted), c("spectrum.classify"))

    # worker busy time over (jobs x wall), per cli.main call
    busy = capacity = 0.0
    parent_only = False
    for i, s in enumerate(spans):
        if s[0] != "cli.main":
            continue
        jobs = s[4]["pool_workers"]
        wall = s[2] - s[1]
        tasks = [spans[k] for k in children.get(i, []) if spans[k][0] == "cli.diffract_task"]
        if jobs:
            if not tasks:
                parent_only = True
            busy += sum(k[2] - k[1] for k in tasks)
            capacity += jobs * wall
        else:
            busy += wall
            capacity += wall
    out["cli.parallel_efficiency"] = ratio(busy, capacity)
    out["_parent_only"] = parent_only
    return out


def median_numbers(reps: list) -> dict:
    """Median of the timed values across traced repetitions; counts must
    repeat exactly and are taken from the first."""
    out = dict(reps[0])
    for key in out:
        if key.endswith("self_s") or key == "cli.parallel_efficiency":
            out[key] = statistics.median(r[key] for r in reps)
    return out
