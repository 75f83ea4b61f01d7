"""Span recording around chevlie's public functions, from outside the program.

`install()` replaces every binding of each traced function: the module
attribute, the names other chevlie modules imported with `from . import`,
entries of module-level dicts (golden.BUILDERS), and methods on their class.
Each call then records one span (name, start, end, parent) in flat arrays
that stay in memory until the pass ends.

Per-layer metrics are derived from the spans.  Times are reported as shares
of the traced session (set-up plus pass, `trace.setup_s + trace.run_s`), so a
layer that a workload never enters reads 0 as a ratio rather than as a time;
seconds are `share * (trace.setup_s + trace.run_s)`.

Each traced function also names the workloads that call it today; `missed()`
lists those that recorded no call in a traced session of such a workload, which
is what a binding `install()` failed to reach looks like.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import time
from array import array
from typing import Callable, NamedTuple

import workloads

MODULES = ("cli", "golden", "chevgroups", "commuting", "rootsys", "orders",
           "chevalley", "gf", "elementary")


def _n_patterns(a, kw, res, ctx):
    setting = a[0]
    r = a[1] if len(a) > 1 else kw["r"]
    return {"points": len(res), "patterns": math.comb(setting.n_pos, r)}


def _catalog_miss(a, kw, res, ctx):
    rec, i = ctx
    mc = rec.ids["commuting.maximum_cliques"]
    return {"misses": int(rec.last[mc] > i)}


U, C, F, T = "unipotent", "conjugation", "fusion", "tables"


class Fn(NamedTuple):
    """One traced function and what is reported about it."""

    layer: str  # the chevlie module that defines it
    path: str  # attribute path in that module
    stats: tuple  # reported as metrics <layer>.<path>.<stat>
    entered_on: tuple  # workloads whose traced session calls it today
    hook: Callable | None = None  # counts taken from the arguments and result

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.path}"


TRACED = [
    Fn("commuting", "maximum_cliques", ("share", "calls", "cliques"), (U, T),
       lambda a, kw, res, ctx: {"cliques": len(res[1])}),
    Fn("commuting", "enumerate_max_commuting", ("calls", "misses", "hit_frac"), (U, T),
       _catalog_miss),
    Fn("commuting", "weyl_stabilizer_generators", ("share", "calls"), (T,)),
    Fn("commuting", "partial_weyl_orbits", ("share", "calls"), (U, T)),
    Fn("rootsys", "build_root_system", ("share", "calls"), (U, C, F, T)),
    Fn("rootsys", "RootSystem.weyl_elements", ("share", "calls", "gave_up", "useful_frac"),
       (T,), lambda a, kw, res, ctx: {"gave_up": int(res is None)}),
    Fn("chevalley", "build_constants", ("share", "calls"), (U, C, F)),
    Fn("chevalley", "root_group_element", ("share", "calls"), (C, F)),
    Fn("chevalley", "cocharacter_element", ("calls",), (C, F)),
    Fn("chevalley", "weyl_word_element", ("share", "calls"), (C, F)),
    Fn("gf", "GF.rref", ("share", "calls"), (U, C, F)),
    Fn("gf", "GF.batch_rref", ("share", "calls", "matrices"), (F,),
       lambda a, kw, res, ctx: {"matrices": len(res)}),
    Fn("gf", "GF.matmul", ("share", "calls"), (U, C, F)),
    Fn("gf", "GF.nullspace", ("calls",), (U, C, F)),
    Fn("gf", "GF.solve_affine", ("calls",), (U, F)),
    Fn("elementary", "get_setting", ("share", "calls"), (U, C, F)),
    Fn("elementary", "brute_force_Eu",
       ("share", "calls", "points", "patterns", "points_per_pattern"), (U, F), _n_patterns),
    Fn("elementary", "build_leading_term_system", ("share", "unknowns", "equations"), (U,),
       lambda a, kw, res, ctx: {"unknowns": len(res.unknowns),
                                "equations": len(res.equations)}),
    Fn("elementary", "leading_term_solve", ("share", "solutions"), (U,),
       lambda a, kw, res, ctx: {"solutions": res.count}),
    Fn("elementary", "is_elementary", ("calls", "true_frac"), (U,),
       lambda a, kw, res, ctx: {"true": int(bool(res))}),
    Fn("elementary", "g_conjugacy_classes",
       ("share", "points", "classes", "classes_per_point"), (F,),
       lambda a, kw, res, ctx: {"points": len(a[1]), "classes": len(res)}),
    Fn("elementary", "borel_generators", ("calls", "generators"), (C, F),
       lambda a, kw, res, ctx: {"generators": len(res)}),
    Fn("elementary", "weyl_words_all", ("calls", "words"), (C, F),
       lambda a, kw, res, ctx: {"words": len(res)}),
    # only `verify --stage normalizers` calls it; no measured workload does
    Fn("elementary", "normalizer_in_g", ("share", "calls"), ()),
    Fn("elementary", "subalgebra_from_rows", ("share", "calls"), (U, C)),
    Fn("elementary", "conjugation_reduce", ("share", "calls", "word_len"), (C,),
       lambda a, kw, res, ctx: {"word_len": len(res[0])}),
    Fn("chevgroups", "class_report", ("share",), (T,)),
    Fn("chevgroups", "spectrum_report", ("share",), (T,)),
    Fn("golden", "build_primes", ("share",), (T,)),
    Fn("golden", "build_maxsets", ("share",), (T,)),
    Fn("golden", "build_stabilizers", ("share",), (T,)),
    Fn("golden", "build_groups", ("share",), (T,)),
    Fn("golden", "build_spectrum", ("share",), (T,)),
    Fn("golden", "diff_golden", ("share",), (T,)),
]

# Layers whose self time is reported; "op" is the operation span itself (for
# CLI operations, chevlie.cli's own code and anything untraced it calls).
LAYERS = ("op", "golden", "chevgroups", "commuting", "rootsys", "chevalley", "gf",
          "elementary")

# Ratios: numerator, denominator (both stats of the same function).
RATIOS = {
    "hit_frac": ("hits", "calls"),
    "useful_frac": ("useful", "calls"),
    "true_frac": ("true", "calls"),
    "points_per_pattern": ("points", "patterns"),
    "classes_per_point": ("classes", "points"),
}
# Counts of results the program must reproduce exactly (pinned facts).
OUTCOMES = {"cliques", "points", "classes", "solutions"}


def op_names() -> list[str]:
    """Every operation of the measured workloads, as pinned."""
    pinned = workloads.load_pinned()
    return [op for w in workloads.WORKLOADS for op in pinned[w]]


def metric_table() -> list[dict]:
    """Every per-layer metric with its unit and direction, in output order."""
    rows = [
        {"name": "trace.run_s", "unit": "s", "better": "lower"},
        {"name": "trace.setup_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"},
        {"name": "trace.spans", "unit": "count", "better": "lower"},
    ]
    rows += [{"name": f"{layer}.self_share", "unit": "ratio", "better": "lower"}
             for layer in LAYERS]
    rows += [{"name": f"op.{op}.share", "unit": "ratio", "better": "lower"}
             for op in op_names()]
    for fn in TRACED:
        for stat in fn.stats:
            if stat in RATIOS:
                unit, better = "ratio", "higher"
            elif stat == "share":
                unit, better = "ratio", "lower"
            else:
                unit, better = "count", "higher" if stat in OUTCOMES else "lower"
            rows.append({"name": f"{fn.name}.{stat}", "unit": unit, "better": better})
    return rows


class Recorder:
    """Spans in flat arrays: name id, parent span, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.last: list[int] = []  # index of the latest span of each name
        self.stack = [-1]
        self.on = False
        self.counts: dict[str, dict[str, int]] = {}

    def name_id(self, name: str, layer: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.last.append(-1)
            self.counts[name] = {}
        return self.ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.last[nid] = i
        self.stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, layer: str, fn, hook):
        nid = self.name_id(name, layer)
        counts = self.counts[name]

        @functools.wraps(fn)
        def traced(*a, **kw):
            if not self.on:
                return fn(*a, **kw)
            i = self.begin(nid)
            try:
                res = fn(*a, **kw)
            finally:
                self.finish(i)
            if hook is not None:
                for k, v in hook(a, kw, res, (self, i)).items():
                    counts[k] = counts.get(k, 0) + v
            return res

        return traced

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """The harness's own spans (set-up, operations)."""
        i = self.begin(self.name_id(name, layer))
        try:
            yield
        finally:
            self.finish(i)

    # -- aggregation ------------------------------------------------------------

    def aggregate(self, lo: int = 0) -> dict[str, dict[str, float]]:
        """Per name: calls, s, self_s and the hook counts, over spans with
        index >= lo."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(lo, n):
            p = self.parent[i]
            if p >= lo:
                child[p] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(lo, n):
            st = stats[self.names[self.name[i]]]
            d = self.end[i] - self.start[i]
            st["calls"] += 1
            st["s"] += d
            st["self_s"] += d - child[i]
        for name, counts in self.counts.items():
            stats[name].update(counts)
        return stats

    def dump(self, path):
        """Write the raw spans (columns) as JSON."""
        with open(path, "w") as f:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "parent": self.parent.tolist(), "start": self.start.tolist(),
                       "end": self.end.tolist()}, f)


def install(rec: Recorder):
    """Patch every binding of every traced function with a recording wrapper."""
    mods = [importlib.import_module(f"chevlie.{m}") for m in MODULES]
    for fn in TRACED:
        cls_name, _, attr_name = fn.path.rpartition(".")
        owner = importlib.import_module(f"chevlie.{fn.layer}")
        if cls_name:
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr_name)
        wrapper = rec.wrap(fn.name, fn.layer, original, fn.hook)
        if cls_name:  # a method: patch it on the class
            setattr(owner, attr_name, wrapper)
            continue
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper


def missed(stats: dict, workload: str) -> list[str]:
    """Traced functions the workload calls today that recorded no call: a
    binding install() did not reach, or a call path the program dropped."""
    return [fn.name for fn in TRACED
            if workload in fn.entered_on and not stats[fn.name]["calls"]]


def span_cost(calls: int = 20_000, batches: int = 5) -> float:
    """Seconds one recorded span adds to a call: the median over batches of a
    traced minus a plain no-op call."""
    def noop():
        return None

    def timed(f) -> float:
        t = time.perf_counter()
        for _ in range(calls):
            f()
        return time.perf_counter() - t

    cal = Recorder()
    traced = cal.wrap("noop", "op", noop, None)
    cal.on = True
    diffs = sorted((timed(traced) - timed(noop)) / calls for _ in range(batches))
    return diffs[batches // 2]


def layer_metrics(rec: Recorder, stats: dict, setup_s: float, run_s: float,
                  pass_lo: int) -> dict:
    """Every per-layer metric, from `stats = rec.aggregate()` of one traced
    session whose pass starts at span `pass_lo`."""
    session = setup_s + run_s
    out = {"trace.run_s": run_s, "trace.setup_s": setup_s,
           "trace.spans": len(rec.start)}
    cost = (len(rec.start) - pass_lo) * span_cost()
    out["trace.overhead_frac"] = cost / (run_s - cost)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, st in stats.items():
        layer = rec.layer_of[rec.ids[name]]
        if layer in layer_self:
            layer_self[layer] += st["self_s"]
    for layer, s in layer_self.items():
        out[f"{layer}.self_share"] = s / session
    for op in op_names():
        out[f"op.{op}.share"] = stats.get(f"op.{op}", {"s": 0.0})["s"] / session
    for st in stats.values():
        st["hits"] = st["calls"] - st.get("misses", 0)
        st["useful"] = st["calls"] - st.get("gave_up", 0)
    for fn in TRACED:
        st = stats[fn.name]
        for stat in fn.stats:
            if stat == "share":
                value = st["s"] / session
            elif stat in RATIOS:
                num, den = RATIOS[stat]
                value = st.get(num, 0) / st[den] if st.get(den) else 0.0
            else:
                value = st.get(stat, 0)
            out[f"{fn.name}.{stat}"] = value
    return out
