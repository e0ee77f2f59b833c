"""Spans and counters recorded around the public entry points of each layer.

The benchmark measures the detideals layers from outside: a `Tracer` rebinds
the public functions of `graphs`, `smith`, `polyring`, `grobner`, `profiles`
and `survey` to timing wrappers while it is installed.  Several modules import
those functions by name (`survey` and `profiles` hold their own references to
`char_poly`, `snf_integer`, `snf_poly_q`, `minor_tables` and `gcd_poly_q`), so
every module attribute that refers to a wrapped function is rebound, not only
the defining one.

A span records its name, start, end, parent span and request.  Spans stay in
memory and are written out once, when the run ends.  A layer's time is the
time its spans cover (nested spans of the same layer counted once); its self
time is the duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import multiprocessing
import os
import sys
import time
from collections import Counter, defaultdict

# The end-to-end metrics (and workloads) that a change to each per-layer
# metric should move; names and units are in BENCHMARK.json.
MOVES = {
    "graphs.enumerate_s": ("setup_s", ("table1-n7", "critical-n6")),
    "graphs.canonical_calls": ("setup_s", ("table1-n7", "spectra-n9")),
    "graphs.matrix_s": ("items_per_s", ("spectra-n9",)),
    "graphs.g6_s": ("items_per_s", ("spectra-n9",)),
    "smith.charpoly_s": ("items_per_s", ("spectra-n9",)),
    "smith.snf_z_s": ("items_per_s", ("spectra-n9",)),
    "smith.snf_qx_s": ("wall_s", ("table1-n7",)),
    "smith.snf_qx_calls": ("wall_s", ("table1-n7",)),
    "polyring.gcd_q_s": ("wall_s", ("table1-n7",)),
    "polyring.gcd_q_calls": ("wall_s", ("table1-n7",)),
    "smith.minors_s": ("wall_s; item_p50_ms, item_p90_ms", ("table1-n7", "critical-n6")),
    "smith.minor_mults": ("wall_s; item_p50_ms, item_p90_ms", ("table1-n7", "critical-n6")),
    "grobner.basis_s": ("item_p90_ms; wall_s", ("critical-n6", "table1-n7")),
    "grobner.bases": ("item_p90_ms; wall_s", ("critical-n6", "table1-n7")),
    "grobner.gens_in": ("item_p90_ms; wall_s", ("critical-n6", "table1-n7")),
    "grobner.add_calls": ("item_p90_ms; wall_s", ("critical-n6", "table1-n7")),
    "grobner.add_useful_ratio": ("item_p90_ms; wall_s", ("critical-n6", "table1-n7")),
    "grobner.equal_s": ("wall_s", ("table1-n7",)),
    "grobner.equal_calls": ("wall_s", ("table1-n7",)),
    "profiles.zx_self_s": ("wall_s", ("table1-n7",)),
    "profiles.multi_self_s": ("item_p50_ms, item_p90_ms", ("critical-n6",)),
    "survey.run_s": ("items_per_s, cpu_s", ("spectra-n9",)),
    "survey.self_s": ("items_per_s, cpu_s", ("spectra-n9",)),
    "survey.keys": ("items_per_s, cpu_s", ("spectra-n9",)),
    "survey.pool_starts": ("items_per_s, cpu_s", ("spectra-n9",)),
    "survey.checkpoint_bytes": ("items_per_s, cpu_s", ("spectra-n9",)),
    "trace.untraced_s": ("none: the serial untraced pass, base of the overhead", ()),
    "trace.traced_s": ("none: the serial traced pass", ()),
    "trace.overhead_frac": ("none: traced_s / untraced_s - 1", ()),
}

# (module, attribute, span group) for every function timed with a span.
SPANNED = (
    ("graphs", "enumerate_connected", "graphs.enumerate"),
    ("graphs", "build_matrix", "graphs.matrix"),
    ("graphs", "char_matrix", "graphs.matrix"),
    ("graphs", "generalized_char_matrix", "graphs.matrix"),
    ("graphs", "write_graph6", "graphs.g6"),
    ("graphs", "parse_graph6", "graphs.g6"),
    ("smith", "char_poly", "smith.charpoly"),
    ("smith", "snf_integer", "smith.snf_z"),
    ("smith", "snf_poly_q", "smith.snf_qx"),
    ("smith", "minor_tables", "smith.minors"),
    ("polyring", "gcd_poly_q", "polyring.gcd_q"),
    ("grobner", "strong_groebner", "grobner.basis"),
    ("profiles", "multivariate_ideals", "profiles.multi"),
    ("survey", "run_survey", "survey.run"),
)


def minor_mults(n: int, max_k: int | None) -> int:
    """Entry-times-minor products of the memoized Laplace expansion up to
    max_k: sum over k = 2..max_k of k * C(n, k)^2 (level 1 multiplies nothing)."""
    top = n if max_k is None else max_k
    return sum(k * math.comb(n, k) ** 2 for k in range(2, top + 1))


class counting_pools:
    """Counts pools started while active; survey looks up multiprocessing.Pool
    on the module at call time."""

    def __init__(self):
        self.count = 0

    def __enter__(self):
        self._pool = pool = multiprocessing.Pool

        @functools.wraps(pool)
        def counting_pool(*args, **kwargs):
            self.count += 1
            return pool(*args, **kwargs)

        multiprocessing.Pool = counting_pool
        return self

    def __exit__(self, *exc):
        multiprocessing.Pool = self._pool


class Tracer:
    """Spans and counters for one traced run; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, request, group, start, end)
        self.covered: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[list] = []  # [id, group, start, child time]
        self._depth: Counter = Counter()
        self._next_id = 1
        self._undo: list[tuple] = []

    # -- spans

    def begin(self, group: str):
        """Open a span; a span opened with none open starts a new request."""
        if not self._stack:
            self.request += 1
        self._depth[group] += 1
        self._stack.append([self._next_id, group, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self):
        stop = time.perf_counter()
        sid, group, start, child = self._stack.pop()
        dur = stop - start
        parent = self._stack[-1] if self._stack else None
        self._depth[group] -= 1
        self.calls[group] += 1
        self.self_time[group] += dur - child
        if parent is not None:
            parent[3] += dur
        if self._depth[group] == 0:
            self.covered[group] += dur
        self.spans.append((sid, parent[0] if parent else 0, self.request, group, start, stop))

    @contextlib.contextmanager
    def span(self, group: str):
        self.begin(group)
        try:
            yield
        finally:
            self.end()

    # -- installation

    def _rebind(self, original, replacement):
        """Point every detideals module attribute that holds `original` at
        `replacement`, so that names imported with `from x import f` see it too."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "detideals" or name.startswith("detideals.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_attr(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _spanned(self, fn, group, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        import detideals
        from detideals import graphs, grobner, profiles, smith, survey

        mods = {"graphs": graphs, "smith": smith, "polyring": detideals.polyring,
                "grobner": grobner, "profiles": profiles, "survey": survey}
        counts = self.counts

        def on_minors(args, kwargs, result):
            max_k = kwargs.get("max_k", args[1] if len(args) > 1 else None)
            counts["smith.minor_mults"] += minor_mults(len(args[0]), max_k)

        def on_survey(args, kwargs, result):
            counts["survey.keys"] += result.total
            path = kwargs.get("checkpoint_path")
            if path and os.path.exists(path):
                counts["survey.checkpoint_bytes"] += os.path.getsize(path)

        after = {"smith.minors": on_minors, "survey.run": on_survey}
        for modname, attr, group in SPANNED:
            original = getattr(mods[modname], attr)
            self._rebind(original, self._spanned(original, group, after.get(group)))

        # strong_groebner consumes an iterable of generators: count them first
        basis_wrapper = grobner.strong_groebner

        @functools.wraps(basis_wrapper)
        def strong_groebner(gens, *args, **kwargs):
            gens = list(gens)
            counts["grobner.gens_in"] += len(gens)
            return basis_wrapper(gens, *args, **kwargs)

        self._rebind(basis_wrapper, strong_groebner)

        # determinantal_ideals: the Z[x] profile's own time is a metric
        det = profiles.determinantal_ideals

        @functools.wraps(det)
        def determinantal_ideals(*args, **kwargs):
            ring = args[2] if len(args) > 2 else kwargs.get("ring", "Zx")
            with self.span("profiles.zx" if ring == "Zx" else "profiles.qx"):
                return det(*args, **kwargs)

        self._rebind(det, determinantal_ideals)

        canonical = graphs.canonical_columns

        @functools.wraps(canonical)
        def canonical_columns(g):
            counts["graphs.canonical_calls"] += 1
            return canonical(g)

        self._rebind(canonical, canonical_columns)

        add = grobner.StrongBasis.add

        @functools.wraps(add)
        def strong_add(basis, terms):
            grew = add(basis, terms)
            counts["grobner.add_calls"] += 1
            counts["grobner.add_useful"] += bool(grew)
            return grew

        self._patch_attr(grobner.StrongBasis, "add", strong_add)
        self._patch_attr(grobner.Ideal, "equal", self._spanned(grobner.Ideal.equal, "grobner.equal"))

        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results

    def per_layer(self) -> dict[str, float]:
        c, cov, calls, own = self.counts, self.covered, self.calls, self.self_time
        adds = c["grobner.add_calls"]
        return {
            "graphs.enumerate_s": cov["graphs.enumerate"],
            "graphs.canonical_calls": c["graphs.canonical_calls"],
            "graphs.matrix_s": cov["graphs.matrix"],
            "graphs.g6_s": cov["graphs.g6"],
            "smith.charpoly_s": cov["smith.charpoly"],
            "smith.snf_z_s": cov["smith.snf_z"],
            "smith.snf_qx_s": cov["smith.snf_qx"],
            "smith.snf_qx_calls": calls["smith.snf_qx"],
            "polyring.gcd_q_s": cov["polyring.gcd_q"],
            "polyring.gcd_q_calls": calls["polyring.gcd_q"],
            "smith.minors_s": cov["smith.minors"],
            "smith.minor_mults": c["smith.minor_mults"],
            "grobner.basis_s": cov["grobner.basis"],
            "grobner.bases": calls["grobner.basis"],
            "grobner.gens_in": c["grobner.gens_in"],
            "grobner.add_calls": adds,
            "grobner.add_useful_ratio": c["grobner.add_useful"] / adds if adds else 0.0,
            "grobner.equal_s": cov["grobner.equal"],
            "grobner.equal_calls": calls["grobner.equal"],
            "profiles.zx_self_s": own["profiles.zx"],
            "profiles.multi_self_s": own["profiles.multi"],
            "survey.run_s": cov["survey.run"],
            "survey.self_s": own["survey.run"],
            "survey.keys": c["survey.keys"],
            "survey.checkpoint_bytes": c["survey.checkpoint_bytes"],
        }

    def write(self, path: str, header: dict):
        """Write the header, the per-group totals and every span (gzip JSON)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        body = dict(header)
        body["groups"] = {
            g: {"calls": self.calls[g], "covered_s": self.covered[g], "self_s": self.self_time[g]}
            for g in sorted(self.calls)
        }
        body["counts"] = dict(sorted(self.counts.items()))
        body["span_fields"] = ["id", "parent", "request", "group", "start", "end"]
        body["spans"] = self.spans
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(body, fh, separators=(",", ":"))
