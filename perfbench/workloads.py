"""The three benchmark workloads: seeded inputs, one timed batch, exact checks.

Every workload calls detideals only through module attributes looked up at
call time (``survey.run_survey``, ``profiles.multivariate_ideals``), so the
tracer's wrappers see the calls.

table1-n7    Table 1's n=7 row for all four matrix kinds: codet-Q over the whole
             corpus, codet-Z over the codet-Q mates, plus cospectral and
             coinvariant (Tables 2 and 3).  Exercises snf_poly_q, gcd_poly_q,
             minor_tables over UniPoly, the Groebner engine over Z[x] and the
             codet-Z bucket confirmation with the Ideal.equal guard.
spectra-n9   Seeded random connected 9-vertex graphs through cospectral and
             coinvariant surveys with checkpoint files: many cheap keys, so the
             pool, graph6 coding, matrices, char_poly and snf_integer dominate.
             Never touches the Groebner engine, minors or Q[x] arithmetic.
critical-n6  Critical / distance ideals over Z[x0..x_{n-1}] one graph at a time,
             in-process: Groebner over Z[X] and minor_tables over MultiPoly,
             bypassing survey, the pool and Q arithmetic.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

from detideals import graphs, profiles, smith, survey
from detideals.suites import KINDS, TABLE1, TABLE2, TABLE3


@dataclass
class Batch:
    """Outputs of one pass over a workload's inputs."""

    outputs: dict
    items: int
    latencies_ms: list[float] = field(default_factory=list)

    def mean_latencies(self, t0: float):
        """Survey keys are computed in pool workers, out of sight, so each
        key's latency sample is the batch's mean time per key (started at t0)."""
        per_key = 1000.0 * (perf_counter() - t0) / self.items
        self.latencies_ms = [per_key] * self.items


def clear_graph_caches():
    """Drop every functools cache the graphs module holds, so a set-up pays
    for enumeration the way a fresh process does."""
    for value in vars(graphs).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


@contextlib.contextmanager
def cpus_in_turn(period: float = 0.5):
    """Yield turn(), which moves this process to the next of its allowed CPUs
    once `period` seconds have passed since the last move; the allowed set is
    restored on exit.  On a shared host each CPU's speed swings on its own, and
    the scheduler keeps a busy serial loop on one CPU, so without turns a run
    rides that one CPU's swings.  Moving on every item instead costs about a
    tenth of the run in cold caches."""
    if not hasattr(os, "sched_setaffinity"):
        yield lambda: None
        return
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    moves = [0, -period]  # moves made, time of the last one

    def turn():
        now = perf_counter()
        if now - moves[1] >= period:
            os.sched_setaffinity(0, {cpus[moves[0] % len(cpus)]})
            moves[:] = [moves[0] + 1, now]

    try:
        yield turn
    finally:
        os.sched_setaffinity(0, allowed)


def relabel(g: graphs.Graph, rng: random.Random) -> graphs.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graphs.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _survey(batch: Batch, corpus, kind: str, mode: str, workers: int, **kwargs):
    report = survey.run_survey(corpus, kind, mode, workers=workers, **kwargs)
    batch.items += report.total
    batch.outputs[kind, mode] = report


class Workload:
    name = ""
    sizes: dict = {}
    pooled = True  # runs surveys, so the worker count matters

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = self.sizes[size]
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def graph6_list(self, inputs) -> list[str]:
        raise NotImplementedError

    def batches(self, inputs) -> list:
        """The inputs of each batch in turn (by default one, the whole set);
        a run measures every one of them at least once."""
        return [inputs]

    def trace_inputs(self, inputs):
        """The inputs of the serial traced pass (by default the whole batch)."""
        return inputs

    def run(self, inputs, workers: int, tracer=None) -> Batch:
        raise NotImplementedError

    def check(self, inputs, batch: Batch, first: bool) -> int:
        """Number of wrong items in the batch; `first` adds the costly checks."""
        raise NotImplementedError

    def same_outputs(self, a: Batch, b: Batch) -> bool:
        return a.outputs == b.outputs


# ---------------------------------------------------------------------------
# table1-n7


@dataclass
class Corpora:
    by_kind: dict  # kind -> tuple of graphs
    sample: bool = False


class Table1(Workload):
    name = "table1-n7"
    sizes = {"full": 7, "tiny": 6}

    def setup(self) -> Corpora:
        clear_graph_caches()
        rng = random.Random(self.seed)
        corpus = [relabel(g, rng) for g in graphs.enumerate_connected(self.size)]
        rng.shuffle(corpus)
        corpus = tuple(corpus)
        return Corpora({kind: corpus for kind in KINDS})

    def graph6_list(self, inputs: Corpora) -> list[str]:
        return [f"{kind}:{graphs.write_graph6(g)}"
                for kind in KINDS for g in inputs.by_kind[kind]]

    def trace_inputs(self, inputs: Corpora) -> Corpora:
        """A seeded sixth of each kind's corpus, drawn as whole cospectral
        classes so that the codet-Z phase and its bucket check still run;
        the full row is too slow to run serially twice."""
        rng = random.Random(self.seed + 1)
        by_kind = {}
        for kind in KINDS:
            classes: dict[tuple, list] = {}
            for g in inputs.by_kind[kind]:
                p = smith.char_poly(graphs.build_matrix(g, kind))
                classes.setdefault(p.coeffs, []).append(g)
            groups = list(classes.values())
            mated = [c for c in groups if len(c) > 1]
            keep = [c for c in groups if rng.random() < 1 / 6]
            if mated and not any(len(c) > 1 for c in keep):
                keep.append(rng.choice(mated))
            by_kind[kind] = tuple(g for c in keep for g in c)
        return Corpora(by_kind, sample=True)

    def run(self, inputs: Corpora, workers: int, tracer=None) -> Batch:
        t0 = perf_counter()
        batch = Batch({}, 0)
        for kind in KINDS:
            _survey(batch, inputs.by_kind[kind], kind, "codet-Q", workers)
        for kind in KINDS:
            mates = [graphs.parse_graph6(g6)
                     for _, members in batch.outputs[kind, "codet-Q"].buckets for g6 in members]
            if mates:
                _survey(batch, mates, kind, "codet-Z", workers)
        for mode in ("cospectral", "coinvariant"):
            for kind in KINDS:
                _survey(batch, inputs.by_kind[kind], kind, mode, workers)
        batch.mean_latencies(t0)
        return batch

    def check(self, inputs: Corpora, batch: Batch, first: bool) -> int:
        out = batch.outputs
        failed = 0
        for i, kind in enumerate(KINDS):
            q = out[kind, "codet-Q"]
            z = out.get((kind, "codet-Z"))
            if inputs.sample:
                # cospectral classes are exactly the codet-Q classes, and
                # codet-Z refines codet-Q
                ok = {b for _, b in out[kind, "cospectral"].buckets} == {b for _, b in q.buckets}
                qsets = [set(b) for _, b in q.buckets]
                ok_z = z is None or all(any(set(b) <= s for s in qsets) for _, b in z.buckets)
                failed += 0 if ok else q.total
                failed += 0 if ok_z else z.total
                continue
            n = self.size
            want = {
                "codet-Q": TABLE1[n][kind][0],
                "codet-Z": TABLE1[n][kind][1],
                "cospectral": TABLE2[n][i],
                "coinvariant": TABLE3[n][i],
            }
            for mode, expected in want.items():
                report = out.get((kind, mode))
                got = report.with_mate if report is not None else 0
                if got != expected:
                    failed += report.total if report is not None else q.with_mate
        return failed


# ---------------------------------------------------------------------------
# spectra-n9


class Spectra(Workload):
    name = "spectra-n9"
    sizes = {"full": (9, 600, 4), "tiny": (7, 12, 1)}  # vertices, graphs, oracle samples

    def setup(self) -> tuple:
        n, count, _ = self.size
        rng = random.Random(self.seed)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        seen: dict[graphs.Graph, graphs.Graph] = {}
        while len(seen) < count:
            density = rng.uniform(0.2, 0.8)
            g = graphs.Graph.from_edges(n, [e for e in pairs if rng.random() < density])
            if graphs.is_connected(g):
                seen.setdefault(graphs.canonical_graph(g), g)
        return tuple(seen.values())

    def graph6_list(self, inputs: tuple) -> list[str]:
        return [graphs.write_graph6(g) for g in inputs]

    def _checkpoint(self, kind: str, mode: str) -> str:
        return os.path.join(self.workdir, f"{kind}.{mode}.jsonl")

    def run(self, inputs: tuple, workers: int, tracer=None) -> Batch:
        t0 = perf_counter()
        batch = Batch({}, 0)
        for kind in KINDS:
            for mode in ("cospectral", "coinvariant"):
                _survey(batch, inputs, kind, mode, workers,
                              checkpoint_path=self._checkpoint(kind, mode))
        batch.mean_latencies(t0)
        return batch

    def _read_keys(self, kind: str, mode: str, g6s: list[str]) -> list[str] | None:
        """The keys of one checkpoint file, or None if it does not list the
        batch's graphs in order."""
        try:
            with open(self._checkpoint(kind, mode), encoding="utf-8") as fh:
                rows = [json.loads(line) for line in fh]
        except (OSError, ValueError):
            return None
        if [r.get("graph") for r in rows] != g6s:
            return None
        return [r.get("key_digest_input", "") for r in rows]

    def check(self, inputs: tuple, batch: Batch, first: bool) -> int:
        """|charpoly(0)| equals the product of the SNF factors for every graph
        and kind, read back from the checkpoint files; on the first batch a
        seeded sample of SNF keys is also checked against the minor-gcd oracle."""
        n, _, samples = self.size
        g6s = self.graph6_list(inputs)
        failed = 0
        snf_keys = {}
        for kind in KINDS:
            spec = self._read_keys(kind, "cospectral", g6s)
            snfs = self._read_keys(kind, "coinvariant", g6s)
            if spec is None or snfs is None:
                failed += 2 * len(g6s)
                continue
            snf_keys[kind] = snfs
            for a, b in zip(spec, snfs):
                try:
                    c0 = int(a.removeprefix("charpoly:").split(",")[0])
                    diag = [int(x) for x in b.removeprefix("snf:").split(",")]
                except ValueError:
                    failed += 2
                    continue
                if len(diag) != n or abs(c0) != math.prod(diag):
                    failed += 2
        if first:
            rng = random.Random(self.seed + 2)
            for kind in KINDS[:samples]:
                i = rng.randrange(len(inputs))
                m = graphs.build_matrix(inputs[i], kind)
                deltas = [smith.delta_bruteforce(m, k) for k in range(1, n + 1)]
                factors, free = profiles.invariant_factors_from_deltas(deltas)
                want = "snf:" + ",".join(str(f) for f in factors + (0,) * free)
                if kind in snf_keys and snf_keys[kind][i] != want:
                    failed += 1
        return failed


# ---------------------------------------------------------------------------
# critical-n6


class Critical(Workload):
    """Each batch is the whole corpus under one seeded labelling; a run measures
    every labelling once.  The cost of a Groebner basis depends on the variable
    order, so one graph can take 0.5 s under one labelling and 7 s under
    another; more than one labelling per run keeps that from swinging the run."""

    name = "critical-n6"
    pooled = False
    # distance ideals up to n, critical ideals up to n, labellings per run
    sizes = {"full": (5, 6, 2), "tiny": (3, 4, 2)}

    def setup(self) -> tuple:
        clear_graph_caches()
        dist_n, crit_n, labellings = self.size
        rng = random.Random(self.seed)
        corpus = [(g, kind) for n in range(1, crit_n + 1)
                  for kind in (("adjacency", "distance") if n <= dist_n else ("adjacency",))
                  for g in graphs.enumerate_connected(n)]
        return tuple(tuple((relabel(g, rng), kind) for g, kind in corpus)
                     for _ in range(labellings))

    def graph6_list(self, inputs: tuple) -> list[str]:
        return [f"{kind}:{graphs.write_graph6(g)}" for corpus in inputs for g, kind in corpus]

    def batches(self, inputs: tuple) -> list:
        return list(inputs)

    def trace_inputs(self, inputs: tuple) -> tuple:
        return inputs[0]

    def run(self, inputs: tuple, workers: int, tracer=None) -> Batch:
        """Serial and in-process; each profile is timed with its canonical
        bases forced, since Ideal.canonical_basis is lazy."""
        batch = Batch({}, 0)
        with cpus_in_turn() as turn:
            for i, (g, kind) in enumerate(inputs):
                turn()
                with tracer.span("bench.item") if tracer else contextlib.nullcontext():
                    t0 = perf_counter()
                    profile = profiles.multivariate_ideals(g, kind)
                    bases = tuple(ideal.canonical_basis() for ideal in profile.ideals)
                    batch.latencies_ms.append(1000.0 * (perf_counter() - t0))
                batch.outputs[i] = (profile, bases)
                batch.items += 1
        return batch

    def check(self, inputs: tuple, batch: Batch, first: bool) -> int:
        """evaluate_profile at a seeded integer point equals the Delta_k of
        snf_integer(diag(point) - M)."""
        rng = random.Random(self.seed + 3)
        failed = 0
        for i, (g, kind) in enumerate(inputs):
            point = [rng.randint(-3, 3) for _ in range(g.n)]
            m = graphs.build_matrix(g, kind)
            a = [[(point[r] if r == c else 0) - m[r][c] for c in range(g.n)] for r in range(g.n)]
            snf = smith.snf_integer(a)
            want = [snf.delta(k) for k in range(1, g.n + 1)]
            if profiles.evaluate_profile(batch.outputs[i][0], point) != want:
                failed += 1
        return failed

    def same_outputs(self, a: Batch, b: Batch) -> bool:
        return [x[1] for x in a.outputs.values()] == [x[1] for x in b.outputs.values()]


WORKLOADS = {w.name: w for w in (Table1, Spectra, Critical)}
