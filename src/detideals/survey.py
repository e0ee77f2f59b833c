"""Corpus-scale classification of cospectral / coinvariant / codeterminantal mates.

Keys are canonical text renderings (never hashes), bucketing is exact key
equality, and the worker-pool map keeps input order so reports are
byte-identical regardless of worker count.

The codet modes key in two stages.  Stage 1 gives every graph a cheap
`prefilter_key`; stage 2 computes the real key only for the graphs whose
prefilter class has two or more members.  Equal real keys imply equal
prefilter keys, so a graph alone in its prefilter class has no codet mate,
and the buckets, `with_mate` and `total` are those of the real keys:

* codet-Q: the prefilter key is the characteristic polynomial.  The codet-Q
  key holds Delta_n of x*I - M, which is det(x*I - M).
* codet-Z: the characteristic polynomial again (I_n is generated by it), and
  SNF(c*I - M) for c in `PREFILTER_SHIFTS`.  Evaluation at x = c is a ring
  map that sends I_k onto (Delta_k(c*I - M)), so equal Z[x] ideals give
  equal integer SNFs at every c.

Both stages share one pool, closed and reaped before `run_survey` returns.
A checkpoint has one line per graph in input order: the real key of a graph
that got one, the prefilter key (behind `PREFILTER_PREFIX`, which no real key
has) of a pruned graph.  The file is line-buffered, so each line reaches it
whole as soon as its key is known (a pruned line as soon as the survivor
before it is done), and a killed survey leaves every finished line.
`invariant_key`, `verify_determined_by` and `cross_check` compute the real
key of every graph; they are the oracle of the two stages.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import graphs
from .grobner import QX, Ideal
from .polyring import poly_str
from .profiles import IdealProfile, determinantal_ideals, evaluate_profile, variety
from .smith import char_poly, snf_integer

MODES = ("cospectral", "coinvariant", "codet-Q", "codet-Z")

LARGE_CORPUS_THRESHOLD = 20000  # anything n >= 9 sized needs the explicit flag

PREFILTER_PREFIX = "prefilter:"
PREFILTER_SHIFTS = (0, 1, -1)  # the c of SNF(c*I - M) in a codet-Z prefilter key


@dataclass(frozen=True)
class SurveyReport:
    n: int
    kind: str
    mode: str
    total: int
    with_mate: int
    buckets: tuple[tuple[str, tuple[str, ...]], ...]  # only buckets of size >= 2

    def csv_row(self) -> str:
        return f"{self.n},{self.kind},{self.mode},{self.total},{self.with_mate}"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "matrix": self.kind,
            "mode": self.mode,
            "total": self.total,
            "with_mate": self.with_mate,
            "buckets": [{"key": k, "graphs": list(gs)} for k, gs in self.buckets],
        }


CSV_HEADER = "n,matrix,mode,total,with_mate"


def _profile_text(profile: IdealProfile) -> str:
    """Key of a Q[x] profile (its Delta_k) or a Z[x] profile (its canonical
    bases); the Z[x] basis is unique per ideal, so equal keys mean equal ideals."""
    if profile.ring.kind == "Qx":
        return "deltaQ:" + ";".join(",".join(i.basis_strings()) for i in profile.ideals)
    return "idealsZ:" + ";".join(
        f"k={k}:[" + ",".join(ideal.basis_strings()) + "]"
        for k, ideal in enumerate(profile.ideals, start=1)
    )


def _charpoly_text(m: list[list[int]]) -> str:
    return "charpoly:" + ",".join(str(c) for c in char_poly(m).coeffs)


def _snf_text(m: list[list[int]]) -> str:
    return ",".join(str(f) for f in snf_integer(m).diagonal())


def invariant_key(g: graphs.Graph, kind: str, mode: str) -> str:
    """The canonical key text of one graph matrix in one survey mode."""
    if mode == "cospectral":
        return _charpoly_text(graphs.build_matrix(g, kind))
    if mode == "coinvariant":
        return "snf:" + _snf_text(graphs.build_matrix(g, kind))
    if mode == "codet-Q":
        return _profile_text(determinantal_ideals(g, kind, "Qx"))
    if mode == "codet-Z":
        return _profile_text(determinantal_ideals(g, kind, "Zx"))
    raise graphs.InputError(f"unknown survey mode {mode!r}")


def prefilter_key(g: graphs.Graph, kind: str, mode: str) -> str:
    """The stage-1 key of a codet survey: the characteristic polynomial, and
    in codet-Z mode also SNF(c*I - M) for each c in `PREFILTER_SHIFTS`."""
    m = graphs.build_matrix(g, kind)
    key = PREFILTER_PREFIX + _charpoly_text(m)
    if mode == "codet-Z":
        for c in PREFILTER_SHIFTS:
            shifted = [[(c if i == j else 0) - v for j, v in enumerate(row)]
                       for i, row in enumerate(m)]
            key += f";snf@{c}:" + _snf_text(shifted)
    return key


def default_workers() -> int:
    return os.cpu_count() or 1


@contextlib.contextmanager
def _key_map(kind: str, mode: str, workers: int, count: int):
    """Yield keys(fn, graphs), an iterator over fn(g, kind=kind, mode=mode) in
    input order.  With two or more workers and a corpus of `count` >= 4 graphs,
    every call runs on one pool (workers receive the `Graph`), closed and
    reaped when the context exits."""
    if workers <= 1 or count < 4:
        yield lambda fn, corpus: map(functools.partial(fn, kind=kind, mode=mode), corpus)
        return
    pool = multiprocessing.Pool(workers)
    try:
        yield lambda fn, corpus: pool.imap(functools.partial(fn, kind=kind, mode=mode), corpus,
                                           chunksize=max(1, len(corpus) // (workers * 8)))
    finally:
        pool.close()
        pool.join()


def _prefiltered_keys(corpus: Sequence[graphs.Graph],
                      keys: Callable[..., Iterator[str]]) -> Iterator[str]:
    """In input order, the real key of every graph whose prefilter class has
    two or more members, and the prefilter key of every other graph; each
    prefilter key is yielded as soon as the real key before it."""
    pre = list(keys(prefilter_key, corpus))
    survivors = {i for ids in _classes(pre).values() if len(ids) >= 2 for i in ids}
    real = keys(invariant_key, [g for i, g in enumerate(corpus) if i in survivors])
    for i, key in enumerate(pre):
        yield next(real) if i in survivors else key


def _collect(stream: Iterable[str], g6s: Sequence[str], checkpoint_path: str | None) -> list[str]:
    """The keys of `stream`; optionally written to a JSONL checkpoint naming
    each graph by `g6s`.  The file is line-buffered, so each line reaches it
    whole as soon as its key is known."""
    if not checkpoint_path:
        return list(stream)
    keys: list[str] = []
    with open(checkpoint_path, "w", buffering=1, encoding="utf-8") as fh:
        for g6, key in zip(g6s, stream, strict=True):
            keys.append(key)
            fh.write(json.dumps({"graph": g6, "key_digest_input": key}) + "\n")
    return keys


def _validate_corpus(corpus: Sequence[graphs.Graph]) -> int:
    if not corpus:
        raise graphs.InputError("empty corpus")
    n = corpus[0].n
    seen: set[graphs.Graph] = set()
    for g in corpus:
        if g.n != n:
            raise graphs.InputError("corpus mixes vertex counts")
        if not graphs.is_connected(g):
            raise graphs.DisconnectedGraphError(
                f"disconnected graph in corpus: {graphs.write_graph6(g)}"
            )
        if g in seen:
            raise graphs.InputError(f"repeated graph in corpus: {graphs.write_graph6(g)}")
        seen.add(g)
    return n


def _classes(keys: Sequence[str]) -> dict[str, list[int]]:
    """The indices of the graphs sharing each key, in input order."""
    classes: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    return classes


def _with_mate(keys: Sequence[str]) -> int:
    return sum(len(ids) for ids in _classes(keys).values() if len(ids) >= 2)


def _checked_workers(kind: str, mode: str, workers: int | None) -> int:
    """The worker count, `default_workers()` if None.  InputError, before any
    checkpoint is opened or pool started, for an unknown kind or mode or
    workers < 1."""
    if kind not in graphs.MATRIX_KINDS:
        raise graphs.InputError(f"unknown matrix kind {kind!r}")
    if mode not in MODES:
        raise graphs.InputError(f"unknown survey mode {mode!r}")
    if workers is None:
        return default_workers()
    if workers < 1:
        raise graphs.InputError("workers must be a positive integer")
    return workers


def run_survey(
    corpus: Iterable[graphs.Graph],
    kind: str,
    mode: str,
    workers: int | None = None,
    checkpoint_path: str | None = None,
) -> SurveyReport:
    workers = _checked_workers(kind, mode, workers)
    corpus = list(corpus)
    n = _validate_corpus(corpus)
    g6s = [graphs.write_graph6(g) for g in corpus]
    with _key_map(kind, mode, workers, len(corpus)) as keys:
        if mode in ("codet-Q", "codet-Z"):
            stream = _prefiltered_keys(corpus, keys)
        else:
            stream = keys(invariant_key, corpus)
        # a pruned graph's prefilter key is alone in its class, so it joins no bucket
        found = _collect(stream, g6s, checkpoint_path)
    return _report(n, kind, mode, g6s, found)


def _report(n: int, kind: str, mode: str, g6s: Sequence[str], keys: Sequence[str]) -> SurveyReport:
    buckets = tuple(sorted(
        (key, tuple(g6s[i] for i in ids)) for key, ids in _classes(keys).items() if len(ids) >= 2
    ))
    return SurveyReport(n, kind, mode, len(keys), sum(len(gs) for _, gs in buckets), buckets)


def verify_determined_by(
    corpus: Iterable[graphs.Graph], target: graphs.Graph, kind: str, mode: str,
    workers: int | None = None,
) -> bool:
    """True iff the target's invariant bucket inside the corpus is a singleton."""
    workers = _checked_workers(kind, mode, workers)
    corpus = list(corpus)
    _validate_corpus(corpus)
    key = invariant_key(target, kind, mode)
    with _key_map(kind, mode, workers, len(corpus)) as keys:
        matches = list(keys(invariant_key, corpus)).count(key)
    if matches == 0:
        raise graphs.InputError("target graph is not in the corpus class")
    return matches == 1


# ---------------------------------------------------------------------------
# full-corpus consistency diagnostics


@dataclass(frozen=True)
class CrossCheckReport:
    n: int
    kind: str
    total: int
    cospectral_with_mate: int
    coinvariant_with_mate: int
    codet_q_with_mate: int
    codet_z_with_mate: int
    cospectral_equals_codet_q: bool
    coinvariant_equals_eval0: bool
    codet_z_refines_all: bool
    codet_q_equals_varieties: bool
    witness: str | None

    @property
    def ok(self) -> bool:
        return (
            self.cospectral_equals_codet_q
            and self.coinvariant_equals_eval0
            and self.codet_z_refines_all
            and self.codet_q_equals_varieties
        )


def _qx_profile_of(zprofile: IdealProfile) -> IdealProfile:
    """The Q[x] profile generated by a Z[x] profile's canonical bases: the
    monic gcd of I_k's basis over Q is Delta_k, found from minors and Groebner
    bases without the characteristic polynomial."""
    ideals = tuple(Ideal(QX, ideal.canonical_basis()) for ideal in zprofile.ideals)
    return IdealProfile(zprofile.graph6, zprofile.kind, QX, ideals)


def cross_check(corpus: Iterable[graphs.Graph], kind: str) -> CrossCheckReport:
    """Assert the partition relations the theory demands on a whole corpus:
    cospectral == codet-Q, coinvariant == eval-at-0 of codet-Z, codet-Z refines
    both, and codet-Q == equal-per-k-varieties.  The codet-Q side is built from
    the Z[x] bases, so it is independent of the characteristic polynomial."""
    corpus = list(corpus)
    n = _validate_corpus(corpus)
    g6s = [graphs.write_graph6(g) for g in corpus]
    spectrum = []
    coinv = []
    qkeys = []
    varkeys = []
    zkeys = []
    eval0 = []
    for g in corpus:
        spectrum.append(invariant_key(g, kind, "cospectral"))
        coinv.append(invariant_key(g, kind, "coinvariant"))
        zprofile = determinantal_ideals(g, kind, "Zx")
        zkeys.append(_profile_text(zprofile))
        qprofile = _qx_profile_of(zprofile)
        qkeys.append(_profile_text(qprofile))
        vparts = []
        for k in range(1, g.n + 1):
            v = variety(qprofile, k)
            vparts.append(v.status if v.status != "roots" else poly_str(v.squarefree))
        varkeys.append(";".join(vparts))
        eval0.append(",".join(str(d) for d in evaluate_profile(zprofile, 0)))

    witness = None

    def refines(fine, coarse):
        nonlocal witness
        for first, *rest in _classes(fine).values():
            for j in rest:
                if coarse[j] != coarse[first]:
                    witness = witness or f"{g6s[first]} vs {g6s[j]}"
                    return False
        return True

    def partitions_equal(a, b):
        return refines(a, b) and refines(b, a)

    a = partitions_equal(spectrum, qkeys)
    b = partitions_equal(coinv, eval0)
    c = refines(zkeys, spectrum) and refines(zkeys, coinv)
    d = partitions_equal(qkeys, varkeys)
    return CrossCheckReport(
        n=n,
        kind=kind,
        total=len(corpus),
        cospectral_with_mate=_with_mate(spectrum),
        coinvariant_with_mate=_with_mate(coinv),
        codet_q_with_mate=_with_mate(qkeys),
        codet_z_with_mate=_with_mate(zkeys),
        cospectral_equals_codet_q=a,
        coinvariant_equals_eval0=b,
        codet_z_refines_all=c,
        codet_q_equals_varieties=d,
        witness=witness,
    )
