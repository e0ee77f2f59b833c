"""Corpus-scale classification of cospectral / coinvariant / codeterminantal mates.

Keys are canonical text renderings (never hashes), bucketing is exact key
equality, and the worker-pool map keeps input order so reports are
byte-identical regardless of worker count.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import graphs
from .grobner import QX, Ideal
from .polyring import poly_str
from .profiles import IdealProfile, determinantal_ideals, evaluate_profile, variety
from .smith import char_poly, snf_integer

MODES = ("cospectral", "coinvariant", "codet-Q", "codet-Z")

LARGE_CORPUS_THRESHOLD = 20000  # anything n >= 9 sized needs the explicit flag


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


def invariant_key(g: graphs.Graph, kind: str, mode: str) -> str:
    """The canonical key text of one graph matrix in one survey mode."""
    if mode == "cospectral":
        p = char_poly(graphs.build_matrix(g, kind))
        return "charpoly:" + ",".join(str(c) for c in p.coeffs)
    if mode == "coinvariant":
        snf = snf_integer(graphs.build_matrix(g, kind))
        return "snf:" + ",".join(str(f) for f in snf.diagonal())
    if mode == "codet-Q":
        return _profile_text(determinantal_ideals(g, kind, "Qx"))
    if mode == "codet-Z":
        return _profile_text(determinantal_ideals(g, kind, "Zx"))
    raise ValueError(f"unknown survey mode {mode!r}")


def _worker(args: tuple[graphs.Graph, str, str]) -> str:
    return invariant_key(*args)


def default_workers() -> int:
    return os.cpu_count() or 1


def _compute_keys(
    corpus: Sequence[graphs.Graph],
    kind: str,
    mode: str,
    workers: int,
    checkpoint_path: str | None = None,
    g6s: Sequence[str] = (),
    checkpoint_every: int = 1000,
) -> list[str]:
    """Keys for every graph (workers receive the `Graph`), in input order;
    optionally streamed to a JSONL checkpoint naming each graph by `g6s`."""
    tasks = [(g, kind, mode) for g in corpus]
    if workers <= 1 or len(tasks) < 4:
        stream = map(_worker, tasks)
        pool = None
    else:
        pool = multiprocessing.Pool(workers)
        stream = pool.imap(_worker, tasks, chunksize=max(1, len(tasks) // (workers * 8)))
    keys: list[str] = []
    try:
        if checkpoint_path:
            with open(checkpoint_path, "w", encoding="utf-8") as fh:
                for g6, key in zip(g6s, stream, strict=True):
                    keys.append(key)
                    fh.write(json.dumps({"graph": g6, "key_digest_input": key}) + "\n")
                    if len(keys) % checkpoint_every == 0:
                        fh.flush()
        else:
            keys.extend(stream)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return keys


def _validate_corpus(corpus: Sequence[graphs.Graph]) -> int:
    if not corpus:
        raise ValueError("empty corpus")
    n = corpus[0].n
    seen: set[graphs.Graph] = set()
    for g in corpus:
        if g.n != n:
            raise ValueError("corpus mixes vertex counts")
        if not graphs.is_connected(g):
            raise graphs.DisconnectedGraphError(
                f"disconnected graph in corpus: {graphs.write_graph6(g)}"
            )
        if g in seen:
            raise ValueError(f"repeated graph in corpus: {graphs.write_graph6(g)}")
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


def run_survey(
    corpus: Iterable[graphs.Graph],
    kind: str,
    mode: str,
    workers: int | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 1000,
) -> SurveyReport:
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be a positive integer")
    corpus = list(corpus)
    n = _validate_corpus(corpus)
    if workers is None:
        workers = default_workers()
    g6s = [graphs.write_graph6(g) for g in corpus]
    keys = _compute_keys(corpus, kind, mode, workers,
                         checkpoint_path=checkpoint_path, g6s=g6s,
                         checkpoint_every=checkpoint_every)

    buckets = tuple(sorted(
        (key, tuple(g6s[i] for i in ids)) for key, ids in _classes(keys).items() if len(ids) >= 2
    ))
    return SurveyReport(n, kind, mode, len(corpus), _with_mate(keys), buckets)


def verify_determined_by(
    corpus: Iterable[graphs.Graph], target: graphs.Graph, kind: str, mode: str,
    workers: int | None = None,
) -> bool:
    """True iff the target's invariant bucket inside the corpus is a singleton."""
    corpus = list(corpus)
    _validate_corpus(corpus)
    key = invariant_key(target, kind, mode)
    keys = _compute_keys(corpus, kind, mode,
                         workers if workers is not None else default_workers())
    matches = keys.count(key)
    if matches == 0:
        raise ValueError("target graph is not in the corpus class")
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
