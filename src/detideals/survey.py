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

Pooled keys run on one process-wide pool (`_key_map`): the first pooled
survey starts it, later ones with the same worker count reuse it, and it is
closed and reaped at interpreter exit.  Its workers are forked when it
starts, so they see module state (patched functions, caches) as of then.
The pool (`_WorkerPool`) runs no helper thread: each worker has its own
pipe, and the surveying thread sends the chunks and reads the keys itself.
An exception of a key function is raised in the surveying thread with its
type, and a worker that dies raises RuntimeError there instead of stalling
the survey; either terminates the pool.
A checkpoint has one line per graph in input order: the real key of a graph
that got one, the prefilter key (behind `PREFILTER_PREFIX`, which no real key
has) of a pruned graph.  The file is line-buffered, so each line reaches it
whole as soon as its key is known (a pruned line as soon as the survivor
before it is done), and a killed survey leaves every finished line.
`invariant_key`, `verify_determined_by` and `cross_check` compute the real
key of every graph; they are the oracle of the two stages.
A graph is encoded as graph6 only where it is written: on its checkpoint
line, as a report's bucket member, or as the witness of `cross_check`.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import json
import multiprocessing
import os
import pickle
import signal
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import graphs
from .grobner import QX, Ideal
from .polyring import poly_str
from .profiles import IdealProfile, determinantal_ideals, evaluate_profile, variety
from .smith import char_poly, snf_integer

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

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


def _serve(conn, inherited) -> None:
    """A pool worker: read (fn, graphs) chunks from `conn` until None or EOF,
    and send back (True, keys) or (False, exception) for each, with the
    worker's traceback added to the exception as a note; an exception the
    parent could not unpickle comes back as a RuntimeError holding its repr.
    The worker first closes the parent's ends of the pipes it inherited, so
    that the parent's death reaches every worker as EOF, and ignores SIGINT,
    which a terminal sends to the whole process group: the parent alone
    decides what an interrupt stops."""
    import traceback  # here, not at the top: it adds to every import of detideals

    for other in inherited:
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv_bytes()
        except EOFError:
            return
        try:
            task = pickle.loads(task)
            if task is None:
                return
            fn, chunk = task
            result = True, [fn(g) for g in chunk]
        except Exception as exc:
            exc.add_note("".join(traceback.format_exception(exc)).rstrip())
            result = False, exc
        try:
            payload = pickle.dumps(result)
            if not result[0]:
                pickle.loads(payload)  # the parent must be able to rebuild it
        except Exception:
            payload = pickle.dumps((False, RuntimeError(repr(result[1]))))
        conn.send_bytes(payload)


class _WorkerPool:
    """`size` workers forked (by the platform's default start method) with
    one duplex pipe each.  The parent's main thread does all the work of the
    pool: it sends every chunk and reads every result itself, through
    `multiprocessing.connection.wait`, so no helper thread runs and a dead
    worker is seen as the EOF of its pipe."""

    def __init__(self, size: int):
        self.size = size
        self.procs: list[multiprocessing.Process] = []
        self.conns: list[Connection] = []
        self.busy: dict[Connection, int] = {}  # worker -> index of its chunk in flight
        for _ in range(size):
            conn, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_serve, args=(child, self.conns + [conn]),
                                           daemon=True)
            proc.start()
            child.close()
            self.procs.append(proc)
            self.conns.append(conn)

    def imap(self, fn: Callable, items: Sequence) -> Iterator:
        """fn(item) for every item, in input order, from chunks of
        max(1, len(items) // (size * 8)) items.  At most one chunk is in
        flight per worker, and a worker gets its next chunk as soon as its
        result is read, before any key is yielded.  An exception of fn is
        raised here with its type; a dead worker raises RuntimeError.  Either
        leaves chunks in flight, and the pool must then be terminated."""
        from multiprocessing.connection import wait  # loaded by the Pipe calls of __init__

        if self.busy:
            raise RuntimeError("another map of this pool has chunks in flight")
        step = max(1, len(items) // (self.size * 8))
        chunks = [items[i:i + step] for i in range(0, len(items), step)]
        sent = 0
        done: dict[int, list] = {}

        def send(conn: Connection) -> None:
            nonlocal sent
            if sent < len(chunks):
                try:
                    conn.send((fn, chunks[sent]))
                except OSError as exc:
                    raise RuntimeError("a survey pool worker has exited") from exc
                self.busy[conn] = sent
                sent += 1

        for conn in self.conns:
            send(conn)
        for index in range(len(chunks)):
            while index not in done:
                for conn in wait(list(self.busy)):
                    try:
                        ok, value = pickle.loads(conn.recv_bytes())
                    except (EOFError, OSError) as exc:
                        raise RuntimeError("a survey pool worker has exited") from exc
                    chunk = self.busy.pop(conn)
                    if not ok:
                        raise value
                    done[chunk] = value
                    send(conn)
            yield from done.pop(index)

    def close(self, terminate: bool = False) -> None:
        """Stop the workers, at once if `terminate` or if chunks are in
        flight, else after their last chunk; reap them and close every pipe."""
        for proc, conn in zip(self.procs, self.conns):
            if terminate or self.busy:
                proc.terminate()
            else:
                with contextlib.suppress(OSError):
                    conn.send(None)
        for proc in self.procs:
            proc.join()
        for conn in self.conns:
            conn.close()
        self.busy.clear()


_pool: _WorkerPool | None = None  # see _key_map


def _shared_pool(workers: int) -> _WorkerPool:
    """The process-wide pool of `workers` workers, started if there is none;
    a pool of another size is closed and reaped first."""
    global _pool
    if _pool is not None and _pool.size != workers:
        _close_pool()
    if _pool is None:
        _pool = _WorkerPool(workers)
        # atexit runs its handlers last in, first out: registered after
        # multiprocessing's own exit handler, _close_pool reaps the workers
        # before that one would terminate them
        atexit.unregister(_close_pool)
        atexit.register(_close_pool)
    return _pool


def _close_pool(terminate: bool = False) -> None:
    """Close, or terminate with its chunks in flight, and reap the
    process-wide pool, if any; also run at interpreter exit."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool, None
        pool.close(terminate)


@contextlib.contextmanager
def _key_map(kind: str, mode: str, workers: int, count: int):
    """Yield keys(fn, graphs), an iterator over fn(g, kind=kind, mode=mode) in
    input order.  With two or more workers and a corpus of `count` >= 4 graphs,
    every call runs on the process-wide pool of `_shared_pool` (workers
    receive the `Graph`), which outlives the context: every later pooled
    survey with the same worker count reuses it.  The pool runs no helper
    thread: the caller's thread sends the chunks and reads the keys while it
    iterates.  The workers are forked when the pool starts and see module
    state as of then; the pool is shared, so two threads must not run pooled
    surveys at once.  A context left by an exception (KeyboardInterrupt and
    GeneratorExit too, and the RuntimeError of a dead worker) or with chunks
    still in flight terminates the pool, and the next pooled survey starts a
    new one."""
    if workers <= 1 or count < 4:
        yield lambda fn, corpus: map(functools.partial(fn, kind=kind, mode=mode), corpus)
        return
    pool = _shared_pool(workers)
    try:
        yield lambda fn, corpus: pool.imap(functools.partial(fn, kind=kind, mode=mode), corpus)
    except BaseException:
        _close_pool(terminate=True)
        raise
    if pool.busy:
        _close_pool(terminate=True)


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


def _collect(stream: Iterable[str], corpus: Sequence[graphs.Graph],
             checkpoint_path: str | None) -> list[str]:
    """The keys of `stream`, one per graph of `corpus`; optionally written to
    a JSONL checkpoint naming each graph by its graph6 string, encoded as its
    line is written.  The file is line-buffered, so each line reaches it
    whole as soon as its key is known."""
    if not checkpoint_path:
        return list(stream)
    keys: list[str] = []
    with open(checkpoint_path, "w", buffering=1, encoding="utf-8") as fh:
        for g, key in zip(corpus, stream, strict=True):
            keys.append(key)
            fh.write(json.dumps({"graph": graphs.write_graph6(g), "key_digest_input": key}) + "\n")
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
    with _key_map(kind, mode, workers, len(corpus)) as keys:
        if mode in ("codet-Q", "codet-Z"):
            stream = _prefiltered_keys(corpus, keys)
        else:
            stream = keys(invariant_key, corpus)
        # a pruned graph's prefilter key is alone in its class, so it joins no bucket
        found = _collect(stream, corpus, checkpoint_path)
    return _report(n, kind, mode, corpus, found)


def _report(n: int, kind: str, mode: str, corpus: Sequence[graphs.Graph],
            keys: Sequence[str]) -> SurveyReport:
    """The report of the keys of `corpus`; only bucket members are encoded."""
    buckets = tuple(sorted(
        (key, tuple(graphs.write_graph6(corpus[i]) for i in ids))
        for key, ids in _classes(keys).items() if len(ids) >= 2
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
                    witness = witness or " vs ".join(
                        graphs.write_graph6(corpus[i]) for i in (first, j))
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
