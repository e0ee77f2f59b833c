"""Corpus-scale classification of cospectral / coinvariant / codeterminantal mates.

Keys are canonical text renderings (never hashes), bucketing is exact key
equality, and the worker-pool map keeps input order so reports are
byte-identical regardless of worker count.

`run_surveys` keys one corpus in several modes; `run_survey` is its one-mode
case, and the only survey that writes a checkpoint.  Stage 1
(`_stage1_keys`) renders each mode's key from one matrix, its
characteristic polynomial and SNF(M), computing each only if a mode needs
it: the real key in cospectral and coinvariant mode, a prefilter in a codet
mode.  Stage 2 computes the real codet key only for the graphs whose
prefilter class has two or more members.  Equal real keys imply equal
prefilter keys, so a graph alone in its prefilter class has no codet mate,
and the buckets, `with_mate` and `total` are those of the real keys:

* codet-Q: the prefilter key is the characteristic polynomial.  The codet-Q
  key holds Delta_n of x*I - M, which is det(x*I - M).  For a symmetric M
  every Delta_k follows from det(x*I - M) alone (`smith.delta_chain`), so
  stage 2 reads a survivor's codet-Q key off its stage-1 key
  (`_codet_q_key`), once per prefilter class, and builds no second matrix
  or characteristic polynomial.
* codet-Z: the characteristic polynomial again (I_n is generated by it), and
  SNF(M), the coinvariant key.  Evaluation at x = 0 is a ring map that sends
  I_k onto (Delta_k(-M)), and SNF(-M) = SNF(M), so equal Z[x] ideals give
  equal integer SNFs.  The stage-1 key is thus the pair (cospectral key,
  coinvariant key).

Pooled keys run on one process-wide pool (`_key_map`), one map for stage 1
and one per codet mode: the first pooled survey starts it, later ones with
the same worker count reuse it, and one with another count terminates it
and starts its own.  Its workers are
forked, daemonic, when it starts, so they see module state (patched
functions, caches) as of then, and multiprocessing terminates and reaps
them at interpreter exit.  Terminating is the only way a pool stops.
The pool (`_WorkerPool`) runs no helper thread: each worker has its own
pipe, a map sends each worker one task holding all of its chunks, and the
surveying thread reads the keys back itself in input order.  An exception
of a key function is raised in the surveying thread with its type, at the
first failing chunk in input order and after every key before it, so a
pooled checkpoint keeps every line before the failing graph, as a serial
one does.  A worker that dies raises RuntimeError there instead of stalling
the survey; either terminates the pool.
A checkpoint, opened after the refusals and corpus checks and before stage 1
or any pool starts, has a line per graph in input order: the real key of a
graph that got one, the prefilter key (behind `PREFILTER_PREFIX`, which no
real key has) of a pruned graph.  The file is line-buffered, so each line
reaches it whole as soon as its key is known (a pruned line as soon as the
survivor before it is done), and a killed survey leaves every finished line.
`invariant_key`, `verify_determined_by` and `cross_check` compute the real
key of every graph; they are the oracle of the two stages.
A graph is encoded as graph6 only where it is written: on its checkpoint
line, as a report's bucket member, or as the witness of `cross_check`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import os
import pickle
import signal
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import graphs
from .grobner import QX, Ideal
from .polyring import RING_Z, UniPoly, poly_str
from .profiles import IdealProfile, determinantal_ideals, evaluate_profile, variety
from .smith import char_poly, delta_chain, snf_integer

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

MODES = ("cospectral", "coinvariant", "codet-Q", "codet-Z")
CODET = ("codet-Q", "codet-Z")

PREFILTER_PREFIX = "prefilter:"


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


def _stage1_keys(g: graphs.Graph, kind: str, modes: Sequence[str]) -> tuple[str, ...]:
    """The stage-1 key text of `g` in each of `modes`, from one matrix: the
    real key in cospectral and coinvariant mode, the prefilter key in a codet
    mode.  `char_poly` and `snf_integer` run only if some mode needs them."""
    m = graphs.build_matrix(g, kind)
    poly = snf = ""
    if any(mode != "coinvariant" for mode in modes):
        poly = "charpoly:" + ",".join(str(c) for c in char_poly(m).coeffs)
    if "coinvariant" in modes or "codet-Z" in modes:
        snf = ",".join(str(f) for f in snf_integer(m).diagonal())
    texts = {"cospectral": poly, "coinvariant": "snf:" + snf, "codet-Q": PREFILTER_PREFIX + poly,
             "codet-Z": PREFILTER_PREFIX + poly + ";snf@0:" + snf}
    return tuple(texts[mode] for mode in modes)


def _codet_q_key(pre: str) -> str:
    """The codet-Q key of a graph from its codet-Q stage-1 key
    `prefilter:charpoly:c0,c1,...`: the `delta_chain` of that characteristic
    polynomial, rendered as `invariant_key` renders the Delta_k it gets from
    the matrix."""
    coeffs = pre.rpartition(":")[2].split(",")
    deltas = delta_chain(UniPoly([int(c) for c in coeffs], RING_Z))
    return "deltaQ:" + ";".join(poly_str(d) for d in deltas)


def invariant_key(g: graphs.Graph, kind: str, mode: str) -> str:
    """The canonical key text of one graph matrix in one survey mode."""
    if mode in ("cospectral", "coinvariant"):
        return _stage1_keys(g, kind, (mode,))[0]
    if mode == "codet-Q":
        return _profile_text(determinantal_ideals(g, kind, "Qx"))
    if mode == "codet-Z":
        return _profile_text(determinantal_ideals(g, kind, "Zx"))
    raise graphs.InputError(f"unknown survey mode {mode!r}")


def default_workers() -> int:
    return os.cpu_count() or 1


def _serve(conn, inherited) -> None:
    """A pool worker: read (fn, chunks) tasks from `conn` until EOF, and send
    back the `_replies` of each.  A task is read whole before anything is
    sent back.  The worker first closes the parent's ends of the pipes it
    inherited, so that the parent's death reaches every worker as EOF, or as
    a broken pipe on its next send, and ignores SIGINT, which a terminal sends
    to the whole process group: the parent alone decides what an interrupt
    stops.  It runs until the parent terminates it or dies, and returns in
    silence at either sign of a dead parent: nothing it sends can reach one."""
    for other in inherited:
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv_bytes()
        except EOFError:
            return
        for reply in _replies(task):
            try:
                conn.send_bytes(reply)
            except OSError:  # a broken pipe: the parent has died
                return


def _replies(task: bytes) -> Iterator[bytes]:
    """The pickled (True, keys) of each chunk of a pickled (fn, chunks) task in
    turn, up to its first exception, pickled as (False, exception) with the
    worker's traceback added as a note.  An exception the parent could not
    unpickle comes back as a RuntimeError holding its repr."""
    import traceback  # here, not at the top: it adds to every import of detideals

    try:
        fn, chunks = pickle.loads(task)
        for chunk in chunks:
            yield pickle.dumps((True, [fn(g) for g in chunk]))
    except Exception as exc:
        exc.add_note("".join(traceback.format_exception(exc)).rstrip())
        try:
            reply = pickle.dumps((False, exc))
            pickle.loads(reply)  # the parent must be able to rebuild it
        except Exception:
            reply = pickle.dumps((False, RuntimeError(repr(exc))))
        yield reply


class _WorkerPool:
    """`size` daemonic workers forked (whatever the platform's default start
    method) with one duplex pipe each.  The parent's main thread does all the
    work of the pool: it sends every task and reads every result itself, so no
    helper thread runs and a dead worker is seen as the EOF of its pipe.  `close`
    terminates the workers; a pool never closed is terminated and reaped by
    multiprocessing's own exit handler, as every daemonic child is."""

    def __init__(self, size: int):
        self.size = size
        self.procs: list[multiprocessing.process.BaseProcess] = []
        self.conns: list[Connection] = []
        self.busy = False  # a map has results left unread
        fork = multiprocessing.get_context("fork")
        for _ in range(size):
            conn, child = fork.Pipe()
            proc = fork.Process(target=_serve, args=(child, self.conns + [conn]), daemon=True)
            proc.start()
            child.close()
            self.procs.append(proc)
            self.conns.append(conn)

    def imap(self, fn: Callable, items: Sequence) -> Iterator:
        """fn(item) for every item, in input order, from chunks of
        max(1, len(items) // (size * 8)) items, chunk c on worker c mod size.
        Each worker that owns a chunk gets all of them in one task, sent before
        any result is read; it writes only once it has read its whole task, so
        no side blocks the other on a full pipe, and the workers compute ahead
        of the reader.  The first failing chunk in input order raises its
        exception here, with its type, after every key before it; a dead
        worker raises RuntimeError.  Either leaves results unread, and the pool
        must then be terminated."""
        if self.busy:
            raise RuntimeError("another map of this pool has chunks in flight")
        step = max(1, len(items) // (self.size * 8))
        chunks = [items[i:i + step] for i in range(0, len(items), step)]
        self.busy = bool(chunks)
        try:
            for w, conn in enumerate(self.conns[:len(chunks)]):
                conn.send((fn, chunks[w::self.size]))
        except OSError as exc:
            raise RuntimeError("a survey pool worker has exited") from exc
        for c in range(len(chunks)):
            try:
                ok, value = pickle.loads(self.conns[c % self.size].recv_bytes())
            except (EOFError, OSError) as exc:
                raise RuntimeError("a survey pool worker has exited") from exc
            if not ok:
                raise value
            # cleared on the read, not after the last yield: a caller may stop
            # at the last key without resuming this generator
            self.busy = c < len(chunks) - 1
            yield from value

    def close(self) -> None:
        """Terminate the workers, whatever they are doing, reap them and close
        every pipe."""
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.join()
        for conn in self.conns:
            conn.close()


_pool: _WorkerPool | None = None  # see _key_map


def _close_pool() -> None:
    """Terminate and reap the process-wide pool, if any."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool, None
        pool.close()


@contextlib.contextmanager
def _key_map(workers: int, count: int):
    """Yield keys(fn, items), an iterator over fn(item) in input order.  With
    two or more workers and a corpus of `count` >= 4 graphs, every call runs
    on the process-wide pool of `workers` workers (workers receive `fn` and
    the items pickled), started here if there is none; a pool of another
    size is terminated first.  The pool outlives the context: every later
    pooled survey with the same worker count reuses it.  It runs no helper
    thread: each call sends the workers their tasks, and the caller's thread
    reads the keys while it iterates.  The workers are forked when the pool
    starts and see module state as of then; the pool is shared, so two
    threads must not run pooled surveys at once.  A context left by an
    exception (KeyboardInterrupt and GeneratorExit too, a key function's
    exception, raised at its first failing chunk in input order, and the
    RuntimeError of a dead worker) or with results still unread terminates
    the pool, and the next pooled survey starts a new one."""
    global _pool
    if workers <= 1 or count < 4:
        yield map
        return
    if _pool is not None and _pool.size != workers:
        _close_pool()
    if _pool is None:
        _pool = _WorkerPool(workers)
    pool = _pool
    try:
        yield pool.imap
    except BaseException:
        _close_pool()
        raise
    if pool.busy:
        _close_pool()


def _prefiltered_keys(pre: Sequence[str], items: Sequence, keys: Callable[..., Iterator[str]],
                      real: Callable) -> Iterator[str]:
    """In input order, real(items[i]) for every graph i whose prefilter class
    in `pre` has two or more members, and its prefilter key for every other
    graph; each prefilter key is yielded as soon as the real key before it.
    Equal items have equal real keys, so `real` runs once per distinct item
    (once per class in codet-Q mode, whose items are the prefilter keys)."""
    survivors = {i for ids in _classes(pre).values() if len(ids) >= 2 for i in ids}
    found = keys(real, list(dict.fromkeys(x for i, x in enumerate(items) if i in survivors)))
    real_keys: dict = {}
    for i, key in enumerate(pre):
        if i in survivors:
            if items[i] not in real_keys:
                real_keys[items[i]] = next(found)
            key = real_keys[items[i]]
        yield key


def _collect(rows: Iterable[tuple[str, ...]], corpus: Sequence[graphs.Graph],
             checkpoint: IO[str] | None) -> list[tuple[str, ...]]:
    """The columns of `rows`, a row of keys per graph of `corpus`.  With an
    open `checkpoint` (a one-mode survey, so one column), each row's key is
    written to it as a JSONL line naming the graph by its graph6 string,
    encoded as the line is written."""
    if checkpoint is None:
        return list(zip(*rows))
    found = []
    for g, row in zip(corpus, rows, strict=True):
        found.append(row)
        checkpoint.write(json.dumps({"graph": graphs.write_graph6(g),
                                     "key_digest_input": row[0]}) + "\n")
    return list(zip(*found))


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


def _checked_workers(kind: str, modes: Sequence[str], workers: int | None) -> int:
    """The worker count, `default_workers()` if None.  InputError, before any
    checkpoint is opened or pool started, for an unknown kind, no mode, an
    unknown or repeated mode, or a worker count that is not an int (a bool is
    refused too) or is below 1."""
    if kind not in graphs.MATRIX_KINDS:
        raise graphs.InputError(f"unknown matrix kind {kind!r}")
    for mode in modes:
        if mode not in MODES:
            raise graphs.InputError(f"unknown survey mode {mode!r}")
    if not modes or len(set(modes)) < len(modes):
        raise graphs.InputError("survey modes must be one or more distinct modes")
    if workers is None:
        return default_workers()
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise graphs.InputError("workers must be a positive integer")
    return workers


def run_surveys(corpus: Iterable[graphs.Graph], kind: str, modes: Sequence[str],
                workers: int | None = None) -> list[SurveyReport]:
    """The report of each of `modes` over `corpus`, in that order, from one
    stage-1 map for every mode and one stage-2 map per codet mode.  Each
    report has the bytes of a survey in that mode alone; a checkpoint belongs
    to a one-mode survey (`run_survey`).  The corpus must hold one graph per
    isomorphism class, as the built-in ones do: two labellings of one graph
    share every key and would be mates (`survey` checks `--input` corpora)."""
    return _surveys(corpus, kind, tuple(modes), workers, None)


def run_survey(corpus: Iterable[graphs.Graph], kind: str, mode: str, workers: int | None = None,
               checkpoint_path: str | None = None) -> SurveyReport:
    """`run_surveys` of one mode, with its checkpoint (same precondition)."""
    return _surveys(corpus, kind, (mode,), workers, checkpoint_path)[0]


def _surveys(corpus: Iterable[graphs.Graph], kind: str, modes: tuple[str, ...],
             workers: int | None, checkpoint_path: str | None) -> list[SurveyReport]:
    """`run_surveys`, with the checkpoint of a one-mode survey opened before
    stage 1 and before any pool starts (its workers inherit the file with an
    empty buffer, and never write to it)."""
    workers = _checked_workers(kind, modes, workers)
    corpus = list(corpus)
    n = _validate_corpus(corpus)
    with (open(checkpoint_path, "w", buffering=1, encoding="utf-8") if checkpoint_path
          else contextlib.nullcontext()) as checkpoint, _key_map(workers, len(corpus)) as keys:
        stage1 = functools.partial(_stage1_keys, kind=kind, modes=modes)
        found = _collect(keys(stage1, corpus), corpus, None if modes[0] in CODET else checkpoint)
        for j, mode in enumerate(modes):
            if mode in CODET:
                items, real = ((found[j], _codet_q_key) if mode == "codet-Q" else
                               (corpus, functools.partial(invariant_key, kind=kind, mode=mode)))
                # a pruned graph's prefilter key is alone in its class, so it joins no bucket
                stream = _prefiltered_keys(found[j], items, keys, real)
                found[j] = _collect(zip(stream), corpus, checkpoint)[0]
    return [_report(n, kind, mode, corpus, found[j]) for j, mode in enumerate(modes)]


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
    """True iff the target's invariant bucket inside the corpus is a singleton.
    InputError unless a corpus graph in that bucket is isomorphic to the
    target (has its `canonical_columns`)."""
    workers = _checked_workers(kind, (mode,), workers)
    corpus = list(corpus)
    _validate_corpus(corpus)
    key = invariant_key(target, kind, mode)
    with _key_map(workers, len(corpus)) as keys:
        real = functools.partial(invariant_key, kind=kind, mode=mode)
        bucket = [g for g, k in zip(corpus, keys(real, corpus)) if k == key]
    form = graphs.canonical_columns(target)
    if not any(graphs.canonical_columns(g) == form for g in bucket):
        raise graphs.InputError("target graph is not in the corpus")
    return len(bucket) == 1


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
    return IdealProfile(zprofile.graph, zprofile.kind, QX, ideals)


def cross_check(corpus: Iterable[graphs.Graph], kind: str) -> CrossCheckReport:
    """Assert the partition relations the theory demands on a whole corpus:
    cospectral == codet-Q, coinvariant == eval-at-0 of codet-Z, codet-Z refines
    both, and codet-Q == equal-per-k-varieties.  The codet-Q side is built from
    the Z[x] bases, so it is independent of the characteristic polynomial."""
    corpus = list(corpus)
    n = _validate_corpus(corpus)
    spectrum, coinv, qkeys, varkeys, zkeys, eval0 = [], [], [], [], [], []
    for g in corpus:
        charpoly, snf = _stage1_keys(g, kind, ("cospectral", "coinvariant"))
        spectrum.append(charpoly)
        coinv.append(snf)
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
