import collections
import dataclasses
import functools
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from detideals import graphs, smith, suites, survey
from detideals.graphs import (
    MATRIX_KINDS,
    DisconnectedGraphError,
    Graph,
    InputError,
    canonical_graph,
    complete_graph,
    cycle_graph,
    enumerate_connected,
    parse_graph6,
    star_graph,
    write_graph6,
)
from detideals.suites import TABLE1, fig2_graphs
from detideals.survey import (
    CSV_HEADER,
    MODES,
    PREFILTER_PREFIX,
    _profile_text,
    _qx_profile_of,
    _report,
    _stage1_keys,
    cross_check,
    invariant_key,
    run_survey,
    run_surveys,
    verify_determined_by,
)

KINDS = MATRIX_KINDS
CODET = ("codet-Q", "codet-Z")


# ---------------------------------------------------------------------------
# keys


def test_fig2_keys():
    g1, g2 = fig2_graphs()
    kq1 = invariant_key(g1, "adjacency", "codet-Q")
    kq2 = invariant_key(g2, "adjacency", "codet-Q")
    assert kq1 == kq2
    kz1 = invariant_key(g1, "adjacency", "codet-Z")
    kz2 = invariant_key(g2, "adjacency", "codet-Z")
    assert kz1 != kz2
    assert invariant_key(g1, "adjacency", "cospectral") == invariant_key(
        g2, "adjacency", "cospectral"
    )


def test_fig2_key_text():
    # checkpoints and JSON reports expose these exact strings
    g1, _ = fig2_graphs()
    expected = {
        "cospectral": "charpoly:-1,4,7,-4,-7,0,1",
        "coinvariant": "snf:1,1,1,1,1,1",
        "codet-Q": "deltaQ:1;1;1;1;x + 1;x^6 - 7*x^4 - 4*x^3 + 7*x^2 + 4*x - 1",
        "codet-Z": "idealsZ:k=1:[1];k=2:[1];k=3:[1];k=4:[1];"
                   "k=5:[2*x + 2,x^3 + x^2 + x + 1];"
                   "k=6:[x^6 - 7*x^4 - 4*x^3 + 7*x^2 + 4*x - 1]",
    }
    for mode, text in expected.items():
        assert invariant_key(g1, "adjacency", mode) == text


def test_codet_q_key_equals_key_from_zx_bases():
    # deltas_q works from the characteristic polynomial alone; the Z[x]
    # canonical bases come from minors and Groebner bases
    from detideals.graphs import enumerate_connected
    from detideals.profiles import determinantal_ideals

    for n in range(1, 6):
        for g in enumerate_connected(n):
            for kind in KINDS:
                zprofile = determinantal_ideals(g, kind, "Zx")
                assert invariant_key(g, kind, "codet-Q") == _profile_text(
                    _qx_profile_of(zprofile))


def test_distinct_spectra_distinct_keys():
    k4, c4 = complete_graph(4), cycle_graph(4)
    for mode in ("cospectral", "coinvariant", "codet-Q", "codet-Z"):
        assert invariant_key(k4, "adjacency", mode) != invariant_key(c4, "adjacency", mode)
    # distinct codet-Z keys come from genuinely different ideals at some k
    from detideals.profiles import determinantal_ideals

    pk = determinantal_ideals(k4, "adjacency", "Zx")
    pc = determinantal_ideals(c4, "adjacency", "Zx")
    assert any(not a.equal(b) for a, b in zip(pk.ideals, pc.ideals))


def test_keys_are_label_invariant():
    g1, _ = fig2_graphs()
    relabeled = canonical_graph(g1)
    for mode in ("cospectral", "coinvariant", "codet-Q", "codet-Z"):
        assert invariant_key(g1, "adjacency", mode) == invariant_key(
            relabeled, "adjacency", mode
        )


# ---------------------------------------------------------------------------
# surveys


def test_survey_n5_all_zero(corpus5):
    for kind in KINDS:
        for mode in ("cospectral", "codet-Q", "codet-Z"):
            report = run_survey(corpus5, kind, mode, workers=1)
            assert report.with_mate == 0
            assert report.buckets == ()
            assert report.total == 21


def test_survey_n6_adjacency_bucket_is_fig2_pair(corpus6):
    report = run_survey(corpus6, "adjacency", "codet-Q", workers=1)
    assert report.with_mate == 2
    assert len(report.buckets) == 1
    (_, members) = report.buckets[0]
    g1, g2 = fig2_graphs()
    expected = {write_graph6(canonical_graph(g1)), write_graph6(canonical_graph(g2))}
    assert set(members) == expected


def test_survey_n6_laplacian_codet_z(corpus6):
    from detideals.graphs import parse_graph6
    from detideals.profiles import determinantal_ideals

    report = run_survey(corpus6, "laplacian", "codet-Z", workers=1)
    assert report.with_mate == 2
    # equal keys must mean equal ideals: for every k the mates have equal
    # canonical bases and each one's minors lie in the other's ideal
    (_, (a, b)), = report.buckets
    pa, pb = (determinantal_ideals(parse_graph6(g6), "laplacian", "Zx") for g6 in (a, b))
    for ia, ib in zip(pa.ideals, pb.ideals):
        assert ia.equal(ib)
        assert all(ib.member(g) for g in ia.gens)
        assert all(ia.member(g) for g in ib.gens)


def test_survey_determinism_across_workers(corpus6):
    a = run_survey(corpus6, "laplacian", "cospectral", workers=1)
    b = run_survey(corpus6, "laplacian", "cospectral", workers=2)
    assert a == b


def test_survey_csv_row(corpus5):
    report = run_survey(corpus5, "adjacency", "cospectral", workers=1)
    assert CSV_HEADER == "n,matrix,mode,total,with_mate"
    assert report.csv_row() == "5,adjacency,cospectral,21,0"


def test_survey_rejects_mixed_or_disconnected():
    with pytest.raises(ValueError):
        run_survey([complete_graph(4), complete_graph(5)], "adjacency", "cospectral", workers=1)
    with pytest.raises(DisconnectedGraphError):
        run_survey([Graph(2, (0, 0))], "adjacency", "cospectral", workers=1)


def test_survey_checkpoint(tmp_path, corpus5):
    path = tmp_path / "keys.jsonl"
    run_survey(corpus5, "adjacency", "coinvariant", workers=1,
               checkpoint_path=str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 21
    rec = json.loads(lines[0])
    assert set(rec) == {"graph", "key_digest_input"}
    assert rec["key_digest_input"].startswith("snf:")


@pytest.mark.parametrize("kind, modes, workers", [
    *(pytest.param(kind, [mode], workers, id=f"{kind}-{mode}-{workers}")
      for kind, mode, workers in [("bogus", "cospectral", 2), ("adjacency", "bogus", 2),
                                  *(("adjacency", "cospectral", workers)
                                    for workers in (0, -5, 2.5, "2", True))]),
    # run_surveys only: no mode, an unknown or a repeated one
    pytest.param("adjacency", [], 2, id="no-mode"),
    pytest.param("adjacency", ["cospectral", "bogus"], 2, id="unknown-mode"),
    pytest.param("adjacency", ["codet-Q", "cospectral", "codet-Q"], 2, id="repeated-mode"),
])
def test_refused_survey_opens_no_checkpoint_and_no_pool(monkeypatch, tmp_path, corpus5,
                                                        kind, modes, workers):
    path = tmp_path / "keys.jsonl"
    run_survey(corpus5, "adjacency", "coinvariant", workers=1, checkpoint_path=str(path))
    before = path.read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    survey._close_pool()  # else a pool left by an earlier test would be reused unseen
    monkeypatch.setattr(survey, "_WorkerPool", refuse)
    with pytest.raises(InputError):
        run_surveys(corpus5, kind, modes, workers=workers)
    if len(modes) == 1:  # one mode, with its checkpoint
        with pytest.raises(InputError):
            run_survey(corpus5, kind, modes[0], workers=workers, checkpoint_path=str(path))
        assert path.read_bytes() == before
        with pytest.raises(InputError):
            verify_determined_by(corpus5, corpus5[0], kind, modes[0], workers=workers)


@pytest.mark.parametrize("mode", CODET)
@pytest.mark.parametrize("workers", [1, 2])
def test_unopenable_checkpoint_fails_before_any_key(monkeypatch, tmp_path, corpus5, mode,
                                                    workers):
    # the checkpoint is opened before stage 1 and before any pool starts
    def refuse(*args, **kwargs):
        raise AssertionError("a key was computed or a pool was started")

    survey._close_pool()
    monkeypatch.setattr(survey, "_stage1_keys", refuse)
    monkeypatch.setattr(survey, "_WorkerPool", refuse)
    with pytest.raises(FileNotFoundError):
        run_survey(corpus5, "laplacian", mode, workers=workers,
                   checkpoint_path=str(tmp_path / "nodir" / "keys.jsonl"))


# ---------------------------------------------------------------------------
# the codet prefilter


def _real_report(corpus, kind, mode):
    """The report of the real key of every graph, without the prefilter."""
    return _report(corpus[0].n, kind, mode, corpus, [invariant_key(g, kind, mode) for g in corpus])


def _survivors(corpus, kind, mode):
    """The graphs whose prefilter class has two or more members."""
    keys = [_stage1_keys(g, kind, [mode])[0] for g in corpus]
    return {g for g, key in zip(corpus, keys) if keys.count(key) >= 2}


@pytest.fixture(scope="module")
def mates7(corpus7):
    """Per kind, the n = 7 graphs with a cospectral (so codet-Q) mate."""
    return {kind: [parse_graph6(g6) for _, b in run_survey(corpus7, kind, "cospectral",
                                                           workers=1).buckets for g6 in b]
            for kind in KINDS}


def test_prefilter_key_text():
    g1, _ = fig2_graphs()
    charpoly = invariant_key(g1, "adjacency", "cospectral")
    assert _stage1_keys(g1, "adjacency", ["codet-Q"]) == (PREFILTER_PREFIX + charpoly,)
    assert _stage1_keys(g1, "adjacency", ["codet-Z"]) == (
        "prefilter:charpoly:-1,4,7,-4,-7,0,1;snf@0:1,1,1,1,1,1",)
    assert not any(invariant_key(g1, "adjacency", mode).startswith(PREFILTER_PREFIX)
                   for mode in ("cospectral", "coinvariant", *CODET))
    # one call renders every mode's stage-1 key, in the order asked for
    texts = {mode: _stage1_keys(g1, "adjacency", [mode])[0] for mode in MODES}
    for modes in (MODES, MODES[::-1], ("codet-Z", "cospectral")):
        assert _stage1_keys(g1, "adjacency", modes) == tuple(texts[mode] for mode in modes)


def test_codet_z_prefilter_classes_are_cospectral_and_coinvariant_classes(mates7):
    # two graphs share a codet-Z prefilter key iff they share both keys
    corpora = [(enumerate_connected(n), kind) for n in range(1, 7) for kind in KINDS]
    corpora += [(mates7[kind], kind) for kind in KINDS]
    for corpus, kind in corpora:
        pre = [_stage1_keys(g, kind, ["codet-Z"])[0] for g in corpus]
        pair = [(invariant_key(g, kind, "cospectral"), invariant_key(g, kind, "coinvariant"))
                for g in corpus]
        assert len(set(pre)) == len(set(pair)) == len(set(zip(pre, pair))), (corpus[0].n, kind)


def test_prefiltered_reports_equal_real_key_reports(mates7):
    for n in range(1, 7):
        corpus = enumerate_connected(n)
        for kind in KINDS:
            for mode in CODET:
                assert run_survey(corpus, kind, mode, workers=1) == _real_report(
                    corpus, kind, mode), (n, kind, mode)
    for kind in KINDS:
        got = run_survey(mates7[kind], kind, "codet-Z", workers=1)
        assert got == _real_report(mates7[kind], kind, "codet-Z"), kind
        assert got.with_mate == TABLE1[7][kind][1]


def _checkpoint_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("mode", CODET)
def test_checkpoint_holds_real_keys_and_prefixed_prefilter_keys(tmp_path, corpus6, mates7, mode):
    path = tmp_path / "keys.jsonl"
    corpora = [(corpus6, kind) for kind in KINDS]
    if mode == "codet-Z":  # every codet-Q mate survives the codet-Q prefilter
        corpora.append((mates7["laplacian"], "laplacian"))
    forms = set()  # whether a line holds a real key
    for corpus, kind in corpora:
        run_survey(corpus, kind, mode, workers=1, checkpoint_path=str(path))
        records = _checkpoint_records(path)
        assert [r["graph"] for r in records] == [write_graph6(g) for g in corpus]
        survivors = _survivors(corpus, kind, mode)
        for g, r in zip(corpus, records):
            key = r["key_digest_input"]
            forms.add(g in survivors)
            if g in survivors:
                assert key == invariant_key(g, kind, mode)
            else:
                assert key == _stage1_keys(g, kind, [mode])[0]
                assert key.startswith(PREFILTER_PREFIX)
    assert forms == {True, False}


def _surveyed_bytes(tmp_path, corpus, kind, mode, workers):
    """The JSON report and checkpoint bytes of a one-mode survey."""
    path = tmp_path / f"keys.{mode}.{workers}.jsonl"
    report = run_survey(corpus, kind, mode, workers=workers, checkpoint_path=str(path))
    return json.dumps(report.to_json()), path.read_bytes()


@pytest.mark.parametrize("kind, modes", [
    *(pytest.param(kind, [mode], id=f"{kind}-{mode}")
      for kind, mode in [("laplacian", "codet-Q"), ("laplacian", "codet-Z"), ("distlap", "codet-Z"),
                         ("laplacian", "cospectral"), ("adjacency", "coinvariant")]),
    pytest.param("laplacian", MODES, id="laplacian-one-survey-against-four"),
])
def test_prefiltered_survey_serial_and_pooled_same_bytes(tmp_path, corpus6, mates7, kind, modes):
    # with four modes, the reports of one run_surveys call against four
    # one-mode surveys too, on corpus6 and on the n = 7 laplacian mates
    corpora = [corpus6] if len(modes) == 1 else [corpus6, mates7[kind]]
    for corpus in corpora:
        out = {}
        for workers in (1, 2):
            out[workers] = [_surveyed_bytes(tmp_path, corpus, kind, mode, workers)
                            for mode in modes]
            if len(modes) > 1:
                together = run_surveys(corpus, kind, modes, workers=workers)
                assert [report.mode for report in together] == list(modes)
                assert [json.dumps(report.to_json()) for report in together] == [
                    report for report, _ in out[workers]]
        assert out[1] == out[2]


@pytest.mark.parametrize("mode", CODET)
def test_pruned_graphs_get_no_real_key(monkeypatch, corpus6, mates7, mode):
    # stage 2 keys a codet-Q survivor from its stage-1 key, once per
    # prefilter class, and a codet-Z one from its graph
    name = "_codet_q_key" if mode == "codet-Q" else "determinantal_ideals"
    real = getattr(survey, name)
    keyed = []

    def counting(item, *args):
        keyed.append(item)
        return real(item, *args)

    monkeypatch.setattr(survey, name, counting)
    corpora = [(corpus6, "laplacian")]
    if mode == "codet-Z":
        corpora.append((mates7["distlap"], "distlap"))
    for corpus, kind in corpora:
        keyed.clear()
        run_survey(corpus, kind, mode, workers=1)
        survivors = _survivors(corpus, kind, mode)
        if mode == "codet-Q":
            survivors = {_stage1_keys(g, kind, [mode])[0] for g in survivors}
        assert collections.Counter(keyed) == collections.Counter(survivors)
        assert len(survivors) < len(corpus)


def test_pruned_lines_stream_before_the_next_real_key(monkeypatch, tmp_path, mates7):
    # each real key starts only once every line before its graph is written
    corpus, kind = mates7["laplacian"], "laplacian"
    path = tmp_path / "keys.jsonl"
    g6s = [write_graph6(g) for g in corpus]
    real = survey.invariant_key
    seen = []

    def spying(g, kind, mode):
        seen.append([r["graph"] for r in _checkpoint_records(path)] == g6s[:g6s.index(
            write_graph6(g))])
        return real(g, kind, mode)

    monkeypatch.setattr(survey, "invariant_key", spying)
    run_survey(corpus, kind, "codet-Z", workers=1, checkpoint_path=str(path))
    assert seen and all(seen)


@pytest.fixture
def stage1_calls(monkeypatch):
    """Per function, the (graph, kind) of each `build_matrix`, `char_poly` and
    `snf_integer` call a survey makes in this process, counted; a call is
    booked under the last matrix built.  Calls made for a real codet key
    (stage 2) are not counted."""
    calls = collections.defaultdict(collections.Counter)
    built, stage2 = [], []

    def counting(module, name):
        real = getattr(module, name)

        def spy(*args):
            if not stage2:
                if name == "build_matrix":
                    built[:] = [args]
                calls[name][built[0]] += 1
            return real(*args)

        monkeypatch.setattr(module, name, spy)

    def real_key(*args):
        stage2.append(args)
        try:
            return ideals(*args)
        finally:
            stage2.pop()

    ideals = survey.determinantal_ideals
    monkeypatch.setattr(survey, "determinantal_ideals", real_key)
    counting(graphs, "build_matrix")
    counting(survey, "char_poly")
    counting(survey, "snf_integer")
    return calls


def test_one_matrix_charpoly_and_snf_per_graph_and_kind(stage1_calls, corpus6):
    run_survey(corpus6, "laplacian", "cospectral", workers=1)
    assert not stage1_calls["snf_integer"]
    assert stage1_calls["char_poly"].total() == len(corpus6)
    stage1_calls.clear()
    run_survey(corpus6, "laplacian", "coinvariant", workers=1)
    assert not stage1_calls["char_poly"]
    assert stage1_calls["snf_integer"].total() == len(corpus6)
    stage1_calls.clear()
    assert all(r.passed for r in suites.suite_tables(max_n=6, workers=1))
    pairs = {(g, kind) for n in (4, 5, 6) for g in enumerate_connected(n) for kind in KINDS}
    assert set(stage1_calls["build_matrix"]) == pairs
    for name in ("build_matrix", "char_poly", "snf_integer"):
        assert set(stage1_calls[name]) <= pairs and set(stage1_calls[name].values()) == {1}


def test_codet_q_survey_makes_one_char_poly_per_graph(monkeypatch):
    # stage 2 reads a survivor's codet-Q key off its stage-1 key, so the 115
    # survivors of this survey cost no second characteristic polynomial
    calls = []
    real = smith.char_poly

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(survey, "char_poly", counting)
    monkeypatch.setattr(smith, "char_poly", counting)
    corpus = enumerate_connected(7)
    report = run_survey(corpus, "laplacian", "codet-Q", workers=1)
    assert len(calls) == len(corpus) == 853 and report.with_mate > 0


def test_codet_q_stage2_keys_equal_invariant_key(tmp_path):
    # every real key on a codet-Q checkpoint is the matrix route's key
    path, checked = tmp_path / "codet-q.jsonl", 0
    for n in range(1, 8):
        corpus = enumerate_connected(n)
        for kind in KINDS:
            run_survey(corpus, kind, "codet-Q", workers=1, checkpoint_path=str(path))
            for line in path.read_text().splitlines():
                row = json.loads(line)
                key = row["key_digest_input"]
                if not key.startswith(PREFILTER_PREFIX):
                    assert key == invariant_key(parse_graph6(row["graph"]), kind, "codet-Q")
                    checked += 1
    assert checked > 200  # 249 survivors in all


def test_pooled_codet_q_stage2_runs_in_the_workers(pool_starts, monkeypatch, corpus6):
    # the workers fork after the patch, so their calls do not reach `calls`
    calls = []
    real = survey.delta_chain

    def recording(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(survey, "delta_chain", recording)
    pooled = run_survey(corpus6, "adjacency", "codet-Q", workers=2)
    assert pool_starts == [2] and not calls
    assert pooled == run_survey(corpus6, "adjacency", "codet-Q", workers=1) and calls


KILL_SCRIPT = """
import os, sys
from detideals import survey
from detideals.graphs import enumerate_connected

real, calls = survey._stage1_keys, []

def dying(g, kind, modes):
    calls.append(g)
    if len(calls) == int(sys.argv[2]):
        os._exit(9)
    return real(g, kind, modes)

survey._stage1_keys = dying
survey.run_survey(enumerate_connected(6), "laplacian", "coinvariant", workers=1,
                  checkpoint_path=sys.argv[1])
"""


def test_killed_survey_leaves_every_finished_line(tmp_path, corpus6):
    # a serial survey killed at its k-th key leaves its k - 1 finished lines, whole
    k = 60
    path = tmp_path / "killed.jsonl"
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", KILL_SCRIPT, str(path), str(k)],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True)
    assert out.returncode == 9
    full = tmp_path / "full.jsonl"
    run_survey(corpus6, "laplacian", "coinvariant", workers=1, checkpoint_path=str(full))
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == k - 1 and all(json.loads(line) for line in lines)
    assert lines == full.read_text().splitlines(keepends=True)[:k - 1]


# ---------------------------------------------------------------------------
# the process-wide pool


@pytest.fixture
def pool_starts(monkeypatch):
    """The worker count of each pool started; no pool is left before or after."""
    survey._close_pool()
    real, starts = survey._WorkerPool, []

    def counting(workers):
        starts.append(workers)
        return real(workers)

    monkeypatch.setattr(survey, "_WorkerPool", counting)
    yield starts
    survey._close_pool()


def test_pooled_surveys_share_one_pool(pool_starts, corpus5, corpus6):
    runs = [(corpus6, "laplacian", "cospectral"), (corpus6, "distlap", "codet-Z"),
            (corpus5, "adjacency", "coinvariant")]
    pooled = [run_survey(*run, workers=2) for run in runs]
    assert verify_determined_by(corpus6, complete_graph(6), "laplacian", "coinvariant", workers=2)
    assert pool_starts == [2]
    assert pooled == [run_survey(*run, workers=1) for run in runs]
    # another worker count replaces the pool, whose workers are terminated
    workers = survey._pool.procs
    assert run_survey(corpus5, "laplacian", "cospectral", workers=3) == run_survey(
        corpus5, "laplacian", "cospectral", workers=1)
    assert pool_starts == [2, 3] and survey._pool.size == 3
    assert not any(w.is_alive() for w in workers)


def test_serial_surveys_start_no_pool(pool_starts, corpus5):
    run_survey(corpus5, "laplacian", "codet-Z", workers=1)
    run_survey(corpus5[:3], "laplacian", "codet-Z", workers=2)
    verify_determined_by(corpus5[:3], corpus5[0], "laplacian", "coinvariant", workers=2)
    assert pool_starts == [] and survey._pool is None


_cospectral = functools.partial(invariant_key, kind="laplacian", mode="cospectral")


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt, GeneratorExit])
def test_key_map_left_by_an_exception_terminates_the_pool(pool_starts, corpus6, exc):
    with pytest.raises(exc):
        with survey._key_map(2, len(corpus6)) as keys:
            workers = survey._pool.procs
            next(keys(_cospectral, corpus6))  # the other tasks are still in flight
            raise exc
    assert survey._pool is None
    assert not any(w.is_alive() for w in workers)
    assert run_survey(corpus6, "laplacian", "cospectral", workers=2) == run_survey(
        corpus6, "laplacian", "cospectral", workers=1)
    assert pool_starts == [2, 2]


EXIT_SCRIPT = """
from detideals import survey
from detideals.graphs import enumerate_connected

corpus = enumerate_connected(5)
survey.run_survey(corpus, "laplacian", "codet-Z", workers=2)
survey.run_survey(corpus, "adjacency", "coinvariant", workers=2)
print(*(w.pid for w in survey._pool.procs))
"""


def test_pooled_process_exits_cleanly_and_reaps_its_workers():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-X", "dev", "-c", EXIT_SCRIPT],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0 and out.stderr == ""
    pids = [int(pid) for pid in out.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


SPAWN_DEFAULT_SCRIPT = """
import multiprocessing
from detideals import smith, survey
from detideals.graphs import enumerate_connected

multiprocessing.set_start_method("spawn")
# every graph gets the characteristic polynomial of the zero matrix: a worker
# that sees this patch finds all 21 graphs cospectral, a fresh import none
survey.char_poly = lambda m: smith.char_poly([[0] * len(m) for _ in m])
print(survey.run_survey(enumerate_connected(5), "adjacency", "cospectral", workers=2).with_mate)
"""


def test_pool_forks_whatever_the_default_start_method():
    # the default on Linux is forkserver from Python 3.14; the workers must
    # still see module state as of the pool's start
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", SPAWN_DEFAULT_SCRIPT],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, "21\n", "")


SERIAL_SCRIPT = """
import sys
import detideals, detideals.cli
from detideals.graphs import enumerate_connected

corpus = enumerate_connected(5)
serial = detideals.run_survey(corpus, "laplacian", "codet-Z", workers=1)
print("multiprocessing" in sys.modules)
print(detideals.run_survey(corpus, "laplacian", "codet-Z", workers=2) == serial)
print("multiprocessing" in sys.modules)
"""


def test_multiprocessing_loads_with_the_first_pool():
    # importing the package and the CLI and surveying serially never load
    # multiprocessing; the first pooled survey does, and its report equals
    # the serial one
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", SERIAL_SCRIPT],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, "False\nTrue\nTrue\n", "")


KILLED_PARENT_SCRIPT = """
import functools, time
from detideals import survey
from detideals.graphs import enumerate_connected

corpus = enumerate_connected(7)
with survey._key_map(2, len(corpus)) as keys:
    next(keys(functools.partial(survey.invariant_key, kind="distance", mode="codet-Z"), corpus))
    print(*(w.pid for w in survey._pool.procs), flush=True)
    time.sleep(60)  # mid-map: the other chunks are unread
"""


def _running(pid):
    """Whether `pid` exists and has not exited.  An orphan that has exited
    stays a zombie until the reaper of orphans collects it, which need not
    be at once, so a zombie counts as exited (Linux `/proc` state Z)."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except (ProcessLookupError, FileNotFoundError):
        return False


def test_workers_of_a_killed_parent_exit():
    # SIGKILL runs no exit handler: the workers stop on their own, at the EOF
    # or broken pipe of their parent's ends, and print nothing
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    with subprocess.Popen([sys.executable, "-c", KILLED_PARENT_SCRIPT],
                          env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.kill()
        assert len(pids) == 2
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
        err = proc.stderr.read()  # the workers held its write end, so it ends now
    assert "Traceback" not in err, err


def test_a_map_left_with_chunks_in_flight_hands_on_no_stale_key(pool_starts, corpus6):
    # a second map while the first has chunks in flight is refused
    with pytest.raises(RuntimeError, match="in flight"):
        with survey._key_map(2, len(corpus6)) as keys:
            first = keys(_cospectral, corpus6)
            next(first)
            next(keys(_cospectral, corpus6))
    assert survey._pool is None
    # a context left normally with chunks in flight terminates the pool
    with survey._key_map(2, len(corpus6)) as keys:
        key = next(keys(_cospectral, corpus6))
    assert survey._pool is None
    assert key == invariant_key(corpus6[0], "laplacian", "cospectral")
    assert run_survey(corpus6, "laplacian", "cospectral", workers=2) == run_survey(
        corpus6, "laplacian", "cospectral", workers=1)
    assert pool_starts == [2, 2, 2]


def test_pooled_survey_starts_no_thread(pool_starts, corpus6):
    threads = threading.active_count()
    report = run_survey(corpus6, "distlap", "codet-Z", workers=2)
    assert pool_starts == [2] and threading.active_count() == threads
    assert report == run_survey(corpus6, "distlap", "codet-Z", workers=1)


def _raises(g):
    raise InputError(f"refused {write_graph6(g)}")


def _raises_broken_pipe(g):
    raise BrokenPipeError(f"refused {write_graph6(g)}")


class _Unpicklable(Exception):
    def __init__(self, a, b):  # pickle rebuilds it from args alone, so it fails
        super().__init__(a)


def _raises_unpicklable(g):
    raise _Unpicklable(write_graph6(g), 0)


def _pooled_keys(fn, corpus):
    with survey._key_map(2, len(corpus)) as keys:
        return list(keys(fn, corpus))


def test_worker_exception_reaches_the_parent_with_its_type(pool_starts, corpus6):
    with pytest.raises(InputError, match="^refused ") as caught:
        _pooled_keys(_raises, corpus6)
    assert "in _raises" in caught.value.__notes__[0]  # the worker's traceback
    assert survey._pool is None
    # a key's own broken pipe is not the worker's: it reaches the parent too
    with pytest.raises(BrokenPipeError, match="^refused "):
        _pooled_keys(_raises_broken_pipe, corpus6)
    assert survey._pool is None
    with pytest.raises(RuntimeError, match="^_Unpicklable"):
        _pooled_keys(_raises_unpicklable, corpus6)
    assert survey._pool is None and pool_starts == [2, 2, 2]


def _slow_then_refusing(g, kind, modes, failing=21):
    # chunk 0 (graphs 0-6, worker 0) is slow, chunk 3 (graphs 21-27, worker 1)
    # fails at graph `failing`
    i = enumerate_connected(6).index(g)
    if i < 7:
        time.sleep(0.05)
    if i == failing:
        raise InputError(f"refused graph {failing}")
    return _stage1_keys(g, kind, modes)


def test_pooled_survey_raises_at_its_first_failing_chunk_in_order(monkeypatch, pool_starts,
                                                                   tmp_path, corpus6):
    # 16 chunks of 7 on 2 workers: the error of chunk 3 is ready long before
    # the keys of chunk 0, yet every line before graph 21 is written first
    assert len(corpus6) // (2 * 8) == 7
    full, path = tmp_path / "full.jsonl", tmp_path / "failed.jsonl"
    run_survey(corpus6, "laplacian", "coinvariant", workers=1, checkpoint_path=str(full))
    monkeypatch.setattr(survey, "_stage1_keys", _slow_then_refusing)
    with pytest.raises(InputError, match="refused graph 21"):
        run_survey(corpus6, "laplacian", "coinvariant", workers=2, checkpoint_path=str(path))
    assert survey._pool is None and pool_starts == [2]
    assert path.read_text().splitlines() == full.read_text().splitlines()[:21]


def test_pooled_survey_keeps_the_keys_before_a_failure_inside_a_chunk(monkeypatch, pool_starts,
                                                                      tmp_path, corpus6):
    # graph 23 is the third of chunk 3: its worker sends the keys of graphs 21
    # and 22 with the error, so the pooled checkpoint keeps the serial 23 lines
    full, serial, pooled = (tmp_path / f"{name}.jsonl" for name in ("full", "serial", "pooled"))
    run_survey(corpus6, "laplacian", "coinvariant", workers=1, checkpoint_path=str(full))
    monkeypatch.setattr(survey, "_stage1_keys", functools.partial(_slow_then_refusing, failing=23))
    for workers, path in ((1, serial), (2, pooled)):
        with pytest.raises(InputError, match="refused graph 23"):
            run_survey(corpus6, "laplacian", "coinvariant", workers=workers,
                       checkpoint_path=str(path))
    assert survey._pool is None and pool_starts == [2]
    lines = full.read_text().splitlines()[:23]
    assert pooled.read_text().splitlines() == serial.read_text().splitlines() == lines


LARGE_PAYLOAD_SCRIPT = """
import functools
from detideals import survey
from detideals.graphs import enumerate_connected, write_graph6

def big_key(g, pad):
    return (write_graph6(g) + pad[0]) * 2 ** 16  # 4 characters at n = 5: 256 KB

corpus = enumerate_connected(5)
fn = functools.partial(big_key, pad="x" * (2 ** 20 + 1))  # each task is over 1 MB
with survey._key_map(1, len(corpus)) as keys:
    serial = list(keys(fn, corpus))
with survey._key_map(2, len(corpus)) as keys:
    pooled = list(keys(fn, corpus))
assert min(map(len, serial)) > 2 ** 17 and pooled == serial
assert survey._pool is not None and not survey._pool.busy
print("same keys")
"""


def test_pooled_keys_survive_payloads_larger_than_the_pipe_buffers():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", LARGE_PAYLOAD_SCRIPT],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "same keys\n"


DEAD_WORKER_SCRIPT = """
import os, sys
from detideals import survey
from detideals.graphs import enumerate_connected

parent, k, seen = os.getpid(), int(sys.argv[1]), 0
real = survey._stage1_keys


def dying(g, kind, modes):
    global seen
    seen += 1
    if seen == k and os.getpid() != parent:
        os._exit(9)
    return real(g, kind, modes)


survey._stage1_keys = dying
corpus = enumerate_connected(6)
try:
    survey.run_survey(corpus, "laplacian", "coinvariant", workers=2)
except RuntimeError as exc:
    print("raised:", exc)
assert survey._pool is None
survey._stage1_keys = real
pooled = survey.run_survey(corpus, "laplacian", "coinvariant", workers=2)
assert survey._pool is not None
assert pooled == survey.run_survey(corpus, "laplacian", "coinvariant", workers=1)
print("fresh pool: same report")
"""


def test_dead_worker_raises_and_the_next_survey_starts_a_fresh_pool():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", DEAD_WORKER_SCRIPT, "5"],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["raised: a survey pool worker has exited",
                                       "fresh pool: same report"]


# ---------------------------------------------------------------------------
# determined-by


def test_determined_by_n6(corpus6):
    k6 = complete_graph(6)
    assert verify_determined_by(corpus6, k6, "distlap", "coinvariant", workers=1)
    assert verify_determined_by(corpus6, k6, "laplacian", "coinvariant", workers=1)
    assert verify_determined_by(corpus6, star_graph(6), "distlap", "coinvariant", workers=1)
    # adjacency SNF does not determine K_6 inside the n=6 corpus
    assert not verify_determined_by(corpus6, cycle_graph(6), "adjacency", "coinvariant", workers=1)


def test_determined_by_target_must_be_in_corpus(corpus5):
    with pytest.raises(ValueError):
        verify_determined_by(corpus5, complete_graph(6), "laplacian", "coinvariant", workers=1)
    # D~? is disconnected, so not in the corpus, yet one corpus graph shares its key
    with pytest.raises(InputError, match="not in the corpus"):
        verify_determined_by(corpus5, parse_graph6("D~?"), "adjacency", "coinvariant", workers=1)


# ---------------------------------------------------------------------------
# graph6 encoding


@pytest.fixture
def encoded(monkeypatch):
    """The graphs given to `graphs.write_graph6` in this process, in call order."""
    real = graphs.write_graph6
    calls = []

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graphs, "write_graph6", counting)
    return calls


def _members(report):
    return sorted(g6 for _, gs in report.buckets for g6 in gs)


@pytest.mark.parametrize("mode", ["cospectral", "coinvariant", "codet-Q", "codet-Z"])
def test_survey_encodes_only_its_bucket_members(encoded, corpus6, mode):
    for workers in (1, 2):
        encoded.clear()
        report = run_survey(corpus6, "laplacian", mode, workers=workers)
        assert sorted(write_graph6(g) for g in encoded) == _members(report)
        assert 0 < report.with_mate < len(corpus6)


def test_checkpoint_survey_encodes_each_graph_once_for_its_line(encoded, tmp_path, corpus6):
    # in input order, as each line is written; the survey keeps no list of
    # the strings, so its report then encodes its bucket members once more
    path = tmp_path / "keys.jsonl"
    report = run_survey(corpus6, "laplacian", "cospectral", workers=1, checkpoint_path=str(path))
    lines = len(corpus6)
    assert encoded[:lines] == list(corpus6)
    assert sorted(write_graph6(g) for g in encoded[lines:]) == _members(report)
    assert [r["graph"] for r in _checkpoint_records(path)] == [write_graph6(g) for g in corpus6]


def test_cross_check_names_its_witness(monkeypatch, corpus5):
    # every graph gets one eval-at-0 key, so the first graph whose
    # coinvariant key differs from the first one's is the witness
    monkeypatch.setattr(survey, "evaluate_profile", lambda profile, point: [0])
    report = cross_check(corpus5, "adjacency")
    assert not report.coinvariant_equals_eval0 and report.cospectral_equals_codet_q
    keys = [invariant_key(g, "adjacency", "coinvariant") for g in corpus5]
    j = next(j for j, key in enumerate(keys) if key != keys[0])
    assert report.witness == f"{write_graph6(corpus5[0])} vs {write_graph6(corpus5[j])}"


# ---------------------------------------------------------------------------
# cross-check diagnostics


def test_cross_check_small_all_kinds():
    from detideals.graphs import enumerate_connected

    for n in (4, 5):
        corpus = enumerate_connected(n)
        for kind in KINDS:
            report = cross_check(corpus, kind)
            assert report.ok, (n, kind, report)


def test_cross_check_n6(corpus6):
    for kind in ("adjacency", "distlap"):
        report = cross_check(corpus6, kind)
        assert report.ok, report
        if kind == "adjacency":
            assert report.cospectral_with_mate == 2
            assert report.codet_q_with_mate == 2
            assert report.codet_z_with_mate == 0
            assert report.coinvariant_with_mate == 112


def test_determined_complete_checks_the_snf_of_the_distance_laplacian(monkeypatch):
    name = "K_{}: second invariant factor of F recorded"
    results = list(suites.suite_determined_complete(max_n=5, workers=1))
    assert {name.format(4), name.format(5)} <= {r.name for r in results}
    assert all(r.passed for r in results)
    real = suites.snf_integer

    def wrong(matrix):
        snf = real(matrix)  # f_2 = n, made n + 1
        return dataclasses.replace(snf, factors=(1, snf.factors[1] + 1) + snf.factors[2:])

    monkeypatch.setattr(suites, "snf_integer", wrong)
    results = suites.suite_determined_complete(max_n=5, workers=1)
    assert [r.name for r in results if not r.passed] == [name.format(4), name.format(5)]
