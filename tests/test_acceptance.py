"""Acceptance criteria, one test per criterion.

Values are asserted exactly; the stated wall-clock budgets are printed per
criterion (run with -s to see them live, or -rA for the summary).
"""

import math
import time
from contextlib import contextmanager

import pytest

from detideals.cli import main as cli_main
from detideals.graphs import (
    MATRIX_KINDS,
    build_matrix,
    char_matrix,
    enumerate_connected,
    read_graph6_lines,
    write_graph6,
)
from detideals.profiles import (
    determinantal_ideals,
    divides_in_algebraic_integers,
    evaluate_profile,
    strip_rational_roots,
    variety,
)
from detideals.smith import delta_bruteforce, snf_integer, snf_poly_q
from detideals.suites import TABLE1, TABLE2, TABLE3, run_suite
from detideals.survey import default_workers, run_survey

KINDS = MATRIX_KINDS


@contextmanager
def criterion(num, description, budget):
    start = time.time()
    yield
    elapsed = time.time() - start
    print(f"criterion {num:02d} PASS ({elapsed:.1f}s, budget {budget}): {description}")


def _assert_suite(results):
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.name}: {r.detail}" for r in failed]


@pytest.fixture(scope="session")
def corpus8_file(tmp_path_factory, corpus8):
    path = tmp_path_factory.mktemp("corpus") / "connected8.g6"
    path.write_text("\n".join(write_graph6(g) for g in corpus8) + "\n", encoding="ascii")
    return path


def test_criterion_01_appendix_a_golden_vectors(capsys):
    with criterion(1, "Appendix-A characteristic and distance ideals of Dt_", "<1s"):
        code = cli_main(["verify", "--suite", "ltimes"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAIL" not in out


def test_criterion_02_k33_suite():
    with criterion(2, "K_{3,3} ideals, SNF, evaluation and variety", "<1s"):
        _assert_suite(run_suite("k33"))


def test_criterion_03_c4_suite():
    with criterion(3, "C_4 critical ideals, K(C4)=Z_4, S(C4)=Z^2, corank 2", "<1s"):
        _assert_suite(run_suite("c4"))


def test_criterion_04_fig2_pair():
    with criterion(4, "Fig.2 pair: codet-Q equal, codet-Z split, equal varieties", "<1s"):
        _assert_suite(run_suite("fig2"))


def test_criterion_05_appendix_b_regression():
    with criterion(5, "Appendix-B ideal equality with mutual membership", "<1s"):
        _assert_suite(run_suite("appendixB"))


def test_criterion_06_kn_formula():
    with criterion(6, "K_n characteristic ideal formula and SNF(A(K_n)), n=2..8", "<5s"):
        _assert_suite(run_suite("kn-formula", max_n=8))


def test_criterion_07_table1_n567(corpus5, corpus6, corpus7):
    workers = default_workers()
    corpora = {5: corpus5, 6: corpus6, 7: corpus7}
    with criterion(7, "Table 1, all eight columns, n in {5,6,7}",
                   "Q <2min, Z <2h @8 workers"):
        for n, corpus in corpora.items():
            for kind in KINDS:
                want_q, want_z = TABLE1[n][kind]
                got_q = run_survey(corpus, kind, "codet-Q", workers=workers).with_mate
                assert got_q == want_q, (n, kind, "codet-Q", got_q, want_q)
                got_z = run_survey(corpus, kind, "codet-Z", workers=workers).with_mate
                assert got_z == want_z, (n, kind, "codet-Z", got_z, want_z)


def test_criterion_08_table2_cospectral(corpus8_file):
    workers = default_workers()
    with criterion(8, "Table 2 cospectral counts, n<=8 (n=8 from a corpus file)", "<10min"):
        for n in (5, 6, 7):
            corpus = enumerate_connected(n)
            for kind, want in zip(KINDS, TABLE2[n]):
                got = run_survey(corpus, kind, "cospectral", workers=workers).with_mate
                assert got == want, (n, kind, got, want)
        with open(corpus8_file, encoding="ascii") as fh:
            corpus = list(read_graph6_lines(fh))
        assert len(corpus) == 11117
        for kind, want in zip(KINDS, TABLE2[8]):
            got = run_survey(corpus, kind, "cospectral", workers=workers).with_mate
            assert got == want, (8, kind, got, want)


def test_criterion_09_table3_coinvariant(corpus8_file):
    workers = default_workers()
    with criterion(9, "Table 3 coinvariant counts, n<=8 (n=8 from a corpus file)", "<10min"):
        for n in (4, 5, 6, 7):
            corpus = enumerate_connected(n)
            for kind, want in zip(KINDS, TABLE3[n]):
                got = run_survey(corpus, kind, "coinvariant", workers=workers).with_mate
                assert got == want, (n, kind, got, want)
        with open(corpus8_file, encoding="ascii") as fh:
            corpus = list(read_graph6_lines(fh))
        for kind, want in zip(KINDS, TABLE3[8]):
            got = run_survey(corpus, kind, "coinvariant", workers=workers).with_mate
            assert got == want, (8, kind, got, want)


def test_criterion_10_symbolic_bipartite():
    with criterion(10, "Groebner checks in Z[n,m]: <L1>=<2n+1>, <L2>=<3,n+2m>, "
                       "non-memberships, representative 2-minors", "<5s"):
        _assert_suite(run_suite("symbolic-bipartite"))


def test_criterion_11_determined_by():
    workers = default_workers()
    with criterion(11, "K_n and K_{1,n-1} unique by distlap SNF, K_n by laplacian SNF, "
                       "SNF of F(K_n), n=4..8", "<10min"):
        complete = run_suite("determined-complete", max_n=8, workers=workers)
        star = run_suite("determined-star", max_n=8, workers=workers)
        assert (len(complete), len(star)) == (3 * 5, 5)
        _assert_suite(complete + star)


def test_fig1_critical_ideal_has_a_quadratic_generator():
    # the Fig. 1 graph: I_4 holds x5^2 - x5 - 1 and equals its listed basis
    results = run_suite("fig1-critical")
    assert len(results) == 2
    _assert_suite(results)


def test_criterion_12_property_suites():
    with criterion(12, "property suites on all connected graphs n<=6, all four kinds",
                   "<15min"):
        for n in range(1, 7):
            for g in enumerate_connected(n):
                for kind in KINDS:
                    matrix = build_matrix(g, kind)
                    snf = snf_integer(matrix)
                    deltas = list(snf.delta_sequence())

                    # f_j | f_{j+1}
                    for a, b in zip(snf.factors, snf.factors[1:]):
                        assert b % a == 0

                    # Delta oracle equivalence (integer SNF vs gcd of minors)
                    for k in range(1, n + 1):
                        assert snf.delta(k) == delta_bruteforce(matrix, k)

                    zprofile = determinantal_ideals(g, kind, "Zx")
                    qprofile = determinantal_ideals(g, kind, "Qx")

                    # containment chain membership
                    for k in range(n - 1):
                        lower = zprofile.ideals[k]
                        for p in zprofile.ideals[k + 1].canonical_basis():
                            assert lower.member(p)

                    # evaluation at 0 recovers the integer SNF Delta sequence
                    assert evaluate_profile(zprofile, 0) == deltas

                    # Z[x] and Q[x] varieties coincide
                    for k in range(1, n + 1):
                        va, vb = variety(zprofile, k), variety(qprofile, k)
                        assert (va.status, va.squarefree, va.roots) == (
                            vb.status, vb.squarefree, vb.roots)

                    # every rational variety root divides Delta_k; irrational
                    # cofactors divide in the ring of algebraic integers
                    for k in range(1, n + 1):
                        d = snf.delta(k)
                        if d == 0:
                            continue
                        v = variety(zprofile, k)
                        if v.status != "roots":
                            continue
                        roots, rest = strip_rational_roots(v.squarefree)
                        for lam in roots:
                            assert lam.denominator == 1 and lam != 0
                            assert d % int(lam) == 0
                        if rest.degree >= 1:
                            assert divides_in_algebraic_integers(d, rest)

                    # r-regular graphs: evaluation at r recovers SNF(L)
                    if kind == "adjacency":
                        degs = {g.degree(i) for i in range(n)}
                        if len(degs) == 1:
                            r = degs.pop()
                            lap = snf_integer(build_matrix(g, "laplacian"))
                            assert evaluate_profile(zprofile, r) == list(lap.delta_sequence())

                # SNF over Q[x] vs the polynomial minor-gcd oracle (n <= 5
                # exhaustively; the integer oracle above runs on everything)
                if n <= 5:
                    for kind in KINDS:
                        cm = char_matrix(g, kind)
                        qsnf = snf_poly_q(build_matrix(g, kind))
                        for k in range(1, n + 1):
                            assert qsnf.delta(k) == delta_bruteforce(cm, k)
