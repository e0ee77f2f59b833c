"""Named verification suites: worked examples, golden vectors and table checks.

Every ideal comparison goes through Ideal.equal (canonical bases), never
through string matching, so the checks are independent of display order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import graphs
from .grobner import QX, ZX_UNI, Ideal, zmulti
from .polyring import RING_Q, RING_Z, MultiPoly, UniPoly
from .profiles import (
    determinantal_ideals,
    evaluate_profile,
    invariant_factors_from_deltas,
    multivariate_ideals,
    variety,
)
from .smith import SnfResult, cokernel, snf_integer
from .survey import run_surveys, verify_determined_by


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(results: list[CheckResult], name: str, passed: bool, detail: str = ""):
    results.append(CheckResult(name, bool(passed), detail))


# -- polynomial literals -----------------------------------------------------

X = UniPoly.variable(RING_Z)


def zc(c: int) -> UniPoly:
    return UniPoly.const(c, RING_Z)


def zx_ideal(*polys: UniPoly) -> Ideal:
    return Ideal(ZX_UNI, polys)


def _nm_vars():
    n = MultiPoly.variable(0, 2)
    m = MultiPoly.variable(1, 2)
    one = MultiPoly.const(1, 2)
    return n, m, one


NM_RING = zmulti(2)  # Z[n, m]


# ---------------------------------------------------------------------------
# Appendix A golden vectors (the 5-vertex graph "Dt_")


def suite_ltimes(max_n=None, workers=None) -> list[CheckResult]:
    results: list[CheckResult] = []
    g = graphs.parse_graph6("Dt_")
    _check(results, "Dt_ decodes to the documented edge set",
           set(g.edges()) == {(0, 1), (0, 2), (0, 3), (0, 4), (2, 3)})

    adj = determinantal_ideals(g, "adjacency", "Zx")
    for k in (1, 2, 3):
        _check(results, f"adjacency I_{k} trivial", adj.ideals[k - 1].is_trivial())
    _check(results, "adjacency I_4 = <2, t+1>",
           adj.ideals[3].equal(zx_ideal(zc(2), X + zc(1))))
    _check(results, "adjacency I_5 = <t^5-5t^3-2t^2+2t>",
           adj.ideals[4].equal(zx_ideal(X**5 - zc(5) * X**3 - zc(2) * X**2 + zc(2) * X)))
    _check(results, "adjacency corank 3", adj.corank == 3)

    dist = determinantal_ideals(g, "distance", "Zx")
    _check(results, "distance corank 3", dist.corank == 3)
    _check(results, "distance I_4 = <6, t-1>",
           dist.ideals[3].equal(zx_ideal(zc(6), X - zc(1))))
    _check(results, "distance I_5 = <t^5-25t^3-70t^2-66t-20>",
           dist.ideals[4].equal(zx_ideal(
               X**5 - zc(25) * X**3 - zc(70) * X**2 - zc(66) * X - zc(20))))
    return results


# ---------------------------------------------------------------------------
# K_{3,3} Laplacian characteristic ideals


def suite_k33(max_n=None, workers=None) -> list[CheckResult]:
    results: list[CheckResult] = []
    g = graphs.complete_bipartite_graph(3, 3)
    profile = determinantal_ideals(g, "laplacian", "Zx")
    xm3 = X - zc(3)
    expected = {
        3: zx_ideal(xm3),
        4: zx_ideal(xm3**2),
        5: zx_ideal(xm3**3 * (X + zc(9)), zc(3) * xm3**3),
        6: zx_ideal(X * xm3**4 * (X - zc(6))),
    }
    for k in (1, 2):
        _check(results, f"I_{k} trivial", profile.ideals[k - 1].is_trivial())
    for k, ideal in expected.items():
        _check(results, f"I_{k} matches the listed basis", profile.ideals[k - 1].equal(ideal))

    snf = snf_integer(graphs.build_matrix(g, "laplacian"))
    _check(results, "SNF(L) = diag(1,1,3,3,9,0)",
           snf.factors == (1, 1, 3, 3, 9) and snf.rank == 5 and snf.n == 6)
    _check(results, "evaluating the ideals at x=0 recovers the Delta sequence",
           evaluate_profile(profile, 0) == [1, 1, 3, 9, 81, 0])
    v = variety(profile, 6)
    _check(results, "variety at k=6 is {0, 3, 6}",
           v.status == "roots" and v.roots == (Fraction(0), Fraction(3), Fraction(6)))
    return results


# ---------------------------------------------------------------------------
# C_4 critical ideals


def suite_c4(max_n=None, workers=None) -> list[CheckResult]:
    results: list[CheckResult] = []
    g = graphs.cycle_graph(4)
    profile = multivariate_ideals(g, "adjacency")
    ring = profile.ring
    x = [MultiPoly.variable(i, 4) for i in range(4)]
    _check(results, "I_1, I_2 trivial",
           profile.ideals[0].is_trivial() and profile.ideals[1].is_trivial())
    i3 = Ideal(ring, [x[0] + x[2], x[1] + x[3], x[2] * x[3]])
    _check(results, "I_3 = <x0+x2, x1+x3, x2*x3>", profile.ideals[2].equal(i3))
    gen4 = (x[0] * x[1] * x[2] * x[3] - x[0] * x[1] - x[0] * x[3]
            - x[1] * x[2] - x[2] * x[3])
    _check(results, "I_4 is the principal determinant ideal",
           profile.ideals[3].equal(Ideal(ring, [gen4])))
    _check(results, "corank 2", profile.corank == 2)

    deltas = evaluate_profile(profile, (2, 2, 2, 2))
    _check(results, "evaluation at deg(C4) gives Delta = (1,1,4,0)",
           deltas == [1, 1, 4, 0])
    group = cokernel(SnfResult("Z", 4, invariant_factors_from_deltas(deltas)[0]))
    _check(results, "critical group K(C4) = Z_4", group.torsion == (4,))
    deltas0 = evaluate_profile(profile, (0, 0, 0, 0))
    _check(results, "evaluation at 0 gives Delta = (1,1,0,0)", deltas0 == [1, 1, 0, 0])
    group0 = cokernel(SnfResult("Z", 4, invariant_factors_from_deltas(deltas0)[0]))
    _check(results, "Smith group S(C4) = Z^2", group0.torsion == () and group0.free_rank == 2)
    return results


# ---------------------------------------------------------------------------
# Fig. 2: the unique cospectral 6-vertex pair over R[x] that splits over Z[x]


def fig2_graphs() -> tuple[graphs.Graph, graphs.Graph]:
    g1 = graphs.Graph.from_edges(
        6, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)])
    g2 = graphs.Graph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (2, 5), (4, 5)])
    return g1, g2


def suite_fig2(max_n=None, workers=None) -> list[CheckResult]:
    results: list[CheckResult] = []
    g1, g2 = fig2_graphs()
    q1 = determinantal_ideals(g1, "adjacency", "Qx")
    q2 = determinantal_ideals(g2, "adjacency", "Qx")
    _check(results, "Q[x] profiles are equal for every k",
           all(a.equal(b) for a, b in zip(q1.ideals, q2.ideals)))
    xq = UniPoly.variable(RING_Q)

    def qc(c):
        return UniPoly.const(c, RING_Q)

    _check(results, "I_5 over Q = <x+1>",
           q1.ideals[4].equal(Ideal(QX, [xq + qc(1)])))
    char6 = (xq - qc(1)) * (xq + qc(1)) ** 2 * (xq**3 - xq**2 - qc(5) * xq + qc(1))
    _check(results, "I_6 over Q = <(x-1)(x+1)^2(x^3-x^2-5x+1)>",
           q1.ideals[5].equal(Ideal(QX, [char6])))

    z1 = determinantal_ideals(g1, "adjacency", "Zx")
    z2 = determinantal_ideals(g2, "adjacency", "Zx")
    _check(results, "G1: I_k trivial for k <= 4", z1.corank == 4)
    _check(results, "G2: I_k trivial for k <= 3", z2.corank == 3)
    _check(results, "G2: I_4 = <2, x+1>",
           z2.ideals[3].equal(zx_ideal(zc(2), X + zc(1))))
    _check(results, "G1: I_5 = <2(x+1), (x+1)(x^2+1)>",
           z1.ideals[4].equal(zx_ideal(zc(2) * (X + zc(1)),
                                       (X + zc(1)) * (X**2 + zc(1)))))
    _check(results, "G2: I_5 = <4(x+1), (x+1)(x-3)>",
           z2.ideals[4].equal(zx_ideal(zc(4) * (X + zc(1)),
                                       (X + zc(1)) * (X - zc(3)))))
    charz = (X - zc(1)) * (X + zc(1)) ** 2 * (X**3 - X**2 - zc(5) * X + zc(1))
    _check(results, "both I_6 over Z equal the characteristic polynomial ideal",
           z1.ideals[5].equal(zx_ideal(charz)) and z2.ideals[5].equal(zx_ideal(charz)))
    _check(results, "Z[x] profiles differ (k=4 and k=5)",
           not z1.ideals[3].equal(z2.ideals[3]) and not z1.ideals[4].equal(z2.ideals[4]))

    same_varieties = True
    for k in range(1, 7):
        va, vb = variety(z1, k), variety(z2, k)
        if (va.status, va.squarefree, va.roots) != (vb.status, vb.squarefree, vb.roots):
            same_varieties = False
    _check(results, "per-k varieties over Z[x] coincide", same_varieties)
    return results


# ---------------------------------------------------------------------------
# Appendix B ideal-equality regression


def suite_appendix_b(max_n=None, workers=None) -> list[CheckResult]:
    results: list[CheckResult] = []
    p1 = X**3 + zc(1086) * X**2 - zc(22022) * X + zc(108388)
    p2 = zc(1106) * X**2 - zc(22120) * X + zc(108388)
    p3 = X**3 - zc(20) * X**2 + zc(98) * X
    ideal_i = zx_ideal(p1, p2)
    ideal_j = zx_ideal(p3, p2)
    _check(results, "the two ideals are equal", ideal_i.equal(ideal_j))
    _check(results, "canonical bases are identical lists",
           ideal_i.canonical_basis() == ideal_j.canonical_basis())
    _check(results, "mutual membership of all generators",
           all(ideal_j.member(p) for p in (p1, p2))
           and all(ideal_i.member(p) for p in (p3, p2)))
    return results


# ---------------------------------------------------------------------------
# characteristic ideals of complete graphs


def suite_kn_formula(max_n=None, workers=None) -> list[CheckResult]:
    results: list[CheckResult] = []
    top = 8 if max_n is None else max_n
    for n in range(2, top + 1):
        g = graphs.complete_graph(n)
        profile = determinantal_ideals(g, "adjacency", "Zx")
        ok = True
        for k in range(1, n):
            if not profile.ideals[k - 1].equal(zx_ideal((X + zc(1)) ** (k - 1))):
                ok = False
        last = zx_ideal((X + zc(1) - zc(n)) * (X + zc(1)) ** (n - 1))
        if not profile.ideals[n - 1].equal(last):
            ok = False
        _check(results, f"K_{n}: I_k = <(x+1)^(k-1)>, I_n = <(x+1-n)(x+1)^(n-1)>", ok)
        snf = snf_integer(graphs.build_matrix(g, "adjacency"))
        _check(results, f"K_{n}: SNF(A) = diag(1,..,1,{n - 1})",
               snf.factors == (1,) * (n - 1) + (n - 1,))
        vn = variety(profile, n)
        _check(results, f"K_{n}: V(I_n) = {{-1, {n - 1}}}",
               vn.roots == tuple(sorted((Fraction(-1), Fraction(n - 1)))))
    return results


# ---------------------------------------------------------------------------
# Fig. 1: the 6-vertex graph whose fourth critical ideal has a quadratic generator


def fig1_graph() -> graphs.Graph:
    return graphs.Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (2, 5), (3, 5), (4, 5)])


def suite_fig1_critical(max_n=None, workers=None) -> list[CheckResult]:
    results: list[CheckResult] = []
    g = fig1_graph()
    profile = multivariate_ideals(g, "adjacency")
    ring = profile.ring
    x = [MultiPoly.variable(i, 6) for i in range(6)]
    one = MultiPoly.const(1, 6)
    quad = x[5] * x[5] - x[5] - one
    listed = Ideal(ring, [
        x[0] + x[5] - one,
        x[1] + x[5] - one,
        x[2] - x[5],
        x[3] - x[5],
        x[4] + x[5] - one,
        quad,
    ])
    i4 = profile.ideals[3]
    _check(results, "I_4 contains x5^2 - x5 - 1", i4.member(quad))
    _check(results, "I_4 equals the listed six-generator basis", i4.equal(listed))
    return results


# ---------------------------------------------------------------------------
# symbolic distance-Laplacian checks for complete bipartite graphs


def _block_representative(sizes: tuple[int, ...],
                          diagonal: tuple[MultiPoly, ...]) -> list[list[MultiPoly]]:
    """The distance Laplacian of a complete multipartite graph on a block
    representative, entries in Z[n,m]: block b has sizes[b] vertices and
    diagonal[b] on the diagonal, -2 lies inside a block, -1 across blocks."""
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    two, one = MultiPoly.const(2, 2), MultiPoly.const(1, 2)
    return [[diagonal[a] if i == j else -two if a == b else -one for j, b in enumerate(block)]
            for i, a in enumerate(block)]


def suite_symbolic_bipartite(max_n=None, workers=None) -> list[CheckResult]:
    from .profiles import minors_k

    results: list[CheckResult] = []
    n, m, one = _nm_vars()
    two, three = MultiPoly.const(2, 2), MultiPoly.const(3, 2)

    l1 = [
        (n * n).scale(4) - n.scale(4) - three,          # 4n^2 - 4n - 3
        n.scale(2) + one,                               # 2n + 1
        (n * n).scale(2) - n - one,                     # 2n^2 - n - 1
    ]
    ideal_l1 = Ideal(NM_RING, l1)
    expected_l1 = Ideal(NM_RING, [n.scale(2) + one])
    _check(results, "<L1> = <2n+1>", ideal_l1.equal(expected_l1))

    l2 = [
        (n * n).scale(4) + (n * m).scale(4) - n.scale(8) + m * m - m.scale(4),
        n.scale(2) + m,
        MultiPoly.zero(2),
        (n * n).scale(2) + (n * m).scale(5) - n.scale(6) + (m * m).scale(2) - m.scale(6) + three,
        n.scale(4) + m.scale(2) - three,
        n.scale(2) + m.scale(4) - three,
        three,
        n + m.scale(2),
        n * n + (n * m).scale(4) - n.scale(4) + (m * m).scale(4) - m.scale(8),
    ]
    ideal_l2 = Ideal(NM_RING, l2)
    expected_l2 = Ideal(NM_RING, [three, n + m.scale(2)])
    _check(results, "<L2> = <3, n+2m>", ideal_l2.equal(expected_l2))

    _check(results, "m+n-1 is not in <3, n+2m>",
           not expected_l2.member(m + n - one))
    _check(results, "2(n+m)+1 is not in <3, n+2m>",
           not expected_l2.member((n + m).scale(2) + one))

    # F(K_{n,1}) on a (4,1) block representative: diagonal 2n - 1 and n
    star_minors = minors_k(_block_representative((4, 1), (n + n - one, n)), 2)
    _check(results, "2-minors of the star representative generate <L1>",
           Ideal(NM_RING, star_minors).equal(ideal_l1))
    # F(K_{n,m}) on a (4,4) block representative: diagonal 2n + m - 2 and n + 2m - 2
    bip_minors = minors_k(_block_representative((4, 4), (n + n + m - two, n + m + m - two)), 2)
    _check(results, "2-minors of the bipartite representative generate <L2>",
           Ideal(NM_RING, bip_minors).equal(ideal_l2))
    return results


# ---------------------------------------------------------------------------
# determined-by-SNF suites (exhaustive per corpus)


def suite_determined_complete(max_n=None, workers=None) -> list[CheckResult]:
    results: list[CheckResult] = []
    top = 7 if max_n is None else max_n
    for n in range(4, top + 1):
        corpus = graphs.enumerate_connected(n)
        kn = graphs.complete_graph(n)
        _check(results, f"K_{n} unique distlap coinvariant key among {len(corpus)} graphs",
               verify_determined_by(corpus, kn, "distlap", "coinvariant", workers=workers))
        _check(results, f"K_{n} unique laplacian coinvariant key",
               verify_determined_by(corpus, kn, "laplacian", "coinvariant", workers=workers))
        # F(K_n) = n*I - J, whose SNF is diag(1, n, ..., n, 0)
        snf = snf_integer(graphs.build_matrix(kn, "distlap"))
        _check(results, f"K_{n}: second invariant factor of F recorded",
               snf.diagonal() == (1,) + (n,) * (n - 2) + (0,),
               detail=f"f_2(F(K_{n})) = {snf.factors[1]}")
    return results


def suite_determined_star(max_n=None, workers=None) -> list[CheckResult]:
    results: list[CheckResult] = []
    top = 7 if max_n is None else max_n
    for n in range(4, top + 1):
        corpus = graphs.enumerate_connected(n)
        star = graphs.star_graph(n)
        _check(results, f"K_1,{n - 1} unique distlap coinvariant key among {len(corpus)} graphs",
               verify_determined_by(corpus, star, "distlap", "coinvariant", workers=workers))
    return results


# ---------------------------------------------------------------------------
# tables


TABLE1 = {  # n -> kind -> (codet-Q count, codet-Z count)
    5: {"adjacency": (0, 0), "laplacian": (0, 0), "distance": (0, 0), "distlap": (0, 0)},
    6: {"adjacency": (2, 0), "laplacian": (4, 2), "distance": (0, 0), "distlap": (0, 0)},
    7: {"adjacency": (63, 6), "laplacian": (115, 14), "distance": (22, 0), "distlap": (43, 8)},
    8: {"adjacency": (1353, 464), "laplacian": (1611, 280), "distance": (658, 186),
        "distlap": (745, 130)},
}

TABLE2 = {  # n -> cospectral counts for (adjacency, laplacian, distance, distlap)
    5: (0, 0, 0, 0),
    6: (2, 4, 0, 0),
    7: (63, 115, 22, 43),
    8: (1353, 1611, 658, 745),
}

TABLE3 = {  # n -> coinvariant counts for (adjacency, laplacian, distance, distlap)
    4: (4, 2, 2, 0),
    5: (20, 8, 15, 0),
    6: (112, 57, 102, 0),
    7: (853, 526, 835, 18),
    8: (11117, 8027, 11080, 455),
}

KINDS = graphs.MATRIX_KINDS


def suite_tables(max_n=None, workers=None) -> list[CheckResult]:
    rows: dict[str, list[CheckResult]] = {"table1": [], "table2": [], "table3": []}
    top = 7 if max_n is None else max_n
    for n in sorted(n for n in TABLE1.keys() | TABLE2.keys() | TABLE3.keys() if n <= top):
        corpus = graphs.enumerate_connected(n)
        for i, kind in enumerate(KINDS):
            want = {}  # mode -> (table, count)
            if n in TABLE1:
                want["codet-Q"], want["codet-Z"] = (("table1", c) for c in TABLE1[n][kind])
            if n in TABLE2:
                want["cospectral"] = "table2", TABLE2[n][i]
            if n in TABLE3:
                want["coinvariant"] = "table3", TABLE3[n][i]
            for report in run_surveys(corpus, kind, tuple(want), workers=workers):
                table, count = want[report.mode]
                _check(rows[table], f"{table} n={n} {kind} {report.mode} = {count}",
                       report.with_mate == count, detail=f"got {report.with_mate}")
    return rows["table1"] + rows["table2"] + rows["table3"]


# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "ltimes": suite_ltimes,
    "k33": suite_k33,
    "c4": suite_c4,
    "fig2": suite_fig2,
    "appendixB": suite_appendix_b,
    "kn-formula": suite_kn_formula,
    "fig1-critical": suite_fig1_critical,
    "symbolic-bipartite": suite_symbolic_bipartite,
    "determined-complete": suite_determined_complete,
    "determined-star": suite_determined_star,
    "tables": suite_tables,
}


def run_suite(name: str, max_n: int | None = None,
              workers: int | None = None) -> list[CheckResult]:
    return SUITES[name](max_n=max_n, workers=workers)
