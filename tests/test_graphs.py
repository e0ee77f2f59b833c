import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detideals.graphs import (
    DisconnectedGraphError,
    Graph,
    Graph6Error,
    build_matrix,
    canonical_columns,
    canonical_graph,
    char_matrix,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    distance_matrix,
    enumerate_connected,
    generalized_char_matrix,
    is_connected,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)
from detideals.polyring import RING_Z, MultiPoly, UniPoly


# ---------------------------------------------------------------------------
# graph6 codec


def test_parse_graph6_appendix_graph():
    g = parse_graph6("Dt_")
    assert g.n == 5
    assert set(g.edges()) == {(0, 1), (0, 2), (0, 3), (0, 4), (2, 3)}


def test_parse_graph6_smallest_and_complete():
    g = parse_graph6("@")
    assert g.n == 1 and g.edges() == []
    k4 = parse_graph6("C~")
    assert k4.n == 4 and len(k4.edges()) == 6


def test_parse_graph6_header_and_bytes():
    assert parse_graph6(">>graph6<<Dt_") == parse_graph6(b"Dt_")


def test_parse_graph6_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("D")  # truncated body
    with pytest.raises(Graph6Error):
        parse_graph6("Dt")  # still truncated
    with pytest.raises(Graph6Error):
        parse_graph6("D" + chr(40))  # character below offset 63
    with pytest.raises(Graph6Error):
        parse_graph6("?")  # zero vertices
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # n > 62 encoding
    with pytest.raises(Graph6Error):
        parse_graph6("B" + chr(63 + 1))  # nonzero padding bit for n=3


def test_write_graph6_examples():
    assert write_graph6(parse_graph6("Dt_")) == "Dt_"
    assert write_graph6(Graph(1, (0,))) == "@"
    assert write_graph6(complete_graph(4)) == "C~"


@st.composite
def graphs_strategy(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, rows)


@given(graphs_strategy())
def test_graph6_roundtrip(g):
    assert parse_graph6(write_graph6(g)) == g


# ---------------------------------------------------------------------------
# matrices


def test_distance_matrix_examples():
    assert distance_matrix(path_graph(3)) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    k5 = complete_graph(5)
    d = distance_matrix(k5)
    assert all(d[i][j] == (0 if i == j else 1) for i in range(5) for j in range(5))
    with pytest.raises(DisconnectedGraphError):
        distance_matrix(Graph(2, (0, 0)))


def test_build_matrix_examples():
    kn = complete_graph(5)
    assert build_matrix(kn, "distlap") == build_matrix(kn, "laplacian")
    # K_{3,3} Laplacian: degree 3 on the diagonal, -1 across the parts
    l = build_matrix(complete_bipartite_graph(3, 3), "laplacian")
    for i in range(6):
        for j in range(6):
            if i == j:
                assert l[i][j] == 3
            elif (i < 3) == (j < 3):
                assert l[i][j] == 0
            else:
                assert l[i][j] == -1
    # path 0-1-2 (K_{1,2} with center at vertex 1)
    assert build_matrix(path_graph(3), "distlap") == [[3, -1, -2], [-1, 2, -1], [-2, -1, 3]]


def test_distance_triangle_inequality_and_adjacency(corpus5):
    for g in corpus5:
        d = distance_matrix(g)
        n = g.n
        for i in range(n):
            for j in range(n):
                assert (d[i][j] == 1) == g.has_edge(i, j)
                for k in range(n):
                    assert d[i][j] <= d[i][k] + d[k][j]


def test_distance_matrix_equals_floyd_warshall(corpus7):
    for g in [g for n in range(1, 7) for g in enumerate_connected(n)] + list(corpus7):
        n = g.n
        d = [[0 if i == j else 1 if g.has_edge(i, j) else n for j in range(n)]
             for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j])
        assert distance_matrix(g) == d, write_graph6(g)


def test_graph6_roundtrip_on_corpus(corpus6):
    for g in corpus6:
        assert parse_graph6(write_graph6(g)) == g


def test_laplacian_rows_sum_to_zero():
    for g in enumerate_connected(5):
        for kind in ("laplacian", "distlap"):
            m = build_matrix(g, kind)
            assert all(sum(row) == 0 for row in m)
            assert all(m[i][j] == m[j][i] for i in range(g.n) for j in range(g.n))


def test_char_matrix():
    k1 = Graph(1, (0,))
    assert char_matrix(k1, "adjacency") == [[UniPoly.variable(RING_Z)]]
    g = parse_graph6("Dt_")
    m = build_matrix(g, "laplacian")
    cm = char_matrix(g, "laplacian")
    for i in range(5):
        for j in range(5):
            assert cm[i][j](0) == -m[i][j]


def test_generalized_char_matrix_c4():
    c4 = cycle_graph(4)
    m = generalized_char_matrix(c4, "adjacency")
    x = [MultiPoly.variable(i, 4) for i in range(4)]
    minus1 = MultiPoly.const(-1, 4)
    zero = MultiPoly.zero(4)
    expected = [
        [x[0], minus1, zero, minus1],
        [minus1, x[1], minus1, zero],
        [zero, minus1, x[2], minus1],
        [minus1, zero, minus1, x[3]],
    ]
    assert m == expected
    # evaluating at deg(G) recovers L, at 0 recovers -A
    lap = build_matrix(c4, "laplacian")
    adj = build_matrix(c4, "adjacency")
    degs = tuple(c4.degree(i) for i in range(4))
    for i in range(4):
        for j in range(4):
            assert m[i][j](degs) == lap[i][j]
            assert m[i][j]((0, 0, 0, 0)) == -adj[i][j]


def test_generalized_char_matrix_rejects_other_kinds():
    with pytest.raises(ValueError):
        generalized_char_matrix(cycle_graph(4), "laplacian")


# ---------------------------------------------------------------------------
# families


def test_named_family_constructors():
    assert write_graph6(complete_graph(4)) == "C~"
    star = star_graph(5)
    assert star.degree(0) == 4 and all(star.degree(i) == 1 for i in range(1, 5))
    k33 = complete_bipartite_graph(3, 3)
    assert sorted(k33.degree(i) for i in range(6)) == [3] * 6
    with pytest.raises(ValueError):
        complete_bipartite_graph(0, 3)


# ---------------------------------------------------------------------------
# canonical forms and enumeration


@given(graphs_strategy(max_n=7), st.randoms())
@settings(deadline=None, max_examples=60)
def test_canonical_form_is_isomorphism_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    rows = [0] * g.n
    for i, j in g.edges():
        rows[perm[i]] |= 1 << perm[j]
        rows[perm[j]] |= 1 << perm[i]
    assert canonical_columns(Graph(g.n, rows)) == canonical_columns(g)


def test_enumerate_connected_counts():
    assert [len(enumerate_connected(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_enumerate_connected_properties(corpus6):
    assert all(is_connected(g) for g in corpus6)
    g6s = [write_graph6(g) for g in corpus6]
    assert len(set(g6s)) == len(g6s)
    # emitted graphs are canonical representatives, in deterministic order
    assert all(canonical_graph(g) == g for g in corpus6)
    assert list(enumerate_connected(6)) == list(corpus6)


def test_enumerate_connected_range():
    with pytest.raises(ValueError):
        enumerate_connected(0)
    with pytest.raises(ValueError):
        enumerate_connected(9)
