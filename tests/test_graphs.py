import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detideals.graphs import (
    DisconnectedGraphError,
    InputError,
    _all_columns,
    _columns,
    _graph_from_columns,
    _layers,
    _rows_from_columns,
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
# graphs


@pytest.mark.parametrize("n, rows, message", [
    (0, (), "vertex count"),
    (63, (0,) * 63, "vertex count"),
    (3, (0, 0), "row count"),
    (3, (0b1000, 0, 0), "outside the vertex range"),
    (3, (-1, 0, 0), "outside the vertex range"),
    (3, (0b1, 0, 0), "loops"),
    (3, (0b10, 0, 0), "symmetric"),  # an edge above the diagonal only
    (3, (0, 0b1, 0), "symmetric"),  # an edge below the diagonal only
    (3, (0b110, 0b1, 0), "symmetric"),  # 0-1 both ways, 0-2 in row 0 only
    # two faults: range and loop checks run over all rows before symmetry,
    # and the first row with a range or loop fault names it
    (3, (0b10, 0, 0b100), "loops"),
    (3, (0b10, 0, 0b1000), "outside the vertex range"),
    (3, (0, 0b10, 0b1000), "loops"),
    (3, (0b1000, 0b10, 0), "outside the vertex range"),
    (3, (0b1001, 0, 0), "outside the vertex range"),
])
def test_graph_rejects_bad_rows(n, rows, message):
    with pytest.raises(InputError, match=message):
        Graph(n, rows)


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 5)], "outside 0..2"),
    (3, [(0, -1)], "outside 0..2"),
    (3, [(3, 0)], "outside 0..2"),
    (3, [(0, 1), (1, 1)], "loops"),
    (0, [], "vertex count"),
    (-1, [], "vertex count"),
    (63, [(0, 1)], "vertex count"),
])
def test_from_edges_rejects_bad_input(n, edges, message):
    with pytest.raises(InputError, match=message):
        Graph.from_edges(n, edges)


def test_integral_non_int_input_is_read_exactly():
    # an Integral or an integral Fraction is an integer; floats and strings
    # are refused (tests/test_refusals.py)
    g = Graph(Fraction(2), [Fraction(2), True])
    assert g == Graph(2, [2, 1]) and all(type(v) is int for v in (g.n, *g.rows))
    h = Graph.from_edges(Fraction(3), [(Fraction(0), True), (1, Fraction(4, 2))])
    assert h == path_graph(3) and type(h.n) is int


def test_graph_symmetry_check_equals_the_pairwise_oracle():
    # every loop-free in-range row tuple is accepted iff it is symmetric
    rnd = random.Random(5)
    for _ in range(3000):
        n = rnd.randint(1, 9)
        rows = [rnd.getrandbits(n) & ~(1 << i) for i in range(n)]
        if rnd.random() < 0.5:  # mostly symmetric, with at most one flipped bit
            rows = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                        if rows[i] >> j & 1]).rows
            if n > 1 and rnd.random() < 0.5:
                i, j = rnd.sample(range(n), 2)
                rows = list(rows)
                rows[i] ^= 1 << j
        symmetric = all((rows[i] >> j & 1) == (rows[j] >> i & 1)
                        for i in range(n) for j in range(i + 1, n))
        if symmetric:
            assert Graph(n, rows).rows == tuple(rows)
        else:
            with pytest.raises(InputError, match="symmetric"):
                Graph(n, rows)


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
    with pytest.raises(Graph6Error):
        parse_graph6("D~" + chr(127))  # character above offset 63 + 63
    with pytest.raises(Graph6Error):
        parse_graph6("Dt\u00e9")  # not ASCII
    with pytest.raises(Graph6Error):
        parse_graph6(b"Dt\xe9")
    with pytest.raises(Graph6Error):
        parse_graph6(chr(127))  # size byte above 62 + 63


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


def write_graph6_oracle(g):
    """The per-bit encoder the codec replaced: the upper triangle column by
    column, six bits per character."""
    n = g.n
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append((g.rows[i] >> j) & 1)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        v = 0
        for b in bits[i : i + 6]:
            v = (v << 1) | b
        out.append(chr(v + 63))
    return "".join(out)


def graph6_body_oracle(n, body):
    """The per-bit decoder the codec replaced: the adjacency rows of a valid
    graph6 body on n vertices."""
    nbits = n * (n - 1) // 2
    bits = 0
    for ch in body:
        bits = (bits << 6) | (ord(ch) - 63)
    bits >>= 6 * len(body) - nbits
    rows = [0] * n
    pos = nbits
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if (bits >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def assert_codec_equals_oracle(g):
    g6 = write_graph6(g)
    assert g6 == write_graph6_oracle(g)
    assert list(parse_graph6(g6).rows) == graph6_body_oracle(g.n, g6[1:]) == list(g.rows)


@st.composite
def labelled_graphs(draw, max_n=62):
    """Any graph on 1..max_n vertices, its upper triangle drawn as one integer
    (one boolean per pair, as in `graphs_strategy`, is too slow at n = 62)."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [e for k, e in enumerate(pairs) if (edges >> k) & 1])


@given(labelled_graphs())
@settings(deadline=None, max_examples=300)
def test_graph6_roundtrip(g):
    assert_codec_equals_oracle(g)


def test_graph6_codec_equals_the_per_bit_oracle_at_the_edges():
    rnd = random.Random(62)
    edge_cases = [Graph(1, (0,)), Graph(2, (0, 0)), complete_graph(2),
                  Graph(62, (0,) * 62), complete_graph(62), path_graph(62), star_graph(62)]
    edge_cases += [Graph.from_edges(62, [(i, j) for i in range(62) for j in range(i + 1, 62)
                                         if rnd.random() < p]) for p in (0.1, 0.5, 0.9)]
    for g in edge_cases:
        assert_codec_equals_oracle(g)
    assert write_graph6(complete_graph(62)) == "}" + "~" * 315 + "_"  # 1,891 bits


@st.composite
def column_tuples(draw, max_n=62):
    n = draw(st.integers(1, max_n))
    return n, tuple(draw(st.integers(0, (1 << j) - 1)) for j in range(1, n))


@given(column_tuples())
@settings(deadline=None, max_examples=200)
def test_columns_invert_rows_from_columns(nc):
    n, cols = nc
    rows = _rows_from_columns(n, cols)
    assert _columns(n, rows) == cols
    assert _columns(n, Graph(n, rows).rows) == cols  # the rows are a valid graph


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


def distance_matrix_oracle(g):
    """All-pairs shortest paths by one `_layers` search per source (the
    former `distance_matrix`)."""
    n = g.n
    dist = []
    for s in range(n):
        row = [-1] * n
        for d, layer in enumerate(_layers(g, s)):
            while layer:
                low = layer & -layer
                layer ^= low
                row[low.bit_length() - 1] = d
        if -1 in row:
            raise DisconnectedGraphError("distance matrix of a disconnected graph")
        dist.append(row)
    return dist


def build_matrix_oracle(g, kind):
    """The four matrices entry by entry through `has_edge` and `degree` (the
    former `build_matrix`)."""
    n = g.n
    if kind == "adjacency":
        return [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    if kind == "laplacian":
        return [[g.degree(i) if i == j else (-1 if g.has_edge(i, j) else 0) for j in range(n)]
                for i in range(n)]
    d = distance_matrix_oracle(g)
    if kind == "distance":
        return d
    t = [sum(row) for row in d]
    return [[t[i] if i == j else -d[i][j] for j in range(n)] for i in range(n)]


def random_graphs(rnd, n, count, connected):
    """`count` graphs on n vertices, connected or not as asked, each drawn
    with an edge probability drawn from [0.02, 0.9]."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out = []
    while len(out) < count:
        p = rnd.uniform(0.02, 0.9)
        g = Graph.from_edges(n, [e for e in pairs if rnd.random() < p])
        if is_connected(g) == connected:
            out.append(g)
    return out


def assert_matrices_equal_oracle(g):
    for kind in ("adjacency", "laplacian", "distance", "distlap"):
        assert build_matrix(g, kind) == build_matrix_oracle(g, kind), (write_graph6(g), kind)
    assert distance_matrix(g) == distance_matrix_oracle(g)


def test_matrices_equal_the_oracle_on_relabelled_corpora(corpus7):
    rnd = random.Random(11)
    for g in [g for n in range(1, 7) for g in enumerate_connected(n)] + list(corpus7):
        assert_matrices_equal_oracle(g)
        assert_matrices_equal_oracle(relabel(g, rnd))


def test_matrices_equal_the_oracle_on_random_graphs():
    rnd = random.Random(62)
    for n in range(2, 63):
        for g in random_graphs(rnd, n, 3, connected=True):
            assert_matrices_equal_oracle(g)


def test_disconnected_graphs_have_no_distance_matrices():
    rnd = random.Random(63)
    disconnected = [relabel(g, rnd) for n in range(2, 8)
                    for g in map(lambda cols, n=n: _graph_from_columns(n, cols), _all_columns(n))
                    if not is_connected(g)]
    disconnected += [g for n in range(2, 63) for g in random_graphs(rnd, n, 2, connected=False)]
    for g in disconnected:
        for kind in ("distance", "distlap"):
            with pytest.raises(DisconnectedGraphError):
                build_matrix(g, kind)
        for kind in ("adjacency", "laplacian"):
            assert build_matrix(g, kind) == build_matrix_oracle(g, kind)


def test_graph6_roundtrip_on_corpus(corpus7):
    # every connected graph with n <= 7, canonical and relabelled
    rnd = random.Random(7)
    for g in [g for n in range(1, 7) for g in enumerate_connected(n)] + list(corpus7):
        assert_codec_equals_oracle(g)
        assert_codec_equals_oracle(relabel(g, rnd))


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
    assert write_graph6(cycle_graph(3)) == write_graph6(complete_graph(3))
    for n in (-1, 0, 1, 2):
        with pytest.raises(InputError, match="at least 3 vertices"):
            cycle_graph(n)


# ---------------------------------------------------------------------------
# canonical forms and enumeration


def relabel(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    rows = [0] * g.n
    for i, j in g.edges():
        rows[perm[i]] |= 1 << perm[j]
        rows[perm[j]] |= 1 << perm[i]
    return Graph(g.n, rows)


def twin_classes_oracle(n, rows):
    """Union-find classes of true and false twins, closed under transitivity
    by construction; swapping twins is an automorphism."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(n):
        for v in range(u + 1, n):
            mu = rows[u] & ~(1 << v)
            mv = rows[v] & ~(1 << u)
            if rows[u] == rows[v] or (mu == mv and (rows[u] >> v) & 1):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[rv] = ru
    return [find(v) for v in range(n)]


def lexmin_columns_oracle(g):
    """The lex-min search that `canonical_columns` replaced: at each depth it
    builds every eligible vertex's column from the placed vertices, sorts the
    candidates and cuts at the first column above the best."""
    n, rows = g.n, g.rows
    if n == 1:
        return ()
    twin = twin_classes_oracle(n, rows)
    best = [1 << p for p in range(1, n)]
    placed = []

    def dfs(mask):
        p = len(placed)
        if p == n:
            return
        items = []
        for v in range(n):
            if (mask >> v) & 1:
                continue
            if any(not (mask >> u) & 1 and twin[u] == twin[v] for u in range(v)):
                continue  # an unplaced twin with a smaller label covers v
            col = 0
            for u in placed:
                col = (col << 1) | ((rows[v] >> u) & 1)
            items.append((col, v))
        items.sort()
        for col, v in items:
            if p >= 1:
                b = best[p - 1]
                if col > b:
                    break
                if col < b:
                    best[p - 1] = col
                    for q in range(p, n - 1):
                        best[q] = 1 << (q + 1)
            placed.append(v)
            dfs(mask | (1 << v))
            placed.pop()

    dfs(0)
    return tuple(best)


@given(graphs_strategy(max_n=7), st.randoms())
@settings(deadline=None, max_examples=60)
def test_canonical_form_is_isomorphism_invariant(g, rnd):
    assert canonical_columns(relabel(g, rnd)) == canonical_columns(g)


def one_vertex_extensions(n):
    """Every graph made by joining a new vertex n-1 to a nonempty set of
    vertices of a connected graph on n-1 vertices, as adjacency rows."""
    for parent in enumerate_connected(n - 1):
        prows = parent.rows
        for mask in range(1, 1 << (n - 1)):
            yield [prows[i] | (((mask >> i) & 1) << (n - 1)) for i in range(n - 1)] + [mask]


def test_canonical_columns_equal_the_dfs_oracle_on_one_vertex_extensions():
    for n in range(2, 8):
        for rows in one_vertex_extensions(n):
            g = Graph(n, rows)
            assert canonical_columns(g) == lexmin_columns_oracle(g), write_graph6(g)


def test_canonical_columns_equal_the_dfs_oracle_on_random_graphs():
    rnd = random.Random(2024)
    checked = 0
    while checked < 200:
        n = rnd.randint(8, 10)
        p = rnd.uniform(0.15, 0.85)
        g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if rnd.random() < p])
        if not is_connected(g):
            continue
        h = relabel(g, rnd)
        cols = canonical_columns(h)
        assert cols == lexmin_columns_oracle(h) == canonical_columns(g), write_graph6(g)
        checked += 1


def petersen_graph():
    return Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)])


def prism_graph(k):
    """C_k x K_2: two k-cycles joined by a perfect matching (cubic)."""
    return Graph.from_edges(2 * k, [(i, (i + 1) % k) for i in range(k)]
                            + [(k + i, k + (i + 1) % k) for i in range(k)]
                            + [(i, k + i) for i in range(k)])


def symmetric_graphs():
    yield from (complete_graph(n) for n in range(1, 10))
    yield from (star_graph(n) for n in range(2, 10))
    yield from (complete_bipartite_graph(a, b) for a in range(1, 5) for b in range(a, 6))
    yield from (cycle_graph(n) for n in range(3, 10))
    yield petersen_graph()
    yield from (prism_graph(k) for k in (3, 5))
    yield Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])  # 2 K_3


def test_canonical_columns_equal_the_dfs_oracle_on_symmetric_graphs():
    rnd = random.Random(11)
    for g in symmetric_graphs():
        cols = lexmin_columns_oracle(g)
        assert canonical_columns(g) == cols, write_graph6(g)
        assert canonical_columns(relabel(g, rnd)) == cols, write_graph6(g)


@given(graphs_strategy(max_n=9).filter(lambda g: g.n >= 2))
@settings(deadline=None, max_examples=200)
def test_lexmin_prefix_is_the_lexmin_form_of_the_parent(g):
    # what orderly generation rests on: the first n-2 columns of a lex-min
    # string are the lex-min string of the graph without its last vertex
    cols = canonical_columns(g)
    assert canonical_columns(_graph_from_columns(g.n - 1, cols[:-1])) == cols[:-1]


def test_orderly_generation_keeps_exactly_the_canonical_children():
    # every column on every parent, those below the swap cut included
    for n in range(2, 8):
        kept = set(_all_columns(n))
        for cols in _all_columns(n - 1):
            for c in range(1 << (n - 1)):
                child = cols + (c,)
                canonical = canonical_columns(_graph_from_columns(n, child)) == child
                assert (child in kept) == canonical, child
                if cols and c < cols[-1] << 1:
                    assert not canonical, child


def test_all_columns_counts_every_graph(corpus8):
    # OEIS A000088: graphs on n vertices, connected or not (the corpus8
    # fixture has already filled the cache of _all_columns(8))
    assert [len(_all_columns(n)) for n in range(1, 9)] == [1, 2, 4, 11, 34, 156, 1044, 12346]
    assert all(list(_all_columns(n)) == sorted(_all_columns(n)) for n in range(1, 9))


# SHA-256 of the newline-joined graph6 strings of enumerate_connected(n)
ENUMERATION_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "2c1256ffd0617e16898c604363be63a1bf9bd24d83d6227d4b2adb3360248bd3",
    4: "bf158ea8c37a3ec7a9b1386892d1a29fd3bf86878fb29262e467775aba813399",
    5: "71015208c0ed13ccfc64303f02627b677e19ddff0703c9c91117070b34be3031",
    6: "ff0c9e8927a4d58e52160988a461ebda7071d5b4b5d71d262a35ce5fa6034056",
    7: "b8b85762ca13a0273d6c1392cc500221f97df2c933be4f76664547c41f0d3f6e",
    8: "28b9222da489bdd97eff49da6a8d2aed76ac19453b4b69ece911cb3dd855c398",
}


def enumeration_sha256(corpus):
    return hashlib.sha256("\n".join(write_graph6(g) for g in corpus).encode()).hexdigest()


def test_enumerate_connected_counts():
    assert [len(enumerate_connected(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    for n in range(1, 8):
        assert enumeration_sha256(enumerate_connected(n)) == ENUMERATION_SHA256[n], n


def test_enumerate_connected_n8(corpus8):
    assert len(corpus8) == 11117
    assert enumeration_sha256(corpus8) == ENUMERATION_SHA256[8]


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
        enumerate_connected(10)
