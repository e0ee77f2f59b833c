import math
import random
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detideals.graphs import (
    MATRIX_KINDS,
    Graph,
    build_matrix,
    char_matrix,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    enumerate_connected,
    generalized_char_matrix,
    is_connected,
    path_graph,
)
from detideals import smith
from detideals.grobner import QX, ZX_UNI, Ideal, zmulti
from detideals.polyring import RING_Q, RING_Z, MultiPoly, UniPoly
from detideals.profiles import minors_k
from detideals.smith import (
    GroupDescription,
    char_minors,
    char_poly,
    cokernel,
    delta_bruteforce,
    deltas_q,
    minor_tables,
    packed_char_matrix,
    snf_integer,
    snf_poly_q,
    unpack_minors,
)

KINDS = MATRIX_KINDS
XQ = UniPoly.variable(RING_Q)


def qc(c):
    return UniPoly.const(c, RING_Q)


# ---------------------------------------------------------------------------
# integer SNF


def test_snf_k33_laplacian():
    snf = snf_integer(build_matrix(complete_bipartite_graph(3, 3), "laplacian"))
    assert snf.factors == (1, 1, 3, 3, 9)
    assert snf.rank == 5 and snf.n == 6
    assert snf.diagonal() == (1, 1, 3, 3, 9, 0)


def test_snf_adjacency_complete():
    for n in range(2, 7):
        snf = snf_integer(build_matrix(complete_graph(n), "adjacency"))
        assert snf.factors == (1,) * (n - 1) + (n - 1,)


def test_snf_laplacian_complete():
    # settles the diag(1,n,...,n,0) vs diag(1,n-1,...) question computationally
    for n in range(2, 7):
        snf = snf_integer(build_matrix(complete_graph(n), "laplacian"))
        assert snf.factors == (1,) + (n,) * (n - 2)
    assert delta_bruteforce(build_matrix(complete_graph(3), "laplacian"), 2) == 3


def test_snf_c4_and_star():
    assert snf_integer(build_matrix(cycle_graph(4), "laplacian")).factors == (1, 1, 4)
    assert snf_integer(build_matrix(path_graph(3), "distlap")).factors == (1, 5)


def test_snf_zero_and_identity():
    assert snf_integer([[0, 0], [0, 0]]).factors == ()
    assert snf_integer([[1, 0], [0, 1]]).factors == (1, 1)
    assert snf_integer([[2, 0], [0, 3]]).factors == (1, 6)


matrices = st.lists(
    st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=4, max_size=4
)


def _diag(*d):
    return [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]


@given(matrices)
@example(_diag(12, 18, 8, 27))  # out of order, no entry divides the next
@example(_diag(6, 4, 9, 1))
@example(_diag(0, 10, 4, 6))  # rank 3
@example([[2, 3, 0, 0], [3, 4, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]])  # remainder in its column
@example([[2, 3, 0, 0], [4, 8, 0, 0], [0, 0, 6, 0], [0, 0, 0, 10]])  # remainder in its row only
@example([[-2, 4, 0, 0], [6, 9, 0, 0], [0, 0, -3, 3], [0, 0, 3, 5]])  # negative least entry
@example([[4, 2, 0, 6], [6, 9, 0, 3], [0, 0, 0, 0], [8, 4, 0, 12]])  # off the diagonal, zero row
# remainders of different sizes in the pivot's column (5, 2, 6 mod 7; -7, -3, -4 mod -11)
@example([[7, 120, 131, 140], [103, 211, 149, 167], [226, 193, 307, 251], [300, 113, 157, 409]])
@example([[-11, 150, 0, 205], [367, 0, 120, 0], [-245, 0, 0, 131], [150, 0, 0, 0]])
@example([[13, 145, 999, 0], [26, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])  # 2, 11 in its row only
@settings(deadline=None, max_examples=80)
def test_snf_matches_bruteforce_oracle(m):
    snf = snf_integer(m)
    for k in range(1, 5):
        assert snf.delta(k) == delta_bruteforce(m, k)
    for a, b in zip(snf.factors, snf.factors[1:]):
        assert b % a == 0


@given(matrices)
@settings(deadline=None, max_examples=40)
def test_snf_determinant_invariance(m):
    det = delta_bruteforce(m, 4)  # |det| as gcd of the single 4-minor
    snf = snf_integer(m)
    if det:
        prod = math.prod(snf.factors)
        assert prod == det


# ---------------------------------------------------------------------------
# SNF over Q[x]


def test_snf_poly_q_k33():
    snf = snf_poly_q(build_matrix(complete_bipartite_graph(3, 3), "laplacian"))
    xm3 = XQ - qc(3)
    assert snf.factors == (
        qc(1),
        qc(1),
        xm3,
        xm3,
        xm3,
        XQ * xm3 * (XQ - qc(6)),
    )


def test_snf_poly_q_single_vertex():
    from detideals.graphs import Graph

    snf = snf_poly_q(build_matrix(Graph(1, (0,)), "adjacency"))
    assert snf.factors == (XQ,)


def test_snf_poly_q_fig2_g1():
    from detideals.suites import fig2_graphs

    g1, _ = fig2_graphs()
    snf = snf_poly_q(build_matrix(g1, "adjacency"))
    assert snf.factors[4] == XQ + qc(1)
    assert snf.factors[5] == (XQ - qc(1)) * (XQ + qc(1)) * (XQ**3 - XQ**2 - qc(5) * XQ + qc(1))


def test_snf_poly_q_product_is_char_poly():
    for g in enumerate_connected(5)[:8]:
        for kind in ("adjacency", "distlap"):
            snf = snf_poly_q(build_matrix(g, kind))
            prod = qc(1)
            for f in snf.factors:
                prod = prod * f
            assert prod == char_poly(build_matrix(g, kind)).to_q()
            for a, b in zip(snf.factors, snf.factors[1:]):
                from detideals.polyring import divmod_poly

                assert divmod_poly(b, a)[1].is_zero()


def test_snf_poly_q_matches_bruteforce():
    c4 = cycle_graph(4)
    snf = snf_poly_q(build_matrix(c4, "laplacian"))
    for k in range(1, 5):
        assert snf.delta(k) == delta_bruteforce(char_matrix(c4, "laplacian"), k)


def _p3_with(*edits):
    m = build_matrix(path_graph(3), "adjacency")
    for i, j, entry in edits:
        m[i][j] = entry
    return m


HALF = Fraction(1, 2)


@pytest.mark.parametrize("matrix, reason", [
    (_p3_with()[:2], "square"),
    (_p3_with((0, 1, 2)), "symmetric"),
])
def test_snf_poly_q_rejects_inputs_outside_its_domain(matrix, reason):
    # snf_poly_q takes a symmetric integer matrix M only
    with pytest.raises(ValueError, match=reason):
        snf_poly_q(matrix)


@pytest.mark.parametrize("call, entry", [
    (lambda: char_poly([[HALF]]), "entry (0,0)"),
    (lambda: deltas_q([[HALF]]), "entry (0,0)"),
    (lambda: snf_integer([[2.7]]), "entry (0,0)"),
    (lambda: snf_poly_q(_p3_with((1, 2, HALF), (2, 1, HALF))), "entry (1,2)"),
    (lambda: snf_poly_q(_p3_with((2, 2, HALF))), "entry (2,2)"),
    (lambda: UniPoly([0.5, 1]), "coefficient 0"),
    (lambda: MultiPoly(1, {(1.5,): 2}), "exponent (1.5,)"),
], ids=["char_poly", "deltas_q", "snf_integer", "snf_poly_q-off-diagonal",
        "snf_poly_q-diagonal", "UniPoly", "MultiPoly"])
def test_non_integer_input_is_rejected(call, entry):
    # exact answers: a non-integer entry is an error, never truncated
    with pytest.raises(ValueError, match=re.escape(entry)):
        call()


def test_integral_fractions_are_accepted():
    assert UniPoly([Fraction(2), 1]) == UniPoly([2, 1])
    assert MultiPoly(1, {(1,): Fraction(3)}) == MultiPoly(1, {(1,): 3})
    assert snf_integer([[Fraction(4)]]).factors == (4,)
    assert char_poly([[Fraction(-1)]]) == UniPoly([1, 1])


def least_entry_oracle(rows):
    """The former `_least_entry`: one row-major scan for the first nonzero
    entry of least absolute value, stopping at the first +-1."""
    best = None
    for a, row in enumerate(rows):
        for b, v in enumerate(row):
            if v and (best is None or abs(v) < best[0]):
                if v == 1 or v == -1:
                    return a, b
                best = abs(v), a, b
    return best and best[1:]


def packed_char_matrix_oracle(m, ring):
    """The former packing of x*I - M or diag(x_0..x_{n-1}) - M, entry by
    entry, for an integer matrix M."""
    n = len(m)
    bound = 1
    for row in m:
        bound *= 1 + sum(abs(v) for v in row)
    shift = bound.bit_length() + 1
    x = [1 << (shift << i if ring.kind == "ZX" else shift) for i in range(n)]
    return shift, [[x[i] - v if i == j else -v for j, v in enumerate(row)]
                   for i, row in enumerate(m)]


def _kernel_inputs(rnd):
    """c*I - M for every n <= 6 graph matrix and c in (0, 1, -1), and 2,000
    random square matrices of sizes 1-8, entries in [-4, 4], mostly zeros."""
    out = [[[c * (i == j) - v for j, v in enumerate(row)] for i, row in enumerate(m)]
           for n in range(1, 7) for g in enumerate_connected(n) for kind in KINDS
           for m in [build_matrix(g, kind)] for c in (0, 1, -1)]
    for _ in range(2000):
        n, p = rnd.randint(1, 8), rnd.uniform(0.1, 0.6)
        out.append([[rnd.randint(-4, 4) if rnd.random() < p else 0 for _ in range(n)]
                    for _ in range(n)])
    return out


def test_least_entry_and_packing_equal_the_oracles():
    for m in _kernel_inputs(random.Random(17)):
        assert smith._least_entry(m) == least_entry_oracle(m), m
        before = [list(row) for row in m]
        for ring in (ZX_UNI, zmulti(len(m))):
            assert packed_char_matrix(m, ring) == packed_char_matrix_oracle(m, ring), m
        assert m == before  # the input is left as it was


def test_packing_converts_integral_entries_and_checks_the_ring():
    m = [[Fraction(2), 1], [True, 0]]
    shift, rows = packed_char_matrix(m, ZX_UNI)
    assert (shift, rows) == packed_char_matrix([[2, 1], [1, 0]], ZX_UNI)
    assert all(type(v) is int for row in rows for v in row)
    copy = smith._int_matrix([[Fraction(3), 1], [1, 0]])
    assert copy == [[3, 1], [1, 0]] and all(type(v) is int for row in copy for v in row)
    ints = [[0, 1], [1, 0]]
    copy = smith._int_matrix(ints)
    assert copy == ints and all(a is not b for a, b in zip(copy, ints))
    for ring in (QX, zmulti(3), "Zx"):
        with pytest.raises(ValueError, match="no packed minors of 2 rows"):
            packed_char_matrix(ints, ring)


@pytest.mark.parametrize("m, reason", [
    ([[0, 1, 0], [1, 0, 1]], "square"),
    ([[0, 2], [1, 0]], "symmetric"),
])
def test_deltas_q_rejects_non_square_and_non_symmetric(m, reason):
    # the theorem behind deltas_q holds for symmetric matrices only
    with pytest.raises(ValueError, match=reason):
        deltas_q(m)


WIDE, TALL = [[2, 0, 1], [0, 2, 0]], [[2, 0], [0, 2], [1, 0]]


@pytest.mark.parametrize("call, m", [
    (char_poly, [[1, 2, 3], [4, 5, 6]]),
    (char_poly, [[1], [2]]),
    (snf_integer, [[1, 2, 3], [4, 5, 6]]),
    *((call, m) for call in (minor_tables, lambda m: delta_bruteforce(m, 2),
                             lambda m: minors_k(m, 2)) for m in (WIDE, TALL)),
], ids=["char_poly-wide", "char_poly-tall", "snf_integer",
        *(f"{name}-{shape}" for name in ("minor_tables", "delta_bruteforce", "minors_k")
          for shape in ("wide", "tall"))])
def test_non_square_input_is_rejected(call, m):
    # one square check: a missing or extra column is an error, never ignored;
    # the 2-minors of WIDE are 4, 0 and -2, so reading its first two columns
    # only would give Delta_2 = 4 instead of 2
    with pytest.raises(ValueError, match="matrix must be square"):
        call(m)


# ---------------------------------------------------------------------------
# cokernels


def test_cokernel_examples():
    c4 = cycle_graph(4)
    k = cokernel(snf_integer(build_matrix(c4, "laplacian")))
    assert k == GroupDescription((4,), 1)
    s = cokernel(snf_integer(build_matrix(c4, "adjacency")))
    assert s == GroupDescription((), 2)
    assert str(s) == "Z^2"
    for n in (4, 5, 6):
        g = cokernel(snf_integer(build_matrix(complete_graph(n), "laplacian")))
        assert g == GroupDescription((n,) * (n - 2), 1)


def test_laplacian_kinds_have_rank_n_minus_1():
    for g in enumerate_connected(5):
        for kind in ("laplacian", "distlap"):
            snf = snf_integer(build_matrix(g, kind))
            assert snf.rank == g.n - 1


def test_cokernel_requires_integer_ring():
    snf = snf_poly_q(build_matrix(cycle_graph(4), "adjacency"))
    with pytest.raises(ValueError):
        cokernel(snf)


# ---------------------------------------------------------------------------
# delta oracle plumbing and characteristic polynomials


def test_delta_bruteforce_range_check():
    with pytest.raises(ValueError):
        delta_bruteforce([[1]], 2)


def test_delta_bruteforce_full_size_is_abs_det():
    m = [[2, 1], [1, 1]]
    assert delta_bruteforce(m, 2) == 1
    m = [[0, 2], [-2, 0]]
    assert delta_bruteforce(m, 2) == 4


def test_delta_bruteforce_is_zero_when_every_minor_vanishes():
    x = UniPoly.variable(RING_Z)
    m = [[x, x, x], [x, x, x], [x, x, x]]
    assert delta_bruteforce(m, 1) == x.to_q()
    assert delta_bruteforce(m, 2) == UniPoly.zero(RING_Q)
    assert delta_bruteforce(m, 3) == UniPoly.zero(RING_Q)


def _det_by_permutations(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def _assert_char_poly_is_determinant(m):
    # det(xI - M) evaluated at a few points equals the permutation-sum determinant
    n = len(m)
    p = char_poly(m)
    assert p.lc == 1 and p.degree == n
    for x in (-2, 0, 1, 3):
        shifted = [[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        assert p(x) == _det_by_permutations(shifted)


square_matrices = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-40, 40), min_size=n, max_size=n), min_size=n, max_size=n))


@given(square_matrices)
@settings(deadline=None, max_examples=60)
def test_char_poly_against_permutation_determinant(m):
    # any square integer matrix, not only symmetric ones
    _assert_char_poly_is_determinant(m)


def test_char_poly_is_the_top_char_minor():
    # elimination on the packed x*I - M against its Laplace expansion
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for kind in KINDS:
                m = build_matrix(g, kind)
                assert char_minors(m, ZX_UNI)[-1] == [char_poly(m)]


def test_char_poly_at_the_digit_bound():
    # c*J has the eigenvalue c*n once and 0 n - 1 times, for c of either sign
    x = UniPoly.variable(RING_Z)
    for n in range(1, 7):
        for c in (1, 7, 10**6):
            for sign in (1, -1):
                m = [[sign * c] * n for _ in range(n)]
                assert char_poly(m) == x ** (n - 1) * UniPoly([-sign * c * n, 1])
                _assert_char_poly_is_determinant(m)
    # (x + c)^n: the coefficients sum to the bound (1 + c)^n exactly
    c = 10**6 - 1
    assert char_poly([[-c * (i == j) for j in range(5)] for i in range(5)]) == UniPoly([c, 1]) ** 5
    near = [[10**6, -(10**6 - 1), 10**6 - 3, -10**6],
            [1, 0, -2, 3], [0, 5, -1, 0], [-4, 0, 2, 1]]
    _assert_char_poly_is_determinant(near)
    assert char_poly([]) == UniPoly([1])


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    start = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[start + i][start:start + len(row)] = row
        start += len(b)
    return m


blocks = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(st.integers(-9, 9), min_size=k, max_size=k), min_size=k, max_size=k))


@given(st.lists(blocks, min_size=1, max_size=3).filter(lambda bs: sum(map(len, bs)) <= 6))
@settings(deadline=None, max_examples=60)
def test_char_poly_of_block_diagonal_matrices(bs):
    # rows below a pivot hold 0 in its column, so elimination only scales them
    _assert_char_poly_is_determinant(_block_diagonal(bs))


def test_char_poly_of_diagonal_matrices():
    x = UniPoly.variable(RING_Z)
    for d in ([0], [3, -3], [0, 0, 0], [1, 2, 3, 4, 5, 6], [-7, 0, 7, 0, -7]):
        m = _block_diagonal([[[v]] for v in d])
        _assert_char_poly_is_determinant(m)
        expected = UniPoly([1])
        for v in d:
            expected = expected * (x - UniPoly([v]))
        assert char_poly(m) == expected


def _x_minus(m):
    """x*I - M over Q[x]."""
    return [[XQ - qc(v) if i == j else qc(-v) for j, v in enumerate(row)]
            for i, row in enumerate(m)]


def _symmetric_block(rnd, k):
    b = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            b[i][j] = b[j][i] = rnd.randint(-4, 4)
    return b


def test_deltas_q_with_eigenvalues_of_multiplicity_three_or_more():
    # the adjacency matrix of K_n has the eigenvalue -1 n - 1 times (its Laplacian n);
    # B + B + B has each eigenvalue of B three times
    rnd = random.Random(3)
    matrices = [build_matrix(complete_graph(n), kind) for n in (4, 5, 6)
                for kind in ("adjacency", "laplacian")]
    for k in (1, 2):
        for _ in range(6):
            b = _symmetric_block(rnd, k)
            matrices.append(_block_diagonal([b, b, b]))
            matrices.append(_block_diagonal([b, b, b, _symmetric_block(rnd, 1)]))
    for m in matrices:
        xm = _x_minus(m)
        assert deltas_q(m) == tuple(delta_bruteforce(xm, k) for k in range(1, len(m) + 1)), m


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _assert_minors_are_determinants(m):
    n = len(m)
    tables = minor_tables(m)
    for k, level in tables.items():
        assert len(level) == math.comb(n, k) ** 2
        for (rmask, cmask), minor in level.items():
            sub = [[m[i][j] for j in _bits(cmask)] for i in _bits(rmask)]
            assert len(sub) == k and minor == _det_by_permutations(sub)


def test_minor_tables_is_laplace_consistent():
    # the one Laplace expansion against the permutation-sum determinant
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert minor_tables(m)[3][0b111, 0b111] == _det_by_permutations(m)
    _assert_minors_are_determinants(m)
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for kind in KINDS:
                _assert_minors_are_determinants(build_matrix(g, kind))


# ---------------------------------------------------------------------------
# packed integer minors of x*I - M and diag(x_0..x_{n-1}) - M


def _positive(p):
    """p or -p, whichever has a positive leading coefficient."""
    lc = p.lc if isinstance(p, UniPoly) else p.leading_term()[1]
    return -p if lc < 0 else p


def _is_one(p):
    return p.is_constant() and p.constant_value() == 1


def _full_minors(m, ring):
    """The oracle of `char_minors`: per level, the distinct nonzero minors of
    the whole packed matrix up to sign, decoded (no pivots peeled)."""
    shift, rows = packed_char_matrix(m, ring)
    return [unpack_minors({abs(v) for v in level.values()} - {0}, shift, ring)
            for level in minor_tables(rows).values()]


def _assert_same_ideals(m, ring):
    # level by level, char_minors generates the ideal of all the minors: the
    # canonical bases are equal, each generator is one of the minors up to
    # sign (over Z[x] with a positive leading coefficient), and a level of
    # just [1] has a +-1 minor
    got_levels = char_minors(m, ring)
    want_levels = _full_minors(m, ring)
    assert len(got_levels) == len(want_levels)
    for got, want in zip(got_levels, want_levels):
        minors = {_positive(p) for p in want}
        if len(got) == 1 and _is_one(got[0]):
            assert any(map(_is_one, minors))
            continue
        signed = set(got) if ring == ZX_UNI else {_positive(p) for p in got}
        assert len(signed) == len(got) and signed <= minors
        assert Ideal(ring, got).canonical_basis() == Ideal(ring, want).canonical_basis()


def _assert_char_minors_match(m, cm, ring):
    # entry by entry (the decoding oracle): the full packed expansion decodes
    # to the generic one over UniPoly or MultiPoly; then the generators
    shift, rows = packed_char_matrix(m, ring)
    tables = minor_tables(rows)
    for k, level in minor_tables(cm).items():
        assert len(tables[k]) == len(level)
        assert unpack_minors([tables[k][key] for key in level], shift, ring) == list(level.values())
    _assert_same_ideals(m, ring)


def _codet_q_mates(corpus, kind):
    """The graphs of `corpus` whose Delta_k over Q[x] another one shares."""
    classes = {}
    for g in corpus:
        classes.setdefault(deltas_q(build_matrix(g, kind)), []).append(g)
    return [g for graphs in classes.values() if len(graphs) > 1 for g in graphs]


def _random_connected(rnd, n, count, p=0.4):
    out = []
    while len(out) < count:
        g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if rnd.random() < p])
        if is_connected(g):
            out.append(g)
    return out


def test_char_minors_equal_minor_tables_of_char_matrix(corpus7):
    # the packed integer expansion against the generic one over UniPoly for
    # n <= 6, and the peeled generators against all the minors: n <= 6, the
    # n = 7 codet-Q mates and 20 seeded n = 9 graphs, every kind
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for kind in KINDS:
                _assert_char_minors_match(build_matrix(g, kind), char_matrix(g, kind), ZX_UNI)
    nine = _random_connected(random.Random(909), 9, 20)
    for kind in KINDS:
        for g in _codet_q_mates(corpus7, kind) + nine:
            _assert_same_ideals(build_matrix(g, kind), ZX_UNI)


def test_char_minors_of_large_and_negative_entries():
    m = [[100, -7, 0], [-7, -50, 3], [0, 3, 9]]
    cm = [[UniPoly((-m[i][j], 1) if i == j else (-m[i][j],)) for j in range(3)]
          for i in range(3)]
    _assert_char_minors_match(m, cm, ZX_UNI)
    assert char_minors([[0]], ZX_UNI) == [[UniPoly((0, 1))]]
    with pytest.raises(ValueError, match="square"):
        packed_char_matrix([[0, 1]], ZX_UNI)


def test_zx_char_minors_equal_minor_tables_of_generalized_char_matrix():
    # the packed Z[X] minors against the generic expansion over MultiPoly,
    # and the peeled generators against all the minors: critical and
    # distance ideals for n <= 5, critical ideals for n = 6
    for n in range(1, 7):
        for kind in ("adjacency", "distance") if n < 6 else ("adjacency",):
            for g in enumerate_connected(n):
                _assert_char_minors_match(build_matrix(g, kind),
                                          generalized_char_matrix(g, kind), zmulti(n))


def test_zx_char_minors_of_large_and_negative_entries():
    m = [[100, -7, 0, 5], [-7, -50, 3, 0], [0, 3, 9, -11], [5, 0, -11, 0]]
    cm = [[(MultiPoly.variable(i, 4) if i == j else MultiPoly.zero(4))
           - MultiPoly.const(m[i][j], 4) for j in range(4)] for i in range(4)]
    _assert_char_minors_match(m, cm, zmulti(4))
    assert char_minors([[0]], zmulti(1)) == [[MultiPoly.variable(0, 1)]]
    for ring in (zmulti(3), QX):
        with pytest.raises(ValueError, match="no packed minors of"):
            packed_char_matrix(m, ring)


def test_char_minors_of_a_non_symmetric_matrix():
    m = [[1, 2, 0], [2, 0, 1], [0, 3, 1]]
    cm = [[UniPoly((-m[i][j], 1) if i == j else (-m[i][j],)) for j in range(3)]
          for i in range(3)]
    _assert_char_minors_match(m, cm, ZX_UNI)


def test_peeling_a_unit_keeps_every_delta():
    # seeded non-symmetric integer matrices with a +-1 entry: after r pivots,
    # Delta_k(A) = 1 for k <= r and Delta_{r+k}(A) = Delta_k(S)
    rnd = random.Random(31)
    for _ in range(200):
        n = rnd.randint(2, 5)
        a = [[rnd.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        a[rnd.randrange(n)][rnd.randrange(n)] = rnd.choice((1, -1))
        if smith._symmetric(a):
            continue
        r, s = smith._peel_units([row[:] for row in a])
        assert 1 <= r <= n and len(s) == n - r and all(len(row) == n - r for row in s)
        assert not any(v in (1, -1) for row in s for v in row)
        for k in range(1, n + 1):
            assert delta_bruteforce(a, k) == (1 if k <= r else delta_bruteforce(s, k - r))
    # one step by hand: the pivot of least fill is the -1 at (1, 2)
    a = [[3, 1, 2], [0, 2, -1], [4, 5, 6]]
    assert smith._peel_units(a) == (1, [[3, 5], [4, 17]])
    # three units tie at fill 1: the first in row-major order, (0, 0), is
    # taken ((0, 1) or (1, 0) would leave -2)
    assert smith._peel_units([[1, 1], [1, 3]]) == (1, [[2]])
    # no unit entry: nothing is peeled, packed or not
    double = [[0, 2, 0], [2, 0, 2], [0, 2, 0]]
    assert smith._peel_units(double) == (0, double)
    for ring in (ZX_UNI, zmulti(3)):
        rows = packed_char_matrix(double, ring)[1]
        assert smith._peel_units(rows) == (0, rows)


@pytest.mark.parametrize("ring", [ZX_UNI, zmulti(3)])
def test_char_minors_unit_level_is_one_without_decoding(monkeypatch, ring):
    # P_3 peels two -1 pivots: levels 1 and 2 are exactly [1] and nothing of
    # them reaches the decoder, only the top level's minor does.  2 * P_3 has
    # no unit entry and no unit minor: every level keeps all of its distinct
    # minors.  The block [[2, 3], [3, 5]] of `block` has no unit entry but
    # determinant 1: its level 2 is [1], undecoded, with nothing peeled
    decoded = []
    unpack = smith.unpack_minors

    def recording(values, shift, ring):
        decoded.append(sorted(values))
        return unpack(values, shift, ring)

    def distinct_packed(m):
        rows = packed_char_matrix(m, ring)[1]
        return [sorted({abs(v) for v in level.values()} - {0})
                for level in minor_tables(rows).values()]

    monkeypatch.setattr(smith, "unpack_minors", recording)
    path = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    levels = char_minors(path, ring)
    assert decoded == [distinct_packed(path)[2]]
    assert [len(level) for level in levels] == [1, 1, 1]
    assert _is_one(levels[0][0]) and _is_one(levels[1][0]) and not _is_one(levels[2][0])
    double = [[2 * v for v in row] for row in path]
    decoded.clear()
    levels = char_minors(double, ring)
    assert decoded == distinct_packed(double)
    assert [len(level) for level in levels] == [len(d) for d in decoded] != [1, 1, 1]
    assert not any(_is_one(p) for level in levels for p in level)
    block = [[0, 0, 2, 3], [0, 0, 3, 5], [2, 3, 0, 0], [3, 5, 0, 0]]
    ring = ring if ring == ZX_UNI else zmulti(4)
    decoded.clear()
    levels = char_minors(block, ring)
    full = distinct_packed(block)
    assert 1 in full[1] and decoded == [d for d in full if 1 not in d]
    assert [len(level) == 1 and _is_one(level[0]) for level in levels] == [1 in d for d in full]
