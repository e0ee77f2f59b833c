import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detideals import grobner, polyring
from detideals.graphs import (
    MATRIX_KINDS,
    Graph,
    complete_bipartite_graph,
    enumerate_connected,
    parse_graph6,
)
from detideals.grobner import (
    QX,
    ZX_UNI,
    Ideal,
    Packing,
    RingMismatchError,
    StrongBasis,
    strong_groebner,
    zmulti,
)
from detideals.polyring import (RING_Q, RING_Z, MultiPoly, UniPoly, gcd_poly_q, monomial_key,
                                multilinear_exponent)
from detideals.profiles import determinantal_ideals, multivariate_ideals
from detideals.survey import invariant_key

X = UniPoly.variable(RING_Z)


def zc(c):
    return UniPoly.const(c, RING_Z)


def zx(*gens):
    return Ideal(ZX_UNI, gens)


N = MultiPoly.variable(0, 2)
M = MultiPoly.variable(1, 2)
ONE = MultiPoly.const(1, 2)
NM = zmulti(2)


# ---------------------------------------------------------------------------
# canonical bases


def test_canonical_basis_x_minus_one_x_plus_one():
    basis = zx(X - zc(1), X + zc(1)).canonical_basis()
    assert basis == (zc(2), X + zc(1))


def test_canonical_basis_deterministic_for_equal_ideals():
    a = zx(zc(2), X + zc(1))
    b = zx(zc(2), X - zc(1))
    assert a.canonical_basis() == b.canonical_basis()
    assert a.equal(b)


def test_appendix_b_ideals_equal():
    p1 = X**3 + zc(1086) * X**2 - zc(22022) * X + zc(108388)
    p2 = zc(1106) * X**2 - zc(22120) * X + zc(108388)
    p3 = X**3 - zc(20) * X**2 + zc(98) * X
    i = zx(p1, p2)
    j = zx(p3, p2)
    assert i.canonical_basis() == j.canonical_basis()
    assert i.equal(j)
    assert all(j.member(g) for g in (p1, p2))
    assert all(i.member(g) for g in (p3, p2))


def test_l2_basis_generates_3_and_n_plus_2m():
    three = MultiPoly.const(3, 2)
    l2 = Ideal(
        NM,
        [
            (N * N).scale(4) + (N * M).scale(4) - N.scale(8) + M * M - M.scale(4),
            N.scale(2) + M,
            MultiPoly.zero(2),
            (N * N).scale(2) + (N * M).scale(5) - N.scale(6) + (M * M).scale(2) - M.scale(6) + three,
            N.scale(4) + M.scale(2) - three,
            N.scale(2) + M.scale(4) - three,
            three,
            N + M.scale(2),
            N * N + (N * M).scale(4) - N.scale(4) + (M * M).scale(4) - M.scale(8),
        ],
    )
    assert l2.equal(Ideal(NM, [three, N + M.scale(2)]))


def test_zero_ideal():
    assert zx().canonical_basis() == ()
    assert zx().is_zero()
    assert not zx().is_trivial()
    assert zx().member(UniPoly.zero())
    assert not zx().member(zc(1))


# ---------------------------------------------------------------------------
# membership


def test_membership_z_nm_examples():
    ideal = Ideal(NM, [MultiPoly.const(3, 2), N + M.scale(2)])
    assert not ideal.member(M + N - ONE)
    assert not ideal.member((N + M).scale(2) + ONE)
    assert ideal.member(N.scale(2) + M)  # 2n+m = (n+2m) + (n-m), n-m = (n+2m)-3m


def test_membership_univariate():
    assert zx(X - zc(1)).member(X**2 - zc(1))
    assert not zx(X - zc(1)).member(X + zc(1))


def test_membership_over_q():
    # I = <(2x - 1)(x + 1), (x - 1/2)(3x - 2)> = <x - 1/2> over Q[x]
    half = UniPoly([Fraction(-1, 2), 1], RING_Q)
    ideal = Ideal(QX, [(zc(2) * X - zc(1)) * (X + zc(1)),
                       half * UniPoly([Fraction(-2), Fraction(3)], RING_Q)])
    assert ideal.canonical_basis() == (half,)
    assert ideal.member(half * UniPoly([Fraction(7, 3), 0, 1], RING_Q))
    assert ideal.member(zc(2) * X - zc(1))  # an integer polynomial lives in Q[x]
    assert not ideal.member(X.to_q())
    assert not ideal.member(UniPoly.const(Fraction(1, 3), RING_Q))
    assert ideal.member(UniPoly.zero(RING_Q))
    zero = Ideal(QX, [UniPoly.zero(RING_Q)])
    assert zero.gens == () and zero.member(UniPoly.zero(RING_Q))
    assert not zero.member(half)


def test_membership_ring_mismatch():
    with pytest.raises(RingMismatchError):
        zx(X).member(MultiPoly.variable(0, 1))
    with pytest.raises(RingMismatchError):
        zx(X).equal(Ideal(QX, [X.to_q()]))


# ---------------------------------------------------------------------------
# triviality


def test_is_trivial_examples():
    assert zx(zc(2), X, zc(3)).is_trivial()
    assert not zx(zc(2), X).is_trivial()
    assert Ideal(QX, [zc(2), X]).is_trivial()


# ---------------------------------------------------------------------------
# regressions: unsound pair-skipping over Z

# The G-polynomial of <2x+1, 3y+1> (coprime leading monomials AND coprime
# leading coefficients) is xy+x-y; a field-style product criterion would
# drop the pair and lose it.


def test_gpoly_of_coprime_pair_is_essential():
    r2 = zmulti(2)
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    one = MultiPoly.const(1, 2)
    ideal = Ideal(r2, [x.scale(2) + one, y.scale(3) + one])
    assert ideal.member(x * y + x - y)
    assert any(
        g.leading_term()[0] == (1, 1) for g in ideal.canonical_basis()
    ), "basis must cover the xy leading monomial"
    gens = [grobner._terms(g) for g in ideal.gens]
    assert strong_groebner(gens, 2) == _criterion_free(gens, 2)


def test_spoly_of_coprime_monomial_pair_not_reducible():
    r2 = zmulti(2)
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    one = MultiPoly.const(1, 2)
    ideal = Ideal(r2, [x.scale(4) + one, y.scale(6) + one])
    assert ideal.member(y.scale(3) - x.scale(2))


# ---------------------------------------------------------------------------
# the chain criterion


class CriterionFree(StrongBasis):
    """StrongBasis that forms every S-polynomial: the oracle of the chain
    criterion and of the lattice path."""

    def _chained(self, lcm, l, i, j):
        return False


def _criterion_free(gens, arity):
    """`strong_groebner` on the criterion-free StrongBasis: the same feed, no
    chain criterion."""
    with mock.patch.object(grobner, "StrongBasis", CriterionFree):
        return strong_groebner(gens, arity)


@pytest.mark.parametrize("gens, want", [
    # 4x, 6x^2, 4x^2 + 4, 6x - 1 generate (1): 3 * 4x - 2 * (6x - 1) = 2,
    # then 3x * 2 - (6x - 1) = 1.  Skipping pairs on lm_k | L alone, without
    # lc_k | lcm(lc_i, lc_j), ends at (2, x).
    ([{(1,): -4}, {(2,): -6}, {(2,): 4, (0,): 4}, {(1,): -6, (0,): 1}], [{(0,): 1}]),
    # skipping pairs whose (i, k) or (j, k) is still pending lets two skips
    # lean on each other, and ends at (14, 2x + 6)
    ([{(3,): -2, (1,): -3}, {(3,): -2, (1,): -7, (0,): 2}], [{(0,): 14}, {(1,): 1, (0,): 10}]),
])
def test_chain_criterion_hand_cases(gens, want):
    assert strong_groebner(gens, 1) == want == _criterion_free(gens, 1)


def test_a_unit_found_in_completion_is_minimalised_like_any_element():
    # 2x + 1 and 3x + 1 hold no +-1; the unit appears only as the
    # S-polynomial 2x + 1 - 2 * x of the completion, and minimalisation
    # keeps it alone
    gens = [{(1,): 2, (0,): 1}, {(1,): 3, (0,): 1}]
    assert strong_groebner(gens, 1) == [{(0,): 1}] == _criterion_free(gens, 1)


def _reduce_pair_calls(engine, gens, arity):
    calls = []
    reduce_pair = StrongBasis._reduce_pair

    def counting(basis, *args):
        calls.append(args)
        return reduce_pair(basis, *args)

    with mock.patch.object(StrongBasis, "_reduce_pair", counting):
        basis = engine(gens, arity)
    return len(calls), basis


def test_a_principal_ideal_basis_is_its_generator():
    # every I_n is one determinant; its basis is that generator with a
    # positive leading coefficient, also when it comes with its negative
    gens = [{(1, 1): -2, (0, 0): 3}, {(1, 1): 2, (0, 0): -3}, {}]
    assert strong_groebner(gens, 2) == [{(1, 1): 2, (0, 0): -3}]
    assert strong_groebner(gens, 2) == _preset(2, gens[:1], 4)
    for g in enumerate_connected(6):
        top = [grobner._terms(p) for p in multivariate_ideals(g, "adjacency").ideals[-1].gens]
        assert len(top) == 1 and strong_groebner(top, 6) == _preset(6, top, 12)


def test_chain_criterion_skips_pairs_of_a_critical_ideal():
    # I_5 of the critical ideals of K_{3,3}
    ideal = multivariate_ideals(complete_bipartite_graph(3, 3), "adjacency").ideals[4]
    gens = [grobner._terms(g) for g in ideal.gens]
    chained, basis = _reduce_pair_calls(strong_groebner, gens, 6)
    free, oracle = _reduce_pair_calls(_criterion_free, gens, 6)
    assert 0 < chained < free
    assert basis == oracle == [dict(p.terms) for p in ideal.canonical_basis()]


def test_strong_basis_completes_once_after_the_whole_feed():
    # add only reduces and appends; every pair waits for canonical
    ideal = multivariate_ideals(complete_bipartite_graph(3, 3), "adjacency").ideals[4]
    gens = [grobner._terms(g) for g in ideal.gens]
    degree = 4 * max(sum(e) for g in gens for e in g)
    fed, basis = _reduce_pair_calls(lambda gens, arity: _basis(StrongBasis, arity, gens, degree),
                                    gens, 6)
    assert len(basis.elems) > 1 and fed == 0
    completed, got = _reduce_pair_calls(lambda gens, arity: basis.canonical(), gens, 6)
    assert completed > 0
    assert got == strong_groebner(gens, 6) == _criterion_free(gens, 6)


def _relabel(g, rng):
    perm = rng.sample(range(g.n), g.n)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_chain_criterion_equals_criterion_free_basis_on_small_corpora():
    # critical and distance ideals for n <= 6, relabelled at random since the
    # cost and the pairs depend on the variable order
    rng = random.Random(20191)
    for n in range(1, 7):
        for kind in ("adjacency", "distance"):
            for g in enumerate_connected(n):
                for ideal in multivariate_ideals(_relabel(g, rng), kind).ideals:
                    gens = [grobner._terms(p) for p in ideal.gens]
                    assert strong_groebner(gens, n) == _criterion_free(gens, n), (kind, g)


# ---------------------------------------------------------------------------
# properties


small_zx_gens = st.lists(
    st.builds(lambda cs: UniPoly(cs, RING_Z), st.lists(st.integers(-6, 6), max_size=4)),
    min_size=1,
    max_size=4,
)


@given(small_zx_gens)
@settings(deadline=None, max_examples=60)
def test_canonical_basis_idempotent_and_absorbs_generators(gens):
    ideal = zx(*gens)
    basis = ideal.canonical_basis()
    again = zx(*basis)
    assert again.canonical_basis() == basis
    for g in gens:
        assert ideal.member(g)


small_multi_gens = st.lists(
    st.builds(
        lambda items: MultiPoly(2, dict(items)),
        st.lists(
            st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4)),
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=3,
)


@given(small_multi_gens)
@settings(deadline=None, max_examples=40)
def test_canonical_basis_idempotent_multivariate(gens):
    ideal = Ideal(zmulti(2), gens)
    basis = ideal.canonical_basis()
    again = Ideal(zmulti(2), basis)
    assert again.canonical_basis() == basis
    for g in gens:
        assert ideal.member(g)


small_q_gens = st.lists(
    st.builds(lambda cs: UniPoly(cs, RING_Q), st.lists(st.integers(-6, 6), max_size=4)),
    min_size=1,
    max_size=3,
)


@given(small_q_gens)
@settings(deadline=None, max_examples=60)
def test_qx_canonical_basis_is_monic_gcd(gens):
    ideal = Ideal(QX, gens)
    basis = ideal.canonical_basis()
    nz = [g for g in gens if not g.is_zero()]
    if not nz:
        assert basis == ()
        return
    g = nz[0]
    for h in nz[1:]:
        g = gcd_poly_q(g, h)
    assert basis == (g.monic(),)


def test_ideal_keeps_its_generators_as_given():
    # zeros go; repeats, order and signs are left to the engine
    gens = (X + zc(1), zc(0), zc(-2), -X - zc(1), zc(-2), X + zc(1))
    assert zx(*gens).gens == (X + zc(1), zc(-2), -X - zc(1), zc(-2), X + zc(1))
    assert Ideal(NM, [M, MultiPoly.zero(2), -N, M]).gens == (M, -N, M)
    assert zx(zc(0)).gens == ()


def _feed(gens):
    """The generators Ideal(NM, gens) passes to StrongBasis.add, unpacked
    into sorted term lists, and its canonical basis."""
    fed = []
    add = StrongBasis.add

    def recording(basis, rec):
        fed.append(sorted((basis.packing.unpack(m), c) for m, c in rec[0].items()))
        return add(basis, rec)

    with mock.patch.object(StrongBasis, "add", recording):
        return fed, Ideal(NM, gens).canonical_basis()


@given(small_multi_gens.flatmap(lambda gens: st.tuples(
    st.just(gens), st.permutations(gens),
    st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)))))
@settings(deadline=None, max_examples=60)
def test_engine_feed_ignores_generator_order_and_sign(case):
    # the engine sets sign and order itself, so generators that are the same
    # up to sign and order, one repeat included, reach StrongBasis alike
    gens, shuffled, negate = case
    moved = [-g if flip else g for g, flip in zip(shuffled, negate)]
    assert _feed(moved + [-moved[0]]) == _feed(gens + [shuffled[0]])


def test_a_repeat_is_fed_and_reduces_to_zero():
    # a generator with its negation is two feeds, the second reducing to
    # zero in add; the generator alone is a one-generator feed and never
    # reaches StrongBasis
    g = N * M - ONE
    fed, basis = _feed([g, -g])
    assert len(fed) == 2 and fed[0] == fed[1]
    assert _feed([g]) == ([], basis)


def test_non_equal_ideals():
    assert not zx(X + zc(1)).equal(zx(zc(2), X + zc(1)))


def _mask(e: tuple) -> int:
    return sum(x << i for i, x in enumerate(e))


def test_a_non_multilinear_basis_term_decodes_exactly():
    # <n*m - 1, n - m> = <n - m, m^2 - 1>: the canonical basis has a square,
    # which the multilinear table cannot hold; its key is decoded from the
    # packing, and every multilinear key is the table's own tuple
    basis = Ideal(NM, [N * M - ONE, N - M]).canonical_basis()
    assert basis == (N - M, M * M - ONE)
    keys = [e for p in basis for e in p.terms]
    assert (0, 2) in keys
    for e in keys:
        if max(e) <= 1:
            assert e is multilinear_exponent(2, _mask(e))
    assert (0, 2) not in polyring._MULTILINEAR[2].values()


def test_the_exponent_table_holds_only_the_monomials_in_use():
    # a Z[X] ideal of 20 variables and few terms adds to the arity-20 table
    # only masks of monomials its generators and basis hold, never the 2^20
    # of a full table
    arity = 20
    x = [MultiPoly.variable(i, arity) for i in range(arity)]
    before = set(polyring._MULTILINEAR.get(arity, {}))
    ideal = Ideal(zmulti(arity), [x[0] * x[19] - x[3], x[5] * x[5] + MultiPoly.const(2, arity)])
    basis = ideal.canonical_basis()
    assert len(basis) == 2
    used = {_mask(e) for p in ideal.gens + basis for e in p.terms if max(e) <= 1}
    assert used == {1 | 1 << 19, 1 << 3, 0}
    assert set(polyring._MULTILINEAR[arity]) - before <= used


GUARD_SCRIPT = """
from detideals.grobner import ZX_UNI, Ideal
from detideals.polyring import RING_Z, UniPoly

x = UniPoly.variable(RING_Z)
a, b = Ideal(ZX_UNI, [x]), Ideal(ZX_UNI, [x])
a.canonical_basis()
object.__setattr__(b, "_basis", (-x,))
try:
    print(a.equal(b))
except AssertionError:
    print("guard")
"""


def test_uniqueness_guard_fires_on_a_non_canonical_basis():
    # <x0, x1> given the strong basis (x1, x0 + x1), not reduced: the same
    # ideal, membership holds both ways, and the lists differ
    a, b = Ideal(NM, [N, M]), Ideal(NM, [M, N])
    object.__setattr__(b, "_basis", (M, N + M))
    with pytest.raises(AssertionError, match="uniqueness violated"):
        a.equal(b)


def test_uniqueness_guard_fires_on_a_stored_basis_that_is_not_a_groebner_basis():
    # <x0, x1> given (x0, x0 + x1), which is not a Groebner basis: x1 does not
    # reduce over it, so membership over the stored basis fails, yet the
    # ideals are equal
    a, b = Ideal(NM, [N, M]), Ideal(NM, [N, M])
    object.__setattr__(b, "_basis", (N, N + M))
    with pytest.raises(AssertionError, match="uniqueness violated"):
        a.equal(b)
    with pytest.raises(AssertionError, match="uniqueness violated"):
        b.equal(a)


def test_uniqueness_guard_fires_on_equal_ideals_with_distinct_groebner_bases():
    # an engine that returns its input as given makes (x0, x1) and
    # (x1, x0 + x1) the bases of <x0, x1>: both are what their generators
    # give and both are Groebner bases, so only mutual membership shows it
    with mock.patch.object(grobner, "strong_groebner", lambda gens, arity: [dict(t) for t in gens]):
        with pytest.raises(AssertionError, match="uniqueness violated"):
            Ideal(NM, [N, M]).equal(Ideal(NM, [M, N + M]))


def test_uniqueness_guard_runs_without_assertions():
    # a corrupted basis of the same ideal must trip the guard under -O too
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-O", "-c", GUARD_SCRIPT],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "guard"


small_mults = st.lists(
    st.builds(lambda cs: UniPoly(cs, RING_Z), st.lists(st.integers(-3, 3), max_size=3)),
    min_size=1,
    max_size=4,
)


@given(small_zx_gens, small_mults)
@settings(deadline=None, max_examples=60)
def test_redundant_generators_leave_canonical_basis_unchanged(gens, mults):
    # a Z[x]-combination of the generators is redundant, so appending it must
    # reproduce the identical canonical list (presentation independence)
    ideal = zx(*gens)
    extra = UniPoly.zero()
    for g, m in zip(gens, mults):
        extra = extra + g * m
    assert zx(*gens, extra).canonical_basis() == ideal.canonical_basis()


@given(small_multi_gens, st.integers(0, 2), st.integers(0, 2))
@settings(deadline=None, max_examples=40)
def test_presentation_independence_multivariate(gens, i, j):
    ideal = Ideal(zmulti(2), gens)
    i, j = i % len(gens), j % len(gens)
    # replace g_i by g_i + (x*y) * g_j, an invertible move when i != j
    if i == j:
        return
    xy = MultiPoly(2, {(1, 1): 1})
    replaced = list(gens)
    replaced[i] = replaced[i] + xy * replaced[j]
    assert Ideal(zmulti(2), replaced).canonical_basis() == ideal.canonical_basis()

# ---------------------------------------------------------------------------
# the canonical basis against the definition of a minimal reduced strong basis


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _assert_reduced_strong_basis(ideal):
    """Checks the canonical basis of `ideal` term by term: positive leading
    coefficients in ascending `_record_key` order, no leading term reducible
    by another element, each other term c*X with 0 <= c < lc_g for every
    other g with lm_g | X, and every generator a member."""
    basis = [grobner._terms(p) for p in ideal.canonical_basis()]
    lead = [max(t, key=monomial_key) for t in basis]
    packing = Packing(ideal.ring.arity, max((sum(e) for t in basis for e in t), default=0))
    records = [grobner._record(packing.pack_terms(t)) for t in basis]
    assert records == sorted(records, key=grobner._record_key)
    for i, (f, lm) in enumerate(zip(basis, lead)):
        assert f[lm] > 0
        others = [(g[lmg], lmg) for j, (g, lmg) in enumerate(zip(basis, lead)) if j != i]
        assert all(f[lm] < lc for lc, lmg in others if _divides(lmg, lm)), basis
        for X, c in f.items():
            if X != lm:
                assert all(0 <= c < lc for lc, lmg in others if _divides(lmg, X)), basis
    for g in ideal.gens:
        assert ideal.member(g)


def test_canonical_bases_of_graph_ideals_are_reduced_strong_bases():
    # critical and distance ideals for n <= 5, and the n = 7 Z[x] levels with
    # no monic generator, which reach StrongBasis over Z[x]
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for kind in ("adjacency", "distance"):
                for ideal in multivariate_ideals(g, kind).ideals:
                    _assert_reduced_strong_basis(ideal)
    for g6 in ("F?NVG", "F?]ug"):
        for kind in ("distance", "distlap"):
            for ideal in determinantal_ideals(parse_graph6(g6), kind, "Zx").ideals:
                _assert_reduced_strong_basis(ideal)


@given(small_multi_gens)
@settings(deadline=None, max_examples=60)
def test_multivariate_canonical_basis_is_a_reduced_strong_basis(gens):
    _assert_reduced_strong_basis(Ideal(zmulti(2), gens))


@given(small_zx_gens)
@settings(deadline=None, max_examples=60)
def test_zx_canonical_basis_is_a_reduced_strong_basis(gens):
    _assert_reduced_strong_basis(zx(*gens))


# ---------------------------------------------------------------------------
# the Z-lattice path for Z[x] ideals with a monic generator

KINDS = MATRIX_KINDS


def _buchberger(ideal):
    """The criterion-free StrongBasis canonical basis, the lattice path's oracle."""
    raw = _criterion_free([grobner._terms(g) for g in ideal.gens], 1)
    return tuple(MultiPoly(1, t).to_unipoly() for t in raw)


def _assert_lattice_matches(ideals):
    for ideal in ideals:
        basis = grobner._lattice_basis(ideal.gens)
        assert basis is not None
        assert basis == _buchberger(ideal), ideal.gens


def test_lattice_bases_equal_strong_basis_on_small_corpora():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for kind in KINDS:
                _assert_lattice_matches(determinantal_ideals(g, kind, "Zx").ideals)


def test_lattice_bases_equal_strong_basis_on_n7_codet_q_mates(corpus7):
    classes: dict = {}
    for g in corpus7:
        classes.setdefault(invariant_key(g, "adjacency", "codet-Q"), []).append(g)
    mates = [g for c in classes.values() if len(c) > 1 for g in c]
    assert len(mates) == 63
    for g in mates:
        _assert_lattice_matches(determinantal_ideals(g, "adjacency", "Zx").ideals)


@pytest.fixture
def no_buchberger(monkeypatch):
    def refuse(gens, arity):
        raise AssertionError("Buchberger ran on a generator set with a monic element")

    monkeypatch.setattr(grobner, "strong_groebner", refuse)


@pytest.mark.parametrize("gens, want", [
    ((zc(-1), X), ["1"]),
    ((X + zc(3), zc(1)), ["1"]),
    ((zc(2), X + zc(1)), ["2", "x + 1"]),
    ((X**2, X**2 + X), ["x"]),
    ((X**2 + zc(1), zc(3) * X**2 + zc(3)), ["x^2 + 1"]),
    ((zc(2) * X, X**2 + zc(4)), ["8", "2*x", "x^2 + 4"]),
    ((zc(6), X - zc(1)), ["6", "x + 5"]),
    ((zc(2) * (X + zc(1)), (X + zc(1)) * (X**2 + zc(1))),
     ["2*x + 2", "x^3 + x^2 + x + 1"]),
    ((X**5 - zc(5) * X**3 - zc(2) * X**2 + zc(2) * X,),
     ["x^5 - 5*x^3 - 2*x^2 + 2*x"]),
    (((X - zc(3))**3 * (X + zc(9)), zc(3) * (X - zc(3))**3),
     ["3*x^3 - 27*x^2 + 81*x - 81", "x^4 - 54*x^2 + 216*x - 243"]),
    ((-X - zc(3), zc(2) * X), ["6", "x + 3"]),
])
def test_lattice_path_hand_cases(gens, want, no_buchberger):
    # the suites' worked examples, a unit minor, a monic remainder of lower
    # degree than the shortest monic generator, a remainder of zero, a
    # generator that is monic only up to sign
    ideal = zx(*gens)
    assert ideal.basis_strings() == want
    assert ideal.canonical_basis() == _buchberger(ideal)


def test_no_monic_generator_runs_buchberger(monkeypatch):
    calls = []

    def counting(gens, arity):
        calls.append(arity)
        return strong_groebner(gens, arity)

    monkeypatch.setattr(grobner, "strong_groebner", counting)
    assert grobner._lattice_basis(zx(zc(2) * X, zc(4)).gens) is None
    assert zx(zc(2) * X, zc(4)).basis_strings() == ["4", "2*x"]
    assert zx(zc(3) * X**2 - zc(3), zc(2) * X + zc(2)).basis_strings() == ["2*x + 2", "x^2 - 1"]
    assert calls == [1, 1]


monic_zx_gens = st.tuples(
    st.lists(st.integers(-6, 6), max_size=4).map(lambda cs: UniPoly(cs + [1], RING_Z)),
    small_zx_gens,
)


@given(monic_zx_gens)
@settings(deadline=None, max_examples=150)
def test_lattice_path_equals_strong_basis(gens):
    monic, rest = gens
    _assert_lattice_matches([zx(*rest, monic), zx(monic, *rest)])


# ---------------------------------------------------------------------------
# packed monomials

# b is often a permutation of a: equal degrees, where the order is decided by
# the reverse-lexicographic fields
exponents = st.integers(0, 3) | st.integers(0, 40)
exponent_pairs = st.integers(1, 6).flatmap(lambda n: st.tuples(*[exponents] * n)).flatmap(
    lambda a: st.tuples(st.just(a), st.permutations(a).map(tuple) | st.tuples(*[exponents] * len(a))))


def _pack_or_none(packing, e):
    try:
        return packing.pack(e)
    except OverflowError:
        return None


@given(exponent_pairs, st.integers(0, 130))
@settings(deadline=None, max_examples=300)
def test_packing_is_degrevlex_additive_and_tests_divisibility(pair, degree):
    a, b = pair
    n = len(a)
    ab = tuple(x + y for x, y in zip(a, b))
    packing = Packing(n, degree)
    pa, pb, pab = (_pack_or_none(packing, e) for e in (a, b, ab))
    # a monomial fits iff its degree is below the limit; one that does not
    # is refused rather than packed into a wrong code
    for e, code in ((a, pa), (b, pb), (ab, pab)):
        assert (code is None) == (sum(e) >= packing.limit)
    if pa is None or pb is None:
        return
    assert packing.unpack(pa) == a and packing.unpack(pb) == b
    assert (pa < pb) == (monomial_key(a) < monomial_key(b))
    assert (pa == pb) == (a == b)
    assert (not (pb - pa) & packing.mask) == all(x <= y for x, y in zip(a, b))
    assert (not (pa - pb) & packing.mask) == all(y <= x for x, y in zip(a, b))
    if pab is not None:
        assert pab == pa + pb
        assert not (pab - pa) & packing.mask and not (pab - pb) & packing.mask


def test_packing_orders_all_small_monomials_as_monomial_key():
    for n in range(1, 5):
        monomials = list(itertools.product(range(3), repeat=n))
        packing = Packing(n, 2 * n)
        assert sorted(monomials, key=packing.pack) == sorted(monomials, key=monomial_key)


def test_packing_hand_cases():
    p = Packing(3, 3)
    assert p.bits == 4 and p.limit == 8
    x0, x1, x2 = (p.pack(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert x0 > x1 > x2 > p.pack((0, 0, 0)) == 0
    # degrevlex, not deglex: x1^2 > x0*x2 since x2 is the last variable
    assert p.pack((0, 2, 0)) > p.pack((1, 0, 1))
    assert p.pack((2, 0, 0)) > p.pack((1, 1, 0)) > p.pack((0, 2, 0))
    # x0 divides neither x1*x2 nor x1^2; for x1*x2 every order field is at
    # least x0's, so only the exponent fields show it
    assert (p.pack((0, 1, 1)) - x0) & p.mask
    assert (p.pack((0, 2, 0)) - x0) & p.mask
    assert not (p.pack((1, 1, 1)) - x0) & p.mask
    # a smaller-degree b: the difference is negative, its top guard bit set
    assert (x0 - p.pack((1, 1, 0))) < 0 and (x0 - p.pack((1, 1, 0))) & p.mask
    assert p.unpack(p.pack((7, 0, 0))) == (7, 0, 0)
    with pytest.raises(OverflowError):
        p.pack((8, 0, 0))
    with pytest.raises(OverflowError):
        p.pack((3, 3, 2))
    assert Packing(1, 0).limit == 1 and Packing(1, 0).pack((0,)) == 0
    # no variables: Z itself
    assert Packing(0, 0).pack(()) == 0 and Packing(0, 0).unpack(0) == ()
    z = Ideal(zmulti(0), [MultiPoly(0, {(): 4}), MultiPoly(0, {(): -6})])
    assert z.basis_strings() == ["2"] and z.member(MultiPoly(0, {(): 10}))
    assert not z.member(MultiPoly(0, {(): 3}))


def _basis(cls, arity, gens, degree):
    """A `cls` basis fed `gens` in order, packed with fields for `degree`."""
    packing = Packing(arity, degree)
    basis = cls(packing)
    for g in gens:
        basis.add(grobner._record(packing.pack_terms(g)))
    return basis


def _preset(arity, gens, degree):
    """The criterion-free canonical basis with fields wide from the start."""
    return _basis(CriterionFree, arity, gens, degree).canonical()


def test_strong_basis_refuses_a_pair_lcm_beyond_its_fields():
    gens = [{(7, 0): 1, (0, 1): 1}, {(0, 9): 2, (1, 0): 1}]
    # both generators fit 5-bit fields, the lcm x0^7 * x1^9 of their leading
    # monomials (degree 16) does not: it is refused, not packed into a wrong
    # code, and fields for degree 16 hold the whole run
    with pytest.raises(OverflowError):
        _basis(StrongBasis, 2, gens, 7)
    assert _basis(StrongBasis, 2, gens, 8).canonical() == _preset(2, gens, 1000)


@pytest.mark.parametrize("gens", [
    # each set fits fields for half its largest degree, and outgrows them at
    # a pair's lcm in the engine's own feed order
    [{(7, 0): 1, (0, 1): 1}, {(0, 9): 2, (1, 0): 1}, {(3, 3): 2, (0, 0): 1}],
    [{(0, 8): 1, (1, 0): 1}, {(8, 0): 3, (0, 1): 1}],
    [{(5, 0, 0): 1, (0, 0, 1): 1}, {(0, 5, 0): 1, (1, 0, 0): 1}, {(0, 0, 6): 2, (0, 1, 0): 1}],
    [{(2, 1): 3, (0, 0): 1}, {(0, 40): 1, (3, 0): -1}],
])
def test_strong_groebner_restarts_in_wider_fields(monkeypatch, gens):
    arity = len(next(iter(gens[0])))
    degree = max(sum(e) for g in gens for e in g)
    limits = []

    def narrow_first(arity, d):
        packing = Packing(arity, d if limits else (degree + 1) // 2)
        limits.append(packing.limit)
        return packing

    monkeypatch.setattr(grobner, "Packing", narrow_first)
    got = strong_groebner(gens, arity)
    monkeypatch.undo()
    assert len(limits) > 1 and limits[-1] > limits[0]
    assert got == _preset(arity, gens, 1000) == strong_groebner(gens, arity)
    ring = zmulti(arity)
    ideal = Ideal(ring, [MultiPoly(arity, g) for g in gens])
    assert all(ideal.member(MultiPoly(arity, g)) for g in gens)
    assert [dict(p.terms) for p in ideal.canonical_basis()] == got


def test_strong_groebner_packs_each_generator_once():
    # each nonzero generator, a repeat up to sign included, is packed once
    # for the sort; StrongBasis.add takes the packed records as they are
    gens = [{(7, 0): 1, (0, 1): 1}, {(0, 9): -2, (1, 0): 1}, {(3, 3): 1, (0, 0): 1},
            {(0, 9): 2, (1, 0): -1}, {(2, 2): 6}, {(1, 1): 4}]
    packed = []
    pack_terms = Packing.pack_terms

    def counting(packing, terms):
        packed.append(terms)
        return pack_terms(packing, terms)

    with mock.patch.object(Packing, "pack_terms", counting):
        got = strong_groebner(gens, 2)
    assert packed == gens
    assert got == _preset(2, gens, 1000)


def _refuse_packing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-generator feed must not be packed")

    monkeypatch.setattr(grobner, "Packing", refuse)


@pytest.mark.parametrize("arity, gens", [
    (1, [{(0,): -1}]),
    (2, [{(0, 0): 1}]),
    (3, [{(0, 0, 0): -1}]),
])
def test_unit_generator_gives_the_unit_basis_before_packing(monkeypatch, arity, gens):
    # +-1 alone is a one-generator feed; beside other generators it is fed
    # like any other, and the completion keeps it alone
    unit = [{(0,) * arity: 1}]
    others = [{(2,) + (0,) * (arity - 1): 3, (0,) * arity: 1}, {(1,) * arity: -2}]
    assert strong_groebner(others + gens, arity) == unit == _preset(arity, gens + others, 40)
    assert _preset(arity, gens, 40) == unit
    _refuse_packing(monkeypatch)
    assert strong_groebner([{}] + gens + [{}], arity) == unit


@pytest.mark.parametrize("arity, g", [
    # a negative leading coefficient
    (2, {(1, 1): -2, (0, 1): 1, (0, 0): 3}),
    # non-multilinear: x1^2 leads x0 in degrevlex, x0*x1 leads x2^2
    (2, {(0, 2): -1, (1, 0): 5}),
    (3, {(0, 0, 2): 3, (1, 1, 0): -1}),
    (1, {(3,): 2, (0,): -5}),
])
def test_a_single_generator_is_its_own_basis_before_packing(monkeypatch, arity, g):
    want = _preset(arity, [g], 40)
    assert len(want) == 1 and want[0] in (g, {e: -c for e, c in g.items()})
    _refuse_packing(monkeypatch)
    assert strong_groebner([{}, g], arity) == want


z3_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-4, 4).filter(bool),
                           min_size=1, max_size=4)


@given(z3_polys)
@settings(deadline=None, max_examples=60)
def test_one_feed_rule_equals_the_criterion_free_basis(g):
    # one generator over Z[x0..x2] of either sign, squares allowed, and the
    # same generator fed three times with mixed signs
    neg = {e: -c for e, c in g.items()}
    for gens in ([g], [neg], [g, neg, g]):
        assert strong_groebner(gens, 3) == _preset(3, gens, 6)
