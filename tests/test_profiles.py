import math
import random
from fractions import Fraction

import pytest

from detideals.graphs import (
    MATRIX_KINDS,
    build_matrix,
    char_matrix,
    complete_graph,
    cycle_graph,
    enumerate_connected,
    parse_graph6,
    star_graph,
)
from detideals.grobner import QX, ZX_UNI, Ideal
from detideals.polyring import RING_Q, RING_Z, UniPoly, multilinear_exponent
from detideals.profiles import (
    IdealProfile,
    SizeGuardError,
    VarietyDescription,
    determinantal_ideals,
    divides_in_algebraic_integers,
    evaluate_profile,
    invariant_factors_from_deltas,
    minors_k,
    multivariate_ideals,
    profile_json,
    strip_rational_roots,
    variety,
)
from detideals.smith import delta_bruteforce, snf_integer

KINDS = MATRIX_KINDS

X = UniPoly.variable(RING_Z)


def zc(c):
    return UniPoly.const(c, RING_Z)


# ---------------------------------------------------------------------------
# minors


def test_minors_counts():
    m = char_matrix(complete_graph(2), "adjacency")
    ones = minors_k(m, 1)
    assert sorted(str(p) for p in ones).count("UniPoly(Z: -1)") == 2
    assert len(ones) == 4
    big = char_matrix(cycle_graph(9), "adjacency")
    assert len(minors_k(big, 5)) == math.comb(9, 5) ** 2 == 15876


def test_minors_range():
    with pytest.raises(ValueError):
        minors_k(char_matrix(cycle_graph(4), "adjacency"), 5)


# ---------------------------------------------------------------------------
# profiles and coranks


def test_corank_examples():
    assert determinantal_ideals(parse_graph6("Dt_"), "adjacency", "Zx").corank == 3
    for n in (3, 4, 5):
        assert determinantal_ideals(complete_graph(n), "adjacency", "Zx").corank == 1
    assert multivariate_ideals(cycle_graph(4), "adjacency").corank == 2


def test_qx_profile_is_principal_snf_deltas():
    # deltas_q (characteristic polynomial, then gcds with derivatives) against
    # the independent oracle: the monic gcd of all k-minors of x*I - M
    for n in range(1, 5):
        for g in enumerate_connected(n):
            for kind in KINDS:
                profile = determinantal_ideals(g, kind, "Qx")
                cm = char_matrix(g, kind)
                for k, ideal in enumerate(profile.ideals, start=1):
                    basis = ideal.canonical_basis()
                    assert len(basis) == 1
                    assert basis[0] == delta_bruteforce(cm, k)


def test_chain_membership_small_corpora():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for kind in KINDS:
                profile = determinantal_ideals(g, kind, "Zx")
                for k in range(n - 1):
                    upper = profile.ideals[k + 1]
                    lower = profile.ideals[k]
                    assert all(lower.member(p) for p in upper.canonical_basis())


def test_evaluation_at_zero_matches_integer_snf():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for kind in KINDS:
                profile = determinantal_ideals(g, kind, "Zx")
                snf = snf_integer(build_matrix(g, kind))
                assert evaluate_profile(profile, 0) == list(snf.delta_sequence())


def test_regular_graph_evaluation_at_r():
    for g in (cycle_graph(4), cycle_graph(5), complete_graph(4), complete_graph(5)):
        degs = {g.degree(i) for i in range(g.n)}
        assert len(degs) == 1
        r = degs.pop()
        profile = determinantal_ideals(g, "adjacency", "Zx")
        lap = snf_integer(build_matrix(g, "laplacian"))
        assert evaluate_profile(profile, r) == list(lap.delta_sequence())


def test_variety_equality_zx_vs_qx():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            for kind in ("adjacency", "distlap"):
                zp = determinantal_ideals(g, kind, "Zx")
                qp = determinantal_ideals(g, kind, "Qx")
                for k in range(1, n + 1):
                    va, vb = variety(zp, k), variety(qp, k)
                    assert (va.status, va.squarefree, va.roots) == (
                        vb.status,
                        vb.squarefree,
                        vb.roots,
                    )


def test_variety_of_a_zero_ideal_is_all_reals():
    # no graph's x*I - M has a zero ideal, so the profile is built by hand
    for ring in (ZX_UNI, QX):
        profile = IdealProfile(complete_graph(2), "adjacency", ring,
                               (Ideal(ring, [UniPoly.const(1, RING_Z)]), Ideal(ring, [])))
        assert variety(profile, 2) == VarietyDescription(2, "all_reals", None, ())
        assert variety(profile, 1).status == "empty"


def test_rational_variety_roots_divide_delta():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            for kind in KINDS:
                profile = determinantal_ideals(g, kind, "Zx")
                snf = snf_integer(build_matrix(g, kind))
                for k in range(1, n + 1):
                    d = snf.delta(k)
                    if d == 0:
                        continue
                    v = variety(profile, k)
                    if v.status != "roots":
                        continue
                    for lam in v.roots:
                        assert lam.denominator == 1 and lam != 0
                        assert d % int(lam) == 0


def test_irrational_varieties_divide_in_algebraic_integers():
    checked = 0
    for g in enumerate_connected(5):
        for kind in KINDS:
            profile = determinantal_ideals(g, kind, "Zx")
            snf = snf_integer(build_matrix(g, kind))
            for k in range(1, 6):
                d = snf.delta(k)
                if d == 0:
                    continue
                v = variety(profile, k)
                if v.status != "roots":
                    continue
                _, rest = strip_rational_roots(v.squarefree)
                if rest.degree >= 1:
                    assert divides_in_algebraic_integers(d, rest)
                    checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# evaluation helpers


def test_evaluate_profile_c4_critical():
    profile = multivariate_ideals(cycle_graph(4), "adjacency")
    assert evaluate_profile(profile, (2, 2, 2, 2)) == [1, 1, 4, 0]
    assert evaluate_profile(profile, (0, 0, 0, 0)) == [1, 1, 0, 0]
    with pytest.raises(ValueError):
        evaluate_profile(profile, (1, 2))


@pytest.mark.parametrize("ring, point, name", [
    ("ZX", (0.5, 1, 1, 1), "coordinate 0"),
    ("ZX", (2, 2, Fraction(1, 2), 2), "coordinate 2"),
    ("Zx", Fraction(1, 2), "evaluation point"),
    ("Zx", 1.5, "evaluation point"),
    ("Zx", (1.5,), "evaluation point"),
])
def test_evaluate_profile_rejects_non_integer_points(ring, point, name):
    # a non-integer coordinate is an error, never truncated
    g = cycle_graph(4)
    profile = (multivariate_ideals(g, "adjacency") if ring == "ZX"
               else determinantal_ideals(g, "adjacency", "Zx"))
    with pytest.raises(ValueError, match=f"{name} is not an integer"):
        evaluate_profile(profile, point)


def test_evaluate_profile_accepts_integral_fractions():
    g = cycle_graph(4)
    assert evaluate_profile(multivariate_ideals(g, "adjacency"),
                            (Fraction(2), 2, 2, 2)) == [1, 1, 4, 0]
    zx = determinantal_ideals(g, "adjacency", "Zx")
    assert evaluate_profile(zx, Fraction(2)) == evaluate_profile(zx, 2)


def test_multivariate_evaluation_consistency():
    for n in range(2, 5):
        for g in enumerate_connected(n):
            profile = multivariate_ideals(g, "adjacency")
            degs = tuple(g.degree(i) for i in range(n))
            lap = snf_integer(build_matrix(g, "laplacian"))
            adj = snf_integer(build_matrix(g, "adjacency"))
            assert evaluate_profile(profile, degs) == list(lap.delta_sequence())
            assert evaluate_profile(profile, (0,) * n) == list(adj.delta_sequence())


def test_multivariate_profiles_evaluate_to_integer_deltas_and_contain_their_generators():
    # every critical and distance ideal with n <= 5: at two seeded integer
    # points the canonical bases give the Delta_k of diag(point) - M, and
    # every generator (a distinct minor) is a member of the canonical basis
    rng = random.Random(20191)
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for kind in ("adjacency", "distance"):
                profile = multivariate_ideals(g, kind)
                m = build_matrix(g, kind)
                for _ in range(2):
                    point = [rng.randint(-4, 4) for _ in range(n)]
                    shifted = [[point[i] * (i == j) - m[i][j] for j in range(n)]
                               for i in range(n)]
                    assert evaluate_profile(profile, point) == list(
                        snf_integer(shifted).delta_sequence()), (kind, point, g)
                for ideal in profile.ideals:
                    assert all(ideal.member(p) for p in ideal.gens), (kind, g)


def test_invariant_factors_from_deltas():
    assert invariant_factors_from_deltas([1, 1, 4, 0]) == ((1, 1, 4), 1)
    assert invariant_factors_from_deltas([1, 1, 0, 0]) == ((1, 1), 2)
    assert invariant_factors_from_deltas([0]) == ((), 1)


# ---------------------------------------------------------------------------
# algebraic-integer divisibility


def test_divides_in_algebraic_integers_examples():
    assert divides_in_algebraic_integers(3, X - zc(3))
    for n in (3, 5, 9):
        assert divides_in_algebraic_integers(n - 1, X - zc(n - 1))
    assert divides_in_algebraic_integers(3, X**2 - zc(3))
    assert not divides_in_algebraic_integers(2, X**2 - zc(3))


def test_divides_in_algebraic_integers_validation():
    with pytest.raises(ValueError):
        divides_in_algebraic_integers(0, X - zc(1))
    with pytest.raises(ValueError):
        divides_in_algebraic_integers(3, zc(2) * X - zc(1))  # not monic
    with pytest.raises(ValueError):
        divides_in_algebraic_integers(3, X**2 - X)  # vanishes at 0


# ---------------------------------------------------------------------------
# guards and rendering


def test_inexact_division_raises_arithmetic_error(monkeypatch):
    # both guards must hold under python -O too, so neither may be an assert
    from detideals import polyring, profiles

    def inexact(a, b):
        return UniPoly.zero(RING_Q), UniPoly.const(1, RING_Q)

    # gcd_poly_q divides too and would never finish with the inexact division
    monkeypatch.setattr(polyring, "gcd_poly_q", lambda a, b: UniPoly.const(1, RING_Q))
    monkeypatch.setattr(polyring, "divmod_poly", inexact)
    monkeypatch.setattr(profiles, "divmod_poly", inexact)
    p = (X * X - zc(1)).to_q()
    with pytest.raises(ArithmeticError):
        polyring.squarefree_part(p)
    with pytest.raises(ArithmeticError):
        strip_rational_roots(p)


def test_critical_profiles_share_one_exponent_tuple_per_monomial():
    # every minor of diag(x) - M is multilinear, and so is every canonical
    # basis element here: each key of a generator or basis element is the
    # exponent table's own tuple, so a profile holds one tuple per monomial
    corpus = enumerate_connected(5)
    for g in (corpus[0], corpus[-1]):
        profile = multivariate_ideals(g, "adjacency")
        keys = [e for ideal in profile.ideals
                for p in ideal.gens + ideal.canonical_basis() for e in p.terms]
        assert len(keys) > len(set(keys))
        for e in keys:
            assert max(e) <= 1
            assert e is multilinear_exponent(5, sum(x << i for i, x in enumerate(e)))


def test_multivariate_size_guard():
    with pytest.raises(SizeGuardError):
        multivariate_ideals(star_graph(7), "adjacency")
    profile = multivariate_ideals(star_graph(7), "adjacency", force=True)
    assert profile.corank >= 1


def test_profile_json_shape():
    profile = determinantal_ideals(parse_graph6("Dt_"), "adjacency", "Zx")
    doc = profile_json(profile, var="t")
    assert doc["graph"] == "Dt_"
    assert doc["matrix"] == "adjacency"
    assert doc["ring"] == "Zx"
    assert doc["corank"] == 3
    assert doc["ideals"][3] == {"ring": "Zx", "k": 4, "basis": ["2", "t + 1"]}
    assert doc["varieties"][0] == {"k": 1, "status": "empty"}
    v5 = doc["varieties"][4]
    assert v5["k"] == 5 and "0" in v5["rational_roots"] and "-1" in v5["rational_roots"]
    mv = profile_json(multivariate_ideals(cycle_graph(4), "adjacency"))
    assert mv["ring"] == "ZX" and mv["varieties"] == []
