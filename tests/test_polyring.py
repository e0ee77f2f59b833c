from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detideals.polyring import (
    RING_Q,
    RING_Z,
    MultiPoly,
    UniPoly,
    divmod_poly,
    gcd_poly_q,
    monomial_key,
    poly_str,
    rational_roots,
    squarefree_part,
)

X = UniPoly.variable(RING_Z)
XQ = UniPoly.variable(RING_Q)


def zc(c):
    return UniPoly.const(c, RING_Z)


def qc(c):
    return UniPoly.const(c, RING_Q)


# ---------------------------------------------------------------------------
# univariate arithmetic basics


def test_unipoly_construction_trims_and_tags():
    p = UniPoly((1, 2, 0, 0))
    assert p.degree == 1 and p.coeffs == (1, 2)
    assert UniPoly((), RING_Z).is_zero()
    q = UniPoly((1, 2), RING_Q)
    assert q != p  # same numbers, different ring tag
    assert all(isinstance(c, Fraction) for c in q.coeffs)


def test_unipoly_rejects_fractions_in_z():
    with pytest.raises(ValueError):
        UniPoly((Fraction(1, 2),), RING_Z)


def test_unipoly_q_rejects_floats():
    # a float's binary value is not the rational it prints as
    with pytest.raises(ValueError, match="coefficient 0 is not rational: 0.1"):
        UniPoly([0.1], RING_Q)
    with pytest.raises(ValueError, match="coefficient 1"):
        UniPoly([1, 2.0], RING_Q)
    assert UniPoly([1, Fraction(1, 2)], RING_Q).coeffs == (Fraction(1), Fraction(1, 2))


def test_multipoly_rejects_negative_exponents():
    # x^-1 is not a polynomial; it used to render as 1 and generate the unit ideal
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly(1, {(-1,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly(2, {(1, Fraction(-2)): 3})
    assert MultiPoly(2, {(0, Fraction(2)): 3}).terms == {(0, 2): 3}


poly_z = st.builds(
    lambda cs: UniPoly(cs, RING_Z),
    st.lists(st.integers(-9, 9), min_size=0, max_size=6),
)
poly_q = st.builds(
    lambda cs: UniPoly(cs, RING_Q),
    st.lists(
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
        min_size=0,
        max_size=5,
    ),
)


@given(poly_z, poly_z, poly_z)
def test_ring_axioms_unipoly(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p + (-p) == UniPoly.zero()


@given(poly_z, poly_z, st.integers(-5, 5))
def test_evaluation_is_ring_hom_unipoly(p, q, a):
    assert (p * q)(a) == p(a) * q(a)
    assert (p + q)(a) == p(a) + q(a)


# ---------------------------------------------------------------------------
# gcd / squarefree over Q[x] and Z[x]


def test_gcd_poly_q_k33_example():
    a = (XQ - qc(3)) ** 3 * (XQ + qc(9))
    b = qc(3) * (XQ - qc(3)) ** 3
    assert gcd_poly_q(a, b) == (XQ - qc(3)) ** 3


def test_gcd_poly_q_simple_examples():
    assert gcd_poly_q(XQ**2 - qc(1), XQ - qc(1)) == XQ - qc(1)
    fig2 = gcd_poly_q(qc(2) * (XQ + qc(1)), (XQ + qc(1)) * (XQ**2 + qc(1)))
    assert fig2 == XQ + qc(1)


def test_gcd_poly_q_rejects_two_zeros():
    with pytest.raises(ValueError):
        gcd_poly_q(UniPoly.zero(RING_Q), UniPoly.zero(RING_Q))


def _gcd_euclid_q(a, b):
    """Monic gcd by Euclid's algorithm over Q[x], remainders in Fractions:
    the oracle of the integer pseudo-remainder sequence in gcd_poly_q."""
    a, b = a.to_q(), b.to_q()
    while not b.is_zero():
        a, b = b, divmod_poly(a, b)[1]
    return a.monic()


rational = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
wide_poly_q = st.one_of(
    st.just(UniPoly.zero(RING_Q)),
    st.builds(UniPoly.const, rational.filter(bool), st.just(RING_Q)),
    st.builds(lambda cs, lc: UniPoly(cs + [lc], RING_Q),
              st.lists(rational, max_size=6), rational.filter(bool)),
)


@given(wide_poly_q, wide_poly_q, wide_poly_q)
@settings(max_examples=300)
def test_gcd_poly_q_equals_euclid_over_q(a, b, planted):
    # zero, constants, leading coefficients of any sign and size, a planted
    # common factor (a zero one makes both sides zero)
    for x, y in ((a, b), (a * planted, b * planted)):
        if x.is_zero() and y.is_zero():
            with pytest.raises(ValueError):
                gcd_poly_q(x, y)
        else:
            assert gcd_poly_q(x, y) == _gcd_euclid_q(x, y)


def test_gcd_poly_q_of_integer_polynomials():
    a, b = UniPoly([-6, 1, 1], RING_Z), UniPoly([-4, 0, 2], RING_Z)  # (x+3)(x-2), 2(x^2-2)
    assert gcd_poly_q(a, b) == qc(1)
    assert gcd_poly_q(a * b, UniPoly([4, -2], RING_Z) * a) == (XQ - qc(2)) * (XQ + qc(3))


@given(poly_q, poly_q)
def test_gcd_poly_q_divides_both(a, b):
    if a.is_zero() and b.is_zero():
        return
    g = gcd_poly_q(a, b)
    assert g.lc == 1
    for p in (a, b):
        if not p.is_zero():
            _, r = divmod_poly(p, g)
            assert r.is_zero()


def test_squarefree_part_examples():
    p = XQ * (XQ - qc(3)) ** 4 * (XQ - qc(6))
    assert squarefree_part(p) == XQ * (XQ - qc(3)) * (XQ - qc(6))
    assert squarefree_part(XQ - qc(1)) == XQ - qc(1)
    assert squarefree_part((XQ + qc(1)) ** 2) == XQ + qc(1)
    with pytest.raises(ValueError):
        squarefree_part(UniPoly.zero(RING_Q))


@given(poly_z)
def test_squarefree_part_divides_and_shares_rational_roots(p):
    if p.is_zero():
        return
    from detideals.polyring import divmod_poly

    sf = squarefree_part(p.to_q())
    assert rational_roots(sf) == rational_roots(p)
    _, rem = divmod_poly(p.to_q(), sf)
    assert rem.is_zero()


def test_rational_roots_examples():
    p = X * (X - zc(3)) ** 4 * (X - zc(6))
    assert rational_roots(p) == {Fraction(0), Fraction(3), Fraction(6)}
    # Appendix A determinant: t(t+1)(t^3-t^2-4t+2)
    p = X**5 - zc(5) * X**3 - zc(2) * X**2 + zc(2) * X
    assert rational_roots(p) == {Fraction(0), Fraction(-1)}
    assert rational_roots(X**2 + zc(1)) == set()
    assert rational_roots(zc(2) * X - zc(1)) == {Fraction(1, 2)}
    with pytest.raises(ValueError):
        rational_roots(UniPoly.zero())


# ---------------------------------------------------------------------------
# evaluation


def test_eval_poly_examples():
    p = (X - zc(3)) ** 3 * (X + zc(9))
    assert p(0) == -243
    x = [MultiPoly.variable(i, 4) for i in range(4)]
    gen = x[0] * x[1] * x[2] * x[3] - x[0] * x[1] - x[0] * x[3] - x[1] * x[2] - x[2] * x[3]
    assert gen((2, 2, 2, 2)) == 0
    assert X(5) == 5
    with pytest.raises(ValueError):
        gen((1, 2, 3))


# ---------------------------------------------------------------------------
# multivariate arithmetic


def multi_strategy(arity):
    exp = st.tuples(*[st.integers(0, 3)] * arity)
    return st.builds(
        lambda items: MultiPoly(arity, dict(items)),
        st.lists(st.tuples(exp, st.integers(-5, 5)), max_size=5),
    )


@given(multi_strategy(3), multi_strategy(3), multi_strategy(3))
def test_ring_axioms_multipoly(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p


@given(multi_strategy(2), multi_strategy(2), st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_evaluation_is_ring_hom_multipoly(p, q, a):
    assert (p * q)(a) == p(a) * q(a)


def test_monomial_orders():
    # degrevlex, the one monomial order
    key = monomial_key
    assert key((1, 0)) > key((0, 1))
    assert key((1, 0, 0)) < key((0, 0, 2))  # total degree decides first
    # total degree ties: the last nonzero entry of the difference decides
    assert key((2, 0)) > key((1, 1))
    assert key((1, 1)) > key((0, 2))
    assert key((0, 0, 2)) < key((1, 1, 0))


# ---------------------------------------------------------------------------
# rendering


def test_poly_str_univariate():
    p = X**5 - zc(5) * X**3 - zc(2) * X**2 + zc(2) * X
    assert poly_str(p, var="t") == "t^5 - 5*t^3 - 2*t^2 + 2*t"
    assert poly_str(UniPoly.zero()) == "0"
    assert poly_str(-X - zc(1)) == "-x - 1"
    assert poly_str(qc(Fraction(1, 2)) * XQ) == "1/2*x"


def test_poly_str_multivariate():
    x = [MultiPoly.variable(i, 4) for i in range(4)]
    gen = x[0] * x[1] * x[2] * x[3] - x[0] * x[1] - x[0] * x[3] - x[1] * x[2] - x[2] * x[3]
    assert poly_str(gen) == "x0*x1*x2*x3 - x0*x1 - x1*x2 - x0*x3 - x2*x3"
    n = MultiPoly.variable(0, 2)
    m = MultiPoly.variable(1, 2)
    assert poly_str(n + m.scale(2)) == "x0 + 2*x1"


def test_monic_over_z_divides_exactly_or_refuses():
    assert (zc(3) * X - zc(6)).monic() == X - zc(2)
    assert (zc(-2) * X**2 + zc(4)).monic() == X**2 - zc(2)
    assert (X + zc(5)).monic() == X + zc(5)
    assert UniPoly.zero(RING_Z).monic().is_zero()
    with pytest.raises(ValueError, match="indivisible"):
        (zc(2) * X + zc(1)).monic()
