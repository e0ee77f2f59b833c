"""Determinantal ideal profiles of graph matrices.

A profile holds the ideals I_1 .. I_n of x*I - M over Z[x] or Q[x], or of
diag(x_1..x_n) - M over Z[X] (critical / distance ideals), together with the
algebraic co-rank, evaluation maps and variety machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import graphs
from .grobner import QX, ZX_UNI, Ideal, Ring, zmulti
from .polyring import (
    RING_Q,
    UniPoly,
    divmod_poly,
    gcd_int_many,
    poly_str,
    rational_roots,
    squarefree_part,
)
from .smith import char_minors, deltas_q, minor_tables

MULTIVARIATE_GUARD = 6


class SizeGuardError(RuntimeError):
    pass


@dataclass(frozen=True)
class IdealProfile:
    """Ordered ideals I_1..I_n of one polynomial matrix of one graph."""

    graph6: str
    kind: str
    ring: Ring
    ideals: tuple[Ideal, ...]

    @property
    def n(self) -> int:
        return len(self.ideals)

    @property
    def corank(self) -> int:
        g = 0
        for ideal in self.ideals:
            if not ideal.is_trivial():
                break
            g += 1
        return g


@dataclass(frozen=True)
class VarietyDescription:
    """Common roots of I_k: empty, all of R, or the roots of a squarefree polynomial."""

    k: int
    status: str  # "empty" | "all_reals" | "roots"
    squarefree: UniPoly | None
    roots: tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# minors


def minors_k(matrix: Sequence[Sequence], k: int) -> list:
    """All C(n,k)^2 k-minors (duplicates and zeros retained)."""
    return list(minor_tables(matrix, k)[k].values())


# ---------------------------------------------------------------------------
# profiles


def determinantal_ideals(g: graphs.Graph, kind: str, ring: str = "Zx") -> IdealProfile:
    """Characteristic ideal profile of x*I - M(G) over Z[x] or Q[x]."""
    g6 = graphs.write_graph6(g)
    if ring == "Qx":
        ideals = tuple(Ideal(QX, [d]) for d in deltas_q(graphs.build_matrix(g, kind)))
        return IdealProfile(g6, kind, QX, ideals)
    if ring != "Zx":
        raise ValueError("characteristic ideals live in Zx or Qx")
    minors = char_minors(graphs.build_matrix(g, kind))
    return IdealProfile(g6, kind, ZX_UNI, tuple(Ideal(ZX_UNI, ms) for ms in minors))


def multivariate_ideals(g: graphs.Graph, kind: str, force: bool = False) -> IdealProfile:
    """Critical ideals (kind "adjacency") or distance ideals (kind "distance")
    over Z[x0..x_{n-1}]; guarded to n <= 6 unless forced.  Any other kind is
    refused (ValueError) before the guard, since no size makes it valid."""
    matrix = graphs.generalized_char_matrix(g, kind)
    if g.n > MULTIVARIATE_GUARD and not force:
        raise SizeGuardError(
            f"multivariate ideals for n={g.n} exceed the guard (n <= {MULTIVARIATE_GUARD}); "
            "pass force=True to override"
        )
    ring = zmulti(g.n)
    ideals = tuple(Ideal(ring, minors.values()) for minors in minor_tables(matrix).values())
    return IdealProfile(graphs.write_graph6(g), kind, ring, ideals)


# ---------------------------------------------------------------------------
# evaluation


def evaluate_profile(profile: IdealProfile, point) -> list[int]:
    """Evaluate each I_k at an integer point; returns the Delta_k sequence.

    For Z[x] profiles the point is one integer c and the result is
    Delta_k(c*I - M); for Z[X] profiles it is a length-n vector.
    """
    ring = profile.ring
    if ring.kind == "Zx":
        if isinstance(point, (list, tuple)):
            if len(point) != 1:
                raise ValueError("univariate profiles evaluate at a single integer")
            point = point[0]
        evaluate = lambda p: p(point)
    elif ring.kind == "ZX":
        if not isinstance(point, (list, tuple)) or len(point) != ring.arity:
            raise ValueError("evaluation point arity mismatch")
        point = tuple(point)
        evaluate = lambda p: p(point)
    else:
        raise ValueError("evaluation maps are defined for Z[x] and Z[X] profiles")
    out = []
    for ideal in profile.ideals:
        out.append(gcd_int_many(evaluate(p) for p in ideal.canonical_basis()))
    return out


def invariant_factors_from_deltas(deltas: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Split a Delta_k sequence into (nonzero invariant factors, free rank)."""
    factors = []
    prev = 1
    rank = 0
    for d in deltas:
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
        rank += 1
    return tuple(factors), len(deltas) - rank


# ---------------------------------------------------------------------------
# varieties and the eigenvalue divisibility test


def variety(profile: IdealProfile, k: int) -> VarietyDescription:
    """Variety of I_k for univariate profiles: the squarefree common-root
    polynomial over Q and its rational roots."""
    if profile.ring.kind not in ("Zx", "Qx"):
        raise ValueError("varieties are computed for univariate profiles only")
    if not 1 <= k <= profile.n:
        raise ValueError("k out of range")
    ideal = profile.ideals[k - 1]
    basis = ideal.canonical_basis()
    if not basis:
        return VarietyDescription(k, "all_reals", None, ())
    if ideal.is_trivial():
        return VarietyDescription(k, "empty", None, ())
    (g,) = Ideal(QX, basis).canonical_basis()
    if g.is_constant():
        # constant nonunit ideal over Z[x] (e.g. <2>): no common roots
        return VarietyDescription(k, "empty", None, ())
    sf = squarefree_part(g)
    roots = tuple(sorted(rational_roots(sf)))
    return VarietyDescription(k, "roots", sf, roots)


def divides_in_algebraic_integers(delta: int, p: UniPoly) -> bool:
    """True iff delta / lambda is an algebraic integer for every root lambda of p.

    p must be monic with integer coefficients and p(0) != 0; the test builds
    r(y) = y^d * p(delta/y) and checks that p(0) divides every coefficient,
    so r / p(0) is the monic integer polynomial with roots delta/lambda.
    """
    if delta == 0:
        raise ValueError("delta must be nonzero")
    p = p.to_z()
    if p.is_zero() or p.lc != 1:
        raise ValueError("p must be monic")
    c0 = p.constant_value()
    if c0 == 0:
        raise ValueError("p must not vanish at 0")
    power = 1
    for a in p.coeffs:
        if (a * power) % c0:
            return False
        power *= delta
    return True


def strip_rational_roots(p: UniPoly) -> tuple[list[Fraction], UniPoly]:
    """Factor out all rational linear factors of a monic squarefree Q polynomial."""
    p = p.to_q()
    roots = sorted(rational_roots(p))
    rest = p
    for r in roots:
        rest, rem = divmod_poly(rest, UniPoly((-r, 1), RING_Q))
        if not rem.is_zero():
            raise ArithmeticError(f"x - {r} leaves a remainder {poly_str(rem)}")
    return roots, rest.monic()


# ---------------------------------------------------------------------------
# rendering


def profile_json(profile: IdealProfile, var: str = "x") -> dict:
    ring = profile.ring
    out = {
        "graph": profile.graph6,
        "matrix": profile.kind,
        "ring": ring.kind,
        "corank": profile.corank,
        "ideals": [
            ideal.to_json(k, var=var)
            for k, ideal in enumerate(profile.ideals, start=1)
        ],
        "varieties": [],
    }
    if ring.kind in ("Zx", "Qx"):
        for k in range(1, profile.n + 1):
            v = variety(profile, k)
            if v.status == "roots":
                out["varieties"].append(
                    {
                        "k": k,
                        "squarefree": poly_str(v.squarefree, var=var),
                        "rational_roots": [str(r) for r in v.roots],
                    }
                )
            else:
                out["varieties"].append({"k": k, "status": v.status})
    return out
