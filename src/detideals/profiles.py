"""Determinantal ideal profiles of graph matrices.

A profile holds the ideals I_1 .. I_n of x*I - M over Z[x] or Q[x], or of
diag(x_1..x_n) - M over Z[X] (critical / distance ideals), together with the
algebraic co-rank, evaluation maps and variety machinery.  The Z[x] and Z[X]
ideals are generated by `smith.char_minors`: it peels the unit pivots off
the packed matrix (every edge gives one), so the first levels are just 1 and
the rest are the distinct minors of the smaller Schur complement (just 1 for
a level with a +-1 minor, which is then never decoded).  The Q[x] ideals are
generated by the Delta_k of `smith.deltas_q`.  A Z[X] ideal's basis comes
from `grobner.strong_groebner`: a single generator (every [1] level, and
every principal level such as I_n) is its own basis; otherwise it packs each
generator once, feeds them all to the chain-criterion `StrongBasis` and then
completes it once.
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
    exact_int,
    gcd_int_many,
    poly_str,
    rational_roots,
    squarefree_part,
)
from .smith import char_minors, deltas_q, laplace_walk

MULTIVARIATE_GUARD = 6


class SizeGuardError(RuntimeError):
    pass


@dataclass(frozen=True)
class IdealProfile:
    """Ordered ideals I_1..I_n of one polynomial matrix of one graph."""

    graph: graphs.Graph
    kind: str
    ring: Ring
    ideals: tuple[Ideal, ...]

    @property
    def graph6(self) -> str:
        """The graph's graph6 string, encoded where a profile is rendered."""
        return graphs.write_graph6(self.graph)

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
    """All C(n,k)^2 k-minors (duplicates and zeros retained), row sets and
    then column sets in `combinations` order: level k of `smith.laplace_walk`
    alone, which enters only row sets that can grow to k rows."""
    return [det for _, level in laplace_walk(matrix, k, k) for det in level.values()]


# ---------------------------------------------------------------------------
# profiles


def determinantal_ideals(g: graphs.Graph, kind: str, ring: str = "Zx") -> IdealProfile:
    """Characteristic ideal profile of x*I - M(G) over Z[x] or Q[x]."""
    if ring == "Qx":
        ideals = tuple(Ideal(QX, [d]) for d in deltas_q(graphs.build_matrix(g, kind)))
        return IdealProfile(g, kind, QX, ideals)
    if ring != "Zx":
        raise graphs.InputError("characteristic ideals live in Zx or Qx")
    minors = char_minors(graphs.build_matrix(g, kind), ZX_UNI)
    return IdealProfile(g, kind, ZX_UNI, tuple(Ideal(ZX_UNI, ms) for ms in minors))


def multivariate_ideals(g: graphs.Graph, kind: str, force: bool = False) -> IdealProfile:
    """Critical ideals (kind "adjacency") or distance ideals (kind "distance")
    over Z[x0..x_{n-1}]; guarded to n <= 6 unless forced.  Any other kind is
    refused (InputError) before the guard, since no size makes it valid."""
    matrix = graphs.multivariate_matrix(g, kind)
    if g.n > MULTIVARIATE_GUARD and not force:
        raise SizeGuardError(
            f"multivariate ideals for n={g.n} exceed the guard (n <= {MULTIVARIATE_GUARD}); "
            "pass force=True to override"
        )
    ring = zmulti(g.n)
    ideals = tuple(Ideal(ring, minors) for minors in char_minors(matrix, ring))
    return IdealProfile(g, kind, ring, ideals)


# ---------------------------------------------------------------------------
# evaluation


def evaluate_profile(profile: IdealProfile, point) -> list[int]:
    """Evaluate each I_k at an integer point; returns the Delta_k sequence.

    For Z[x] profiles the point is one integer c and the result is
    Delta_k(c*I - M); for Z[X] profiles it is a length-n vector.  ValueError
    names a coordinate that is not an integer.
    """
    ring = profile.ring
    if ring.kind == "Zx":
        if isinstance(point, (list, tuple)):
            if len(point) != 1:
                raise ValueError("univariate profiles evaluate at a single integer")
            point = point[0]
        point = exact_int(point, "evaluation point")
    elif ring.kind == "ZX":
        if not isinstance(point, (list, tuple)) or len(point) != ring.arity:
            raise ValueError("evaluation point arity mismatch")
        point = tuple(exact_int(c, f"coordinate {i}") for i, c in enumerate(point))
    else:
        raise ValueError("evaluation maps are defined for Z[x] and Z[X] profiles")
    return [gcd_int_many(p(point) for p in ideal.canonical_basis()) for ideal in profile.ideals]


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
