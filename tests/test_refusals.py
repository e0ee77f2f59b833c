"""Each public entry point refuses bad input with the error it documents."""

from fractions import Fraction

import pytest

from detideals.graphs import Graph, InputError, build_matrix, cycle_graph
from detideals.grobner import ZX_UNI, Ideal, Ring, RingMismatchError, zmulti
from detideals.polyring import RING_Z, MultiPoly, UniPoly, divmod_poly
from detideals.profiles import determinantal_ideals, evaluate_profile, multivariate_ideals, variety
from detideals.smith import snf_integer
from detideals.suites import run_suite
from detideals.survey import invariant_key, run_survey

C4 = cycle_graph(4)
X = UniPoly.variable(RING_Z)

REFUSALS = {
    "ring kind": (ValueError, "unknown ring kind", lambda: Ring("Px")),
    "univariate ring arity": (ValueError, "arity 1", lambda: Ring("Zx", 2)),
    "coefficient ring": (ValueError, "unknown coefficient ring", lambda: UniPoly((1,), "R")),
    "negative power": (ValueError, "negative exponent", lambda: X ** -1),
    "division by zero": (ZeroDivisionError, "division by zero",
                         lambda: divmod_poly(X, UniPoly.zero(RING_Z))),
    "division by the int 0": (ZeroDivisionError, "division by zero", lambda: divmod_poly(X, 0)),
    "division by Fraction(0)": (ZeroDivisionError, "division by zero",
                                lambda: divmod_poly(X, Fraction(0))),
    "exponent arity": (ValueError, "arity mismatch", lambda: MultiPoly(2, {(1,): 1})),
    "negative variable index": (ValueError, "variable index -1 outside 0..1",
                                lambda: MultiPoly.variable(-1, 2)),
    "variable index beyond arity": (ValueError, "variable index 2 outside 0..1",
                                    lambda: MultiPoly.variable(2, 2)),
    "negative arity": (ValueError, "negative arity", lambda: zmulti(-2)),
    "float arity": (ValueError, "arity is not an integer: 2.5", lambda: zmulti(2.5)),
    "string arity": (ValueError, "arity is not an integer: '2'", lambda: zmulti("2")),
    "float arity of a polynomial": (ValueError, "arity is not an integer: 2.5",
                                    lambda: MultiPoly(2.5, {})),
    "negative arity of a polynomial": (ValueError, "negative arity -1",
                                       lambda: MultiPoly(-1, {})),
    "float adjacency rows": (InputError, "adjacency row 0 is not an integer",
                             lambda: Graph(2, [2.7, 1.2])),
    "string adjacency rows": (InputError, "adjacency row 0 is not an integer",
                              lambda: Graph(2, ["2", "1"])),
    "float vertex count": (InputError, "vertex count is not an integer",
                           lambda: Graph(2.0, [2, 1])),
    "float vertex count of edges": (InputError, "vertex count is not an integer",
                                    lambda: Graph.from_edges(2.5, [(0, 1)])),
    "float edge endpoint": (InputError, "edge endpoint is not an integer",
                            lambda: Graph.from_edges(2, [(0.0, 1)])),
    "adjacency rows not a sequence": (InputError, "adjacency rows are not a sequence",
                                      lambda: Graph(2, 5)),
    "edge of three endpoints": (InputError, "edges are not pairs of endpoints",
                                lambda: Graph.from_edges(2, [(0, 1, 2)])),
    "edge of one endpoint": (InputError, "edges are not pairs of endpoints",
                             lambda: Graph.from_edges(2, [(0,)])),
    "edge that is an int": (InputError, "edges are not pairs of endpoints",
                            lambda: Graph.from_edges(2, [5])),
    "edges that are an int": (InputError, "edges are not pairs of endpoints",
                              lambda: Graph.from_edges(2, 5)),
    "generator ring": (RingMismatchError, "tagged ring",
                       lambda: Ideal(ZX_UNI, [MultiPoly.variable(0, 1)])),
    "equal to a non-ideal": (TypeError, "another Ideal", lambda: Ideal(ZX_UNI, [X]).equal(3)),
    "Zx profile at two values": (ValueError, "single integer",
                                 lambda: evaluate_profile(determinantal_ideals(C4, "adjacency"),
                                                          [1, 2])),
    "Qx profile evaluated": (ValueError, "Z\\[x\\] and Z\\[X\\]",
                             lambda: evaluate_profile(determinantal_ideals(C4, "adjacency", "Qx"),
                                                      1)),
    "variety of a ZX profile": (ValueError, "univariate profiles only",
                                lambda: variety(multivariate_ideals(C4, "adjacency"), 1)),
    "delta beyond n": (ValueError, "k out of range",
                       lambda: snf_integer(build_matrix(C4, "laplacian")).delta(5)),
    "ZX characteristic ideals": (InputError, "Zx or Qx",
                                 lambda: determinantal_ideals(C4, "adjacency", "ZX")),
    "survey mode": (InputError, "unknown survey mode",
                    lambda: invariant_key(C4, "adjacency", "nope")),
    "matrix kind": (InputError, "unknown matrix kind", lambda: build_matrix(C4, "nope")),
    "empty corpus": (InputError, "empty corpus", lambda: run_survey([], "adjacency", "cospectral")),
    "suite name": (KeyError, "nope", lambda: run_suite("nope")),
}


@pytest.mark.parametrize("error, match, call", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals(error, match, call):
    with pytest.raises(error, match=match):
        call()
