"""Every value type survives pickle, copy.copy and copy.deepcopy unchanged:
the pool sends graphs, profiles and reports between processes by pickle."""

import copy
import pickle
from fractions import Fraction

import pytest

from detideals.graphs import build_matrix, cycle_graph, parse_graph6
from detideals.grobner import QX, ZX_UNI, Ideal, zmulti
from detideals.polyring import RING_Q, RING_Z, MultiPoly, UniPoly
from detideals.profiles import determinantal_ideals, multivariate_ideals, profile_json
from detideals.smith import snf_integer, snf_poly_q
from detideals.survey import run_survey

ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}

C4 = cycle_graph(4)
X = UniPoly.variable(RING_Z)
XY = MultiPoly(2, {(1, 1): 2, (1, 0): -3, (0, 0): 5})

VALUES = {
    "Graph": C4,
    "UniPoly over Z": X * X - UniPoly.const(7),
    "UniPoly over Q": UniPoly((Fraction(1, 2), 0, Fraction(-3, 4)), RING_Q),
    "MultiPoly": XY,
    "SnfResult over Z": snf_integer(build_matrix(C4, "laplacian")),
    "SnfResult over Q[x]": snf_poly_q(build_matrix(C4, "adjacency")),
}


@pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_values_round_trip_equal_with_equal_hashes(value, trip):
    back = trip(value)
    assert type(back) is type(value) and back == value and hash(back) == hash(value)


@pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_survey_report_round_trips(corpus6, trip):
    report = run_survey(corpus6, "adjacency", "cospectral", workers=1)
    assert report.buckets  # the n = 6 adjacency spectra have mates
    back = trip(report)
    assert back == report and hash(back) == hash(report)


def _ideals():
    return {
        "Zx": Ideal(ZX_UNI, [X * X - UniPoly.const(4), UniPoly((2, 6))]),
        "Qx": Ideal(QX, [X * X - UniPoly.const(1), X - UniPoly.const(1)]),
        "ZX": Ideal(zmulti(2), [XY, MultiPoly(2, {(0, 2): 3, (0, 0): -1})]),
    }


def _same_ideal(a, b):
    return (type(a) is Ideal and (a.ring, a.gens, a._basis) == (b.ring, b.gens, b._basis)
            and a.equal(b))


@pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
@pytest.mark.parametrize("ring", ["Zx", "Qx", "ZX"])
def test_ideals_round_trip_with_their_cached_basis(ring, trip):
    ideal = _ideals()[ring]
    fresh = trip(ideal)
    assert fresh._basis is None and fresh.gens == ideal.gens
    basis = ideal.canonical_basis()
    back = trip(ideal)
    assert back._basis == basis and _same_ideal(back, ideal)
    assert fresh.canonical_basis() == basis and _same_ideal(fresh, ideal)


def test_ideals_with_equal_generators_are_not_eq():
    a, b = _ideals()["Zx"], _ideals()["Zx"]
    assert a.equal(b) and a != b and a == a
    assert len({a, b, copy.copy(a)}) == 3


def _profiles():
    g = parse_graph6("DQw")  # C5
    return {
        "Zx": determinantal_ideals(g, "laplacian", "Zx"),
        "Qx": determinantal_ideals(g, "distance", "Qx"),
        "ZX": multivariate_ideals(g, "adjacency"),
    }


@pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
@pytest.mark.parametrize("ring", ["Zx", "Qx", "ZX"])
def test_profiles_round_trip_with_their_cached_bases(ring, trip):
    profile = _profiles()[ring]
    text = profile_json(profile)  # computes and caches every basis
    back = trip(profile)
    assert (back.graph, back.kind, back.ring) == (profile.graph, profile.kind, profile.ring)
    assert all(map(_same_ideal, back.ideals, profile.ideals))
    assert all(i._basis is not None for i in back.ideals)
    assert profile_json(back) == text
