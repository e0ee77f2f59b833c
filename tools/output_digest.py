"""Print one SHA-256 digest per detideals output, to show that a change keeps
the outputs byte-identical.

    PYTHONPATH=src python3 tools/output_digest.py > digests.txt

Run it on two checkouts and diff the two files.  It covers:

* `survey --output json` reports and `--checkpoint` files for every matrix
  kind and mode at n <= 7 (a cospectral checkpoint holds each graph's
  `char_poly` coefficients; a codet checkpoint holds the prefixed prefilter
  key of each pruned graph, which in codet-Z is the characteristic
  polynomial and SNF(M)), plus codet-Z at n = 7 over the members of each
  kind's codet-Q mate buckets;
* `snf --ring Qx --output json` and `snf --ring Z --output json` over every
  connected graph with n <= 7;
* `ideals --ring Zx` and `ideals --ring Qx`, JSON and text, over every
  connected graph with n <= 6 and every kind, and `ideals --ring Zx --output
  json` at n = 7 for every kind (its distance-kind levels with no monic
  generator are the graph ideals that reach `StrongBasis` over Z[x]);
* `ideals --ring ZX`, JSON and text, over every connected graph with n <= 6
  (critical and distance ideals; each profile is computed once, for the JSON
  pass, and reused by the text pass);
* the `cross_check` reports for n = 2..6 and every kind;
* `verify --max-n 6` of every suite, `tables` included;
* `gen --n N` for N = 1..8 (the built-in connected-graph corpora);
* `enumerate_connected(9)`, the n = 9 corpus that `gen --n 9` prints, as the
  SHA-256 of its newline-joined graph6 strings (labelled `_connected_cache
  n=9`, the name of the function it was first read from, so that digest
  files stay comparable);
* `write_graph6(canonical_graph(g))` over 500 seeded random connected graphs
  with n = 9 and 500 with n = 10, drawn at random rather than enumerated;
* `write_graph6` over 496 seeded random graphs, eight for each n = 1..62,
  connected or not, in the random labelling they were drawn in (not the
  canonical one), and the adjacency rows `parse_graph6` decodes from those
  strings;
* `build_matrix` of every kind over those 496 graphs (the distance and
  distance Laplacian kinds over the connected ones only);
* the `snf_integer` factors of c*I - M for those n = 9 graphs, every kind and
  c = 0, 1 and -1 (no survey key uses c = +-1; they widen the coverage of
  `snf_integer`), of 3,000 seeded random square integer matrices of sizes 1-7 (entries in [-40, 40], mostly zeros, a
  quarter of them with a row copied from another up to sign, so singular),
  which pivot on entries other than +-1 far more often than graph matrices,
  and of 3,000 more of sizes 1-8 with entries in [-1000, 1000], whose
  division steps leave many remainders of different sizes;
* `gcd_poly_q` of 3,000 seeded pairs of rational polynomials (zero on one
  side, constants, leading coefficients of either sign and any size, and a
  planted common factor in most pairs);
* `deltas_q` of the adjacency matrices of K_1..K_9 and of 600 seeded
  symmetric integer matrices of sizes 2-9, each a block repeated two to four
  times and conjugated by a signed permutation, so that some eigenvalue has
  multiplicity two or more.

It uses the standard library and whatever `detideals` is on the import path.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from unittest import mock

from detideals import cli
from detideals.cli import main
from detideals.graphs import (
    MATRIX_KINDS,
    Graph,
    build_matrix,
    canonical_graph,
    enumerate_connected,
    is_connected,
    parse_graph6,
    write_graph6,
)
from detideals.polyring import RING_Q, UniPoly, gcd_poly_q
from detideals.smith import deltas_q, snf_integer
from detideals.suites import SUITES
from detideals.survey import MODES, cross_check


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(*argv: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        sys.exit(f"detideals {' '.join(argv)} exited with {code}")
    return out.getvalue().encode()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def print_digests(tmp: str) -> None:
    out, keys = os.path.join(tmp, "report.json"), os.path.join(tmp, "keys.jsonl")
    runs = [(n, kind, mode) for n in range(1, 7) for kind in MATRIX_KINDS for mode in MODES]
    runs += [(7, kind, mode) for kind in MATRIX_KINDS for mode in MODES]
    for n, kind, mode in runs:
        _cli("survey", "--n", str(n), "--matrix", kind, "--mode", mode,
             "--output", "json", "--out", out, "--checkpoint", keys)
        print(f"survey n={n} {kind} {mode} report {_sha(_read(out))}")
        print(f"survey n={n} {kind} {mode} checkpoint {_sha(_read(keys))}", flush=True)
        if n == 7 and mode == "codet-Q":
            mates = os.path.join(tmp, "mates.g6")
            with open(out, encoding="utf-8") as fh, open(mates, "w", encoding="ascii") as g6:
                g6.writelines(f"{m}\n" for b in json.load(fh)["buckets"] for m in b["graphs"])
            _cli("survey", "--input", mates, "--matrix", kind, "--mode", "codet-Z",
                 "--output", "json", "--out", out, "--checkpoint", keys)
            print(f"survey n=7 {kind} codet-Z over codet-Q mates report {_sha(_read(out))}")
            print(f"survey n=7 {kind} codet-Z over codet-Q mates checkpoint {_sha(_read(keys))}",
                  flush=True)

    corpus = os.path.join(tmp, "corpus.g6")
    for n in range(1, 8):
        with open(corpus, "w", encoding="ascii") as fh:
            fh.writelines(write_graph6(g) + "\n" for g in enumerate_connected(n))
        for ring in ("Qx", "Z"):
            for kind in MATRIX_KINDS:
                doc = _cli("snf", "--input", corpus, "--matrix", kind, "--ring", ring,
                           "--output", "json")
                print(f"snf-{ring} n={n} {kind} {_sha(doc)}", flush=True)
        # at n = 7 only the Z[x] JSON: it holds the distance-kind levels with
        # no monic generator, the graph ideals that reach StrongBasis over Z[x]
        rings, outputs = (("Zx",), ("json",)) if n == 7 else (("Zx", "Qx"), ("json", "text"))
        for ring in rings:
            for kind in MATRIX_KINDS:
                for output in outputs:
                    doc = _cli("ideals", "--input", corpus, "--matrix", kind,
                               "--ring", ring, "--output", output)
                    print(f"ideals-{ring} n={n} {kind} {output} {_sha(doc)}", flush=True)
        if n == 7:
            continue
        for kind in ("adjacency", "distance"):
            for output in ("json", "text"):
                doc = _cli("ideals", "--input", corpus, "--matrix", kind, "--ring", "ZX",
                           "--output", output)
                print(f"ideals-ZX n={n} {kind} {output} {_sha(doc)}", flush=True)

    for n in range(2, 7):
        for kind in MATRIX_KINDS:
            report = cross_check(enumerate_connected(n), kind)
            print(f"cross_check n={n} {kind} ok={report.ok} {_sha(repr(report).encode())}",
                  flush=True)

    for suite in sorted(SUITES):
        doc = _cli("verify", "--suite", suite, "--max-n", "6", "--workers", "1")
        print(f"verify {suite} {_sha(doc)}", flush=True)

    for n in range(1, 9):
        print(f"gen n={n} {_sha(_cli('gen', '--n', str(n)))}", flush=True)
    corpus9 = enumerate_connected(9)
    digest = _sha("\n".join(write_graph6(g) for g in corpus9).encode())
    print(f"_connected_cache n=9 {len(corpus9)} graphs {digest}", flush=True)

    random_graphs = {n: _random_connected(random.Random(n), n, 500) for n in (9, 10)}
    forms = [write_graph6(canonical_graph(g)) for n in (9, 10) for g in random_graphs[n]]
    digest = _sha("\n".join(forms).encode())
    print(f"canonical_graph n=9,10 random {digest}", flush=True)
    labelled_graphs = _random_labelled(random.Random(62), 8)
    labelled = [write_graph6(g) for g in labelled_graphs]
    print(f"write_graph6 n=1..62 random labelled {len(labelled)} "
          f"{_sha(chr(10).join(labelled).encode())}", flush=True)
    decoded = [repr(parse_graph6(g6).rows) for g6 in labelled]
    print(f"parse_graph6 n=1..62 random labelled rows {len(decoded)} "
          f"{_sha(chr(10).join(decoded).encode())}", flush=True)
    for kind in MATRIX_KINDS:
        matrices = [repr(build_matrix(g, kind)) for g in labelled_graphs
                    if kind in ("adjacency", "laplacian") or is_connected(g)]
        print(f"build_matrix n=1..62 random labelled {kind} {len(matrices)} "
              f"{_sha(chr(10).join(matrices).encode())}", flush=True)

    for kind in MATRIX_KINDS:
        for c in (0, 1, -1):
            factors = []
            for g in random_graphs[9]:
                m = build_matrix(g, kind)
                shifted = [[c * (i == j) - v for j, v in enumerate(row)] for i, row in enumerate(m)]
                factors.append(repr(snf_integer(shifted).factors))
            digest = _sha("\n".join(factors).encode())
            print(f"snf_integer n=9 random {kind} c={c} {digest}", flush=True)
    for label, matrices in (("random", _random_int_matrices(random.Random(40), 3000, 7, 40)),
                            ("random large",
                             _random_int_matrices(random.Random(1000), 3000, 8, 1000))):
        by_size: dict = {}
        for m in matrices:
            by_size.setdefault(len(m), []).append(repr(snf_integer(m).factors))
        for size in sorted(by_size):
            digest = _sha("\n".join(by_size[size]).encode())
            print(f"snf_integer {label} {size}x{size} {len(by_size[size])} matrices {digest}",
                  flush=True)

    gcds = [repr(gcd_poly_q(a, b).coeffs) for a, b in _rational_pairs(random.Random(71), 3000)]
    print(f"gcd_poly_q random rational pairs {len(gcds)} {_sha(chr(10).join(gcds).encode())}",
          flush=True)
    complete = [[[int(i != j) for j in range(n)] for i in range(n)] for n in range(1, 10)]
    for label, matrices in (("K_1..K_9 adjacency", complete),
                            ("random repeated blocks", _repeated_blocks(random.Random(72), 600))):
        deltas = [repr([d.coeffs for d in deltas_q(m)]) for m in matrices]
        print(f"deltas_q {label} {len(deltas)} {_sha(chr(10).join(deltas).encode())}", flush=True)


def _random_connected(rnd: random.Random, n: int, count: int) -> list[Graph]:
    """`count` connected graphs on n vertices, each drawn with an edge
    probability drawn uniformly from [0.2, 0.8]."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out = []
    while len(out) < count:
        p = rnd.uniform(0.2, 0.8)
        g = Graph.from_edges(n, [e for e in pairs if rnd.random() < p])
        if is_connected(g):
            out.append(g)
    return out


def _random_labelled(rnd: random.Random, per_n: int) -> list[Graph]:
    """`per_n` graphs for each n = 1..62, connected or not, each drawn with an
    edge probability drawn uniformly from [0.05, 0.95]."""
    out = []
    for n in range(1, 63):
        for _ in range(per_n):
            p = rnd.uniform(0.05, 0.95)
            out.append(Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                            if rnd.random() < p]))
    return out


def _random_int_matrices(rnd: random.Random, count: int, max_n: int,
                         bound: int) -> list[list[list[int]]]:
    """`count` square integer matrices of sizes 1-`max_n` with entries in
    [-bound, bound], each entry nonzero with a probability drawn from
    [0.15, 0.5]; in about a quarter of them (size >= 2) one row is a copy of
    another up to sign, so the matrix is singular."""
    out = []
    for _ in range(count):
        n = rnd.randint(1, max_n)
        p = rnd.uniform(0.15, 0.5)
        m = [[rnd.randint(-bound, bound) if rnd.random() < p else 0 for _ in range(n)]
             for _ in range(n)]
        if n >= 2 and rnd.random() < 0.25:
            i, j = rnd.sample(range(n), 2)
            m[i] = [rnd.choice((-1, 1)) * x for x in m[j]]
        out.append(m)
    return out


def _rational_poly(rnd: random.Random, degree: int) -> UniPoly:
    """A Q[x] polynomial of the given degree (zero if -1), coefficients p/q
    with |p| <= 30 and 1 <= q <= 12, the leading one nonzero."""
    cs = [Fraction(rnd.randint(-30, 30), rnd.randint(1, 12)) for _ in range(degree + 1)]
    if cs and not cs[-1]:
        cs[-1] = Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 30), rnd.randint(1, 12))
    return UniPoly(cs, RING_Q)


def _rational_pairs(rnd: random.Random, count: int) -> list[tuple[UniPoly, UniPoly]]:
    """`count` pairs of Q[x] polynomials of degree -1 (zero) to 6, never both
    zero; in about two thirds of them both are multiplied by one planted
    factor of degree 1-3."""
    out = []
    while len(out) < count:
        a, b = (_rational_poly(rnd, rnd.randint(-1, 6)) for _ in range(2))
        if rnd.random() < 2 / 3:
            f = _rational_poly(rnd, rnd.randint(1, 3))
            a, b = a * f, b * f
        if not (a.is_zero() and b.is_zero()):
            out.append((a, b))
    return out


def _repeated_blocks(rnd: random.Random, count: int) -> list[list[list[int]]]:
    """`count` symmetric integer matrices P diag(B, ..., B, C) P^T: a random
    symmetric block B of size 1-3 (entries in [-5, 5]) repeated two to four
    times, an optional symmetric block C of size 0-2, and a random signed
    permutation P; each eigenvalue of B has multiplicity at least the number
    of repeats.  Sizes stay at most 9."""
    def block(k):
        b = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                b[i][j] = b[j][i] = rnd.randint(-5, 5)
        return b

    out = []
    while len(out) < count:
        k, reps, extra = rnd.randint(1, 3), rnd.randint(2, 4), rnd.randint(0, 2)
        n = k * reps + extra
        if n > 9:
            continue
        m = [[0] * n for _ in range(n)]
        blocks = [(r * k, b) for b in [block(k)] for r in range(reps)] + [(k * reps, block(extra))]
        for start, b in blocks:
            for i, row in enumerate(b):
                m[start + i][start:start + len(row)] = row
        perm = rnd.sample(range(n), n)
        sign = [rnd.choice((-1, 1)) for _ in range(n)]
        out.append([[sign[i] * sign[j] * m[perm[i]][perm[j]] for j in range(n)]
                    for i in range(n)])
    return out


def _memoised(multivariate_ideals):
    """`multivariate_ideals` memoised by graph6, kind and force, so that the
    JSON and text passes of `ideals --ring ZX` share each profile and the
    canonical bases it caches."""
    cache: dict = {}

    def memoised(g, kind, force=False):
        key = write_graph6(g), kind, force
        if key not in cache:
            cache[key] = multivariate_ideals(g, kind, force=force)
        return cache[key]

    return memoised


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "multivariate_ideals", _memoised(cli.multivariate_ideals)):
        print_digests(tmp)
