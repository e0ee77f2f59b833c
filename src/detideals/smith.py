"""Smith normal forms over Z and Q[x], Delta_k oracles, cokernel groups.

One pivot rule, _least_entry (the first entry of least absolute value in
row-major order), and one Schur step, _pivot_out (A ~ p + S for a pivot p
dividing its row and column), serve snf_integer and _peel_units.
snf_integer first makes each pivot divide its row and column by division
steps (each reduces p's column, or else its row, mod p), and ends with one
gcd/lcm sweep to a divisibility chain; _peel_units takes pivots while they
are +-1.  _pivot_out deletes the pivot column in place from each row it does
not reduce, so snf_integer copies its matrix and _peel_units consumes its rows.
For a symmetric M (every graph matrix here), which is diagonalisable, the
Delta_k of x*I - M over Q[x] follow from the characteristic polynomial
alone, Delta_{k-1} being gcd(Delta_k, Delta_k'): delta_chain is that chain,
the one in the package; deltas_q checks that M is square, integer and
symmetric and runs it on char_poly(M), and a codet-Q survey runs it on the
characteristic polynomial of its stage-1 key.
snf_poly_q turns them into the invariant factors of x*I - M.  delta_bruteforce
recomputes every Delta_k as a gcd over all k-minors and is the independent
oracle both are tested against.  laplace_walk is the package's one Laplace
expansion, a depth-first walk over row sets that holds one {column mask:
minor} vector per depth; minor_tables is its table view, and
delta_bruteforce folds the gcd of level k as the walk yields it, holding no
level.  packed_char_matrix packs x*I - M (Z[x]) or diag(x_0..x_{n-1}) - M
(Z[X]) into ints.  char_minors first peels unit pivots off it
(_peel_units: _pivot_out on an entry u = +-1 gives A ~ u + S, so
I_k(A) = I_{k-1}(S)), then expands the smaller S into the ideals'
generators, leaving a level with a +-1 minor undecoded as just 1; char_poly
eliminates the packed matrix by Bareiss, on a trailing block that shrinks by
one row and column per step; both decode with unpack_minors, which keys
each Z[X] term by the shared tuple of `polyring.multilinear_exponent` (the
1 of a unit level too).
_square, _int_matrix (with _all_int, which lets an all-int matrix skip the
copy or the conversion) and _symmetric are the one square, integer and
symmetry checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .grobner import ZX_UNI, Ring
from .polyring import (RING_Q, RING_Z, MultiPoly, UniPoly, divmod_poly, exact_int,
                       gcd_int_many, gcd_poly_q, gcd_poly_q_many, multilinear_exponent,
                       poly_str)


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors (nonzero only) of an n x n matrix over Z or Q[x]."""

    ring: str  # "Z" | "Qx"
    n: int
    factors: tuple

    @property
    def rank(self) -> int:
        return len(self.factors)

    def _const(self, c):
        return UniPoly.const(c, RING_Q) if self.ring == "Qx" else c

    def diagonal(self) -> tuple:
        """Diagonal padded with zeros to the matrix dimension."""
        return self.factors + (self._const(0),) * (self.n - self.rank)

    def delta(self, k: int):
        """Delta_k = f_1 * ... * f_k (0 beyond the rank)."""
        if not 0 <= k <= self.n:
            raise ValueError("k out of range")
        if k > self.rank:
            return self._const(0)
        acc = self._const(1)
        for f in self.factors[:k]:
            acc = acc * f
        return acc

    def delta_sequence(self) -> tuple:
        return tuple(self.delta(k) for k in range(1, self.n + 1))

    def to_json(self) -> dict:
        if self.ring == "Qx":
            factors = [poly_str(f) for f in self.diagonal()]
            return {"ring": "Qx", "n": self.n, "invariant_factors": factors}
        g = cokernel(self)
        return {
            "ring": "Z",
            "n": self.n,
            "invariant_factors": list(self.diagonal()),
            "cokernel": {"torsion": list(g.torsion), "free_rank": g.free_rank},
        }


@dataclass(frozen=True)
class GroupDescription:
    """Finitely generated abelian group: torsion orders (>1, dividing chain) + free rank."""

    torsion: tuple[int, ...]
    free_rank: int

    def __str__(self) -> str:
        parts = [f"Z_{t}" for t in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def cokernel(snf: SnfResult) -> GroupDescription:
    if snf.ring != "Z":
        raise ValueError("cokernel descriptions are computed over Z")
    return GroupDescription(
        torsion=tuple(f for f in snf.factors if f > 1),
        free_rank=snf.n - snf.rank,
    )


# ---------------------------------------------------------------------------
# integer SNF


def _divisibility_fix_int(diag: list[int]) -> list[int]:
    """The SNF of a diagonal of nonzero integers: one sweep over i < j puts
    (gcd, lcm) for (d_i, d_j) where d_i does not divide d_j, an equivalence
    over Z that keeps the product.  After step i, d_i divides every later
    entry, and later steps keep each entry a multiple of it."""
    d = [abs(x) for x in diag]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = math.gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
    return d


def _square(matrix: Sequence[Sequence]) -> int:
    """The size n of an n x n matrix; ValueError if it is not square."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    return n


def _symmetric(matrix: Sequence[Sequence]) -> bool:
    """True iff the square matrix equals its transpose."""
    return all(matrix[i][j] == matrix[j][i] for i in range(len(matrix)) for j in range(i))


def _all_int(matrix: Sequence[Sequence]) -> bool:
    """True iff every entry is an int (not a bool, Fraction or float)."""
    return {type(x) for row in matrix for x in row} <= {int}


def _int_matrix(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """A copy of a square integer matrix, with each integral entry of another
    type (a Fraction with denominator 1, say) converted to int; ValueError if
    it is not square, or naming the first non-integer entry."""
    _square(matrix)
    if _all_int(matrix):
        return [list(row) for row in matrix]
    return [[x if type(x) is int else exact_int(x, f"entry ({i},{j})")
             for j, x in enumerate(row)] for i, row in enumerate(matrix)]


def _pivot_out(rows: list[list[int]], i: int, j: int):
    """Replace the square integer matrix `rows` by the Schur complement of
    its entry p = rows[i][j], which must divide its column:
    A_{-i,-j} - A_{-i,j} * A_{i,-j} / p, by row operations that clear column
    j.  If p also divides its row, column operations clear row i, so
    A ~ p + S (direct sum).  A reduced row is a new list; every other row
    list loses its entry j in place."""
    pivot_row = rows.pop(i)
    p = pivot_row[j]
    for a, row in enumerate(rows):
        c = row[j] // p
        if c:
            row = rows[a] = [v - c * w for v, w in zip(row, pivot_row)]
        del row[j]


def _least_entry(rows: list[list[int]]) -> tuple[int, int] | None:
    """(i, j) of the first nonzero entry of least absolute value in row-major
    order, None if every entry is 0.  No entry is smaller than a +-1, so the
    first one, if any, is found row by row without a full scan."""
    for a, row in enumerate(rows):
        if 1 in row:
            b = row.index(1)
            return a, row.index(-1) if -1 in row[:b] else b
        if -1 in row:
            return a, row.index(-1)
    best = None
    for a, row in enumerate(rows):
        for b, v in enumerate(row):
            if v and (best is None or abs(v) < best[0]):
                best = abs(v), a, b
    return best and best[1:]


def snf_integer(matrix: Sequence[Sequence[int]]) -> SnfResult:
    """Invariant factors of a square integer matrix.

    Take an entry p of least absolute value, the first in row-major order
    (`_least_entry`, which stops at the first +-1).  A division step subtracts
    from every other row the multiple of p's row that leaves its remainder
    mod p in p's column, and takes the least nonzero remainder, smaller than
    |p|, as p; only when the column leaves none, it does the same along p's
    row by column operations.  A +-1 divides everything.  Once p divides its
    row and column, `_pivot_out` gives A ~ p + S, and S is treated the same
    way.  `_divisibility_fix_int` turns the diagonal into the chain of
    invariant factors."""
    rows = _int_matrix(matrix)
    n = len(rows)
    diag: list[int] = []
    while best := _least_entry(rows):
        i, j = best
        p = rows[i][j]
        while p != 1 and p != -1:
            for a, row in enumerate(rows):
                q = row[j] // p
                if q and a != i:
                    rows[a] = [v - q * w for v, w in zip(row, rows[i])]
            left = [(abs(row[j]), a) for a, row in enumerate(rows) if row[j] and a != i]
            if left:
                i = min(left)[1]
            else:
                # p is alone in its column, so column operations change row i only
                rows[i] = [v if b == j else v % p for b, v in enumerate(rows[i])]
                left = [(abs(v), b) for b, v in enumerate(rows[i]) if v and b != j]
                if not left:
                    break
                j = min(left)[1]
            p = rows[i][j]
        diag.append(p)
        _pivot_out(rows, i, j)
    return SnfResult("Z", n, tuple(_divisibility_fix_int(diag)))


# ---------------------------------------------------------------------------
# SNF over Q[x]


def delta_chain(charpoly: UniPoly) -> tuple[UniPoly, ...]:
    """Monic Delta_1..Delta_n of x*I - M over Q[x] from its determinant
    `charpoly` = det(x*I - M), monic of degree n, M a symmetric matrix.

    A symmetric M is diagonalisable, so every invariant factor is squarefree:
    the eigenvalue lambda of multiplicity m divides exactly the last m factors
    once each.  Hence Delta_n = det(x*I - M) and Delta_{k-1} = gcd(Delta_k,
    Delta_k'), each step down in k lowering every multiplicity by one.
    """
    delta = charpoly.to_q()
    deltas = []
    for _ in range(charpoly.degree):
        deltas.append(delta)
        delta = gcd_poly_q(delta, delta.derivative())
    return tuple(reversed(deltas))


def deltas_q(matrix: Sequence[Sequence[int]]) -> tuple[UniPoly, ...]:
    """Monic Delta_1..Delta_n of x*I - M over Q[x], M a symmetric integer
    matrix: the `delta_chain` of its characteristic polynomial.  ValueError
    unless M is square and symmetric."""
    m = _int_matrix(matrix)
    if not _symmetric(m):
        raise ValueError("M is not symmetric")
    return delta_chain(char_poly(m))


def snf_poly_q(matrix: Sequence[Sequence[int]]) -> SnfResult:
    """Invariant factors (monic) of x*I - M over Q[x], M a symmetric integer
    matrix: f_k = Delta_k / Delta_{k-1} with the Delta_k of `deltas_q`."""
    deltas = deltas_q(matrix)
    lower = (UniPoly.const(1, RING_Q),) + deltas[:-1]
    factors = tuple(divmod_poly(d, l)[0] for d, l in zip(deltas, lower))
    return SnfResult("Qx", len(deltas), factors)


# ---------------------------------------------------------------------------
# minors, the brute-force Delta_k oracle and characteristic polynomials


def laplace_walk(matrix: Sequence[Sequence], low: int, k: int):
    """The package's one Laplace expansion: a depth-first walk over row sets.

    Works for any entry type supporting +, -, * (int, Fraction, UniPoly,
    MultiPoly) on a square matrix.  Yields (row mask, {column mask: minor})
    for every row set R of low..k rows, bit i of a mask standing for row or
    column i: the |R|-minors on R, column sets in `combinations` order.  A
    child of R adds a row r above R's last one and is expanded along r, its
    last row, over the vector of R; a falsy (zero int or Fraction) entry is
    skipped.  Children come in increasing r, so the row sets of each size
    come out in `combinations` order, and only row sets that can still grow
    to `low` rows are entered.  The walk holds one vector per depth, at most
    2^n entries in all.  ValueError unless the matrix is square and
    1 <= low <= k <= n, raised by the call, before the walk starts.
    """
    n = _square(matrix)
    if not 1 <= low <= k <= n:
        raise ValueError("k out of range")
    zero = matrix[0][0] - matrix[0][0]
    bits = [1 << c for c in range(n)]
    subsets = {d: [(sum(map(bits.__getitem__, cols)), cols) for cols in combinations(range(n), d)]
               for d in range(2, k + 1)}

    def grow(rmask: int, depth: int, minors: dict):
        if depth >= low:
            yield rmask, minors
        if depth == k:
            return
        # a child whose last row is r can reach `low` rows iff r < stop;
        # r sits at position `depth` of the child, so the entry in its t-th
        # column has the sign (-1)^(depth + t)
        stop = n - max(low - depth - 1, 0)
        first_odd = depth % 2 == 1
        for r in range(rmask.bit_length(), stop):
            row = matrix[r]
            if not depth:
                child = dict(zip(bits, row))
            else:
                child = {}
                for cmask, cols in subsets[depth + 1]:
                    acc = zero
                    odd = first_odd
                    for col in cols:
                        e = row[col]
                        if e:
                            term = e * minors[cmask ^ (1 << col)]
                            acc = acc - term if odd else acc + term
                        odd = not odd
                    child[cmask] = acc
            yield from grow(rmask | 1 << r, depth + 1, child)

    return grow(0, 0, {})


def minor_tables(matrix: Sequence[Sequence], max_k: int | None = None) -> dict:
    """All k x k subdeterminants for k = 1..max_k (default n), the table
    view of `laplace_walk`: {k: {(row mask, column mask): det}}, row sets
    and then column sets in `combinations` order, every level held at once.
    `char_minors` reads it on packed integers; `delta_bruteforce` and
    `profiles.minors_k`, which need level k only, read the walk itself."""
    if max_k is None:
        max_k = len(matrix)
    tables = {k: {} for k in range(1, max_k + 1)}
    for rmask, minors in laplace_walk(matrix, 1, max_k):
        tables[rmask.bit_count()].update({(rmask, c): det for c, det in minors.items()})
    return tables


def packed_char_matrix(matrix: Sequence[Sequence[int]], ring: Ring) -> tuple[int, list[list[int]]]:
    """x*I - M (ring Z[x]) or diag(x_0..x_{n-1}) - M (ring Z[X]) for a square
    integer matrix M, each entry packed in one int.

    x_i is replaced by 2^(shift*w_i), w_i = 1 over Z[x] and 2^i over Z[X]
    (Kronecker substitution), a ring homomorphism to Z, so a minor of the
    packed matrix is the packed minor.  The base-2^shift digit d of a packed
    minor is its coefficient of x^d over Z[x]; over Z[X] every minor is
    multilinear (x_i lies in row i and column i only), so digit mask(S) is the
    coefficient of x_S.  No coefficient exceeds the product of the row sums
    1 + sum_j |M_ij|, so every digit lies in (-2^(shift-1), 2^(shift-1)) and
    decodes uniquely (`unpack_minors`).  A packed minor is 0 iff the minor is
    0.  Every leading principal minor of 2^shift*I - M is p_k(2^shift) for a
    monic p_k, so it is positive.

    Returns (shift, packed rows).
    """
    n = _square(matrix)
    m = matrix if _all_int(matrix) else _int_matrix(matrix)
    if not (ring == ZX_UNI or isinstance(ring, Ring) and ring.kind == "ZX" and ring.arity == n):
        raise ValueError(f"no packed minors of {n} rows over {ring}")
    bound = 1
    for row in m:
        bound *= 1 + sum(map(abs, row))
    shift = bound.bit_length() + 1
    rows = [[-v for v in row] for row in m]
    for i, row in enumerate(rows):
        row[i] += 1 << (shift << i if ring.kind == "ZX" else shift)
    return shift, rows


def unpack_minors(values, shift: int, ring: Ring) -> list:
    """The minors packed in `values` (see `packed_char_matrix`): base-2^shift
    digit i of a value, taken in (-2^(shift-1), 2^(shift-1)), is the
    coefficient of x^i over Z[x] and of x_S with mask(S) == i over Z[X].
    The Z[X] minors key their terms by the tuples of
    `polyring.multilinear_exponent`, one per monomial."""
    half, mask = 1 << (shift - 1), (1 << shift) - 1
    n = ring.arity
    out = []
    for value in values:
        coeffs = []
        while value:
            c = value & mask
            if c >= half:
                c -= 1 << shift
            coeffs.append(c)
            value = (value - c) >> shift
        if ring.kind == "Zx":
            out.append(UniPoly(coeffs, RING_Z))
        else:
            out.append(MultiPoly._trusted(n, {multilinear_exponent(n, i): c
                                              for i, c in enumerate(coeffs) if c}))
    return out


def _peel_units(rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Peel +-1 pivots off a square integer matrix A, such as the packed ones
    of `packed_char_matrix`: (r, S) with S (n-r) x (n-r), I_k(A) = (1) for
    k <= r and I_{r+k}(A) = I_k(S) for k >= 1.

    While `_least_entry` finds a +-1 (the first in row-major order, the pivot
    `snf_integer` takes too), `_pivot_out` takes it off: a unit divides its
    row and column, so A ~ u + S and the determinantal ideals shift by one
    (Fitting ideals do not depend on the presentation; Eisenbud, Commutative
    Algebra, 20.2).  Every entry of S is +- an (r+1)-minor of A and every
    k-minor of S +- a (k+r)-minor of A, so the packing's digit bound still
    holds: a packed +-1 is the polynomial +-1, and the minors of S decode
    like those of A.  The rows given are consumed: S is built in them.
    """
    r = 0
    while (best := _least_entry(rows)) and rows[best[0]][best[1]] in (1, -1):
        _pivot_out(rows, *best)
        r += 1
    return r, rows


def char_minors(matrix: Sequence[Sequence[int]], ring: Ring) -> list[list]:
    """For k = 1..n, generators of I_k of x*I - M (ring Z[x]) or
    diag(x_0..x_{n-1}) - M (ring Z[X]).

    `_peel_units` takes r unit pivots off the packed matrix (r >= 1 for
    every graph with an edge: an edge is an off-diagonal -1).  Levels 1..r
    are [1], never decoded; level r + k holds the distinct nonzero k-minors
    of the Schur complement S up to sign, or just [1] if one of them is +-1.
    Each is one of the (r+k)-minors of the full matrix, so they generate
    the same ideal with fewer generators; the full expansion is the tests'
    oracle.  S is never empty: det(x*I - M) is monic of degree n.  Over
    Z[x] each generator has a positive leading coefficient; the Groebner
    engine (`grobner.strong_groebner`) sets the sign and order of the Z[X]
    ones."""
    shift, rows = packed_char_matrix(matrix, ring)
    r, rows = _peel_units(rows)
    one = (UniPoly.const(1, RING_Z) if ring.kind == "Zx"
           else MultiPoly._trusted(ring.arity, {multilinear_exponent(ring.arity, 0): 1}))
    out = [[one] for _ in range(r)]
    for level in minor_tables(rows).values():
        distinct = {abs(v) for v in level.values()}
        distinct.discard(0)
        out.append([one] if 1 in distinct else unpack_minors(distinct, shift, ring))
    return out


def delta_bruteforce(matrix: Sequence[Sequence], k: int):
    """gcd of all k-minors, computed directly (the SNF oracle).

    Integer matrices give the nonnegative gcd; Q[x] matrices give the monic
    gcd (zero if every minor vanishes).  The gcd is folded as `laplace_walk`
    yields level k, which is never held: over Z the walk stops once the gcd
    is 1 (`gcd_int_many`), over Q[x] once it is a constant
    (`gcd_poly_q_many`, the fold of `Ideal`'s Q[x] basis too).
    """
    minors = (det for _, level in laplace_walk(matrix, k, k) for det in level.values())
    return gcd_poly_q_many(minors) if isinstance(matrix[0][0], UniPoly) else gcd_int_many(minors)


def char_poly(matrix: Sequence[Sequence[int]]) -> UniPoly:
    """det(x*I - M) for a square integer matrix, by fraction-free (Bareiss)
    elimination on the packed x*I - M of `packed_char_matrix`.  Step k keeps
    only the trailing block: each row below the pivot p drops the column
    just eliminated and becomes (v*p - c*w) // prev, c its entry in that
    column and w the pivot row's; a row with c = 0 is only scaled,
    v*p // prev.  Sylvester's identity makes every division exact, and
    pivot k is the positive leading principal minor of size k + 1, so the
    last one is the determinant."""
    shift, a = packed_char_matrix(matrix, ZX_UNI)
    prev = 1
    while a:
        pivot = a.pop(0)
        p = pivot.pop(0)
        for i, row in enumerate(a):
            c = row.pop(0)
            a[i] = ([(v * p - c * w) // prev for v, w in zip(row, pivot)] if c
                    else [v * p // prev for v in row])
        prev = p
    return unpack_minors([prev], shift, ZX_UNI)[0]
