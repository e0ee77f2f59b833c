"""Smith normal forms over Z and Q[x], Delta_k oracles, cokernel groups.

snf_integer diagonalizes an integer matrix by exact elementary operations.
deltas_q takes a symmetric integer matrix M (every graph matrix here): such an
M is diagonalisable, so the Delta_k of x*I - M over Q[x] follow from the
characteristic polynomial alone, Delta_{k-1} being gcd(Delta_k, Delta_k').
snf_poly_q turns them into the invariant factors of x*I - M.  delta_bruteforce
recomputes every Delta_k as a gcd over all k-minors (the generic
minor_tables) and is the independent oracle both are tested against.
char_minors gives the distinct k-minors of x*I - M that generate the Z[x]
determinantal ideals, from a Laplace expansion on plain integers.
snf_integer, char_poly, deltas_q and snf_poly_q raise ValueError for a
non-integer entry instead of truncating it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .grobner import QX, Ideal
from .polyring import RING_Q, RING_Z, UniPoly, divmod_poly, exact_int, gcd_poly_q, poly_str


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
    d = sorted(abs(x) for x in diag)
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = math.gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] // g * d[j]
                    changed = True
        d.sort()
    return d


def _int_matrix(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """A copy of an integer matrix; ValueError naming the first non-integer entry."""
    return [[x if type(x) is int else exact_int(x, f"entry ({i},{j})")
             for j, x in enumerate(row)] for i, row in enumerate(matrix)]


def snf_integer(matrix: Sequence[Sequence[int]]) -> SnfResult:
    """Invariant factors of a square integer matrix by elementary operations."""
    n = len(matrix)
    a = _int_matrix(matrix)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    diag: list[int] = []
    for t in range(n):
        # pivot: smallest nonzero absolute value in the remaining submatrix
        piv = None
        for i in range(t, n):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (piv is None or v < piv[0]):
                    piv = (v, i, j)
        if piv is None:
            break
        _, pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                v = a[i][t]
                if v:
                    q = v // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                v = a[t][j]
                if v:
                    q = v // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if not dirty:
                break
        diag.append(a[t][t])
    return SnfResult("Z", n, tuple(_divisibility_fix_int(diag)))


# ---------------------------------------------------------------------------
# SNF over Q[x]


def deltas_q(matrix: Sequence[Sequence[int]]) -> tuple[UniPoly, ...]:
    """Monic Delta_1..Delta_n of x*I - M over Q[x], M a symmetric integer matrix.

    A symmetric M is diagonalisable, so every invariant factor is squarefree:
    the eigenvalue lambda of multiplicity m divides exactly the last m factors
    once each.  Hence Delta_n = det(x*I - M) and Delta_{k-1} = gcd(Delta_k,
    Delta_k'), each step down in k lowering every multiplicity by one.
    ValueError unless M is square and symmetric.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if any(matrix[i][j] != matrix[j][i] for i in range(n) for j in range(i)):
        raise ValueError("M is not symmetric")
    delta = char_poly(matrix).to_q()
    deltas = []
    for _ in range(n):
        deltas.append(delta)
        delta = gcd_poly_q(delta, delta.derivative())
    return tuple(reversed(deltas))


def snf_poly_q(matrix: Sequence[Sequence[int]]) -> SnfResult:
    """Invariant factors (monic) of x*I - M over Q[x], M a symmetric integer
    matrix: f_k = Delta_k / Delta_{k-1} with the Delta_k of `deltas_q`."""
    deltas = deltas_q(matrix)
    lower = (UniPoly.const(1, RING_Q),) + deltas[:-1]
    factors = tuple(divmod_poly(d, l)[0] for d, l in zip(deltas, lower))
    return SnfResult("Qx", len(deltas), factors)


# ---------------------------------------------------------------------------
# brute-force Delta_k oracle and characteristic polynomials


def minor_tables(matrix: Sequence[Sequence], max_k: int | None = None) -> dict:
    """All k x k subdeterminants for k = 1..max_k, memoized Laplace expansion.

    Works for any entry type supporting +, -, * (int, Fraction, UniPoly,
    MultiPoly).  Returns {k: {(rows, cols): det}}.  The Z[x] profiles use
    `char_minors` instead; this generic version is the engine of the
    `delta_bruteforce` oracle (and the reference `char_minors` is tested
    against), of `profiles.minors_k` and of the Z[X] profiles.
    """
    n = len(matrix)
    if max_k is None:
        max_k = n
    if not 1 <= max_k <= n:
        raise ValueError("k out of range")
    tables: dict[int, dict] = {}
    level = {((i,), (j,)): matrix[i][j] for i in range(n) for j in range(n)}
    tables[1] = level
    for k in range(2, max_k + 1):
        prev = tables[k - 1]
        level = {}
        for rows in combinations(range(n), k):
            r0 = rows[0]
            rest = rows[1:]
            for cols in combinations(range(n), k):
                acc = None
                for t, c in enumerate(cols):
                    sub = prev[(rest, cols[:t] + cols[t + 1 :])]
                    term = matrix[r0][c] * sub
                    if t % 2:
                        acc = -term if acc is None else acc - term
                    else:
                        acc = term if acc is None else acc + term
                level[(rows, cols)] = acc
        tables[k] = level
    return tables


def char_minor_tables(matrix: Sequence[Sequence[int]]) -> tuple[int, dict]:
    """Every k-minor of x*I - M for an integer matrix M, each packed in one int.

    A minor f of x*I - M is stored as f(2^shift) (Kronecker substitution):
    its coefficients are the base-2^shift digits, each in (-2^(shift-1),
    2^(shift-1)) because none exceeds the product of the row sums
    1 + sum_j |M_ij|.  Substituting is a ring homomorphism Z[x] -> Z, so the
    memoized first-row Laplace expansion of `minor_tables` runs on plain ints:
    an off-diagonal entry -M_ij scales the sub-minor, the diagonal entry
    x - M_ii also adds the sub-minor shifted up one degree.  The packed value
    is 0 iff the minor is 0, and its sign is that of the leading coefficient.

    Returns (shift, {k: {(row mask, column mask): packed minor}}), bit i of a
    mask standing for row or column i.
    """
    n = len(matrix)
    m = _int_matrix(matrix)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    bound = 1
    for row in m:
        bound *= 1 + sum(abs(v) for v in row)
    shift = bound.bit_length() + 1
    x = 1 << shift
    entry = [[x - v if i == j else -v for j, v in enumerate(row)] for i, row in enumerate(m)]
    subsets = {k: [(sum(1 << i for i in s), s) for s in combinations(range(n), k)]
               for k in range(2, n + 1)}
    level = {(1 << i, 1 << j): entry[i][j] for i in range(n) for j in range(n)}
    tables = {1: level}
    for k in range(2, n + 1):
        prev, level = level, {}
        for rmask, rows in subsets[k]:
            r0 = rows[0]
            rest = rmask ^ (1 << r0)
            row = entry[r0]
            for cmask, cols in subsets[k]:
                acc = 0
                odd = False
                for c in cols:
                    e = row[c]
                    if e:
                        term = e * prev[rest, cmask ^ (1 << c)]
                        acc = acc - term if odd else acc + term
                    odd = not odd
                level[rmask, cmask] = acc
        tables[k] = level
    return shift, tables


def unpack_minor(value: int, shift: int) -> UniPoly:
    """The polynomial f over Z with f(2^shift) == value, every coefficient of
    f lying in (-2^(shift-1), 2^(shift-1))."""
    half, mask = 1 << (shift - 1), (1 << shift) - 1
    coeffs = []
    while value:
        c = value & mask
        if c >= half:
            c -= 1 << shift
        coeffs.append(c)
        value = (value - c) >> shift
    return UniPoly(coeffs, RING_Z)


def char_minors(matrix: Sequence[Sequence[int]]) -> list[list[UniPoly]]:
    """For k = 1..n, the distinct nonzero k-minors of x*I - M up to sign, each
    with a positive leading coefficient: the generators of I_k over Z[x]."""
    shift, tables = char_minor_tables(matrix)
    out = []
    for level in tables.values():
        distinct = {abs(v) for v in level.values()}
        distinct.discard(0)
        out.append([unpack_minor(v, shift) for v in distinct])
    return out


def delta_bruteforce(matrix: Sequence[Sequence], k: int):
    """gcd of all k-minors, computed directly (the SNF oracle).

    Integer matrices give the nonnegative gcd; Q[x] matrices give the monic
    gcd (zero if every minor vanishes).
    """
    n = len(matrix)
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    minors = list(minor_tables(matrix, k)[k].values())
    if isinstance(minors[0], UniPoly):
        basis = Ideal(QX, minors).canonical_basis()
        return basis[0] if basis else UniPoly.zero(RING_Q)
    g = 0
    for m in minors:
        g = math.gcd(g, m)
        if g == 1:
            break
    return g


def char_poly(matrix: Sequence[Sequence[int]]) -> UniPoly:
    """det(x*I - M) for an integer matrix, by the Faddeev-LeVerrier recurrence."""
    n = len(matrix)
    m = _int_matrix(matrix)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    cur = [row[:] for row in m]
    for k in range(1, n + 1):
        c = -sum(cur[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        if k == n:
            break
        for i in range(n):
            cur[i][i] += c
        cur = [
            [sum(m[i][t] * cur[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return UniPoly(coeffs, RING_Z)
