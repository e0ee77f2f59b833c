"""Canonical ideal arithmetic over Z[x], Q[x] and Z[x0..x_{m-1}].

Over the Euclidean coefficient ring Z a plain field-style Buchberger loop is
wrong; completion here processes both S-polynomials (lcm of the leading
monomials, lcm of the leading coefficients) and G-polynomials (Bezout
combination realizing the gcd of the leading coefficients), and reduction
uses division with positive remainder.  The result is the minimal reduced
strong Groebner basis with positive leading coefficients, which is unique
for an ideal, so ideal equality is list equality; `StrongBasis.canonical`
gets it in one minimalisation and one reduction sweep (proof there).

Completion skips the S-polynomial of a pair by Buchberger's chain criterion,
which carries over to strong bases over Z with one more condition on leading
coefficients (Moeller, "On the construction of Groebner bases using
syzygies", J. Symbolic Comput. 1988; Lichtblau, "Effective computation of
strong Groebner bases over Euclidean domains", Illinois J. Math. 2012): the
pair (i, j) is redundant if some other element k has lm_k | lcm(lm_i, lm_j),
lc_k | lcm(lc_i, lc_j), and neither (i, k) nor (j, k) is still pending
(proof at `StrongBasis._complete`).  G-polynomials are always formed (that of
the pair 2x+1, 3y+1 is xy+x-y and is essential).  The product criterion on
monomials alone, familiar from field coefficients, is unsound here: x and y
are coprime, but the S-polynomial of 4x+1, 6y+1 is 3y - 2x, whose leading
term neither 4x nor 6y divides.  With coprime leading coefficients added it
is sound (S = t_i*g_j - t_j*g_i, t the tails, lies below the lcm), but it
stays out: on `critical-n6` it skips a quarter of the pair reductions and
moves no end-to-end time.  The tests keep a criterion-free subclass of
`StrongBasis` as the oracle of the chain criterion.  Completion runs once,
after the whole feed (Gebauer & Moeller, J. Symbolic Comput. 1988): the feed
order changes neither the ideal nor the criterion's proof, and every pair is
still treated.

The engine (`StrongBasis`, and `Ideal.member` over Z[x] and Z[X]) works on
packed monomials (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007): a `Packing` codes
each monomial as one int whose integer order is degrevlex, the package's one
monomial order, whose sum with another code is the code of the product, and
whose divisibility test is one subtraction and one guard-bit mask test.
`_normal_form` keeps its work set in a heap of these ints.  `strong_groebner`
packs each generator once, in a packing sized to the largest generator
degree, and builds `StrongBasis` on it, which keeps that packing for its
whole run.  From then on degrees grow only at a pair's lcm, which
`Packing.pack` refuses with OverflowError once it would reach a guard bit;
`strong_groebner` then starts again in wider fields.  `strong_groebner`
alone sets the generators' signs and feed order; `Ideal` keeps them as
given, minus zeros.  `StrongBasis.canonical` decodes each distinct code of
its basis once, through `polyring.multilinear_exponent` when the monomial
is multilinear (every term of a critical or distance ideal is), so a basis
shares its exponent tuples with the minors that generate it.

The engine has one feed rule: a single nonzero generator g is its own
canonical basis, sign made positive, and no `Packing` is built for it.
Every element h*g of (g) has leading term lt(h)*lt(g), which lt(g) divides,
so {g} is a strong basis, and one element is minimal and reduced.  This
covers every [1] level and every principal level of `smith.char_minors`
(I_n = (det(diag(x) - M)) among them), which never puts +-1 beside another
generator.  A +-1 among other generators (user ideals only) is fed first,
every other generator reduces to zero over it in `StrongBasis.add`, and the
unit basis comes out of the ordinary completion.

A Z[x] ideal with a monic generator p of degree D takes no Buchberger run:
I = (p) + L with L = {f in I : deg f < D}, and L is a Z-lattice in Z^D
whose echelon (Hermite) form gives the same canonical basis
(Szekeres, "A canonical basis for the ideals of a polynomial domain", Amer.
Math. Monthly 1952; Cohen, "A Course in Computational Algebraic Number
Theory", 2.4.2).  Nearly every level of `smith.char_minors` has such a
generator (a principal minor is monic, and the minors left after its unit
pivots almost always include one).  Buchberger still runs for Z[x]
generator sets with no monic element and for every ideal of
Z[x0..x_{m-1}], and is the oracle the lattice path is tested against.
The lattice path stays: on a shared 2-vCPU host, routing every Z[x] ideal
through `StrongBasis` made the n = 7 codet-Z keys 2.5-3x slower (distance:
552 -> 1,785 ms) and `verify --suite tables --max-n 8 --workers 2` 6.8 ->
8.7-9.0 s (`table1-n7`, with few codet-Z keys, within noise); feeding L's
echelon rows to `StrongBasis.canonical` instead was 10-25% slower.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .polyring import (
    RING_Z,
    MultiPoly,
    UniPoly,
    divmod_poly,
    exact_arity,
    gcd_poly_q_many,
    monomial_key,
    multilinear_exponent,
    poly_str,
)


@dataclass(frozen=True)
class Ring:
    """Ring tag for an ideal: Z[x], Q[x] or Z[x0..x_{arity-1}]."""

    kind: str  # "Zx" | "Qx" | "ZX"
    arity: int = 1

    def __post_init__(self):
        if self.kind not in ("Zx", "Qx", "ZX"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        object.__setattr__(self, "arity", exact_arity(self.arity))
        if self.kind in ("Zx", "Qx") and self.arity != 1:
            raise ValueError("univariate ring tags have arity 1")


ZX_UNI = Ring("Zx", 1)
QX = Ring("Qx", 1)


def zmulti(arity: int) -> Ring:
    return Ring("ZX", arity)


class RingMismatchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# strong Groebner engine on packed term dicts (monomial int -> int coefficient)


class Packing:
    """Monomials of Z[x0..x_{n-1}] of degree < `limit` as nonnegative ints.

    The code of a monomial with exponents e and degree d = sum(e) is 2n
    fields of `bits` bits each, most significant first:

        d | d - e_{n-1} | ... | d - e_1 | e_0 | ... | e_{n-1}

    Every field is a sum of exponents, so the code is additive: the code of
    a product is the sum of the codes, and x^e is sum_i e_i * units[i].  The
    top n fields fix the monomial and compare in degrevlex order (degree
    first, then the smaller e_{n-1}, then the smaller e_{n-2}, ...), so
    integer order is the monomial order.  No field exceeds d < 2^(bits-1), so
    the top bit of each field, its guard bit, is 0, and a divides b iff no
    field of b - a borrows: iff (b - a) & mask == 0.  The lowest field of b
    that is smaller than a's borrows and leaves its guard bit set; b < a also
    sets the top guard bit of the (negative) difference.
    """

    __slots__ = ("arity", "bits", "limit", "mask", "units", "_overflow")

    def __init__(self, arity: int, degree: int):
        """Fields wide enough for monomials of degree up to 2 * degree."""
        bits = (2 * degree).bit_length() + 1
        fields = 2 * arity
        self.arity = arity
        self.bits = bits
        self.limit = 1 << (bits - 1)
        self.mask = sum(self.limit << (f * bits) for f in range(fields))
        self.units = tuple(
            sum(1 << (f * bits) for f in range(arity, fields - 1) if f != arity + i - 1)
            + (1 << ((fields - 1) * bits)) + (1 << ((arity - 1 - i) * bits))
            for i in range(arity))
        # the top field's guard bit; with no variables every code is 0
        self._overflow = self.limit << ((fields - 1) * bits) if arity else 1

    def pack(self, e: tuple) -> int:
        """The code of x^e; OverflowError if its degree reaches `limit`.  The
        degree is the top field and no field exceeds it, so that is exactly
        when the sum reaches the top field's guard bit."""
        m = sum(map(operator.mul, e, self.units))
        if m >= self._overflow:
            raise OverflowError(f"a monomial of degree {sum(e)} does not fit {self.bits}-bit fields")
        return m

    def unpack(self, m: int) -> tuple:
        bits, low = self.bits, 2 * self.limit - 1
        return tuple(m >> ((self.arity - 1 - i) * bits) & low for i in range(self.arity))

    def pack_terms(self, terms: dict) -> dict:
        """An exponent-tuple term dict with its monomials packed."""
        pack = self.pack
        return {pack(e): c for e, c in terms.items()}


def _combine(t1: dict, c1: int, s1: int, t2: dict, c2: int, s2: int) -> dict:
    """c1 * x^s1 * t1 + c2 * x^s2 * t2 on packed monomials."""
    out: dict = {}
    for terms, c, s in ((t1, c1, s1), (t2, c2, s2)):
        for m, a in terms.items():
            e = m + s
            v = out.get(e, 0) + c * a
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _bezout(a: int, b: int) -> tuple[int, int]:
    """u, v with u*a + v*b == gcd(a, b) (a, b > 0)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def _normal_form(terms: dict, elems: Sequence[tuple[dict, int, int]], mask: int) -> dict:
    """Full reduction with positive remainders against (terms, lm, lc>0)
    records, on monomials packed with guard bits `mask`.

    The work set's monomials wait in a max-heap of negated ints.  A popped
    monomial whose term has cancelled, or was taken before, finds no
    coefficient and is skipped; a reduction step adds only terms below the
    monomial it reduces, so no monomial comes back once taken."""
    work = dict(terms)
    heap = [-m for m in work]
    heapify(heap)
    out: dict = {}
    while heap:
        X = -heappop(heap)
        c = work.pop(X, 0)
        while c:
            for gt, glm, glc in elems:
                if not (X - glm) & mask:
                    q = c // glc
                    if q:
                        break
            else:
                break
            shift = X - glm
            c -= q * glc
            for m, a in gt.items():
                if m == glm:
                    continue
                e = m + shift
                v = work.get(e)
                if v is None:
                    work[e] = -q * a
                    heappush(heap, -e)
                elif v == q * a:
                    del work[e]
                else:
                    work[e] = v - q * a
        if c:
            out[X] = c
    return out


def _record(terms: dict) -> tuple[dict, int, int]:
    lm = max(terms)
    lc = terms[lm]
    if lc < 0:
        terms = {e: -c for e, c in terms.items()}
        lc = -lc
    return terms, lm, lc


def _record_key(rec: tuple[dict, int, int]):
    """Order of basis records: leading monomial, leading coefficient, all terms."""
    return rec[1], rec[2], tuple(sorted(rec[0].items(), reverse=True))


class StrongBasis:
    """Strong Groebner basis over Z[x0..x_{arity-1}], built on the `Packing`
    its generators are packed in and kept in it.

    `add` feeds `_record`s packed in `packing`, and `canonical` completes the
    basis once and returns term dicts keyed by exponent tuples.  A normal
    form never goes above the monomials it starts from, so only a pair's lcm
    can outgrow the fields: `Packing.pack` then raises OverflowError, and the
    basis is left unfinished (`strong_groebner` starts again in wider fields).
    A unit, fed or found in completion, is minimalised like any other
    element, and a repeated generator reduces to zero in `add`.  The one
    feed rule, a single generator g as its own basis (every multiple h*g
    has leading term lt(h)*lt(g)), spares a principal ideal this class."""

    def __init__(self, packing: Packing):
        self.packing = packing
        self.elems: list[tuple[dict, int, int]] = []
        self._lms: list[tuple] = []  # the unpacked leading monomial of each element
        self._pairs: list = []
        self._pending: set = set()  # (i, j), i < j, of every pair in _pairs

    def add(self, rec: tuple[dict, int, int]) -> bool:
        """Feed one generator, a `_record` packed in `packing`: append its
        nonzero normal form over the elements so far and queue its pairs,
        which `canonical` treats.  True iff it enlarged the basis."""
        r = _normal_form(rec[0], self.elems, self.packing.mask)
        if not r:
            return False
        self._append(r)
        return True

    def _append(self, terms: dict):
        rec = _record(terms)
        j = len(self.elems)
        lmj = self.packing.unpack(rec[1])
        pack = self.packing.pack
        for i, lm in enumerate(self._lms):
            heappush(self._pairs, (pack(tuple(map(max, lm, lmj))), i, j))
            self._pending.add((i, j))
        self.elems.append(rec)
        self._lms.append(lmj)

    def _complete(self):
        """Treat the pending pairs, smallest lcm of leading monomials first.

        The S-polynomial of (i, j) is skipped if `_chained`: some other
        element k has lm_k | L and lc_k | c, L and c the lcms of the leading
        monomials and coefficients of g_i, g_j, and neither (i, k) nor (j, k)
        is pending.  With L_ik, c_ik those of (i, k),

            S_ij = (c/lc_i)(L/lm_i) g_i - (c/lc_j)(L/lm_j) g_j
                 = (c/c_ik)(L/L_ik) S_ik - (c/c_jk)(L/L_jk) S_jk,

        since L_ik | L, c_ik | c and both sides are A_i - A_k - (A_j - A_k)
        with A_t = (c/lc_t)(L/lm_t) g_t.  So S_ij is a combination of S_ik and
        S_jk with integer-times-monomial coefficients, each term below L.  A
        pair that is no longer pending was reduced to zero over the basis, or
        its remainder joined it, or it was skipped the same way; so S_ik and
        S_jk have standard representations below L_ik and L_jk, S_ij has one
        below L, and the syzygies of the leading terms stay generated by the
        pairs treated (Moeller 1988).  A pair leans only on pairs that left the
        queue before it, so no two skips lean on each other.  The G-polynomial
        is formed whenever neither leading coefficient divides the other."""
        while self._pairs:
            lcm, i, j = heappop(self._pairs)
            self._pending.remove((i, j))
            lci, lcj = self.elems[i][2], self.elems[j][2]
            l = lci // math.gcd(lci, lcj) * lcj
            if not self._chained(lcm, l, i, j):
                self._reduce_pair(lcm, i, j, l // lci, -(l // lcj))
            if lci % lcj and lcj % lci:
                self._reduce_pair(lcm, i, j, *_bezout(lci, lcj))

    def _chained(self, lcm: int, l: int, i: int, j: int) -> bool:
        """True iff some element k other than i, j has a leading monomial
        dividing `lcm` and a leading coefficient dividing `l`, and neither
        (i, k) nor (j, k) is pending."""
        mask, pending = self.packing.mask, self._pending
        for k, (_, lmk, lck) in enumerate(self.elems):
            if (not (lcm - lmk) & mask and not l % lck and k != i and k != j
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    def _reduce_pair(self, lcm: int, i: int, j: int, ci: int, cj: int):
        """Append the nonzero normal form of ci*(lcm/lm_i)*g_i + cj*(lcm/lm_j)*g_j:
        the S-polynomial of the pair (ci*lc_i = -cj*lc_j = lcm of the leading
        coefficients) or its G-polynomial (ci*lc_i + cj*lc_j = their gcd)."""
        ti, lmi, _ = self.elems[i]
        tj, lmj, _ = self.elems[j]
        r = _normal_form(_combine(ti, ci, lcm - lmi, tj, cj, lcm - lmj), self.elems,
                         self.packing.mask)
        if r:
            self._append(r)

    def canonical(self) -> list[dict]:
        """The minimal reduced strong basis, signs positive, in ascending
        `_record_key` order: one completion of the pairs the feed queued,
        one minimalisation, then one reduction sweep.

        Minimalisation drops, in `_record_key` order, each element whose
        leading term a kept one divides (lm_k | lm_f, lc_k | lc_f); the kept
        ones still form a strong basis.  If a kept g has lm_g | lm_f, the
        G-polynomial puts gcd(lc_f, lc_g) * lm_f in the leading ideal, so a
        kept h has lm_h | lm_f and lc_h | gcd; minimality gives h = f, so lc_f
        properly divides lc_g and g cannot reduce the leading term of f.
        Reducing each element over the others thus keeps every leading term,
        and so the order, and leaves each tail term c * X with 0 <= c < lc_g
        for every g with lm_g | X.  Such a remainder modulo a strong basis is
        unique (Kandri-Rody & Kapur, J. Symbolic Comput. 1988; Lichtblau
        2012), so the others may be taken reduced or not.  Each distinct code
        is decoded once, to the shared `polyring.multilinear_exponent` tuple
        when the monomial is multilinear."""
        self._complete()
        mask = self.packing.mask
        keep: list[tuple[dict, int, int]] = []
        for t, lm, lc in sorted(self.elems, key=_record_key):
            if not any(not (lm - klm) & mask and not lc % klc for _, klm, klc in keep):
                keep.append((t, lm, lc))
        for i, (t, lm, lc) in enumerate(keep):
            keep[i] = (_normal_form(t, keep[:i] + keep[i + 1:], mask), lm, lc)
        arity, unpack = self.packing.arity, self.packing.unpack
        exponents: dict = {}  # packed code -> exponent tuple, decoded once
        for t, _, _ in keep:
            for m in t.keys() - exponents.keys():
                e = unpack(m)
                if max(e, default=0) <= 1:
                    e = multilinear_exponent(arity, sum(x << i for i, x in enumerate(e)))
                exponents[m] = e
        return [{exponents[m]: c for m, c in t.items()} for t, _, _ in keep]


def strong_groebner(gens: Iterable[dict], arity: int) -> list[dict]:
    """Canonical basis of the ideal of `gens`, exponent-tuple term dicts.  The
    engine sets its own feed, in one rule: a single nonzero generator is
    returned with a positive leading coefficient (under
    `polyring.monomial_key`, the order of `Packing`) before any packing,
    since every multiple h*g has leading term lt(h)*lt(g), so {g} is already
    the minimal reduced strong basis.  Otherwise every nonzero generator,
    leading coefficient made positive, is fed in ascending `_record_key`
    before the one completion; a repeat reduces to zero in `add`.  The first
    packing is sized to the largest generator degree; if a pair's lcm
    outgrows it, the run starts again in fields for degrees up to twice the
    old `limit`.  Packing codes keep the monomial order, so every run feeds
    and pairs in the same order."""
    gens = [g for g in gens if g]
    if len(gens) == 1:
        (g,) = gens
        return [g if g[max(g, key=monomial_key)] > 0 else {e: -c for e, c in g.items()}]
    degree = max((sum(e) for g in gens for e in g), default=0)
    while True:
        packing = Packing(arity, degree)
        basis = StrongBasis(packing)
        try:
            for rec in sorted((_record(packing.pack_terms(g)) for g in gens), key=_record_key):
                basis.add(rec)
            return basis.canonical()
        except OverflowError:
            degree = packing.limit


# ---------------------------------------------------------------------------
# Z[x] ideals with a monic generator: a Z-lattice instead of Buchberger


def _lattice_add(rows: dict, v: list) -> bool:
    """Echelonise v into rows (pivot degree -> coefficient list, positive
    pivot) by extended gcd; True iff v was not already in their Z-span."""
    grew = False
    e = len(v) - 1
    while e >= 0:
        b = v[e]
        if not b:
            e -= 1
            continue
        if b < 0:
            v, b = [-c for c in v], -b
        r = rows.get(e)
        if r is None:
            rows[e] = v
            return True
        a = r[e]
        if b % a:
            g = math.gcd(a, b)
            u, w = _bezout(a, b)
            rows[e] = [u * x + w * y for x, y in zip(r, v)]
            v = [a // g * y - b // g * x for x, y in zip(r, v)]
            grew = True
        else:
            q = b // a
            v = [y - q * x for x, y in zip(r, v)]
        e -= 1
    return grew


def _lattice_basis(gens: Sequence[UniPoly]) -> tuple[UniPoly, ...] | None:
    """Canonical basis of the Z[x] ideal of `gens` if one of them is monic
    up to sign, else None.

    With p the shortest such generator made monic, of degree D, the ideal
    is (p) + L, L the Z-lattice of its elements of degree < D: the span of
    the generators' remainders mod p, closed under multiplication by x mod p.
    The pivot of L's echelon row in degree e generates the leading
    coefficients of the ideal's elements of degree e; it divides the pivot
    one degree below, and is 1 from degree D on (p).  The basis keeps the
    row of each degree where the pivot strictly drops, then p unless a row
    is already monic, and reduces the coefficient of x^e into [0, c_e), c_e
    the leading coefficient of the last kept element of degree <= e: the
    minimal reduced strong basis of `StrongBasis.canonical`, in its order.
    """
    monic = [g for g in gens if abs(g.lc) == 1]
    if not monic:
        return None
    q = min(monic, key=lambda g: g.degree)
    p = [c * q.lc for c in q.coeffs]
    d = len(p) - 1

    def mod_p(coeffs) -> list:
        c = list(coeffs) + [0] * (d - len(coeffs))
        for top in range(len(c) - 1, d - 1, -1):
            q = c.pop()
            if q:
                for i in range(d):
                    c[top - d + i] -= q * p[i]
        return c

    rows: dict = {}
    work = [mod_p(g.coeffs) for g in gens]
    while work:
        v = work.pop()
        if _lattice_add(rows, v):
            top = v[-1]
            xv = [0] + v[:-1]
            work.append([c - top * a for c, a in zip(xv, p)] if top else xv)

    kept: list[list] = []
    for e in sorted(rows):
        r = rows[e][: e + 1]
        if not kept or r[e] != kept[-1][-1]:
            kept.append(r)
    if not kept or kept[-1][-1] != 1:
        kept.append(list(p))
    for f in kept:
        for j in range(len(f) - 2, -1, -1):
            below = [h for h in kept if len(h) <= j + 1]
            if below:
                h = below[-1]
                q = f[j] // h[-1]
                s = j + 1 - len(h)
                for i, c in enumerate(h):
                    f[s + i] -= q * c
    return tuple(UniPoly(f, RING_Z) for f in kept)


# ---------------------------------------------------------------------------
# Ideal: generators + lazily computed canonical basis


def _terms(p) -> dict:
    """Term dict (exponent tuple -> coefficient) of a UniPoly or MultiPoly;
    a MultiPoly's own, which no caller mutates."""
    if isinstance(p, UniPoly):
        return {(i,): c for i, c in enumerate(p.coeffs) if c}
    return p.terms


def _lives_in(ring: Ring, p) -> bool:
    """True iff p is an element of the tagged ring (any UniPoly for Q[x])."""
    if ring.kind == "ZX":
        return isinstance(p, MultiPoly) and p.arity == ring.arity
    if ring.kind == "Zx":
        return isinstance(p, UniPoly) and p.ring == RING_Z
    return isinstance(p, UniPoly)


@dataclass(frozen=True, slots=True, eq=False)
class Ideal:
    """An ideal with a ring tag and a canonical basis for exact comparison.

    `gens` holds the generators as given (over Q[x] with Q coefficients),
    minus zeros, in the order given; their signs, repeats and feed order are
    the engine's business (`strong_groebner`, `_lattice_basis`).  One
    nonzero generator g over Z[x0..x_{m-1}], or over Z[x] with no monic
    generator, is its own canonical basis up to sign: every multiple h*g has
    leading term lt(h)*lt(g).

    `==` is identity; `equal` compares the ideals.  `_basis` caches the
    canonical basis once computed, and a pickled or copied Ideal carries it
    along.  `equal`'s guard does not trust a stored basis: when two bases
    differ, it computes both again from `gens`.
    """

    ring: Ring
    gens: tuple
    _basis: tuple | None

    def __init__(self, ring: Ring, gens: Iterable):
        gens = tuple(gens)
        if not all(_lives_in(ring, g) for g in gens):
            raise RingMismatchError("generator does not live in the tagged ring")
        if ring.kind == "Qx":
            gens = tuple(g.to_q() for g in gens)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", tuple(g for g in gens if not g.is_zero()))
        object.__setattr__(self, "_basis", None)

    # -- canonical basis

    def canonical_basis(self) -> tuple:
        if self._basis is not None:
            return self._basis
        ring = self.ring
        if ring.kind == "Qx":
            g = gcd_poly_q_many(self.gens)
            basis = () if g.is_zero() else (g,)
        elif ring.kind == "Zx":
            basis = _lattice_basis(self.gens)
            if basis is None:
                raw = strong_groebner([_terms(g) for g in self.gens], 1)
                basis = tuple(MultiPoly._trusted(1, t).to_unipoly() for t in raw)
        else:
            raw = strong_groebner([_terms(g) for g in self.gens], ring.arity)
            basis = tuple(MultiPoly._trusted(ring.arity, t) for t in raw)
        object.__setattr__(self, "_basis", basis)
        return basis

    # -- predicates

    def is_zero(self) -> bool:
        return not self.canonical_basis()

    def is_trivial(self) -> bool:
        basis = self.canonical_basis()
        if len(basis) != 1:
            return False
        g = basis[0]
        return g.is_constant() and g.constant_value() == 1

    def member(self, p) -> bool:
        ring = self.ring
        if not _lives_in(ring, p):
            raise RingMismatchError("element does not live in the ideal's ring")
        if ring.kind == "Qx":
            basis = self.canonical_basis()
            if p.is_zero():
                return True
            if not basis:
                return False
            _, r = divmod_poly(p, basis[0])
            return r.is_zero()
        polys = [_terms(g) for g in (p, *self.canonical_basis())]
        packing = Packing(ring.arity, max((sum(e) for t in polys for e in t), default=0))
        target, *basis = map(packing.pack_terms, polys)
        return not _normal_form(target, [_record(t) for t in basis], packing.mask)

    def equal(self, other: "Ideal") -> bool:
        if not isinstance(other, Ideal):
            raise TypeError("Ideal.equal expects another Ideal")
        if self.ring != other.ring:
            raise RingMismatchError(f"cannot compare ideals over {self.ring} and {other.ring}")
        same = self.canonical_basis() == other.canonical_basis()
        if not same:
            # canonical-form uniqueness guard: each stored basis must be the
            # one its generators give, and distinct lists must show a failed
            # membership somewhere.  Membership reduces over the basis as a
            # strong Groebner basis, so it runs on bases computed afresh, not
            # on stored ones that may not be Groebner bases at all.
            a, b = Ideal(self.ring, self.gens), Ideal(other.ring, other.gens)
            stale = a.canonical_basis() != self._basis or b.canonical_basis() != other._basis
            if stale or (all(b.member(g) for g in a.canonical_basis())
                         and all(a.member(g) for g in b.canonical_basis())):
                raise AssertionError(
                    "canonical basis uniqueness violated: ideals are mutually contained "
                    "or a stored basis is not the one its generators give: "
                    f"{self.basis_strings()} vs {other.basis_strings()}"
                )
        return same

    # -- rendering

    def basis_strings(self, var: str = "x") -> list[str]:
        return [poly_str(g, var=var) for g in self.canonical_basis()]

    def to_json(self, k: int, var: str = "x") -> dict:
        return {"ring": self.ring.kind, "basis": self.basis_strings(var=var), "k": k}

    def __repr__(self) -> str:
        return f"Ideal({self.ring.kind}: <{', '.join(self.basis_strings())}>)"
