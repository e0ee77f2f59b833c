"""Exact polynomial arithmetic over Z and Q.

Univariate polynomials are dense (degrees stay small here), multivariate
polynomials are sparse dicts keyed by exponent tuples with integer
coefficients.  `UniPoly` and `MultiPoly` are frozen slotted dataclasses,
as are `graphs.Graph` and `grobner.Ideal` (the package's other value classes
are frozen dataclasses).  Assigning to a field raises
`dataclasses.FrozenInstanceError`, so values can be shared freely; the one
field filled after construction is `Ideal`'s cache of its canonical basis.
Pickle, which carries values across the survey pool, and `copy.copy` and
`copy.deepcopy` rebuild them from the dataclass state of their fields;
`Graph` alone pickles as a constructor call (see there).

Every minor of diag(x_0..x_{n-1}) - M is multilinear, so the Z[X] path keys
its terms by the tuples of `multilinear_exponent`: one table per arity,
indexed by subset mask and filled as masks are first asked for, so one
monomial is one tuple object however many polynomials hold it.  Other
exponent tuples are not interned.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

RING_Z = "Z"
RING_Q = "Q"


def exact_int(value, what: str) -> int:
    """value as an int; ValueError naming `what` unless value is an integer
    (an Integral or a Fraction with denominator 1), so nothing is truncated."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise ValueError(f"{what} is not an integer: {value!r}")


def exact_arity(value) -> int:
    """value as a number of variables under `exact_int`'s rule; ValueError
    naming the arity unless it is an integer >= 0."""
    arity = value if type(value) is int else exact_int(value, "arity")
    if arity < 0:
        raise ValueError(f"negative arity {arity}")
    return arity


def exact_fraction(value, what: str) -> Fraction:
    """value as a Fraction; ValueError naming `what` unless value is rational
    (an int or a Fraction, not a float), so no binary approximation is stored."""
    if isinstance(value, numbers.Rational):
        return Fraction(value)
    raise ValueError(f"{what} is not rational: {value!r}")


def gcd_int_many(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, v)
        if g == 1:
            break
    return g


# ---------------------------------------------------------------------------
# univariate polynomials


@dataclass(frozen=True, slots=True)
class UniPoly:
    """Univariate polynomial, coefficients stored lowest degree first.

    ring is "Z" (int coefficients) or "Q" (Fraction coefficients).  The zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple
    ring: str

    def __init__(self, coeffs: Sequence, ring: str = RING_Z):
        if ring not in (RING_Z, RING_Q):
            raise ValueError(f"unknown coefficient ring {ring!r}")
        if ring == RING_Q:
            cs = [c if type(c) is Fraction else Fraction(c) if type(c) is int
                  else exact_fraction(c, f"coefficient {i}") for i, c in enumerate(coeffs)]
        else:
            cs = [c if type(c) is int else exact_int(c, f"coefficient {i}")
                  for i, c in enumerate(coeffs)]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "ring", ring)

    # -- constructors

    @classmethod
    def zero(cls, ring: str = RING_Z) -> "UniPoly":
        return cls((), ring)

    @classmethod
    def const(cls, c, ring: str = RING_Z) -> "UniPoly":
        return cls((c,), ring)

    @classmethod
    def variable(cls, ring: str = RING_Z) -> "UniPoly":
        return cls((0, 1), ring)

    # -- structure

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else (Fraction(0) if self.ring == RING_Q else 0)

    def constant_value(self):
        return self.coeffs[0] if self.coeffs else (Fraction(0) if self.ring == RING_Q else 0)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def to_q(self) -> "UniPoly":
        return self if self.ring == RING_Q else UniPoly(self.coeffs, RING_Q)

    def to_z(self) -> "UniPoly":
        if self.ring == RING_Z:
            return self
        return UniPoly(self.coeffs, RING_Z)  # raises if any denominator != 1

    # -- arithmetic

    def _check(self, other: "UniPoly"):
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out, self.ring)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs), self.ring)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero(self.ring)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out, self.ring)

    def __pow__(self, e: int) -> "UniPoly":
        if e < 0:
            raise ValueError("negative exponent")
        result = UniPoly.const(1, self.ring)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c) -> "UniPoly":
        return UniPoly(tuple(a * c for a in self.coeffs), self.ring)

    def __repr__(self) -> str:
        return f"UniPoly({self.ring}: {poly_str(self)})"

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i), self.ring)

    def monic(self) -> "UniPoly":
        """Monic multiple (requires ring Q, or a Z polynomial that divides exactly)."""
        if self.is_zero():
            return self
        lc = self.lc
        if lc == 1:
            return self
        if self.ring == RING_Q:
            return self.scale(Fraction(1) / lc)
        if all(c % lc == 0 for c in self.coeffs):
            return UniPoly(tuple(c // lc for c in self.coeffs), RING_Z)
        raise ValueError("non-monic Z polynomial with indivisible coefficients")


def divmod_poly(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Long division a = q*b + r with deg r < deg b; coefficients over Q.
    ZeroDivisionError for a zero divisor of any type (the int 0 too)."""
    if b.is_zero() if isinstance(b, UniPoly) else b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    a = a.to_q()
    b = b.to_q()
    rem = list(a.coeffs)
    q = [Fraction(0)] * max(len(rem) - len(b.coeffs) + 1, 0)
    blc = b.lc
    while len(rem) >= len(b.coeffs) and any(rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) < len(b.coeffs):
            break
        shift = len(rem) - len(b.coeffs)
        factor = rem[-1] / blc
        q[shift] = factor
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= factor * c
        rem.pop()
    return UniPoly(q, RING_Q), UniPoly(rem, RING_Q)


def _primitive(coeffs: list[int]) -> list[int]:
    """The integer coefficient list divided by its content (the gcd of its
    entries); the empty list stays empty."""
    content = math.gcd(*coeffs)
    return [c // content for c in coeffs] if content > 1 else coeffs


def gcd_poly_q(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q[x]; rejects the (0, 0) input.

    Both sides are cleared of denominators and content, then a primitive
    pseudo-remainder sequence runs over Z (Brown, J. ACM 1971): each step
    scales the remainder by the divisor's leading coefficient instead of
    dividing by it, and drops the content of the result.  Every remainder
    is a rational multiple of the Euclidean one over Q, so the last nonzero
    one is a gcd; the monic gcd over Q is unique, so dividing it by its
    leading coefficient at the end gives the same polynomial as Euclid over
    Q[x], with no Fraction before that division."""
    cleared = []
    for p in (a, b):
        den = math.lcm(*(c.denominator for c in p.coeffs))
        cleared.append(_primitive([c.numerator * (den // c.denominator) for c in p.coeffs]))
    a, b = cleared
    if not a and not b:
        raise ValueError("gcd of two zero polynomials is undefined")
    while b:
        r, lead, top = a, b[-1], len(b) - 1
        while len(r) > top:
            g = math.gcd(r[-1], lead)
            c, s = r[-1] // g, lead // g
            shift = len(r) - 1 - top
            r = [v * s for v in r]
            for i, w in enumerate(b, shift):
                r[i] -= c * w
            while r and not r[-1]:
                r.pop()
        a, b = b, _primitive(r)
    return UniPoly(a, RING_Q).monic()


def gcd_poly_q_many(values: Iterable[UniPoly]) -> UniPoly:
    """Monic gcd over Q[x] of the nonzero polynomials in `values`, the zero
    polynomial if there is none.  It reads no further once the gcd is a
    nonzero constant: no later polynomial can change its monic form, 1."""
    g = None
    for p in values:
        if not p.is_zero():
            g = p if g is None else gcd_poly_q(g, p)
            if g.is_constant():
                break
    return UniPoly.zero(RING_Q) if g is None else g.to_q().monic()


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic polynomial with the same roots as p, all simple: p / gcd(p, p')."""
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    p = p.to_q()
    if p.degree == 0:
        return UniPoly.const(1, RING_Q)
    g = gcd_poly_q(p, p.derivative())
    q, r = divmod_poly(p, g)
    if not r.is_zero():
        raise ArithmeticError(f"gcd(p, p') leaves a remainder {poly_str(r)}")
    return q.monic()


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: UniPoly) -> set[Fraction]:
    """All rational roots of a nonzero polynomial, by divisor search.

    Powers of x are stripped first, then candidates r/s with r | constant
    term and s | leading coefficient are tested exactly.
    """
    if p.is_zero():
        raise ValueError("rational roots of the zero polynomial are undefined")
    if p.ring == RING_Q:
        # clear denominators; roots are unchanged
        den = math.lcm(*(c.denominator for c in p.coeffs))
        p = UniPoly(tuple(c * den for c in p.coeffs), RING_Z)
    coeffs = list(p.coeffs)
    roots: set[Fraction] = set()
    shift = 0
    while not coeffs[0]:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.add(Fraction(0))
    q = UniPoly(coeffs, RING_Z)
    if q.degree == 0:
        return roots
    for r in _divisors(q.constant_value()):
        for s in _divisors(q.lc):
            if math.gcd(r, s) != 1:
                continue
            for cand in (Fraction(r, s), Fraction(-r, s)):
                if q(cand) == 0:
                    roots.add(cand)
    return roots


# ---------------------------------------------------------------------------
# multivariate polynomials over Z


_MULTILINEAR: dict[int, dict[int, tuple[int, ...]]] = {}  # arity -> mask -> exponents


def multilinear_exponent(arity: int, mask: int) -> tuple[int, ...]:
    """The exponent tuple of the multilinear monomial x_S of
    Z[x0..x_{arity-1}] with mask(S) == mask (bit i is exponent i).

    Each arity has one table, filled as masks are first asked for, so every
    caller gets the same tuple object for one monomial and the table holds
    only the monomials in use (at most 2^arity)."""
    table = _MULTILINEAR.setdefault(arity, {})
    e = table.get(mask)
    if e is None:
        e = table[mask] = tuple(mask >> i & 1 for i in range(arity))
    return e


def monomial_key(e: tuple[int, ...]) -> tuple:
    """Degrevlex sort key of an exponent tuple; larger key == larger monomial.
    Degrevlex is the one monomial order: ideal equality and membership do not
    depend on it."""
    return (sum(e), tuple(-x for x in reversed(e)))


@dataclass(frozen=True, slots=True)
class MultiPoly:
    """Sparse multivariate polynomial over Z: exponent tuple -> nonzero int."""

    arity: int
    terms: dict

    def __init__(self, arity: int, terms: dict):
        arity = exact_arity(arity)
        clean = {}
        for exp, c in terms.items():
            if type(c) is not int:
                c = exact_int(c, f"coefficient of {exp!r}")
            if not c:
                continue
            if not all(type(e) is int and e >= 0 for e in exp):
                exp = tuple(exact_int(e, f"exponent {exp!r}") for e in exp)
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent {exp!r}")
            if len(exp) != arity:
                raise ValueError("exponent arity mismatch")
            clean[exp] = c
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, arity: int, terms: dict) -> "MultiPoly":
        """A MultiPoly of terms the package built itself, without the checks
        of the constructor: every key a tuple of `arity` nonnegative ints,
        every coefficient a nonzero int.  `terms` is kept, not copied."""
        p = object.__new__(cls)
        object.__setattr__(p, "arity", arity)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity, {})

    @classmethod
    def const(cls, c, arity: int) -> "MultiPoly":
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, i: int, arity: int) -> "MultiPoly":
        """x_i of Z[x0..x_{arity-1}]; ValueError unless 0 <= i < arity."""
        if not 0 <= i < arity:
            raise ValueError(f"variable index {i} outside 0..{arity - 1}")
        return cls(arity, {multilinear_exponent(arity, 1 << i): 1})

    def to_unipoly(self) -> UniPoly:
        if self.arity != 1:
            raise ValueError("not univariate")
        if not self.terms:
            return UniPoly.zero(RING_Z)
        out = [0] * (max(e for (e,) in self.terms) + 1)
        for (e,), c in self.terms.items():
            out[e] = c
        return UniPoly(out, RING_Z)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> int:
        return self.terms.get((0,) * self.arity, 0)

    def _check(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return MultiPoly(self.arity, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        return MultiPoly(self.arity, out)

    def scale(self, c: int) -> "MultiPoly":
        if not c:
            return MultiPoly.zero(self.arity)
        return MultiPoly(self.arity, {e: a * c for e, a in self.terms.items()})

    def __hash__(self) -> int:  # the dataclass's hash would hash the dict `terms`
        return hash((self.arity, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({poly_str(self)})"

    def __call__(self, point: Sequence[int]):
        if len(point) != self.arity:
            raise ValueError("evaluation point arity mismatch")
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= x**k
            total += v
        return total

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda item: monomial_key(item[0]), reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        lm = max(self.terms, key=monomial_key)
        return lm, self.terms[lm]


# ---------------------------------------------------------------------------
# rendering


def _monomial(exp: tuple[int, ...], names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_str(p, var: str = "x") -> str:
    """Deterministic ASCII rendering, terms in descending monomial order;
    `var` names the variable of a UniPoly, x0..x{n-1} those of a MultiPoly."""
    if isinstance(p, UniPoly):
        terms = [((e,), c) for e, c in enumerate(p.coeffs) if c][::-1]
        names = (var,)
    elif isinstance(p, MultiPoly):
        terms = p.sorted_terms()
        names = [f"x{i}" for i in range(p.arity)]
    else:
        raise TypeError(f"not a polynomial: {p!r}")
    if not terms:
        return "0"
    parts = []
    for exp, c in terms:
        mono = _monomial(exp, names)
        if not mono:
            term = str(c)
        elif c == 1:
            term = mono
        elif c == -1:
            term = f"-{mono}"
        else:
            term = f"{c}*{mono}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f"- {term[1:]}")
        else:
            parts.append(f"+ {term}")
    return " ".join(parts)
