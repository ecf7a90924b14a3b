"""Exact arithmetic for the rational function field Q(x_1,...,x_r).

The field carries the lex monomial valuation (first declared variable most
significant) with value group Z^r ordered lexicographically, and the family
of compatible orderings given by a sign for each variable.  All arithmetic
is exact.  An element is a quotient of two coprime polynomials with integer
coefficients (content included), the leading coefficient of the denominator
(that of its lex-largest term) positive, so a constant such as 1/2 keeps its
2 in the denominator.  This form is canonical: equality of field elements is
structural.

Arithmetic runs through two ladders, one for sums and one for products,
each deciding without sympy what it can: a zero operand returns the other
operand, its negation or zero; a product of two monomials (one-term
numerator and denominator each) is built in closed form, exponents added
and the coefficient reduced by its gcd; sums and products of polynomials
skip the gcd.  Everything else goes through sympy's fraction field, which
cancels by gcd.  Division and negative powers are products with the
reciprocal, which swaps numerator and denominator and needs no gcd.  Each
path yields the same canonical form.

Valuation, leading term, sign at an ordering and residue all read one walk
for the lex-minimal terms of numerator and denominator.  The sign is the
Baer-Krull formula sign_P(f) = sgn(lc f) * prod_i eta_i^(v(f)_i).
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from sympy import ZZ
from sympy.polys.fields import field as _sympy_field


class FieldError(Exception):
    """Base class for errors raised by this module."""


class NegativeValuation(FieldError):
    """Residue requested for an element of negative valuation."""


class NotMonicAfterNormalization(FieldError):
    """Polynomial cannot be made monic (zero leading coefficient)."""


class ExprSyntaxError(FieldError):
    """Parse error; carries the offending position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(FieldError):
    """Parse error: identifier is not a declared variable."""


# ---------------------------------------------------------------------------
# Value group
# ---------------------------------------------------------------------------

_INF_MARKER = object()


@functools.total_ordering
class GammaVal:
    """Element of the totally ordered value group, or infinity.

    Finite values are vectors of rationals compared lexicographically with
    coordinate 0 most significant; infinity exceeds every finite value and
    absorbs addition.  Coordinates are kept as given: the valuations of field
    elements are integers, and only half and scale make Fractions.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        if coords is _INF_MARKER:
            self.coords = None
        else:
            self.coords = tuple(coords)

    @classmethod
    def infinity(cls) -> "GammaVal":
        return cls(_INF_MARKER)

    @classmethod
    def zero(cls, r: int) -> "GammaVal":
        return cls([0] * r)

    @property
    def is_inf(self) -> bool:
        return self.coords is None

    def __add__(self, other: "GammaVal") -> "GammaVal":
        if self.is_inf or other.is_inf:
            return GammaVal.infinity()
        return GammaVal([a + b for a, b in zip(self.coords, other.coords, strict=True)])

    def __sub__(self, other: "GammaVal") -> "GammaVal":
        if self.is_inf:
            return GammaVal.infinity()
        if other.is_inf:
            raise ValueError("cannot subtract infinity")
        return GammaVal([a - b for a, b in zip(self.coords, other.coords, strict=True)])

    def __neg__(self) -> "GammaVal":
        if self.is_inf:
            raise ValueError("cannot negate infinity")
        return GammaVal([-a for a in self.coords])

    def scale(self, k) -> "GammaVal":
        if self.is_inf:
            return GammaVal.infinity()
        k = Fraction(k)
        return GammaVal([k * a for a in self.coords])

    def half(self) -> "GammaVal":
        return self.scale(Fraction(1, 2))

    def mod_group(self, modulus: int) -> "GammaVal":
        """Canonical representative with coordinates reduced into [0, modulus)."""
        if self.is_inf:
            raise ValueError("infinity has no coset representative")
        return GammaVal([a % modulus for a in self.coords])

    def __eq__(self, other) -> bool:
        if not isinstance(other, GammaVal):
            return NotImplemented
        return self.coords == other.coords

    def __lt__(self, other: "GammaVal") -> bool:
        if not isinstance(other, GammaVal):
            return NotImplemented
        if self.is_inf:
            return False
        if other.is_inf:
            return True
        return self.coords < other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        if self.is_inf:
            return "GammaVal(INF)"
        return f"GammaVal({', '.join(str(c) for c in self.coords)})"


INF = GammaVal.infinity()


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderingSpec:
    """A compatible ordering of the field, given by a sign for each variable.

    The residue field Q carries its unique ordering; the sign vector lifts it
    through the valuation, so two specs are equal iff their signs are equal.
    """

    eta: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.eta):
            raise ValueError("signs must be +1 or -1")

    @property
    def bits(self) -> int:
        """The sign vector as a vector t over GF(2): bit r-1-i is set iff
        eta_i = -1, so coordinate 0 is the most significant bit."""
        t = 0
        for s in self.eta:
            t = (t << 1) | (s < 0)
        return t

    @classmethod
    def from_bits(cls, t: int, r: int) -> "OrderingSpec":
        return cls(tuple(-1 if t >> (r - 1 - i) & 1 else 1 for i in range(r)))

    def __repr__(self):
        return "OrderingSpec(" + "".join("+" if s > 0 else "-" for s in self.eta) + ")"


def enumerate_orderings(r: int) -> list[OrderingSpec]:
    """All 2^r compatible orderings, lexicographic on sign vectors (-1 first),
    that is with their bits descending from 2^r - 1 to 0."""
    if r < 0:
        raise ValueError("r must be >= 0")
    specs = [OrderingSpec(())]
    for _ in range(r):
        specs = [OrderingSpec(s.eta + (e,)) for s in specs for e in (-1, 1)]
    return specs


# ---------------------------------------------------------------------------
# Sign systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderingCoset:
    """The orderings solving a sign system: none, or the sign vectors
    particular * d for d in the group generated by the directions.

    On bits (OrderingSpec.bits) this is empty or an affine subspace of
    GF(2)^r, kept canonical: the directions are fully reduced (each one's
    leading bit is set in no other) and descending, and the particular
    solution is clear at every leading bit.  Equal sets are equal objects.
    """

    r: int
    particular: Optional[int]  # None when the system has no solution
    directions: tuple[int, ...] = ()

    @property
    def count(self) -> int:
        return 0 if self.particular is None else 1 << len(self.directions)

    def __contains__(self, P: OrderingSpec) -> bool:
        if len(P.eta) != self.r:
            raise FieldError("ordering arity mismatch")
        if self.particular is None:
            return False
        t = P.bits ^ self.particular
        for d in self.directions:
            if t >> (d.bit_length() - 1) & 1:
                t ^= d
        return not t

    def __iter__(self) -> Iterator[OrderingSpec]:
        """The solutions in the order of enumerate_orderings.

        With the canonical form, the solution with direction mask c (bit
        k-1-j for direction j) is the larger one exactly when c is, so c
        runs down from 2^k - 1."""
        if self.particular is None:
            return
        k = len(self.directions)
        for c in range((1 << k) - 1, -1, -1):
            t = self.particular
            for j, d in enumerate(self.directions):
                if c >> (k - 1 - j) & 1:
                    t ^= d
            yield OrderingSpec.from_bits(t, self.r)


def solve_sign_system(r: int, equations: Iterable[tuple[int, int]]) -> OrderingCoset:
    """The t in GF(2)^r with <a, t> = b for every equation (a, b), a an
    r-bit mask; with the sign character of RatFunc, "f has sign (-1)^b at P"
    is the equation <a_f, t> = b + s_f.

    One Gaussian elimination keyed by leading bit, then back-substitution
    with the free bits at 0 for the particular solution, and one null-space
    vector per free bit: O(m r) word operations for m equations."""
    rows: dict[int, tuple[int, int]] = {}  # leading bit -> equation
    for a, b in equations:
        while a:
            lead = a.bit_length() - 1
            row = rows.get(lead)
            if row is None:
                rows[lead] = (a, b)
                break
            a, b = a ^ row[0], b ^ row[1]
        else:
            if b:
                return OrderingCoset(r, None)
    order = sorted(rows)

    def substitute(t: int, rhs: bool) -> int:
        # each row's other bits lie below its leading bit, so ascending
        # leading bits meet them already solved
        for lead in order:
            a, b = rows[lead]
            if ((a & t).bit_count() + (b if rhs else 0)) & 1:
                t |= 1 << lead
        return t

    directions = _reduced_echelon(
        substitute(1 << f, False) for f in range(r) if f not in rows)
    t = substitute(0, True)
    for d in directions:
        if t >> (d.bit_length() - 1) & 1:
            t ^= d
    return OrderingCoset(r, t, directions)


def _reduced_echelon(vectors: Iterable[int]) -> tuple[int, ...]:
    """A basis of the span with distinct leading bits, each set in its own
    vector only, in descending order: the canonical basis of the span."""
    basis: list[int] = []
    for v in vectors:
        for w in basis:
            if v >> (w.bit_length() - 1) & 1:
                v ^= w
        if v:
            lead = v.bit_length() - 1
            basis = [w ^ v if w >> lead & 1 else w for w in basis]
            basis.append(v)
    return tuple(sorted(basis, reverse=True))


# ---------------------------------------------------------------------------
# The field and its elements
# ---------------------------------------------------------------------------

class FunctionField:
    """The field Q(x_1,...,x_r), r >= 0, with named variables."""

    def __init__(self, varnames: Sequence[str]):
        names = list(varnames)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.varnames = tuple(names)
        self.r = len(names)
        built = _sympy_field(names, ZZ)
        self._field = built[0]
        self._ring = self._field.ring
        self.zero = RatFunc(self, self._field.zero)
        self.one = RatFunc(self, self._field.one)

    def var(self, i: int) -> "RatFunc":
        return RatFunc(self, self._field.gens[i])

    def vars(self) -> list["RatFunc"]:
        return [self.var(i) for i in range(self.r)]

    def from_fraction(self, q) -> "RatFunc":
        return self.monomial([0] * self.r, q)

    def monomial(self, exponents: Sequence[int], coeff=1) -> "RatFunc":
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        if not coeff:
            return self.zero
        return self._monomial(
            [int(e) for e in exponents], coeff.numerator, coeff.denominator
        )

    def _monomial(self, exps: list[int], num: int, den: int) -> "RatFunc":
        """num/den * x^exps for coprime integers num != 0 and den > 0.

        The quotient of coprime monomials is already canonical, so no
        cancellation is needed."""
        term, zz = self._ring.dtype, self._ring.domain.dtype
        return RatFunc(self, self._field.raw_new(
            term({tuple([e if e > 0 else 0 for e in exps]): zz(num)}),
            term({tuple([-e if e < 0 else 0 for e in exps]): zz(den)}),
        ))

    def parse(self, src: str) -> "RatFunc":
        return _Parser(self, src).parse()

    def __eq__(self, other):
        return isinstance(other, FunctionField) and self.varnames == other.varnames

    def __hash__(self):
        return hash(self.varnames)

    def __repr__(self):
        return f"FunctionField({', '.join(self.varnames) or 'Q'})"


def _is_one(poly) -> bool:
    """Whether a sympy polynomial is the constant 1, without building ring.one."""
    return len(poly) == 1 and poly.get(poly.ring.zero_monom) == 1


def _reciprocal(f):
    """1/f for a fraction f in canonical form: numerator and denominator
    swap, both negated when the new denominator's leading coefficient (in
    sympy's lex order) is negative.  They stay coprime, so no gcd is needed."""
    if not f:
        raise ZeroDivisionError("division by zero rational function")
    n, d = f.numer, f.denom
    return f.raw_new(-d, -n) if n.LC < 0 else f.raw_new(d, n)


class RatFunc:
    """Element of a FunctionField, stored in canonical reduced form: coprime
    numerator and denominator in Z[x_1,...,x_r], the denominator's leading
    coefficient positive.

    Sums go through _sum, products and quotients through _product, and
    quotients and negative powers take the closed-form reciprocal (see the
    module docstring); the tests check each fast path against sympy's
    general fraction arithmetic."""

    __slots__ = ("field", "_f")

    def __init__(self, field: FunctionField, frac):
        self.field = field
        self._f = frac

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field is not self.field and other.field != self.field:
                raise FieldError("elements of different fields")
            return other._f
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)._f
        return NotImplemented

    def _sum(self, o, op) -> "RatFunc":
        """op(self, o) for op operator.add or operator.sub and o a fraction
        of this field."""
        f = self._f
        if not o:
            return self
        if f and _is_one(f.denom) and _is_one(o.denom):
            # two polynomials: the sum needs no gcd
            return RatFunc(self.field, f.raw_new(op(f.numer, o.numer), f.denom))
        # for f = 0 sympy returns o or -o at once; otherwise it cancels by gcd
        return RatFunc(self.field, op(f, o))

    def _product(self, o) -> "RatFunc":
        """self * o for a fraction o of this field."""
        f = self._f
        if not f or not o:
            return self.field.zero
        fn, fd, on, od = f.numer, f.denom, o.numer, o.denom
        if len(fn) == len(fd) == len(on) == len(od) == 1:
            # monomial times monomial: add the exponents, multiply the
            # coefficients; the reduced quotient keeps the result canonical
            (m1, c1), = fn.items()
            (n1, k1), = fd.items()
            (m2, c2), = on.items()
            (n2, k2), = od.items()
            c, k = int(c1 * c2), int(k1 * k2)
            g = math.gcd(c, k)
            return self.field._monomial(
                [p + q - s - t for p, q, s, t in zip(m1, m2, n1, n2)], c // g, k // g
            )
        if _is_one(fd) and _is_one(od):
            return RatFunc(self.field, f.raw_new(fn * on, fd))
        return RatFunc(self.field, f * o)

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._sum(o, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._sum(o, operator.sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatFunc(self.field, o)._sum(self._f, operator.sub)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._product(o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._product(_reciprocal(o))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatFunc(self.field, o)._product(_reciprocal(self._f))

    def __neg__(self):
        return RatFunc(self.field, -self._f)

    def __pow__(self, n: int):
        return RatFunc(self.field, (self._f if n >= 0 else _reciprocal(self._f)) ** abs(n))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_fraction(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.field == other.field and self._f == other._f

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes as that number.
        # Otherwise from the terms, not sympy's cached polynomial hash:
        # PolyElement.square caches the hash of its half-built result, so a
        # square from sympy hashes apart from an equal element
        if self.is_constant():
            return hash(self.as_fraction())
        f = self._f
        return hash((self.field, frozenset(f.numer.items()), frozenset(f.denom.items())))

    def __bool__(self):
        return bool(self._f)

    @property
    def is_zero(self) -> bool:
        return not self._f

    def is_constant(self) -> bool:
        return self._f.denom.is_ground and (
            not self._f.numer or self._f.numer.is_ground
        )

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise FieldError("not a constant")
        if not self._f.numer:
            return Fraction(0)
        return Fraction(int(self._f.numer.coeff(1)), int(self._f.denom.coeff(1)))

    # -- valuation-theoretic structure -------------------------------------

    def _lead(self) -> tuple[list[int], int, int]:
        """(exps, cn, cd) with (cn/cd) x^exps the valuation-leading monomial:
        cn and cd are the lex-minimal coefficients of numerator and
        denominator.  cd may be negative, as the canonical form makes only
        the denominator's lex-largest coefficient positive."""
        if not self._f:
            raise FieldError("zero has no leading term")
        en, cn = min(self._f.numer.items())
        ed, cd = min(self._f.denom.items())
        return [a - b for a, b in zip(en, ed)], int(cn), int(cd)

    def val(self) -> GammaVal:
        """Lex monomial valuation; INF on zero."""
        if not self._f:
            return GammaVal.infinity()
        return GammaVal(self._lead()[0])

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """Exponent vector and coefficient of the valuation-leading monomial."""
        exps, cn, cd = self._lead()
        return tuple(exps), Fraction(cn, cd)

    def sign_character(self) -> tuple[int, int]:
        """(a, s) with sign_P(self) = (-1)^(s + <a, P.bits>) at every ordering
        P: a holds the odd coordinates of the valuation as bits (coordinate 0
        most significant), s = 1 iff the leading coefficient is negative.
        This is Baer-Krull: sign_P(f) = sgn(lc f) * prod_i eta_i^(v(f)_i)."""
        exps, cn, cd = self._lead()
        a = 0
        for e in exps:
            a = (a << 1) | (e & 1)
        return a, int((cn < 0) != (cd < 0))

    def sign_at(self, P: OrderingSpec) -> int:
        """Sign of the element at the compatible ordering P."""
        if len(P.eta) != self.field.r:
            raise FieldError("ordering arity mismatch")
        if not self._f:
            return 0
        a, s = self.sign_character()
        return -1 if (s + (a & P.bits).bit_count()) & 1 else 1

    def residue(self) -> Fraction:
        """Image in the residue field Q; requires nonnegative valuation."""
        if not self._f:
            return Fraction(0)
        exps, cn, cd = self._lead()
        first = next((e for e in exps if e), 0)  # decides the lex sign of v
        if first < 0:
            raise NegativeValuation(f"val = {GammaVal(exps)}")
        return Fraction(0) if first else Fraction(cn, cd)

    def __repr__(self):
        return f"RatFunc({self._f})"

    def __str__(self):
        return str(self._f)


# ---------------------------------------------------------------------------
# Univariate polynomials over the field
# ---------------------------------------------------------------------------

class PolyX:
    """Polynomial in one variable X with RatFunc coefficients, constant term first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FunctionField, coeffs: Iterable[RatFunc]):
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise FieldError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def leading_coeff(self) -> RatFunc:
        return self.coeffs[-1]

    def monic(self) -> "PolyX":
        if self.is_zero:
            raise NotMonicAfterNormalization("zero polynomial")
        lc = self.leading_coeff()
        return PolyX(self.field, [c / lc for c in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, PolyX)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other: "PolyX") -> "PolyX":
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return PolyX(self.field, [x + y for x, y in zip(a, b)])

    def __mul__(self, other: "PolyX") -> "PolyX":
        if self.is_zero or other.is_zero:
            return PolyX(self.field, [])
        z = self.field.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return PolyX(self.field, out)

    def scale(self, c: RatFunc) -> "PolyX":
        return PolyX(self.field, [c * a for a in self.coeffs])

    def divmod(self, other: "PolyX") -> tuple["PolyX", "PolyX"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        z = self.field.zero
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading_coeff()
        quo = [z] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            q = rem[-1] / lc
            quo[k] = q
            for j in range(d + 1):
                rem[k + j] = rem[k + j] - q * other.coeffs[j]
            while rem and rem[-1].is_zero:
                rem.pop()
        return PolyX(self.field, quo), PolyX(self.field, rem)

    def __repr__(self):
        return f"PolyX({[str(c) for c in self.coeffs]})"


def newton_root_valuations(p: PolyX) -> list[GammaVal]:
    """Root valuations of a univariate polynomial, by its lower Newton polygon.

    The polynomial is normalized monic first.  Roots over any valued
    extension have valuations equal to the negated slopes of the lower
    convex hull of the points (i, val(c_i)); zero roots contribute INF.
    Returns a multiset (list, ascending) of size deg p.
    """
    if p.is_zero or len(p.coeffs) < 2:
        raise NotMonicAfterNormalization("need a nonzero polynomial of degree >= 1")
    p = p.monic()
    m = 0
    while p.coeffs[m].is_zero:
        m += 1
    out = [GammaVal.infinity()] * m
    pts = [(i, p.coeffs[i].val()) for i in range(m, len(p.coeffs)) if not p.coeffs[i].is_zero]
    # lower convex hull, left to right; y-values live in the ordered group
    hull: list[tuple[int, GammaVal]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            x3, y3 = pt
            # drop the middle point if it lies on or above segment 1-3
            if (y2 - y1).scale(x3 - x2) >= (y3 - y2).scale(x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        mult = x2 - x1
        slope = (y2 - y1).scale(Fraction(1, mult))
        out.extend([-slope] * mult)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Expression parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[()+\-*/^]))")


class _Parser:
    """Recursive-descent parser for the field expression grammar.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base (('^'|'**') posint)?
    base   := int | var | '(' expr ')'

    '**' is read as '^', so the str() of an element parses back to it.
    """

    def __init__(self, field: FunctionField, src: str):
        self.field = field
        self.src = src
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(src):
            m = _TOKEN_RE.match(src, pos)
            if m is None or m.end() == pos:
                stripped = src[pos:].lstrip()
                if not stripped:
                    break
                bad = pos + len(src[pos:]) - len(stripped)
                raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", bad)
            if m.group(1) is not None:
                self.tokens.append(("int", m.group(1), m.start(1)))
            elif m.group(2) is not None:
                self.tokens.append(("name", m.group(2), m.start(2)))
            else:
                op = "^" if m.group(3) == "**" else m.group(3)
                self.tokens.append(("op", op, m.start(3)))
            pos = m.end()
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.src))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def parse(self) -> RatFunc:
        v = self._expr()
        kind, text, pos = self._peek()
        if kind is not None:
            raise ExprSyntaxError(f"unexpected token {text!r}", pos)
        return v

    def _expr(self) -> RatFunc:
        kind, text, _ = self._peek()
        negate = False
        if kind == "op" and text in "+-":
            self._next()
            negate = text == "-"
        v = self._term()
        if negate:
            v = -v
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "+-":
                self._next()
                t = self._term()
                v = v + t if text == "+" else v - t
            else:
                return v

    def _term(self) -> RatFunc:
        v = self._factor()
        while True:
            kind, text, pos = self._peek()
            if kind == "op" and text in "*/":
                self._next()
                f = self._factor()
                if text == "/":
                    if f.is_zero:
                        raise ExprSyntaxError("division by zero", pos)
                    v = v / f
                else:
                    v = v * f
            else:
                return v

    def _factor(self) -> RatFunc:
        v = self._base()
        kind, text, _ = self._peek()
        if kind == "op" and text == "^":
            self._next()
            kind, text, pos = self._next()
            if kind != "int":
                raise ExprSyntaxError("exponent must be a nonnegative integer", pos)
            v = v ** int(text)
        return v

    def _base(self) -> RatFunc:
        kind, text, pos = self._next()
        if kind == "int":
            return self.field.from_fraction(int(text))
        if kind == "name":
            try:
                idx = self.field.varnames.index(text)
            except ValueError:
                raise UnknownVariable(f"unknown variable {text!r}") from None
            return self.field.var(idx)
        if kind == "op" and text == "(":
            v = self._expr()
            kind, text, pos = self._next()
            if text != ")":
                raise ExprSyntaxError("expected ')'", pos)
            return v
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def parse_element(src: str, varnames: Sequence[str]) -> RatFunc:
    """Parse an expression into a field element over the named variables."""
    return FunctionField(varnames).parse(src)
