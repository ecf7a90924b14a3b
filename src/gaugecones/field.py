"""Exact arithmetic for the rational function field Q(x_1,...,x_r).

The field carries the lex monomial valuation (first declared variable most
significant) with value group Z^r ordered lexicographically, and the family
of compatible orderings given by a sign for each variable.  All arithmetic
is exact, and every element has one canonical form of two kinds:

- a non-zero monomial num/den * x^exps is the triple (exps, num, den), an
  exponent tuple of either sign with coprime integers num != 0 and den > 0;
- every other element, zero included, is a sympy fraction: a quotient of
  two coprime polynomials with integer coefficients (content included),
  the leading coefficient of the denominator (that of its lex-largest
  term) positive, so a constant such as 1/2 keeps its 2 in the
  denominator.

A one-term quotient is always held as its triple, so equality of field
elements is structural.  The sympy fraction of a triple is built when it
is first read, and then kept.

Arithmetic runs through two ladders, one for sums and one for products.
On two triples a product is a closed form: it adds the exponents and
reduces the product of the coefficients by their gcd.  So is a sum of like
monomials, whose one coefficient is reduced by a gcd.  Negation, the
reciprocal and powers of a triple stay triples.  Otherwise a zero operand
returns the other operand, its negation or zero, and sums and products of
polynomials skip the gcd.  Everything else, a sum of unlike monomials and
any operation with a non-monomial operand, goes through sympy's fraction
field, which cancels by gcd.  Division and negative powers are products
with the reciprocal, which swaps numerator and denominator and needs no
gcd.  Each path yields the same canonical form.

Valuation, leading term, sign at an ordering and residue read the triple
or, for a fraction, one walk for the lex-minimal terms of numerator and
denominator.  The sign is the Baer-Krull formula
sign_P(f) = sgn(lc f) * prod_i eta_i^(v(f)_i).

The matrix kernels compute on polynomials of Z[x_1,...,x_r] and reach
field elements through two conversions only, so they never see how an
element is stored: FunctionField.clear_denominators(cs) gives (d, the term
lists of d c for c in cs) with d the lcm of the denominators, and
FunctionField.polynomial gives the element with a term list.  A term list
is [(exponents, integer), ...] with no zero coefficient, in any order, as
sympy's PolyElement.items() gives it, and [] for zero; rational_roots
factors on term lists too.  Within the kernels each term is keyed by one
int instead, so that a product of two terms adds two keys, and where few
variables occur a keyed list is held as its Kronecker image, one int.  The
key layout is private to Kronecker, built from degree caps that
FunctionField.largest_exponents sets: pack and unpack convert between term
lists and keyed lists, image and split between keyed lists and images.
Laurent, a field's .laurent, keys terms of either sign in the same way,
with balanced digits of one fixed range, for the positive-semidefiniteness
pivots and the property suites; it decodes keys and reads a list's sign at
an ordering from its smallest key.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from sympy import ZZ
from sympy.polys.fields import field as _sympy_field
from sympy.polys.rings import ring as _sympy_ring


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


def common_sign_orderings(entries: Sequence["RatFunc"]) -> OrderingCoset:
    """The orderings at which the entries all share a sign.

    With sign_P(f) = (-1)^(s_f + <a_f, t>) this is the system
    <a_k + a_0, t> = s_k + s_0 over GF(2): empty or 2^(r - rank) orderings.
    """
    (a0, s0), *rest = (f.sign_character() for f in entries)
    return solve_sign_system(entries[0].field.r, ((a ^ a0, s ^ s0) for a, s in rest))


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
        self.laurent = Laurent(self)

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
        return _monomial(self, (tuple([int(e) for e in exponents]),
                                coeff.numerator, coeff.denominator))

    def _fraction(self, exps: tuple[int, ...], num: int, den: int):
        """The sympy fraction num/den * x^exps for coprime integers num != 0
        and den > 0: the quotient of coprime monomials is already reduced."""
        term, zz = self._ring.dtype, self._ring.domain.dtype
        return self._field.raw_new(
            term({tuple([e if e > 0 else 0 for e in exps]): zz(num)}),
            term({tuple([-e if e < 0 else 0 for e in exps]): zz(den)}),
        )

    def clear_denominators(self, cs: Sequence["RatFunc"]) -> tuple["RatFunc", list]:
        """(d, [term list of d c for c in cs]), with d the lcm of the
        denominators, self.one itself when no c has one.  When every
        denominator is a monomial, d and each d c are closed forms on the
        monomial triples; otherwise each d c is the numerator times d exquo
        its denominator, without a gcd.  The closed form spares the small
        residue blocks a sympy fraction per coordinate: without it a 1 x 1
        block over Q took about three times as long."""
        ring = self._ring
        mul = ring.monomial_mul
        triples = [c._m for c in cs if c._m is not None]
        others = [c._frac.denom for c in cs if c._m is None and not _is_one(c._frac.denom)]
        k = math.lcm(*[m[2] for m in triples])
        # minus the lowest power of each variable in the triples and 0
        shift = tuple([-min(col) for col in zip((0,) * self.r, *[m[0] for m in triples])])
        if not others:
            cleared = []
            for c in cs:
                m = c._m
                if m is not None:
                    cleared.append([(mul(m[0], shift), m[1] * (k // m[2]))])
                else:
                    cleared.append([(mul(e, shift), a * k) for e, a in c._frac.numer.items()])
            if k == 1 and not any(shift):
                return self.one, cleared
            return _monomial(self, (shift, k, 1)), cleared
        d = ring({shift: k})
        quotients = dict.fromkeys(others)
        for den in quotients:
            d = d.lcm(den)
        for den in quotients:
            quotients[den] = d.exquo(den)
        cleared = []
        for c in cs:
            if c.is_zero:
                cleared.append([])
                continue
            f = c._f
            q = quotients.get(f.denom)
            if q is None:
                q = quotients[f.denom] = d.exquo(f.denom)
            cleared.append(list((f.numer * q).items()))
        return RatFunc(self, self._field.raw_new(d, ring.one)), cleared

    def polynomial(self, terms) -> "RatFunc":
        """The polynomial with the given term list, as a field element."""
        if not terms:
            return self.zero
        if len(terms) == 1:
            (e, c), = terms
            return _monomial(self, (e, c, 1))
        return RatFunc(self, self._field.raw_new(self._ring.dtype(terms), self._ring.one))

    def largest_exponents(self, polys) -> tuple[int, ...]:
        """The largest exponent of each variable in the term lists polys,
        0 for a variable that does not occur."""
        return tuple(map(max, zip((0,) * self.r, *[e for terms in polys for e, _ in terms])))

    def parse(self, src: str) -> "RatFunc":
        return _Parser(self, src).parse()

    def __eq__(self, other):
        return isinstance(other, FunctionField) and self.varnames == other.varnames

    def __hash__(self):
        return hash(self.varnames)

    def __repr__(self):
        return f"FunctionField({', '.join(self.varnames) or 'Q'})"


class Kronecker:
    """Kronecker's substitution (Kronecker 1882; Schoenhage 1982) for the
    polynomials of Z[x_1,...,x_r] of degree at most caps[i] in x_i.

    The term c x^e has the key sum of e_i s_i, with s_r = 1 and s_i =
    s_(i+1) (caps[i+1] + 1): within the caps the exponents are the key's
    mixed-radix digits, x_1 the most significant, so keys order terms
    lexicographically.  x_i -> t^(s_i) is a ring homomorphism Z[x] -> Z[t],
    so sums and products of keyed lists, keys adding in a product, are
    exact whatever the degrees along the way; only a value read back, by
    unpack or by a test for zero, must lie within the caps, where keys are
    unique.  The image of a keyed list at width w is its value at t = 2^w;
    split reads it back when every coefficient lies strictly between
    -2^(w-1) and 2^(w-1), the digits taken balanced.
    """

    __slots__ = ("_strides", "_radices", "_digits")

    def __init__(self, caps: Sequence[int]):
        self._radices = [c + 1 for c in caps]
        self._strides = [math.prod(self._radices[i + 1:]) for i in range(len(caps))]
        self._digits = math.prod(self._radices)

    def pack(self, terms) -> list:
        """The keyed list of a term list."""
        strides = self._strides
        return [(sum(map(operator.mul, e, strides)), c) for e, c in terms]

    def unpack(self, keyed) -> list:
        """The term list of a keyed list within the caps."""
        layout = list(zip(self._strides, self._radices))
        return [(tuple([key // s % m for s, m in layout]), c) for key, c in keyed]

    def image(self, keyed, width: int) -> int:
        """The image of a keyed list at the given width."""
        return sum([c << width * key for key, c in keyed])

    def split(self, value: int, width: int) -> list:
        """The keyed list whose image at width is value, for a value that
        lies within the caps and the width.  Halving by balanced remainders
        reads the non-zero digits without a pass over the zero ones: each
        pending (value, low, count) is the image of digits low, ...,
        low + count - 1, shifted down by low digits."""
        found = []
        pending = [(value, 0, self._digits)]
        while pending:
            value, low, count = pending.pop()
            if not value:
                continue
            if count == 1:
                if abs(value) >> (width - 1):
                    raise FieldError("Kronecker image exceeds its width")
                found.append((low, value))
                continue
            half = count >> 1
            shift = width * half
            lo, hi = value & ((1 << shift) - 1), value >> shift
            if lo >> (shift - 1):
                lo -= 1 << shift
                hi += 1
            pending += [(lo, low, half), (hi, low + half, count - half)]
        return found


class Laurent(Kronecker):
    """The keys of the Laurent polynomials of Z[x_1^+-1, ..., x_r^+-1] whose
    exponents lie within +-REACH: Kronecker's keys, sum of e_i s_i with x_1
    the most significant, for caps 2 REACH, with the digits balanced, that is
    taken in -REACH..REACH.  Within that range the key determines the
    exponents and keys order terms lexicographically, so the smallest key of
    a list is its valuation-leading term; keys add in a product, and a reach,
    a bound on the largest |e_i|, adds with them.  check refuses a reach
    beyond REACH.  This REACH keeps every key of two variables within one
    30-bit digit of CPython's ints: keys of two digits made the dot products
    about 30 % slower."""

    REACH = 2 ** 14 - 1

    __slots__ = ("field", "_offset")

    def __init__(self, field: "FunctionField"):
        super().__init__([2 * self.REACH] * field.r)
        self.field = field
        self._offset = self.REACH * sum(self._strides)

    def exponents(self, key: int) -> tuple[int, ...]:
        key += self._offset
        return tuple([key // s % m - self.REACH for s, m in zip(self._strides, self._radices)])

    def sign_at(self, keyed, P: OrderingSpec) -> int:
        """The sign at P of a non-zero keyed list, that of its leading term."""
        key, c = min(keyed)
        return self.field.monomial(self.exponents(key), c).sign_at(P)

    @classmethod
    def check(cls, reach: int) -> int:
        if reach > cls.REACH:
            raise FieldError(f"exponent beyond +-{cls.REACH}, the range of the Laurent keys")
        return reach


def _is_one(poly) -> bool:
    """Whether a sympy polynomial is the constant 1, without building ring.one."""
    return len(poly) == 1 and poly.get(poly.ring.zero_monom) == 1


_new = object.__new__


def _monomial(field: FunctionField, m: tuple) -> "RatFunc":
    """The element held as the triple m = (exps, num, den), which must be in
    canonical form; its sympy fraction is built when first read."""
    x = _new(RatFunc)
    x.field = field
    x._m = m
    x._frac = None
    return x


class RatFunc:
    """Element of a FunctionField, in one of two canonical forms.

    A non-zero monomial num/den * x^exps is the triple _m = (exps, num,
    den): an exponent tuple of either sign, a non-zero integer numerator
    and a positive integer denominator, coprime.  Every other element,
    zero included, has _m None and is the sympy fraction _frac: coprime
    numerator and denominator in Z[x_1,...,x_r], the denominator's leading
    coefficient positive.  RatFunc(field, frac) takes any canonical
    fraction and holds a one-term quotient as its triple, so an element is
    a monomial exactly when it is a triple, and equality compares like
    forms.  _f is the sympy fraction of either form, built for a triple
    when first read and then kept.

    Products of monomials, sums of like monomials, negation, the
    reciprocal and powers of a monomial are computed on the triples; an
    operation with a non-monomial operand, or a sum of unlike monomials,
    goes through _f (see the module docstring).  The tests check each path
    against sympy's general fraction arithmetic."""

    __slots__ = ("field", "_m", "_frac")

    def __init__(self, field: FunctionField, frac):
        self.field = field
        self._frac = frac
        n, d = frac.numer, frac.denom
        if len(n) == 1 and len(d) == 1:
            (en, cn), = n.items()
            (ed, cd), = d.items()
            self._m = (tuple(map(operator.sub, en, ed)), int(cn), int(cd))
        else:
            self._m = None

    @property
    def _f(self):
        f = self._frac
        if f is None:
            f = self._frac = self.field._fraction(*self._m)
        return f

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            if other.field is not self.field and other.field != self.field:
                raise FieldError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return NotImplemented

    def _sum(self, o: "RatFunc", op) -> "RatFunc":
        """op(self, o) for op operator.add or operator.sub."""
        m, n = self._m, o._m
        if m is not None and n is not None and m[0] == n[0]:
            # like monomials: one coefficient, reduced by its gcd
            c, k = op(m[1] * n[2], n[1] * m[2]), m[2] * n[2]
            if not c:
                return self.field.zero
            g = math.gcd(c, k)
            return _monomial(self.field, (m[0], c // g, k // g))
        if o.is_zero:
            return self
        if self.is_zero:
            return o if op is operator.add else -o
        f, h = self._f, o._f
        if _is_one(f.denom) and _is_one(h.denom):
            # two polynomials: the sum needs no gcd
            return RatFunc(self.field, f.raw_new(op(f.numer, h.numer), f.denom))
        return RatFunc(self.field, op(f, h))

    def _product(self, o: "RatFunc") -> "RatFunc":
        """self * o."""
        m, n = self._m, o._m
        if m is not None and n is not None:
            # monomial times monomial: add the exponents, multiply the
            # coefficients and reduce them by their gcd
            c, k = m[1] * n[1], m[2] * n[2]
            g = math.gcd(c, k)
            return _monomial(self.field, (tuple(map(operator.add, m[0], n[0])),
                                          c // g, k // g))
        if self.is_zero or o.is_zero:
            return self.field.zero
        f, h = self._f, o._f
        if _is_one(f.denom) and _is_one(h.denom):
            return RatFunc(self.field, f.raw_new(f.numer * h.numer, f.denom))
        return RatFunc(self.field, f * h)

    def _reciprocal(self) -> "RatFunc":
        """1/self: numerator and denominator swap, both negated when the new
        denominator's leading coefficient (in sympy's lex order, or the
        triple's num) is negative.  They stay coprime, so no gcd is needed."""
        m = self._m
        if m is None:
            f = self._frac
            if not f:
                raise ZeroDivisionError("division by zero rational function")
            n, d = f.numer, f.denom
            return RatFunc(self.field, f.raw_new(-d, -n) if n.LC < 0 else f.raw_new(d, n))
        exps, num, den = m
        if num < 0:
            num, den = -num, -den
        return _monomial(self.field, (tuple([-e for e in exps]), den, num))

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._sum(o, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._sum(o, operator.sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o._sum(self, operator.sub)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._product(o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._product(o._reciprocal())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o._product(self._reciprocal())

    def __neg__(self):
        m = self._m
        if m is None:
            return RatFunc(self.field, -self._frac)
        return _monomial(self.field, (m[0], -m[1], m[2]))

    def __pow__(self, n: int):
        if n == 0:
            return self.field.one  # zero included, as Fraction(0) ** 0
        x = self if n > 0 else self._reciprocal()
        n = abs(n)
        m = x._m
        if m is None:
            return RatFunc(self.field, x._frac ** n)
        return _monomial(self.field, (tuple([e * n for e in m[0]]), m[1] ** n, m[2] ** n))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_fraction(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.field is not other.field and self.field != other.field:
            return False
        m, n = self._m, other._m
        if m is not None or n is not None:
            return m == n
        return self._frac == other._frac

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes as that number.
        # A quotient of sums hashes from its terms, not sympy's cached
        # polynomial hash: PolyElement.square caches the hash of its
        # half-built result, so a square from sympy hashes apart from an
        # equal element
        m = self._m
        if m is not None:
            return hash((self.field, m)) if any(m[0]) else hash(Fraction(m[1], m[2]))
        f = self._frac
        if not f:
            return hash(Fraction(0))
        return hash((self.field, frozenset(f.numer.items()), frozenset(f.denom.items())))

    def __bool__(self):
        return self._m is not None or bool(self._frac.numer)

    @property
    def is_zero(self) -> bool:
        return self._m is None and not self._frac.numer

    def is_constant(self) -> bool:
        # a non-zero constant is a monomial
        m = self._m
        return not self._frac if m is None else not any(m[0])

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise FieldError("not a constant")
        m = self._m
        return Fraction(0) if m is None else Fraction(m[1], m[2])

    # -- valuation-theoretic structure -------------------------------------

    def _lead(self) -> tuple[tuple[int, ...], int, int]:
        """(exps, cn, cd) with (cn/cd) x^exps the valuation-leading monomial:
        the triple itself, or the quotient of the lex-minimal terms of
        numerator and denominator.  cd may then be negative, as the
        canonical form makes only the denominator's lex-largest coefficient
        positive."""
        m = self._m
        if m is not None:
            return m
        if not self._frac:
            raise FieldError("zero has no leading term")
        en, cn = min(self._frac.numer.items())
        ed, cd = min(self._frac.denom.items())
        return tuple(map(operator.sub, en, ed)), int(cn), int(cd)

    def val(self) -> GammaVal:
        """Lex monomial valuation; INF on zero."""
        if self.is_zero:
            return GammaVal.infinity()
        return GammaVal(self._lead()[0])

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """Exponent vector and coefficient of the valuation-leading monomial."""
        exps, cn, cd = self._lead()
        return exps, Fraction(cn, cd)

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
        if self.is_zero:
            return 0
        a, s = self.sign_character()
        return -1 if (s + (a & P.bits).bit_count()) & 1 else 1

    def residue(self) -> Fraction:
        """Image in the residue field Q; requires nonnegative valuation."""
        if self.is_zero:
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

    Roots over any valued extension have valuations equal to the negated
    slopes of the lower convex hull of the points (i, val(c_i)); zero roots
    contribute INF.  Scaling p by c moves every point up by val(c), so the
    slopes, and the answer, are those of the monic p / lc(p) without
    dividing.  Returns a multiset (list, ascending) of size deg p.
    """
    if p.is_zero or len(p.coeffs) < 2:
        raise NotMonicAfterNormalization("need a nonzero polynomial of degree >= 1")
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


def rational_roots(p: PolyX) -> tuple[list[RatFunc], bool]:
    """Roots of p in F with multiplicity, and whether p splits over F.

    The denominators of p are cleared and the result is factored in
    Z[X, x_1, ..., x_r], the ring of F's numerators with X adjoined, so
    terms move between the two rings unchanged; a linear factor a X + b
    gives the root -b/a.
    """
    F = p.field
    R = _sympy_ring(("_X",) + F.varnames, ZZ)[0]
    _, cleared = F.clear_denominators(p.coeffs)
    total = R.from_terms([((i,) + exps, c) for i, terms in enumerate(cleared)
                          for exps, c in terms])
    roots: list[RatFunc] = []
    splits = True
    for fac, mult in total.factor_list()[1]:
        degx = max(mono[0] for mono in fac.monoms())
        if degx == 0:
            continue
        if degx > 1:
            splits = False
            continue
        a = F.polynomial([(exps[1:], c) for exps, c in fac.terms() if exps[0] == 1])
        b = F.polynomial([(exps[1:], c) for exps, c in fac.terms() if exps[0] == 0])
        roots.extend([-b / a] * mult)
    return roots, splits


# ---------------------------------------------------------------------------
# Expression parser
# ---------------------------------------------------------------------------

# The largest power the parser accepts: (1+x+y)^N has (N+1)(N+2)/2 terms and
# 2^N is an N-bit integer, so an unbounded exponent such as x^1000000000
# would start a computation that does not end
MAX_EXPONENT = 100

# The most terms the parser lets the numerator or denominator of a power,
# product, quotient or sum have, counted before computing it: f with t terms
# has at most C(N+t-1, t-1) terms in f^N, and a product of polynomials with
# s and t terms at most s t.  (1+x+y)^60 has 1,891 terms and parses in
# milliseconds; (1+x+y+z)^100 has 176,851 and takes a second, and a sum of
# ten variables to the 100th would have about 4.7e13, as would 25 factors of
# that sum to the 4th (715 terms each)
MAX_TERMS = 10_000

# The deepest nesting of parentheses the parser accepts: each level takes
# four frames, so a few hundred would exhaust Python's recursion limit
MAX_NESTING = 100

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[()+\-*/^]))")


class _Parser:
    """Recursive-descent parser for the field expression grammar.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base (('^'|'**') posint)?      posint <= MAX_EXPONENT
    base   := int | var | '(' expr ')'

    '**' is read as '^', so the str() of an element parses back to it.
    Each power, product, quotient and sum is counted before it is computed
    and refused at its operator (at the exponent for a power) when its
    numerator or denominator could have more than MAX_TERMS terms, or a
    coefficient longer than Python converts to a string
    (sys.get_int_max_str_digits), bounded by bit lengths (_product_bits).
    A '(' nested more than MAX_NESTING deep is refused, and so is an integer
    literal longer than Python converts.
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
        self.depth = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.src))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def parse(self) -> RatFunc:
        v, _ = self._expr()
        kind, text, pos = self._peek()
        if kind is not None:
            raise ExprSyntaxError(f"unexpected token {text!r}", pos)
        return v

    # Each of the methods below returns (value, heights), the heights of the
    # value (_heights) computed once when it is built, so that the bound on
    # the coefficients of a power, product, quotient or sum reads its
    # operands' heights in O(1).

    def _expr(self) -> tuple[RatFunc, tuple[int, int]]:
        kind, text, _ = self._peek()
        negate = False
        if kind == "op" and text in "+-":
            self._next()
            negate = text == "-"
        v, h = self._term()
        if negate:
            v = -v
        while True:
            kind, text, pos = self._peek()
            if kind == "op" and text in "+-":
                self._next()
                t, ht = self._term()
                (vn, vd), (tn, td) = _terms(v), _terms(t)
                if v._m is None and t._m is None and v._frac.denom == t._frac.denom:
                    # over one denominator sympy adds only the numerators
                    _bound(vn + tn, "sum", pos)
                    _bound_digits(max(h[0], ht[0]) + 1, "sum", pos)
                else:
                    _bound(max(vn * td + vd * tn, vd * td), "sum", pos)
                    _bound_digits(max(_product_bits(h[0], vn, ht[1], td) + 1,
                                      _product_bits(ht[0], tn, h[1], vd) + 1,
                                      _product_bits(h[1], vd, ht[1], td)), "sum", pos)
                v = v + t if text == "+" else v - t
                h = _heights(v)
            else:
                return v, h

    def _term(self) -> tuple[RatFunc, tuple[int, int]]:
        v, h = self._factor()
        while True:
            kind, text, pos = self._peek()
            if kind == "op" and text in "*/":
                self._next()
                f, hf = self._factor()
                (vn, vd), (fn, fd) = _terms(v), _terms(f)
                if text == "/":
                    if f.is_zero:
                        raise ExprSyntaxError("division by zero", pos)
                    # v / f multiplies across: numerator by f's denominator
                    (fn, fd), hf = (fd, fn), hf[::-1]
                what = "quotient" if text == "/" else "product"
                _bound(max(vn * fn, vd * fd), what, pos)
                _bound_digits(max(_product_bits(h[0], vn, hf[0], fn),
                                  _product_bits(h[1], vd, hf[1], fd)), what, pos)
                v = v / f if text == "/" else v * f
                h = _heights(v)
            else:
                return v, h

    def _factor(self) -> tuple[RatFunc, tuple[int, int]]:
        v, h = self._base()
        kind, text, _ = self._peek()
        if kind == "op" and text == "^":
            self._next()
            kind, text, pos = self._next()
            if kind != "int":
                raise ExprSyntaxError("exponent must be a nonnegative integer", pos)
            # the length test keeps int() off digit strings of any size
            if len(text.lstrip("0")) > len(str(MAX_EXPONENT)) or int(text) > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent exceeds {MAX_EXPONENT}", pos)
            n = int(text)
            t = max(_terms(v))
            _bound(math.comb(n + t - 1, t - 1), "power", pos)
            _bound_digits(n * (max(h) + (t - 1).bit_length()), "power", pos)
            v = v ** n
            h = _heights(v)
        return v, h

    def _base(self) -> tuple[RatFunc, tuple[int, int]]:
        kind, text, pos = self._next()
        if kind == "int":
            limit = sys.get_int_max_str_digits()
            if limit and len(text) > limit:
                raise ExprSyntaxError(f"integer literal has more than {limit} digits", pos)
            n = int(text)
            return self.field.from_fraction(n), (n.bit_length(), 1)
        if kind == "name":
            try:
                idx = self.field.varnames.index(text)
            except ValueError:
                raise UnknownVariable(f"unknown variable {text!r}") from None
            return self.field.var(idx), (1, 1)
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            v = self._expr()
            self.depth -= 1
            kind, text, pos = self._next()
            if text != ")":
                raise ExprSyntaxError("expected ')'", pos)
            return v
        if kind is None:
            raise ExprSyntaxError("unexpected end of expression", pos)
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def _terms(v: RatFunc) -> tuple[int, int]:
    """Term counts of v's numerator and denominator as sympy holds them."""
    if v._m is not None:
        return 1, 1
    return len(v._frac.numer), len(v._frac.denom)


def _heights(v: RatFunc) -> tuple[int, int]:
    """The largest bit lengths of the coefficients of v's numerator and of
    its denominator, as sympy holds them."""
    if v._m is not None:
        return abs(v._m[1]).bit_length(), v._m[2].bit_length()
    return tuple([max([abs(c).bit_length() for c in p.values()], default=0)
                  for p in (v._frac.numer, v._frac.denom)])


def _product_bits(h1: int, t1: int, h2: int, t2: int) -> int:
    """A bit length for the coefficients of a product of polynomials with t1
    and t2 terms whose coefficients have bit lengths at most h1 and h2: each
    is a sum of at most min(t1, t2) products under 2^(h1 + h2)."""
    return h1 + h2 + (min(t1, t2) - 1).bit_length()


def _bound(terms: int, what: str, pos: int) -> None:
    if terms > MAX_TERMS:
        raise ExprSyntaxError(f"{what} would have more than {MAX_TERMS} terms", pos)


def _bound_digits(bits: int, what: str, pos: int) -> None:
    """Refuse a result whose coefficients could have bit length bits when
    that is more than the digits Python converts (sys.get_int_max_str_digits):
    a coefficient under 2^bits has at most bits log10(2) digits."""
    limit = sys.get_int_max_str_digits()
    if limit and bits > int(limit * math.log2(10)):
        raise ExprSyntaxError(f"{what} could have a coefficient of more than {limit} digits",
                              pos)


def parse_element(src: str, varnames: Sequence[str]) -> RatFunc:
    """Parse an expression into a field element over the named variables."""
    return FunctionField(varnames).parse(src)
