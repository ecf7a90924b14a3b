"""Coefficient algebras E over the base field, with involution.

E is one of F itself, F(sqrt(-1)), or a quaternion algebra (a,b)_F with
basis 1, i, j, k = ij and relations i^2 = a, j^2 = b, ji = -ij.  The module
provides the bar conjugation, the norm form n_E(x) = conj(x) x, the valuation
extension v_E = (1/2) val(n_E), and trace forms of the in-scope algebras
with involution.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .field import (
    FieldError,
    FunctionField,
    GammaVal,
    OrderingCoset,
    RatFunc,
    common_sign_orderings,
)


class SpecMismatch(FieldError):
    """Operands live over different coefficient algebras."""


class IndeterminateNorm(FieldError):
    """Norm-term valuations may collide; v_E is not determined."""


class EKind(Enum):
    BASE = "base"
    COMPLEX = "complex"
    QUAT = "quat"


_DIMS = {EKind.BASE: 1, EKind.COMPLEX: 2, EKind.QUAT: 4}


# products[i][j] = (k, sign, c): e_i e_j = sign c e_k, with c None when the
# structure constant is +-1 (sign alone then) and sign 1 otherwise
Products = tuple[tuple[tuple[int, int, Optional[RatFunc]], ...], ...]


@dataclass(frozen=True)
class ESpec:
    """One of the coefficient algebras: F, F(sqrt(-1)), or (a,b)_F.

    products holds the structure constants of the standard basis, built once
    with the spec and read by every product of its elements; hamilton is
    whether the spec is (-1,-1)_F, fixed with it too."""

    kind: EKind
    field: FunctionField
    a: Optional[RatFunc] = None
    b: Optional[RatFunc] = None
    products: Products = dataclasses.field(init=False, repr=False, compare=False)
    hamilton: bool = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind is EKind.QUAT:
            if self.a is None or self.b is None or self.a.is_zero or self.b.is_zero:
                raise ValueError("quaternion parameters must be nonzero")
        elif self.a is not None or self.b is not None:
            raise ValueError("parameters only apply to quaternion algebras")
        object.__setattr__(self, "products", _structure_constants(self))
        object.__setattr__(self, "hamilton", self.kind is EKind.QUAT
                           and self.a == self.b == self.field.from_fraction(-1))

    @property
    def dim(self) -> int:
        return _DIMS[self.kind]

    def zero(self) -> "EElement":
        z = self.field.zero
        return EElement(self, (z,) * self.dim)

    def one(self) -> "EElement":
        return self.scalar(self.field.one)

    def scalar(self, f) -> "EElement":
        if isinstance(f, (int, Fraction)):
            f = self.field.from_fraction(f)
        z = self.field.zero
        return EElement(self, (f,) + (z,) * (self.dim - 1))

    def basis(self) -> list["EElement"]:
        z, o = self.field.zero, self.field.one
        out = []
        for t in range(self.dim):
            coords = [z] * self.dim
            coords[t] = o
            out.append(EElement(self, tuple(coords)))
        return out


def _structure_constants(spec: ESpec) -> Products:
    """The multiplication table of the standard basis, folded for sparse
    products.  For (a,b)_F the basis is 1, i, j, k with ij = k, ji = -k,
    i^2 = a, j^2 = b, so ik = aj, ki = -aj, jk = -bi, kj = bi, k^2 = -ab."""
    one = spec.field.one
    if spec.kind is EKind.BASE:
        table = (((0, one),),)
    elif spec.kind is EKind.COMPLEX:
        table = (((0, one), (1, one)), ((1, one), (0, -one)))
    else:
        a, b = spec.a, spec.b
        table = (
            ((0, one), (1, one), (2, one), (3, one)),
            ((1, one), (0, a), (3, one), (2, a)),
            ((2, one), (3, -one), (0, b), (1, -b)),
            ((3, one), (2, -a), (1, b), (0, -(a * b))),
        )

    def fold(k, c):
        if c == one:
            return (k, 1, None)
        if c == -one:
            return (k, -1, None)
        return (k, 1, c)

    return tuple(tuple(fold(k, c) for k, c in row) for row in table)


def base_spec(field: FunctionField) -> ESpec:
    return ESpec(EKind.BASE, field)


def complex_spec(field: FunctionField) -> ESpec:
    return ESpec(EKind.COMPLEX, field)


def quat_spec(field: FunctionField, a: RatFunc, b: RatFunc) -> ESpec:
    return ESpec(EKind.QUAT, field, a, b)


def hamilton_spec(field: FunctionField) -> ESpec:
    m1 = field.from_fraction(-1)
    return quat_spec(field, m1, m1)


class EElement:
    """Element of a coefficient algebra, as coordinates on the standard basis."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec: ESpec, coords: Sequence[RatFunc]):
        coords = tuple(coords)
        if len(coords) != spec.dim:
            raise SpecMismatch("coordinate count does not match the algebra")
        self.spec = spec
        self.coords = coords

    def _check(self, other: "EElement"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatch("elements of different coefficient algebras")

    def __add__(self, other: "EElement") -> "EElement":
        self._check(other)
        return EElement(self.spec, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "EElement") -> "EElement":
        self._check(other)
        return EElement(self.spec, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "EElement":
        return EElement(self.spec, tuple(-a for a in self.coords))

    def __mul__(self, other: "EElement") -> "EElement":
        """Product by the spec's structure constants, over the pairs of
        non-zero coordinates only; a constant +-1 costs an addition or a
        subtraction instead of a field product."""
        self._check(other)
        table = self.spec.products
        acc: list[Optional[RatFunc]] = [None] * len(table)
        ys = [(j, y) for j, y in enumerate(other.coords) if not y.is_zero]
        for i, x in enumerate(self.coords):
            if x.is_zero:
                continue
            row = table[i]
            for j, y in ys:
                k, sign, c = row[j]
                t = x * y if c is None else c * (x * y)
                s = acc[k]
                if s is None:
                    acc[k] = t if sign > 0 else -t
                else:
                    acc[k] = s + t if sign > 0 else s - t
        z = self.spec.field.zero
        return EElement(self.spec, tuple(z if s is None else s for s in acc))

    def scale(self, f) -> "EElement":
        if isinstance(f, (int, Fraction)):
            f = self.spec.field.from_fraction(f)
        return EElement(self.spec, tuple(f * a for a in self.coords))

    def conj(self) -> "EElement":
        """Bar conjugation: identity on F, negates all imaginary coordinates."""
        if self.spec.kind is EKind.BASE:
            return self
        return EElement(self.spec, (self.coords[0],) + tuple(-a for a in self.coords[1:]))

    def norm(self) -> RatFunc:
        """n_E(x) = conj(x) x, central in F."""
        k = self.spec.kind
        if k is EKind.BASE:
            return self.coords[0] * self.coords[0]
        if k is EKind.COMPLEX:
            x0, x1 = self.coords
            return x0 * x0 + x1 * x1
        a, b = self.spec.a, self.spec.b
        x0, x1, x2, x3 = self.coords
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def trd(self) -> RatFunc:
        """Reduced trace: x + conj(x) as a scalar (x itself for F)."""
        if self.spec.kind is EKind.BASE:
            return self.coords[0]
        return 2 * self.coords[0]

    def real_part(self) -> RatFunc:
        return self.coords[0]

    def is_central(self) -> bool:
        return all(a.is_zero for a in self.coords[1:])

    def inverse(self) -> "EElement":
        # conj(x)/n(x); the in-scope norm forms are anisotropic over F
        n = self.norm()
        if n.is_zero:
            raise ZeroDivisionError("element has zero norm")
        return self.conj().scale(self.spec.field.one / n)

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.coords)

    def __eq__(self, other):
        if not isinstance(other, EElement):
            return NotImplemented
        return self.spec == other.spec and self.coords == other.coords

    def __hash__(self):
        return hash((self.spec, self.coords))

    def __repr__(self):
        names = {1: ("",), 2: ("", "s"), 4: ("", "i", "j", "k")}[self.spec.dim]
        parts = [f"({c}){n}" for c, n in zip(self.coords, names) if not c.is_zero]
        return " + ".join(parts) if parts else "0"


def v_E(x: EElement) -> GammaVal:
    """Valuation extension v_E(x) = (1/2) val(n_E(x)).

    For F, F(sqrt(-1)) and (-1,-1)_F this is the minimum of the coordinate
    valuations: the norm is a sum of squares (up to positive units) whose
    leading terms cannot cancel.  For a general quaternion algebra (a,b)_F
    the four norm terms must lie in pairwise distinct classes mod twice the
    value group, otherwise cancellation cannot be ruled out.
    """
    if x.is_zero:
        return GammaVal.infinity()
    spec = x.spec
    if spec.kind is not EKind.QUAT or spec.hamilton:
        return min(c.val() for c in x.coords if not c.is_zero)
    va, vb = spec.a.val(), spec.b.val()
    classes = {
        GammaVal.zero(spec.field.r).mod_group(2),
        va.mod_group(2),
        vb.mod_group(2),
        (va + vb).mod_group(2),
    }
    if len(classes) != 4:
        raise IndeterminateNorm(
            "norm-term valuation classes collide; v_E is not determined"
        )
    shifts = [GammaVal.zero(spec.field.r), va, vb, va + vb]
    terms = [
        s + c.val().scale(2) for s, c in zip(shifts, x.coords) if not c.is_zero
    ]
    return min(terms).half()


# ---------------------------------------------------------------------------
# Algebras with involution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermContext:
    """(M_n(E), ad_h) for a diagonal hermitian form h = <e_1,...,e_n> over F.

    The adjoint involution is sigma = Int(e^{-1}) composed with bar-transpose.
    E must be F, F(sqrt(-1)) or (-1,-1)_F.
    """

    espec: ESpec
    e: tuple[RatFunc, ...]

    def __post_init__(self):
        if self.espec.kind is EKind.QUAT and not self.espec.hamilton:
            raise ValueError("matrix contexts require F, F(sqrt(-1)) or (-1,-1)_F")
        if not self.e:
            raise ValueError("empty form")
        if any(f.is_zero for f in self.e):
            raise ValueError("form entries must be invertible")

    @functools.cached_property
    def ratios(self) -> tuple[tuple[RatFunc, ...], ...]:
        """ratios[i][j] = e_i/e_j, computed once per form."""
        return tuple(tuple(ei / ej for ej in self.e) for ei in self.e)

    @functools.cached_property
    def half_vals(self) -> tuple[GammaVal, ...]:
        """v(e_i)/2, the shifts of the gauge, computed once per form."""
        return tuple(f.val().half() for f in self.e)

    @functools.cached_property
    def definite(self) -> OrderingCoset:
        """The orderings at which h is definite, solved once per form."""
        return common_sign_orderings(self.e)

    @functools.cached_property
    def negated(self) -> "HermContext":
        """The form -h: the same adjoint involution and gauge, built once per
        form, with caches of its own."""
        return HermContext(self.espec, tuple(-f for f in self.e))

    @functools.cached_property
    def residue(self):
        """The residue decomposition of the gauge of h (see
        gauges.residue_decomposition), built once per form."""
        from .gauges import residue_decomposition  # gauges builds on this module
        return residue_decomposition(self)

    @functools.cached_property
    def twist(self):
        """The twisted frame of h (see gauges.twist), built once per form."""
        from .gauges import twist
        return twist(self)

    @property
    def n(self) -> int:
        return len(self.e)

    @property
    def field(self) -> FunctionField:
        return self.espec.field


class Involution(Enum):
    GAMMA = "gamma"
    INT_I_GAMMA = "int_i_gamma"


@dataclass(frozen=True)
class QuatDivSpec:
    """A quaternion algebra (a,b)_F with quaternion conjugation gamma or Int(i) o gamma."""

    a: RatFunc
    b: RatFunc
    inv: Involution

    def __post_init__(self):
        if self.a.is_zero or self.b.is_zero:
            raise ValueError("quaternion parameters must be nonzero")

    @property
    def field(self) -> FunctionField:
        return self.a.field

    @functools.cached_property
    def espec(self) -> ESpec:
        return quat_spec(self.field, self.a, self.b)

    def apply(self, x: EElement) -> EElement:
        # Int(i) fixes 1 and i and negates j and k: iji^-1 = -j, iki^-1 = -k
        g = x.conj()
        if self.inv is Involution.GAMMA:
            return g
        c0, c1, c2, c3 = g.coords
        return EElement(g.spec, (c0, c1, -c2, -c3))


AlgebraSpec = HermContext | QuatDivSpec


@dataclass(frozen=True)
class DiagForm:
    """Diagonal hermitian form <a_1,...,a_m> with invertible entries."""

    entries: tuple[RatFunc, ...]

    def __post_init__(self):
        if any(f.is_zero for f in self.entries):
            raise ValueError("form entries must be invertible")

    def __len__(self):
        return len(self.entries)


def trace_form(spec: AlgebraSpec) -> DiagForm:
    """The trace form (x, y) -> Trd(sigma(x) y) over F, on an orthogonal basis.

    Both presentations have an orthogonal standard F-basis, so the form is
    diagonal in closed form.  On M_n(E) the basis element q E_ij pairs only
    with itself, to e_i/e_j trd(conj(q) q); the entries run over q, then i,
    then j.  On (a,b)_F the basis 1, i, j, k gives trd(sigma(q) q).
    """
    if isinstance(spec, QuatDivSpec):
        return DiagForm(tuple((spec.apply(q) * q).trd() for q in spec.espec.basis()))
    norms = [(q.conj() * q).trd() for q in spec.espec.basis()]
    return DiagForm(tuple(r * t for t in norms for row in spec.ratios for r in row))
