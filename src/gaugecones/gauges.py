"""Gauges on matrix algebras with involution.

For (M_n(E), ad_h) with h = <e_1,...,e_n> definite at a compatible ordering,
the associated gauge is w(a) = min over i,j of v_E(a_ij) + (v(e_i)-v(e_j))/2.
This module computes gauge values, the gauge ring and ideal, the value set as
a union of cosets of the base value group, the residue algebra decomposition
with its residue forms, eigenvalue valuations, and the stable subgroup test
w(a^{-1}) = -w(a).  The adjoint involution itself is a module function, as
it needs only the form, not its definiteness.  The property suites of the
cones module read gauge values in the twisted frame of a form (Twist,
twisted_gauge_value).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .field import (
    FieldError,
    FunctionField,
    GammaVal,
    OrderingSpec,
    RatFunc,
    newton_root_valuations,
)
from .algebra import EElement, EKind, ESpec, HermContext, hamilton_spec, v_E
from .matrices import DimensionMismatch, KeyedMat, MatE, Singular, reduced_charpoly


class IndefiniteForm(FieldError):
    """The diagonal form is not definite at the ordering."""


class NotSymmetric(FieldError):
    """Operation requires an ad_h-symmetric element."""


class NotInRing(FieldError):
    """Residue requested for an element outside the gauge ring."""


class GaugeContext:
    """A gauge on (M_n(E), ad_h) at a compatible ordering, and the positive
    cone containing 1 over it (see the cones module).

    The form must be definite at P, that is P must lie in the form's cached
    set of definite orderings; if every entry is negative the context
    stores the negated form (same adjoint involution, same gauge) and records
    normalized_sign = -1.  residue is the residue decomposition; it and the
    shifts v(e_i)/2 are read from the form's caches, so the gauges of one
    form at many orderings share them.
    """

    __slots__ = ("ctx", "P", "normalized_sign", "residue")

    def __init__(self, ctx: HermContext, P: OrderingSpec):
        if P not in ctx.definite:
            raise IndefiniteForm("form entries must share a strict sign at P")
        self.normalized_sign = ctx.e[0].sign_at(P)
        if self.normalized_sign < 0:
            ctx = ctx.negated
        self.ctx = ctx
        self.P = P
        self.residue = ctx.residue

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def espec(self) -> ESpec:
        return self.ctx.espec

    @property
    def field(self) -> FunctionField:
        return self.ctx.field

    def shift_monomial(self, i: int, j: int) -> RatFunc:
        """The gauge shift x^((v(e_i) - v(e_j))/2) between two indices of one
        residue block, where the exponent is integral."""
        hv = self.ctx.half_vals
        d = hv[i] - hv[j]
        return self.field.monomial([int(c) for c in d.coords])

    def sigma(self, a: MatE) -> MatE:
        self._check_size(a)
        return adjoint(a, self.ctx)

    def is_symmetric(self, a: MatE) -> bool:
        return self.sigma(a) == a

    def gram_twist(self, a: MatE) -> MatE:
        """diag(e) * a; hermitian exactly when a is ad_h-symmetric."""
        self._check_size(a)
        return MatE(
            self.espec,
            [[x.scale(self.ctx.e[i]) for x in row] for i, row in enumerate(a.rows)],
        )

    def _check_size(self, a: MatE):
        if a.n != self.n or a.m != self.n:
            raise DimensionMismatch(f"expected a {self.n}x{self.n} matrix")


def adjoint(a: MatE, ctx: HermContext) -> MatE:
    """The adjoint involution of (M_n(E), ad_h), Int(e^{-1}) composed with
    bar-transpose: sigma(a)_ij = conj(a_ji) e_j/e_i."""
    n, ratios = ctx.n, ctx.ratios
    return MatE(ctx.espec, [
        [a.rows[j][i].conj().scale(ratios[j][i]) for j in range(n)]
        for i in range(n)
    ])


def gauge_value(a: MatE, G: GaugeContext) -> GammaVal:
    """w(a) = min over i,j of v_E(a_ij) + (v(e_i) - v(e_j))/2; INF iff a = 0."""
    G._check_size(a)
    best = GammaVal.infinity()
    hv = G.ctx.half_vals
    for i in range(G.n):
        for j in range(G.n):
            x = a.rows[i][j]
            if x.is_zero:
                continue
            cand = v_E(x) + hv[i] - hv[j]
            if cand < best:
                best = cand
    return best


class Twist(NamedTuple):
    """The twisted frame t(a) = diag(e') a of a form e, with e' = d^2 e and d
    the lcm of e's denominators (FunctionField.clear_denominators): one is
    t(1) = diag(e'), and shifts[i][j] the exponents of v(e'_i) + v(e'_j)."""

    one: KeyedMat
    shifts: tuple[tuple[tuple[int, ...], ...], ...]


def twist(ctx: HermContext) -> Twist:
    """The twisted frame of ctx's form; HermContext.twist holds it."""
    d, _ = ctx.field.clear_denominators(ctx.e)
    e2 = [d * d * f for f in ctx.e]
    vals = [f.val().coords for f in e2]
    _, one = KeyedMat.cleared(MatE.diagonal(ctx.espec, e2))  # e' has no denominators
    return Twist(one, tuple(tuple(tuple(map(operator.add, vi, vj)) for vj in vals)
                            for vi in vals))


def twisted_gauge_value(t: KeyedMat, G: GaugeContext) -> GammaVal:
    """w(a) from t = t(a) in the closed form min over i,j of v(t_ij) -
    v(e'_i)/2 - v(e'_j)/2: v(t_ij) is the entry's least exponent vector
    (KeyedMat.least_exponents); INF iff t = 0."""
    shifts = G.ctx.twist.shifts
    best = min([tuple([2 * a - s for a, s in zip(v, shifts[i][j])])
                for i, row in enumerate(t.least_exponents())
                for j, v in enumerate(row) if v is not None], default=None)
    return GammaVal.infinity() if best is None else GammaVal([Fraction(c, 2) for c in best])


def in_gauge_ring(a: MatE, G: GaugeContext) -> bool:
    return not gauge_value(a, G) < GammaVal.zero(G.field.r)


def in_gauge_ideal(a: MatE, G: GaugeContext) -> bool:
    return gauge_value(a, G) > GammaVal.zero(G.field.r)


def value_coset_set(ctx: HermContext) -> frozenset[GammaVal]:
    """The value set of the gauge as a union of cosets of the value group, by
    canonical representatives with coordinates in [0, 1): the classes of
    (v(e_i) - v(e_j))/2.  It depends on the form alone, not on the ordering."""
    hv = ctx.half_vals
    return frozenset((a - b).mod_group(1) for a in hv for b in hv)


def coset_index(ctx: HermContext) -> int:
    return len(value_coset_set(ctx))


def square_classes(entries: Sequence[RatFunc]) -> dict[GammaVal, list[int]]:
    """Indices of the entries grouped by valuation class mod twice the value
    group, the classes in order of first appearance."""
    groups: dict[GammaVal, list[int]] = {}
    for i, f in enumerate(entries):
        groups.setdefault(f.val().mod_group(2), []).append(i)
    return groups


@dataclass(frozen=True)
class ResidueBlock:
    class_rep: GammaVal  # valuation class mod twice the value group
    indices: tuple[int, ...]
    residue_form: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ResidueDecomposition:
    """The residue algebra of the gauge ring: a product of matrix blocks over
    the residue coefficient algebra E0, one per valuation class of the form."""

    blocks: tuple[ResidueBlock, ...]
    residue_espec: ESpec


@functools.cache
def _residue_espec(kind: EKind) -> ESpec:
    """The residue coefficient algebra over Q, one per kind of E."""
    F0 = FunctionField([])
    return hamilton_spec(F0) if kind is EKind.QUAT else ESpec(kind, F0)


def residue_decomposition(ctx: HermContext) -> ResidueDecomposition:
    """Group form indices by valuation class mod twice the value group; the
    residue form of a block collects the leading coefficients of its entries.
    It depends on the form alone; HermContext.residue holds it."""
    e = ctx.e
    blocks = tuple(
        ResidueBlock(cls, tuple(idx), tuple(e[i].leading_term()[1] for i in idx))
        for cls, idx in square_classes(e).items()
    )
    return ResidueDecomposition(blocks, _residue_espec(ctx.espec.kind))


def is_dubrovin(G: GaugeContext) -> bool:
    """Whether the gauge ring has a single residue block."""
    return len(G.residue.blocks) == 1


def residue_element(a: MatE, G: GaugeContext) -> list[MatE]:
    """Image of a gauge-ring element in the residue algebra, one matrix per block.

    Within a block, the (s, t) entry is the residue of a_ij times the monomial
    of exponent (v(e_i) - v(e_j))/2, the same shift that enters the gauge
    value; entries across blocks vanish.
    """
    if not in_gauge_ring(a, G):
        raise NotInRing("element has negative gauge value")
    dec = G.residue
    E0 = dec.residue_espec
    F0 = E0.field
    out = []
    for block in dec.blocks:
        rows = []
        for i in block.indices:
            row = []
            for j in block.indices:
                mono = G.shift_monomial(i, j)
                row.append(EElement(E0, tuple(
                    F0.from_fraction((c * mono).residue()) for c in a.rows[i][j].coords
                )))
            rows.append(row)
        out.append(MatE(E0, rows))
    return out


def eigen_valuations(b: MatE, G: GaugeContext) -> list[GammaVal]:
    """Valuations of the eigenvalues of an ad_h-symmetric matrix.

    Computed from the Newton polygon of the reduced characteristic polynomial;
    similarity invariance makes the symmetrized model unnecessary.  The
    minimum equals the gauge value.
    """
    if not G.is_symmetric(b):
        raise NotSymmetric("matrix is not ad_h-symmetric")
    return newton_root_valuations(reduced_charpoly(b))


def in_st(a: MatE, G: GaugeContext) -> bool:
    """Whether w(a^{-1}) = -w(a), tested via the eigenvalue valuations of
    sigma(a) a, which must all coincide.  sigma(a) a is singular iff a is,
    so a zero constant term of its reduced charpoly raises Singular."""
    p = reduced_charpoly(G.sigma(a) * a)
    if p.coeffs[0].is_zero:
        raise Singular("matrix is not invertible")
    vals = newton_root_valuations(p)
    return all(v == vals[0] for v in vals)
