"""Positive cones on matrix algebras with involution, and their liftings.

A positive cone over a compatible ordering P is described intensionally: for
(M_n(E), ad_h) with h definite at P, the unique cone containing 1 consists of
the ad_h-symmetric matrices whose Gram twist diag(e) a is positive
semidefinite at P.  The cone and the gauge of h come from the same data
(h, P), so one gauges.GaugeContext stands for both; building it on a form
indefinite at P raises IndefiniteForm.  The module provides membership, cone
sampling, the prepositive-cone and gauge-compatibility property suites,
residue cones, Baer-Krull lifting reports with the Harrison characterization,
nil-ordering computation for quaternion algebras, and strong-anisotropy
certificates.

The two property suites run in the twisted frame t(a) = diag(e') a, with
e' = d^2 e and d the lcm of the denominators of the form e (gauges.Twist).
In that frame sigma is never evaluated and nothing is divided:

    t(sigma(x) s x) = x* t(s) x,   t(sigma(x)) = x* diag(e'),   t(1) = diag(e'),

x* the bar-transpose; a is a member exactly when t(a) is hermitian and
positive semidefinite at P, since d^2 > 0 at every ordering; and the gauge
is the closed form w(a) = min over i,j of v(t_ij) - v(e'_i)/2 - v(e'_j)/2.
So one path serves every form, monomial or not.  Each matrix t(a) is a
matrices.KeyedMat, integer Laurent term lists over one positive
denominator, which changes neither membership nor w.  The draws take the
same values from the generator as random_matrix and sample_cone, so a
suite's report is the one the MatE path gives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Optional, Sequence

from .field import (
    FieldError,
    FunctionField,
    GammaVal,
    OrderingCoset,
    OrderingSpec,
    RatFunc,
    common_sign_orderings,
    enumerate_orderings,
    solve_sign_system,
)
from .algebra import (
    AlgebraSpec,
    EElement,
    ESpec,
    HermContext,
    Involution,
    QuatDivSpec,
    trace_form,
)
from .matrices import KeyedMat, MatE, NotHermitian, psd_at
from .gauges import (
    GaugeContext,
    adjoint,
    coset_index,
    square_classes,
    twisted_gauge_value,
)


class UnsupportedVariant(FieldError):
    """Operation is only defined for quaternion division presentations."""


# The cone of a form definite at an ordering is fixed by the same data as its
# gauge, so one GaugeContext stands for both.  The name stays because the
# benchmark in perfbench/ builds cones as cones.ConeSpec(ctx, P).
ConeSpec = GaugeContext


def cone_member(a: MatE, G: GaugeContext) -> bool:
    """Membership in the positive cone: ad_h-symmetric with a positive
    semidefinite Gram twist at the ordering.  The twist is hermitian exactly
    when a is ad_h-symmetric (e_i a_ij = conj(a_ji) e_j), so psd_at's
    hermitian test is the symmetry test."""
    try:
        return psd_at(G.gram_twist(a), G.P)
    except NotHermitian:
        return False


def _twisted_member(t: KeyedMat, G: GaugeContext) -> bool:
    """cone_member of a, given t(a) (see the module docstring)."""
    try:
        return t.psd_at(G.P)
    except NotHermitian:
        return False


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

_MAXDEG, _HEIGHT = 2, 6     # default draws: exponents 0.._MAXDEG, |coefficients| <= _HEIGHT


def random_positive_scalar(F: FunctionField, P: OrderingSpec, rng: random.Random,
                           maxdeg: int = _MAXDEG, height: int = _HEIGHT) -> RatFunc:
    """A monomial that is positive at P, with a random valuation."""
    exps = [rng.randint(0, maxdeg) for _ in range(F.r)]
    c = Fraction(rng.randint(1, height), rng.randint(1, 3))
    u = F.monomial(exps, c)
    if u.sign_at(P) < 0:
        u = -u
    return u


def _draw(r: int, dim: int, n: int, rng: random.Random, maxdeg: int, height: int):
    """The n x n rows of a sparse random matrix with monomial coordinates,
    each None for zero or (exponents, integer coefficient)."""

    def coord():
        if rng.random() < 0.5:
            return None
        exps = [rng.randint(0, maxdeg) for _ in range(r)]
        return exps, rng.randint(-height, height) or 1

    return [[tuple([coord() for _ in range(dim)]) for _ in range(n)] for _ in range(n)]


def random_matrix(spec: ESpec, n: int, rng: random.Random,
                  maxdeg: int = _MAXDEG, height: int = _HEIGHT) -> MatE:
    """Sparse random matrix with monomial entries."""
    F = spec.field
    return MatE(spec, [[EElement(spec, tuple([F.zero if c is None else F.monomial(*c)
                                               for c in q])) for q in r]
                       for r in _draw(F.r, spec.dim, n, rng, maxdeg, height)])


def _random_keyed(spec: ESpec, n: int, rng: random.Random) -> KeyedMat:
    """random_matrix with its default draw, drawn alike from rng, as a
    KeyedMat."""
    pack = spec.field.laurent.pack
    return KeyedMat(spec, [[tuple([[] if c is None else pack([c]) for c in q]) for q in r]
                           for r in _draw(spec.field.r, spec.dim, n, rng, _MAXDEG, _HEIGHT)],
                    1, _MAXDEG)


def _sample(G: GaugeContext, S, count: int, rng: random.Random, draw, sandwich) -> list:
    """count sums of u_i sandwich(x_i, s_i), x_i = draw(G.espec, G.n, rng),
    u_i positive at P and s_i drawn from S: cone members in the frame of
    draw and sandwich."""
    out = []
    for _ in range(count):
        acc = None
        for _ in range(rng.randint(1, 2)):
            u = random_positive_scalar(G.field, G.P, rng)
            x = draw(G.espec, G.n, rng)
            s = S[rng.randrange(len(S))]
            term = sandwich(x, s).scale(u)
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def sample_cone(G: GaugeContext, S: Optional[Sequence[MatE]] = None,
                count: int = 1, rng: Optional[random.Random] = None) -> list[MatE]:
    """Random cone members: sums of u_i sigma(x_i) s_i x_i with u_i positive
    at P and s_i drawn from the generating members S (default {1})."""
    S = [MatE.identity(G.espec, G.n)] if S is None else S
    return _sample(G, S, count, rng or random.Random(0), random_matrix,
                   lambda x, s: G.sigma(x) * s * x)


def _sample_twisted(G: GaugeContext, count: int, rng: random.Random) -> list[KeyedMat]:
    """sample_cone in the twisted frame, drawn alike from rng: t(sigma(x) x)
    = x* t(1) x."""
    return _sample(G, [G.ctx.twist.one], count, rng, _random_keyed,
                   lambda x, s: x.star() * s * x)


def _scale_into_ring(w: GammaVal, F: FunctionField, strict: bool = False) -> RatFunc:
    """A square scalar u with u*a in the gauge ring (ideal when strict) for
    any a of gauge value w; multiply the caller's related elements by the
    same u.  Over Q (r = 0) the valuation is trivial and its ideal is {0},
    which only u = 0 scales into."""
    if w.is_inf:
        return F.one
    if strict and not F.r:
        return F.zero
    exps = [math.ceil(Fraction(-c, 2)) + (1 if strict else 0) for c in w.coords]
    m = F.monomial(exps)
    return m * m


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------

@dataclass
class ConditionResult:
    tried: int = 0
    violations: list = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CompatReport:
    seed: int
    conditions: dict[str, ConditionResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions.values())

    def check(self, name: str, cond: bool, witness) -> None:
        """Tally one try of a condition, keeping the witness when it fails."""
        res = self.conditions[name]
        res.tried += 1
        if not cond:
            res.violations.append(witness)


def check_prepositive_axioms(G: GaugeContext, samples: int = 50,
                             seed: int = 0) -> CompatReport:
    """Sampled verification of the prepositive-cone axioms: 0 and 1 belong,
    closure under addition and under sigma(x) . x sandwiches, stability under
    positive scalars, and properness.  Runs in the twisted frame."""
    rng = random.Random(seed)
    names = ("zero_one", "addition", "sandwich", "scalar", "proper")
    report = CompatReport(seed, {k: ConditionResult() for k in names})
    check = report.check
    one = G.ctx.twist.one
    check("zero_one", _twisted_member(one.scale(G.field.zero), G), "0")
    check("zero_one", _twisted_member(one, G), "1")
    for k in range(samples):
        a, b = _sample_twisted(G, 2, rng)
        check("addition", _twisted_member(a + b, G), (k, "a+b"))
        x = _random_keyed(G.espec, G.n, rng)
        check("sandwich", _twisted_member(x.star() * a * x, G), (k, "sigma(x) a x"))
        u = random_positive_scalar(G.field, G.P, rng)
        check("scalar", _twisted_member(a.scale(u), G), (k, "u a"))
        if not a.is_zero:
            check("proper", not _twisted_member(-a, G), (k, "-a"))
    return report


def compatibility_suite(G: GaugeContext, sample_count: int = 200,
                        seed: int = 0) -> CompatReport:
    """The gauge-compatibility conditions of the gauge and its cone, plus the
    perturbation property for elements with invertible residue.

    C0: the gauge of a sum of members is the minimum of the gauges.
    C1: 0 <= a <= b implies w(b) <= w(a).
    C2/C3: sandwiched members inherit gauge-ring / gauge-ideal membership.
    C4: a member difference sandwiched in the ideal lies in the ideal.
    C5: the residue cone satisfies the prepositive-cone axioms.
    C6: a member of the ideal is strictly below 1.
    C7: 1 plus a symmetric element of the ideal is a member.
    complicated: a member with invertible residue stays a member under
    perturbation by a symmetric element of the ideal.

    Runs in the twisted frame; a scaling that only enters a gauge value is
    the closed form w(u a) = v(u) + w(a).
    """
    rng = random.Random(seed)
    F = G.field
    names = ["C0", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "complicated"]
    report = CompatReport(seed, {k: ConditionResult() for k in names})
    check = report.check
    one = G.ctx.twist.one
    zero = GammaVal.zero(F.r)

    def w(t: KeyedMat) -> GammaVal:
        return twisted_gauge_value(t, G)

    for k in range(sample_count):
        a, c = _sample_twisted(G, 2, rng)
        b = a + c
        wa, wb = w(a), w(b)

        # C0: w(a + c) = min(w(a), w(c)) on members
        check("C0", wb == min(wa, w(c)), (k, "C0"))

        # C1: 0 <= a <= b gives w(b) <= w(a)
        if not a.is_zero:
            check("C1", not wa < wb, (k, "C1"))

        # C2: scale the sandwich into the ring, membership of the bound
        # forces membership of the inner element
        vu = _scale_into_ring(wb, F).val()
        check("C2", not (wa + vu < zero or wb + vu < zero), (k, "C2"))

        # C3: same with the ideal
        vu = _scale_into_ring(wb, F, strict=True).val()
        check("C3", wa + vu > zero and wb + vu > zero, (k, "C3"))

        # C4: difference of ideal members is sandwiched: -(a+c) <= a-c <= a+c,
        # scaled by the same u
        check("C4", w(a - c) + vu > zero, (k, "C4"))

        # C6: member of the ideal is strictly below 1
        m = a.scale(_scale_into_ring(wa, F, strict=True))
        below = one - m
        check("C6", _twisted_member(below, G) and not below.is_zero, (k, "C6"))

        # C7: 1 + symmetric ideal element is a member; t(sigma(x) + x) =
        # x* t(1) + t(1) x
        x = _random_keyed(G.espec, G.n, rng)
        s = x.star() * one + one * x
        s = s.scale(_scale_into_ring(w(s), F, strict=True))
        check("C7", _twisted_member(one + s, G), (k, "C7"))

        # perturbation of a member with invertible residue: m lies in the
        # ideal, so the residue of u0 + m is u0 I in every block, invertible
        u0 = random_positive_scalar(F, G.P, rng, maxdeg=0)
        cmat = one.scale(u0) + m
        check("complicated", _twisted_member(cmat + s, G), (k, "complicated"))

    # C5: the residue cone is a prepositive cone on the residue algebra
    c5 = report.conditions["C5"]
    rc = residue_cone(G)
    for block in rc.block_specs:
        rep = check_prepositive_axioms(block, samples=sample_count, seed=seed + 1)
        c5.tried += sum(r.tried for r in rep.conditions.values())
        for r in rep.conditions.values():
            c5.violations.extend(r.violations)
    return report


# ---------------------------------------------------------------------------
# Residue cones
# ---------------------------------------------------------------------------

@dataclass
class ResidueCone:
    """The residue cone, blockwise: the positive cone of each residue block
    form over the unique ordering of the residue field."""

    cone: GaugeContext
    block_specs: tuple[GaugeContext, ...]

    def member(self, blocks: Sequence[MatE]) -> bool:
        return all(cone_member(b, G) for b, G in zip(blocks, self.block_specs))

    def lift(self, blocks: Sequence[MatE]) -> MatE:
        """The monomial preimage of a residue element, undoing the gauge shift."""
        G = self.cone
        F = G.field
        out = [[G.espec.zero() for _ in range(G.n)] for _ in range(G.n)]
        for block, mat in zip(G.residue.blocks, blocks):
            for s, i in enumerate(block.indices):
                for t, j in enumerate(block.indices):
                    mono = G.shift_monomial(j, i)
                    coords = tuple(
                        F.from_fraction(c.as_fraction()) * mono
                        for c in mat.rows[s][t].coords
                    )
                    out[i][j] = EElement(G.espec, coords)
        return MatE(G.espec, out)


def residue_cone(G: GaugeContext) -> ResidueCone:
    dec = G.residue
    P0 = OrderingSpec(())
    F0 = dec.residue_espec.field
    specs = []
    for block in dec.blocks:
        h = tuple(F0.from_fraction(q) for q in block.residue_form)
        specs.append(GaugeContext(HermContext(dec.residue_espec, h), P0))
    return ResidueCone(G, tuple(specs))


# ---------------------------------------------------------------------------
# Baer-Krull lifting
# ---------------------------------------------------------------------------

def lift_exists(spec: AlgebraSpec, P: OrderingSpec) -> bool:
    """Whether the residue cone lifts over P, read from the solved set of
    liftable orderings."""
    return P in liftable_orderings(spec)


def liftable_orderings(spec: AlgebraSpec) -> OrderingCoset:
    """The orderings over which the residue cone lifts: those where the trace
    form of the algebra with involution is definite.

    On (M_n(E), ad_h) the trace form is <positive constants> (x) h (x) h^-1,
    definite at P iff the entries e_i of h share a sign there.
    """
    if isinstance(spec, HermContext):
        return spec.definite
    return common_sign_orderings(trace_form(spec).entries)


@dataclass
class LiftReport:
    trace_entries: tuple[RatFunc, ...]
    epsilons: tuple[int, ...]  # per valuation class; 0 marks a mixed class
    harrison_generators: tuple[RatFunc, ...]
    lifting: OrderingCoset  # the liftable orderings
    harrison: OrderingCoset  # the Harrison set of the generators

    @property
    def liftable(self) -> tuple[OrderingSpec, ...]:
        return tuple(self.lifting)

    @property
    def harrison_matches(self) -> bool:
        return self.lifting == self.harrison


def lift_set(spec: AlgebraSpec) -> LiftReport:
    """The liftable orderings, with the Harrison-set cross-characterization.

    Trace-form entries are grouped by valuation class mod twice the value
    group; a class is assigned the common sign of its leading coefficients
    (mixed classes admit no lifting at all).  An ordering is liftable iff
    sign(epsilon_l) eta(rho_l) is constant over the classes, i.e. iff it lies
    in the Harrison set of the epsilon_l rho_l or of their negatives.  Both
    sets are solved as sign systems, and compared in canonical form.
    """
    tf = trace_form(spec)
    F = spec.field
    epsilons = []
    generators = []
    for cls, idx in square_classes(tf.entries).items():
        signs = {1 if tf.entries[i].leading_term()[1] > 0 else -1 for i in idx}
        if len(signs) != 1:
            epsilons.append(0)
            continue
        eps = signs.pop()
        epsilons.append(eps)
        generators.append(F.monomial(cls.coords, eps))
    if 0 in epsilons:
        harrison = OrderingCoset(F.r, None)
    else:
        harrison = common_sign_orderings(generators)
    return LiftReport(tf.entries, tuple(epsilons), tuple(generators),
                      liftable_orderings(spec), harrison)


@dataclass
class WadthResult:
    all_lift: bool
    coset_index_one: bool
    lift_count: int


def wadth_check(spec: AlgebraSpec) -> WadthResult:
    """Every ordering lifts iff the gauge value set is the base value group,
    in which case the number of liftings is the full count of orderings."""
    lift_count = liftable_orderings(spec).count
    if isinstance(spec, HermContext):
        index_one = coset_index(spec) == 1
    else:
        va, vb = spec.a.val(), spec.b.val()
        zero = GammaVal.zero(spec.field.r)
        index_one = va.mod_group(2) == zero and vb.mod_group(2) == zero
    return WadthResult(lift_count == 1 << spec.field.r, index_one, lift_count)


@dataclass
class NilReport:
    division: OrderingCoset  # the orderings where a and b are both negative
    complement: bool  # the nil orderings are those outside division

    @property
    def count(self) -> int:
        if self.complement:
            return (1 << self.division.r) - self.division.count
        return self.division.count

    @property
    def nil(self) -> tuple[OrderingSpec, ...]:
        if not self.complement:
            return tuple(self.division)
        return tuple(P for P in enumerate_orderings(self.division.r)
                     if P not in self.division)


def nil_orderings(spec) -> NilReport:
    """Orderings admitting no positive cone on a quaternion algebra.

    For quaternion conjugation (symplectic) these are the orderings where
    (a,b) splits; for Int(i) composed with conjugation (orthogonal) the
    orderings where (a,b) stays division, i.e. where a and b are both
    negative: the sign system <a_f, t> = 1 + s_f for f = a, b.
    """
    if not isinstance(spec, QuatDivSpec):
        raise UnsupportedVariant("nil orderings are computed for quaternion algebras")
    division = solve_sign_system(
        spec.field.r, ((a, 1 ^ s) for a, s in (spec.a.sign_character(),
                                                  spec.b.sign_character())))
    return NilReport(division, spec.inv is Involution.GAMMA)


# ---------------------------------------------------------------------------
# Anisotropy certificates
# ---------------------------------------------------------------------------

@dataclass
class AnisotropyResult:
    status: str  # "CERTIFIED" or "UNKNOWN"
    falsifier: Optional[tuple] = None


def anisotropy_certificate(coeffs: Sequence[RatFunc], ctx: HermContext,
                           P: OrderingSpec, multiplier: int = 2,
                           seed: int = 0, attempts: int = 200) -> AnisotropyResult:
    """Certificate of strong anisotropy for the diagonal hermitian form with
    the given coefficients over (M_n(E), ad_h).

    CERTIFIED when the sufficient hypotheses hold: all coefficients strictly
    positive at P and either of unit valuation (residues positive) or with a
    gauge value set equal to the base value group.  Otherwise UNKNOWN, with a
    refutation search over bounded-height isotropy witnesses; a found
    witness is returned and disproves anisotropy.
    """
    rng = random.Random(seed)
    F = ctx.field
    zero = GammaVal.zero(F.r)
    positive = all(f.sign_at(P) == 1 for f in coeffs)
    units = all(f.val() == zero for f in coeffs)
    certified = positive and (units or coset_index(ctx) == 1)

    witness = _isotropy_falsifier(coeffs, ctx, P, rng, attempts, multiplier)
    if certified:
        if witness is not None:
            raise FieldError("certificate contradicted by an isotropy witness")
        return AnisotropyResult("CERTIFIED")
    return AnisotropyResult("UNKNOWN", witness)


def _isotropy_falsifier(coeffs, ctx, P, rng, attempts, multiplier):
    """Search for x_i, not all zero, with sum sigma(x_i) a_i x_i = 0."""
    spec = ctx.espec
    n = ctx.n
    ell = len(coeffs)
    pool = [Fraction(q) for q in (1, -1, 2, -2, Fraction(1, 2))]

    def total(xs):
        acc = MatE.zeros(spec, n)
        for f, x in zip(coeffs, xs):
            acc = acc + (adjoint(x, ctx) * x).scale(f)
        return acc

    # structured attempts: two-coordinate scalar witnesses t^2 a_i = -a_j
    for i in range(ell):
        for j in range(i + 1, ell):
            for t in pool:
                if (coeffs[i] * t * t + coeffs[j]).is_zero:
                    xs = [MatE.zeros(spec, n) for _ in range(ell)]
                    xs[i] = MatE.identity(spec, n).scale(coeffs[i].field.from_fraction(t))
                    xs[j] = MatE.identity(spec, n)
                    if total(xs).is_zero:
                        return tuple(xs)
    # random attempts
    for _ in range(attempts):
        xs = []
        nonzero = False
        for _ in range(ell):
            if rng.random() < 0.4:
                xs.append(MatE.zeros(spec, n))
            else:
                x = random_matrix(spec, n, rng, maxdeg=multiplier, height=4)
                nonzero = nonzero or not x.is_zero
                xs.append(x)
        if nonzero and total(xs).is_zero:
            return tuple(xs)
    return None
