"""Tests for coefficient algebras, the valuation extension, and trace forms."""

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import assume, given, settings, strategies as st

from gaugecones.field import (
    FunctionField,
    GammaVal,
    INF,
    OrderingSpec,
    RatFunc,
    enumerate_orderings,
)
from gaugecones.algebra import (
    DiagForm,
    EElement,
    EKind,
    HermContext,
    IndeterminateNorm,
    Involution,
    QuatDivSpec,
    SpecMismatch,
    base_spec,
    complex_spec,
    hamilton_spec,
    quat_spec,
    trace_form,
    v_E,
)
from gaugecones.matrices import MatE

from test_field import random_element, random_ratfunc


@pytest.fixture
def F2():
    return FunctionField(["x", "y"])


def random_eelement(spec, rng):
    return spec.zero().__class__(
        spec, tuple(random_ratfunc(spec.field, rng) for _ in range(spec.dim))
    )


class TestQuaternionArithmetic:
    def test_defining_relations(self, F2):
        H = hamilton_spec(F2)
        one, i, j, k = H.basis()
        assert i * j == k
        assert j * i == -k
        assert i * i == -one
        assert j * j == -one
        assert k * k == -one
        assert j * k == i
        assert k * i == j

    def test_general_relations(self, F2):
        x, y = F2.vars()
        Q = quat_spec(F2, x, y)
        one, i, j, k = Q.basis()
        assert i * i == one.scale(x)
        assert j * j == one.scale(y)
        assert i * j == k
        assert j * i == -k
        assert k * k == one.scale(-x * y)

    def test_norm_examples(self, F2):
        H = hamilton_spec(F2)
        one, i, j, k = H.basis()
        q = one + i + j + k
        assert q.norm() == F2.from_fraction(4)
        x, y = F2.vars()
        Q = quat_spec(F2, x, y)
        assert Q.basis()[1].norm() == -x

    def test_norm_multiplicative(self, F2):
        rng = random.Random(21)
        x, y = F2.vars()
        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2), quat_spec(F2, x, y)):
            for _ in range(15):
                u, v = random_eelement(spec, rng), random_eelement(spec, rng)
                assert (u * v).norm() == u.norm() * v.norm()

    def test_associativity(self, F2):
        rng = random.Random(22)
        x, y = F2.vars()
        spec = quat_spec(F2, x, y)
        for _ in range(10):
            u, v, w = (random_eelement(spec, rng) for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_conj_antimorphism(self, F2):
        rng = random.Random(23)
        spec = hamilton_spec(F2)
        for _ in range(10):
            u, v = random_eelement(spec, rng), random_eelement(spec, rng)
            assert (u * v).conj() == v.conj() * u.conj()

    def test_inverse(self, F2):
        rng = random.Random(24)
        spec = hamilton_spec(F2)
        one = spec.one()
        for _ in range(10):
            u = random_eelement(spec, rng)
            if u.is_zero:
                continue
            assert u * u.inverse() == one
            assert u.inverse() * u == one

    def test_spec_mismatch(self, F2):
        with pytest.raises(SpecMismatch):
            hamilton_spec(F2).one() + complex_spec(F2).one()


class TestVE:
    def test_complex_example(self):
        F = FunctionField(["x"])
        x = F.var(0)
        C = complex_spec(F)
        from gaugecones.algebra import EElement

        z = EElement(C, (x, x))
        assert v_E(z) == GammaVal([1])

    def test_hamilton_example(self, F2):
        H = hamilton_spec(F2)
        one, i, j, k = H.basis()
        assert v_E(one + i) == GammaVal([0, 0])

    def test_general_quaternion(self, F2):
        x, y = F2.vars()
        Q = quat_spec(F2, x, y)
        one, i, j, k = Q.basis()
        assert v_E(i) == GammaVal([Fraction(1, 2), 0])
        assert v_E(j) == GammaVal([0, Fraction(1, 2)])
        assert v_E(one + i) == GammaVal([0, 0])
        assert v_E(k) == GammaVal([Fraction(1, 2), Fraction(1, 2)])

    def test_zero(self, F2):
        assert v_E(hamilton_spec(F2).zero()) == INF

    def test_indeterminate(self, F2):
        x, y = F2.vars()
        Q = quat_spec(F2, x, x * y ** 2)  # v(a) and v(b) in the same class mod 2
        with pytest.raises(IndeterminateNorm):
            v_E(Q.basis()[1])

    def test_restricts_to_val(self, F2):
        rng = random.Random(25)
        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2)):
            for _ in range(10):
                f = random_ratfunc(F2, rng)
                assert v_E(spec.scalar(f)) == f.val()

    def test_multiplicative(self, F2):
        rng = random.Random(26)
        x, y = F2.vars()
        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2), quat_spec(F2, x, y)):
            for _ in range(15):
                u, v = random_eelement(spec, rng), random_eelement(spec, rng)
                if u.is_zero or v.is_zero:
                    continue
                assert v_E(u * v) == v_E(u) + v_E(v)

    def test_norm_sum_valuation(self, F2):
        # v(sum of norms) = 2 min v_E(x_i): norm leading terms cannot cancel
        rng = random.Random(27)
        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2)):
            for _ in range(20):
                xs = [random_eelement(spec, rng) for _ in range(3)]
                xs = [u for u in xs if not u.is_zero]
                if not xs:
                    continue
                total = xs[0].norm()
                for u in xs[1:]:
                    total = total + u.norm()
                assert total.val() == min(v_E(u) for u in xs).scale(2)


class TestTraceForm:
    def test_quaternion_gamma(self, F2):
        x, y = F2.vars()
        tf = trace_form(QuatDivSpec(x, y, Involution.GAMMA))
        expected = DiagForm((F2.from_fraction(2), -2 * x, -2 * y, 2 * x * y))
        for P in enumerate_orderings(2):
            assert same_square_class_form(tf, expected, P)

    def test_quaternion_int_i_gamma(self, F2):
        x, y = F2.vars()
        tf = trace_form(QuatDivSpec(x, y, Involution.INT_I_GAMMA))
        expected = DiagForm((F2.from_fraction(2), -2 * x, 2 * y, -2 * x * y))
        for P in enumerate_orderings(2):
            assert same_square_class_form(tf, expected, P)

    def test_hamilton_gamma(self, F2):
        m1 = F2.from_fraction(-1)
        tf = trace_form(QuatDivSpec(m1, m1, Involution.GAMMA))
        two = F2.from_fraction(2)
        expected = DiagForm((two, two, two, two))
        for P in enumerate_orderings(2):
            assert same_square_class_form(tf, expected, P)

    def test_matrix_base(self, F2):
        # ad_h trace form on M_n(F) is <e_i / e_j> over all pairs
        x, _ = F2.vars()
        ctx = HermContext(base_spec(F2), (F2.one, x))
        tf = trace_form(ctx)
        expected = DiagForm((F2.one, 1 / x, x, F2.one))
        for P in enumerate_orderings(2):
            assert same_square_class_form(tf, expected, P)


# ---------------------------------------------------------------------------
# Reference trace form: the Gram matrix of Trd(sigma(x) y) on the standard
# basis, built from the definition and diagonalized by congruence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CongruenceResult:
    """D = C^t G C with C invertible; entries of D may include zeros."""

    entries: tuple[RatFunc, ...]
    transform: tuple[tuple[RatFunc, ...], ...]


def diag_congruence(G: Sequence[Sequence[RatFunc]]) -> CongruenceResult:
    """Diagonalize a symmetric matrix over F by congruence, recording the transform."""
    n = len(G)
    if n == 0:
        return CongruenceResult((), ())
    field = G[0][0].field
    A = [list(row) for row in G]
    for i in range(n):
        for j in range(i + 1, n):
            if A[i][j] != A[j][i]:
                raise ValueError("matrix is not symmetric")
    C = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]

    def add_col(dst, src, c):
        # column op A <- A + c * col_src into col_dst, mirrored on rows, tracked in C
        for t in range(n):
            A[t][dst] = A[t][dst] + c * A[t][src]
        for t in range(n):
            A[dst][t] = A[dst][t] + c * A[src][t]
        for t in range(n):
            C[t][dst] = C[t][dst] + c * C[t][src]

    def swap_cols(p, q):
        for t in range(n):
            A[t][p], A[t][q] = A[t][q], A[t][p]
        A[p], A[q] = A[q], A[p]
        for t in range(n):
            C[t][p], C[t][q] = C[t][q], C[t][p]

    for k in range(n):
        if A[k][k].is_zero:
            pivot = next((t for t in range(k + 1, n) if not A[t][t].is_zero), None)
            if pivot is not None:
                swap_cols(k, pivot)
            else:
                off = next(
                    (t for t in range(k + 1, n) if not A[k][t].is_zero), None
                )
                if off is None:
                    continue
                add_col(k, off, field.one)
        d = A[k][k]
        for t in range(k + 1, n):
            if not A[k][t].is_zero:
                add_col(t, k, -A[k][t] / d)
    return CongruenceResult(
        tuple(A[t][t] for t in range(n)),
        tuple(tuple(row) for row in C),
    )


FIELDS = [FunctionField(["x", "y", "z"][:r]) for r in (1, 2, 3)]
SPECS = {"base": base_spec, "complex": complex_spec, "hamilton": hamilton_spec}


def _adjoint(ctx, a):
    """sigma(a) = e^-1 conj(a)^t e for h = <e_1..e_n>; zero entries stay zero."""
    n, e = ctx.n, ctx.e

    def entry(i, j):
        x = a.rows[j][i]
        return x if x.is_zero else x.conj().scale(e[j] / e[i])

    return MatE(ctx.espec, [[entry(i, j) for j in range(n)] for i in range(n)])


def _trd_of_product(a, b):
    """Trd(a b), skipping the zero products of sparse matrices."""
    n = a.n
    acc = a.spec.field.zero
    for i in range(n):
        for k in range(n):
            if not a.rows[i][k].is_zero and not b.rows[k][i].is_zero:
                acc = acc + (a.rows[i][k] * b.rows[k][i]).trd()
    return acc


def reference_trace_form(spec):
    """Diagonal entries of the full Gram matrix, diagonalized by congruence."""
    if isinstance(spec, QuatDivSpec):
        basis = spec.espec.basis()
        i = basis[1]

        def sigma(u):
            g = u.conj()
            return g if spec.inv is Involution.GAMMA else i * g * i.inverse()

        gram = [[(sigma(u) * v).trd() for v in basis] for u in basis]
    else:
        n, E = spec.n, spec.espec
        basis = []
        for q in E.basis():
            for i in range(n):
                for j in range(n):
                    rows = [[E.zero()] * n for _ in range(n)]
                    rows[i][j] = q
                    basis.append(MatE(E, rows))
        adjoints = [_adjoint(spec, u) for u in basis]
        gram = [[_trd_of_product(a, v) for v in basis] for a in adjoints]
    return diag_congruence(gram).entries


@st.composite
def field_elements(draw, F, rational=False):
    """A monomial with a fractional coefficient; with rational, a quotient
    of sums of such monomials that is not itself a monomial."""

    def monomial():
        exps = draw(st.lists(st.integers(-2, 2), min_size=F.r, max_size=F.r))
        num = draw(st.integers(-3, 3).filter(bool))
        return F.monomial(exps, Fraction(num, draw(st.integers(1, 3))))

    if not rational:
        return monomial()
    num = monomial() + monomial() + monomial()
    den = monomial() + monomial()
    assume(not num.is_zero and not den.is_zero)
    f = num / den
    assume(f != F.monomial(*f.leading_term()))
    return f


@st.composite
def hermitian_contexts(draw):
    """(M_n(E), ad_h) with n <= 3 over one to three variables; one entry of
    h is a quotient of polynomials, not a monomial."""
    F = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(sorted(SPECS)))
    e = draw(st.lists(field_elements(F), min_size=0, max_size=2))
    e.insert(draw(st.integers(0, len(e))), draw(field_elements(F, rational=True)))
    return HermContext(SPECS[kind](F), tuple(e))


@st.composite
def quaternion_specs(draw):
    F = draw(st.sampled_from(FIELDS))
    a, b = (draw(field_elements(F, rational=draw(st.booleans()))) for _ in "ab")
    return QuatDivSpec(a, b, draw(st.sampled_from(list(Involution))))


class TestTraceFormOracle:
    @settings(max_examples=30, deadline=None)
    @given(ctx=hermitian_contexts())
    def test_matrix_closed_form(self, ctx):
        assert trace_form(ctx).entries == reference_trace_form(ctx)

    @settings(max_examples=30, deadline=None)
    @given(spec=quaternion_specs())
    def test_quaternion_closed_form(self, spec):
        assert trace_form(spec).entries == reference_trace_form(spec)


def reference_product(x, y):
    """The explicit product formulas of F, F(sqrt(-1)) and (a,b)_F, kept as
    the reference for the structure-constant product."""
    spec = x.spec
    if spec.kind is EKind.BASE:
        return (x.coords[0] * y.coords[0],)
    if spec.kind is EKind.COMPLEX:
        x0, x1 = x.coords
        y0, y1 = y.coords
        return (x0 * y0 - x1 * y1, x0 * y1 + x1 * y0)
    a, b = spec.a, spec.b
    x0, x1, x2, x3 = x.coords
    y0, y1, y2, y3 = y.coords
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


@st.composite
def coefficient_algebras(draw):
    """F, F(sqrt(-1)), (-1,-1)_F, or (a,b)_F with a and b drawn as monomials,
    non-monomial quotients, or (x+1, -y^3/2)."""
    F = draw(st.sampled_from(FIELDS[1:]))
    kind = draw(st.sampled_from(["base", "complex", "hamilton", "quat", "quat_fixed"]))
    if kind in SPECS:
        return SPECS[kind](F)
    x, y = F.vars()[:2]
    if kind == "quat_fixed":
        return quat_spec(F, x + 1, -(y ** 3) / 2)
    a, b = (draw(field_elements(F, rational=draw(st.booleans()))) for _ in "ab")
    return quat_spec(F, a, b)


@st.composite
def algebra_elements(draw, spec):
    """Sparse or dense coordinates: each one zero, a monomial, or a quotient."""
    z = spec.field.zero
    kinds = st.sampled_from(["zero", "monomial", "rational"])

    def coordinate(kind):
        if kind == "zero":
            return z
        return draw(field_elements(spec.field, rational=kind == "rational"))

    return EElement(spec, tuple(coordinate(draw(kinds)) for _ in range(spec.dim)))


class TestProductOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_explicit_formula(self, data):
        spec = data.draw(coefficient_algebras())
        x, y = data.draw(algebra_elements(spec)), data.draw(algebra_elements(spec))
        assert (x * y).coords == reference_product(x, y)

    def test_every_basis_product(self, F2):
        x, y = F2.vars()
        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2),
                     quat_spec(F2, x + 1, -(y ** 3) / 2)):
            for u in spec.basis():
                for v in spec.basis():
                    assert (u * v).coords == reference_product(u, v)


class TestDiagCongruence:
    def test_hyperbolic(self, F2):
        z, o = F2.zero, F2.one
        res = diag_congruence([[z, o], [o, z]])
        P = OrderingSpec((1, 1))
        assert sorted(f.sign_at(P) for f in res.entries) == [-1, 1]

    def test_identity(self, F2):
        o, z = F2.one, F2.zero
        res = diag_congruence([[o, z], [z, o]])
        assert res.entries == (o, o)

    def test_hand_example(self, F2):
        o = F2.one
        res = diag_congruence([[o, o], [o, 2 * o]])
        P = OrderingSpec((1, 1))
        assert all(f.sign_at(P) == 1 for f in res.entries)
        assert all(f.val() == GammaVal([0, 0]) for f in res.entries)

    def test_congruence_exact(self, F2):
        rng = random.Random(28)
        for _ in range(15):
            n = rng.randint(1, 4)
            M = [[random_element(F2, rng, nterms=2, maxdeg=2, height=4) for _ in range(n)] for _ in range(n)]
            G = [[M[i][j] + M[j][i] for j in range(n)] for i in range(n)]
            res = diag_congruence(G)
            C = res.transform
            D = [
                [
                    sum((C[s][i] * G[s][t] * C[t][j] for s in range(n) for t in range(n)), F2.zero)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            for i in range(n):
                for j in range(n):
                    expected = res.entries[i] if i == j else F2.zero
                    assert D[i][j] == expected


def same_square_class_form(d1: DiagForm, d2: DiagForm, P: OrderingSpec) -> bool:
    """Whether the forms match entrywise up to squares, at the ordering P:
    the oracle for trace forms.  At a fixed compatible ordering, an entry is
    determined up to squares by its sign at P and its valuation class mod
    twice the value group."""
    if len(d1) != len(d2):
        raise ValueError(f"ranks {len(d1)} and {len(d2)}")

    def classes(d: DiagForm) -> Counter:
        return Counter((f.sign_at(P), f.val().mod_group(2)) for f in d.entries)

    return classes(d1) == classes(d2)


class TestSquareClassForm:
    def test_examples(self, F2):
        x, _ = F2.vars()
        for P in enumerate_orderings(2):
            assert same_square_class_form(DiagForm((x,)), DiagForm((4 * x,)), P)
            assert same_square_class_form(DiagForm((x,)), DiagForm((x ** 3,)), P)
        plus = OrderingSpec((1, 1))
        assert not same_square_class_form(DiagForm((x,)), DiagForm((-x,)), plus)

    def test_length_mismatch(self, F2):
        with pytest.raises(ValueError, match="ranks 1 and 2"):
            same_square_class_form(DiagForm((F2.one,)), DiagForm((F2.one, F2.one)), OrderingSpec((1, 1)))
