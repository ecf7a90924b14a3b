"""Tests for gauge values, value cosets, residue algebras, and eigenvalue
valuations on matrix algebras with involution."""

import random
from fractions import Fraction

import pytest

from gaugecones.field import (
    FunctionField,
    GammaVal,
    INF,
    OrderingSpec,
    enumerate_orderings,
    newton_root_valuations,
)
from gaugecones.algebra import (
    EElement,
    HermContext,
    base_spec,
    complex_spec,
    hamilton_spec,
    quat_spec,
)
from gaugecones.matrices import MatE, Singular, reduced_charpoly
from gaugecones.gauges import (
    GaugeContext,
    IndefiniteForm,
    NotInRing,
    NotSymmetric,
    coset_index,
    eigen_valuations,
    gauge_value,
    in_gauge_ideal,
    in_gauge_ring,
    in_st,
    is_dubrovin,
    residue_decomposition,
    residue_element,
    value_coset_set,
    v_E,
)

from test_field import random_element
from test_matrices import random_mat


@pytest.fixture
def F2():
    return FunctionField(["x", "y"])


def make_context(F, entries, eta=(1, 1), kind="base"):
    spec = {"base": base_spec, "complex": complex_spec, "hamilton": hamilton_spec}[kind](F)
    return GaugeContext(HermContext(spec, tuple(entries)), OrderingSpec(eta))


def e_matrix(G, rows):
    return MatE.from_scalar_rows(G.espec, rows)


class TestGaugeContext:
    def test_indefinite_rejected(self, F2):
        x, _ = F2.vars()
        with pytest.raises(IndefiniteForm):
            make_context(F2, [F2.one, x], eta=(-1, 1))

    def test_negative_form_normalized(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [-F2.one, -x], eta=(1, 1))
        assert G.normalized_sign == -1
        assert G.ctx.e == (F2.one, x)

    def test_sigma_involution(self, F2):
        rng = random.Random(41)
        x, _ = F2.vars()
        for kind in ("base", "complex", "hamilton"):
            G = make_context(F2, [F2.one, x], kind=kind)
            for _ in range(5):
                a = random_mat(G.espec, 2, rng)
                b = random_mat(G.espec, 2, rng)
                assert G.sigma(G.sigma(a)) == a
                assert G.sigma(a * b) == G.sigma(b) * G.sigma(a)
                assert G.is_symmetric(G.sigma(a) * a)


class TestGaugeValue:
    def test_unit_form_is_min_entry(self, F2):
        rng = random.Random(42)
        G = make_context(F2, [F2.one, F2.one], kind="hamilton")
        for _ in range(10):
            a = random_mat(G.espec, 2, rng)
            if a.is_zero:
                continue
            assert gauge_value(a, G) == min(
                v_E(x) for r in a.rows for x in r if not x.is_zero
            )

    def test_shifted_examples(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, x])
        e12 = e_matrix(G, [[F2.zero, F2.one], [F2.zero, F2.zero]])
        assert gauge_value(e12, G) == GammaVal([Fraction(-1, 2), 0])
        xI = e_matrix(G, [[x, F2.zero], [F2.zero, x]])
        assert gauge_value(xI, G) == GammaVal([1, 0])
        assert gauge_value(MatE.zeros(G.espec, 2), G) == INF

    def test_value_function_axioms(self, F2):
        rng = random.Random(43)
        x, y = F2.vars()
        G = make_context(F2, [F2.one, x * y], kind="complex")
        zero = GammaVal.zero(2)
        for _ in range(20):
            a, b = random_mat(G.espec, 2, rng), random_mat(G.espec, 2, rng)
            wa, wb = gauge_value(a, G), gauge_value(b, G)
            assert not gauge_value(a + b, G) < min(wa, wb)
            assert not gauge_value(a * b, G) < wa + wb
            lam = random_element(F2, rng)
            assert gauge_value(a.scale(lam), G) == lam.val() + wa
            assert gauge_value(G.sigma(a), G) == wa
            if not a.is_zero:
                assert gauge_value(G.sigma(a) * a, G) == wa.scale(2)
        assert gauge_value(MatE.identity(G.espec, 2), G) == zero

    def test_ring_and_ideal(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, x])
        I = MatE.identity(G.espec, 2)
        assert in_gauge_ring(I, G) and not in_gauge_ideal(I, G)
        assert in_gauge_ideal(I.scale(x), G)
        e12 = e_matrix(G, [[F2.zero, F2.one], [F2.zero, F2.zero]])
        assert not in_gauge_ring(e12, G)

    def test_newton_oracle_agreement(self, F2):
        # ring membership matches: all eigenvalue valuations of sigma(a) a >= 0
        rng = random.Random(44)
        x, y = F2.vars()
        zero = GammaVal.zero(2)
        for kind, form in (("base", [F2.one, x]), ("complex", [F2.one, x * y]), ("hamilton", [F2.one, F2.one])):
            G = make_context(F2, form, kind=kind)
            for _ in range(20):
                a = random_mat(G.espec, 2, rng)
                if a.is_zero:
                    continue
                vals = newton_root_valuations(reduced_charpoly(G.sigma(a) * a))
                assert in_gauge_ring(a, G) == all(not v < zero for v in vals)


class TestCosets:
    def test_small_indices(self, F2):
        x, _ = F2.vars()
        assert coset_index(make_context(F2, [F2.one, F2.one]).ctx) == 1
        G = make_context(F2, [F2.one, x])
        assert coset_index(G.ctx) == 2
        reps = value_coset_set(G.ctx)
        assert GammaVal([0, 0]) in reps
        assert GammaVal([Fraction(1, 2), 0]) in reps

    def test_index_one_iff_even_classes(self, F2):
        x, y = F2.vars()
        assert coset_index(make_context(F2, [F2.one, x ** 2 * y ** 2]).ctx) == 1
        assert coset_index(make_context(F2, [x, x ** 3]).ctx) == 1
        assert coset_index(make_context(F2, [F2.one, x * y]).ctx) == 2


class TestResidueDecomposition:
    def test_one_block(self, F2):
        G = make_context(F2, [F2.one, F2.from_fraction(2)])
        dec = residue_decomposition(G.ctx)
        assert len(dec.blocks) == 1
        assert dec.blocks[0].residue_form == (Fraction(1), Fraction(2))
        assert is_dubrovin(G)

    def test_two_blocks(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, x])
        dec = residue_decomposition(G.ctx)
        assert [b.size for b in dec.blocks] == [1, 1]
        assert [b.residue_form for b in dec.blocks] == [(Fraction(1),), (Fraction(1),)]
        assert not is_dubrovin(G)

    def test_mixed_blocks(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, x, 2 * x])
        dec = residue_decomposition(G.ctx)
        assert [b.size for b in dec.blocks] == [1, 2]
        assert dec.blocks[1].residue_form == (Fraction(1), Fraction(2))

    def test_all_odd_is_dubrovin(self, F2):
        x, _ = F2.vars()
        assert is_dubrovin(make_context(F2, [x, 3 * x, x ** 3]))

    def test_dimension_identity(self, F2):
        # sum of squared block sizes = number of cells whose shifted valuation class vanishes
        rng = random.Random(45)
        x, y = F2.vars()
        for _ in range(10):
            n = rng.randint(1, 4)
            entries = [
                F2.monomial([rng.randint(0, 2), rng.randint(0, 2)], rng.randint(1, 5))
                for _ in range(n)
            ]
            G = make_context(F2, entries)
            dec = residue_decomposition(G.ctx)
            cells = sum(
                1
                for i in range(n)
                for j in range(n)
                if (entries[i].val() - entries[j].val()).mod_group(2)
                == GammaVal.zero(2)
            )
            assert sum(b.size ** 2 for b in dec.blocks) == cells


class TestResidueElement:
    def test_identity_and_ideal(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, x])
        I = MatE.identity(G.espec, 2)
        blocks = residue_element(I, G)
        F0 = blocks[0].spec.field
        assert all(b == MatE.identity(b.spec, b.n) for b in blocks)
        assert all(b.is_zero for b in residue_element(I.scale(x), G))

    def test_shifted_entries(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, x])
        a = e_matrix(G, [[F2.one, x], [F2.one, F2.one]])
        assert in_gauge_ring(a, G)
        blocks = residue_element(a, G)
        assert [b.n for b in blocks] == [1, 1]
        assert all(b.rows[0][0] == b.spec.one() for b in blocks)

    def test_not_in_ring(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, x])
        e12 = e_matrix(G, [[F2.zero, F2.one], [F2.zero, F2.zero]])
        with pytest.raises(NotInRing):
            residue_element(e12, G)

    def test_ring_morphism(self, F2):
        rng = random.Random(46)
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, x, 2 * x], kind="complex")
        done = 0
        while done < 10:
            a, b = random_mat(G.espec, 3, rng), random_mat(G.espec, 3, rng)
            if not (in_gauge_ring(a, G) and in_gauge_ring(b, G)):
                continue
            ra, rb = residue_element(a, G), residue_element(b, G)
            rab = residue_element(a * b, G)
            for pa, pb, pab in zip(ra, rb, rab):
                assert pa * pb == pab
            rsum = residue_element(a + b, G)
            for pa, pb, ps in zip(ra, rb, rsum):
                assert pa + pb == ps
            done += 1


class TestEigenValuations:
    def test_identity(self, F2):
        G = make_context(F2, [F2.one, F2.one], kind="hamilton")
        I = MatE.identity(G.espec, 2)
        assert eigen_valuations(I, G) == [GammaVal([0, 0])] * 4

    def test_diag(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, F2.one])
        b = e_matrix(G, [[F2.one, F2.zero], [F2.zero, x]])
        assert eigen_valuations(b, G) == [GammaVal([0, 0]), GammaVal([1, 0])]

    def test_half_valuation(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, x])
        b = e_matrix(G, [[F2.zero, x], [F2.one, F2.zero]])
        assert G.is_symmetric(b)
        assert eigen_valuations(b, G) == [GammaVal([Fraction(1, 2), 0])] * 2

    def test_not_symmetric(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, x])
        b = e_matrix(G, [[F2.zero, F2.one], [x, F2.zero]])
        with pytest.raises(NotSymmetric):
            eigen_valuations(b, G)

    def test_min_is_gauge_value(self, F2):
        rng = random.Random(47)
        x, y = F2.vars()
        for kind, form in (("base", [F2.one, x]), ("complex", [F2.one, x * y]), ("hamilton", [F2.one, F2.one])):
            G = make_context(F2, form, kind=kind)
            for _ in range(15):
                a = random_mat(G.espec, 2, rng)
                b = G.sigma(a) + a
                if b.is_zero:
                    continue
                assert min(eigen_valuations(b, G)) == gauge_value(b, G)


class TestInSt:
    def test_examples(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, F2.one])
        I = MatE.identity(G.espec, 2)
        assert in_st(I, G)
        assert in_st(I.scale(x), G)
        assert not in_st(e_matrix(G, [[F2.one, F2.zero], [F2.zero, x]]), G)

    def test_singular(self, F2):
        x, _ = F2.vars()
        G = make_context(F2, [F2.one, F2.one])
        with pytest.raises(Singular):
            in_st(MatE.zeros(G.espec, 2), G)
        for kind in ("base", "complex", "hamilton"):
            G = make_context(F2, [F2.one, x], kind=kind)
            with pytest.raises(Singular):
                in_st(e_matrix(G, [[F2.one, F2.one], [F2.one, F2.one]]), G)

    def test_inverse_identity(self, F2):
        rng = random.Random(48)
        x, y = F2.vars()
        for kind, form in (("base", [F2.one, x]), ("hamilton", [F2.one, F2.one])):
            G = make_context(F2, form, kind=kind)
            done = 0
            while done < 15:
                a = random_mat(G.espec, 2, rng)
                try:
                    inv = a.inverse()
                except Singular:
                    continue
                assert in_st(a, G) == (gauge_value(inv, G) == -gauge_value(a, G))
                done += 1


def min_gauge_matrix(M, entry_gauge):
    """The entrywise-minimum gauge on matrices over a gauged algebra."""
    return min([entry_gauge(x) for r in M.rows for x in r if not x.is_zero],
               default=INF)


class TestQuatDivisionGauge:
    # the gauge on a quaternion division algebra is w(q) = v(conj(q) q)/2 = v_E(q)
    def test_examples(self, F2):
        x, y = F2.vars()
        Q = quat_spec(F2, x, y)
        one, i, j, k = Q.basis()
        assert v_E(i) == GammaVal([Fraction(1, 2), 0])
        assert v_E(j) == GammaVal([0, Fraction(1, 2)])
        assert v_E(one + i) == GammaVal([0, 0])
        assert v_E(i.conj()) == v_E(i)

    def test_min_gauge_matrix(self, F2):
        x, y = F2.vars()
        Q = quat_spec(F2, x, y)
        one, i, j, k = Q.basis()
        M = MatE(Q, [[i, Q.zero()], [Q.zero(), one]])
        assert min_gauge_matrix(M, v_E) == GammaVal([0, 0])
        assert min_gauge_matrix(MatE.zeros(Q, 2), v_E) == INF
        assert min_gauge_matrix(
            MatE(Q, [[i, Q.zero()], [Q.zero(), i]]), v_E
        ) == GammaVal([Fraction(1, 2), 0])
