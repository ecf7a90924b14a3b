"""Tests for cone membership, sampling, property suites, residue cones,
lifting reports, nil orderings, and anisotropy certificates."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gaugecones import gauges
from gaugecones.field import (
    FieldError,
    FunctionField,
    GammaVal,
    OrderingSpec,
    enumerate_orderings,
)
from gaugecones.algebra import (
    HermContext,
    Involution,
    QuatDivSpec,
    base_spec,
    complex_spec,
    hamilton_spec,
    trace_form,
)
from gaugecones.matrices import MatE
from gaugecones.gauges import (
    GaugeContext,
    IndefiniteForm,
    adjoint,
    in_gauge_ring,
    residue_element,
)
from gaugecones.cones import (
    AnisotropyResult,
    UnsupportedVariant,
    anisotropy_certificate,
    check_prepositive_axioms,
    common_sign_orderings,
    compatibility_suite,
    cone_member,
    lift_exists,
    lift_set,
    nil_orderings,
    residue_cone,
    sample_cone,
    wadth_check,
)

from test_algebra import hermitian_contexts, quaternion_specs, reference_trace_form


@pytest.fixture
def F2():
    return FunctionField(["x", "y"])


def make_cone(F, entries, eta=(1, 1), kind="base"):
    spec = {"base": base_spec, "complex": complex_spec, "hamilton": hamilton_spec}[kind](F)
    return GaugeContext(HermContext(spec, tuple(entries)), OrderingSpec(eta))


class TestConeMember:
    def test_identity_member(self, F2):
        x, _ = F2.vars()
        for kind in ("base", "complex", "hamilton"):
            C = make_cone(F2, [F2.one, x], kind=kind)
            assert cone_member(MatE.identity(C.espec, 2), C)

    def test_mixed_signs_rejected(self, F2):
        C = make_cone(F2, [F2.one, F2.one])
        a = MatE.diagonal(C.espec, [F2.one, -F2.one])
        assert not cone_member(a, C)

    def test_shifted_member(self, F2):
        x, _ = F2.vars()
        C = make_cone(F2, [F2.one, x], eta=(1, 1))
        a = MatE.diagonal(C.espec, [x, F2.one])
        assert cone_member(a, C)

    def test_invalid_cone(self, F2):
        x, _ = F2.vars()
        with pytest.raises(IndefiniteForm):
            make_cone(F2, [F2.one, x], eta=(-1, 1))

    def test_negative_definite_form(self, F2):
        # all-negative form entries still give a cone containing 1
        C = make_cone(F2, [-F2.one, -F2.from_fraction(2)])
        assert cone_member(MatE.identity(C.espec, 2), C)

    def test_flip_all_signs(self, F2):
        rng = random.Random(51)
        x, y = F2.vars()
        C = make_cone(F2, [F2.one, x * y], eta=(1, 1))
        Cneg = GaugeContext(C.ctx, OrderingSpec((-1, -1)))
        for a in sample_cone(C, count=8, rng=rng):
            assert cone_member(a, C)


class TestSampling:
    def test_samples_are_members(self, F2):
        rng = random.Random(52)
        x, y = F2.vars()
        for kind, form, eta in (
            ("base", [F2.one, x], (1, 1)),
            ("complex", [F2.one, x * y], (-1, -1)),
            ("hamilton", [F2.one, F2.one], (1, -1)),
        ):
            C = make_cone(F2, form, eta=eta, kind=kind)
            for a in sample_cone(C, count=10, rng=rng):
                assert cone_member(a, C)

    def test_generators_respected(self, F2):
        rng = random.Random(53)
        C = make_cone(F2, [F2.one, F2.one])
        s = MatE.diagonal(C.espec, [F2.from_fraction(2), F2.one])
        for a in sample_cone(C, S=[s], count=5, rng=rng):
            assert cone_member(a, C)


class TestAxioms:
    def test_prepositive_axioms(self, F2):
        x, _ = F2.vars()
        C = make_cone(F2, [F2.one, x])
        report = check_prepositive_axioms(C, samples=25, seed=1)
        assert report.ok, {k: v.violations for k, v in report.conditions.items()}

    def test_compatibility_suite(self, F2):
        x, y = F2.vars()
        for kind, form in (("base", [F2.one, x]), ("hamilton", [F2.one, F2.one])):
            C = make_cone(F2, form, kind=kind)
            report = compatibility_suite(C, sample_count=25, seed=2)
            assert report.ok, {
                k: v.violations for k, v in report.conditions.items() if not v.ok
            }


class TestResidueCone:
    def test_blockwise_structure(self, F2):
        x, _ = F2.vars()
        C = make_cone(F2, [F2.one, x])
        rc = residue_cone(C)
        assert len(rc.block_specs) == 2
        assert all(s.n == 1 for s in rc.block_specs)

    def test_members_project(self, F2):
        rng = random.Random(54)
        x, _ = F2.vars()
        C = make_cone(F2, [F2.one, x, 2 * x])
        rc = residue_cone(C)
        done = 0
        while done < 10:
            a = sample_cone(C, count=1, rng=rng)[0]
            if not in_gauge_ring(a, C):
                continue
            assert rc.member(residue_element(a, C))
            done += 1

    def test_residue_members_lift(self, F2):
        rng = random.Random(55)
        x, _ = F2.vars()
        for eta in ((1, 1), (1, -1)):
            C = make_cone(F2, [F2.one, x, 2 * x], eta=eta)
            rc = residue_cone(C)
            for _ in range(10):
                blocks = [
                    sample_cone(spec, count=1, rng=rng)[0] for spec in rc.block_specs
                ]
                assert rc.member(blocks)
                a = rc.lift(blocks)
                assert cone_member(a, C)
                assert residue_element(a, C) == blocks

    def test_negative_residue_forms_lift(self, F2):
        # at eta(x) = -1 the normalized form is <-x, -3x>, with negative residues
        rng = random.Random(57)
        x, _ = F2.vars()
        C = make_cone(F2, [x, 3 * x], eta=(-1, 1))
        rc = residue_cone(C)
        assert rc.block_specs[0].normalized_sign == -1
        for _ in range(5):
            blocks = [sample_cone(s, count=1, rng=rng)[0] for s in rc.block_specs]
            a = rc.lift(blocks)
            assert cone_member(a, C)
            assert residue_element(a, C) == blocks

    def test_residue_of_ideal_is_zero(self, F2):
        x, _ = F2.vars()
        C = make_cone(F2, [F2.one, x])
        blocks = residue_element(MatE.identity(C.espec, 2).scale(x), C)
        assert rc_all_zero(blocks)
        assert residue_cone(C).member(blocks)


def rc_all_zero(blocks):
    return all(b.is_zero for b in blocks)


class TestLifting:
    def test_quaternion_lift_sets(self, F2):
        x, y = F2.vars()
        gamma = QuatDivSpec(x, y, Involution.GAMMA)
        report = lift_set(gamma)
        assert [P.eta for P in report.liftable] == [(-1, -1)]
        assert report.harrison_matches
        sigma = QuatDivSpec(x, y, Involution.INT_I_GAMMA)
        report = lift_set(sigma)
        assert [P.eta for P in report.liftable] == [(-1, 1)]
        assert report.harrison_matches

    def test_lift_exists_examples(self, F2):
        x, y = F2.vars()
        gamma = QuatDivSpec(x, y, Involution.GAMMA)
        assert lift_exists(gamma, OrderingSpec((-1, -1)))
        assert not lift_exists(gamma, OrderingSpec((1, 1)))
        ctx = HermContext(base_spec(F2), (F2.one, F2.one))
        for P in enumerate_orderings(2):
            assert lift_exists(ctx, P)

    def test_wrong_arity_is_rejected(self, F2):
        x, y = F2.vars()
        for spec in (QuatDivSpec(x, y, Involution.GAMMA),
                     HermContext(base_spec(F2), (F2.one, x))):
            for P in (OrderingSpec((-1,)), OrderingSpec(())):
                with pytest.raises(FieldError, match="arity"):
                    lift_exists(spec, P)

    def test_constant_form_lifts_everywhere(self, F2):
        ctx = HermContext(base_spec(F2), (F2.one, F2.from_fraction(2)))
        report = lift_set(ctx)
        assert report.liftable == tuple(enumerate_orderings(2))
        assert report.harrison_matches

    def test_harrison_random_forms(self, F2):
        rng = random.Random(56)
        for F in (F2, FunctionField(["x", "y", "z"])):
            for _ in range(10):
                n = rng.randint(1, 3)
                entries = tuple(
                    F.monomial(
                        [rng.randint(0, 2) for _ in range(F.r)],
                        rng.choice([-3, -2, -1, 1, 2, 3]),
                    )
                    for _ in range(n)
                )
                report = lift_set(HermContext(base_spec(F), entries))
                assert report.harrison_matches

    @settings(max_examples=60, deadline=None)
    @given(spec=st.one_of(hermitian_contexts(), quaternion_specs()))
    def test_lift_exists_matches_reference_definiteness(self, spec):
        entries = reference_trace_form(spec)
        orderings = enumerate_orderings(spec.field.r)
        expected = [P for P in orderings if {f.sign_at(P) for f in entries} in ({1}, {-1})]
        assert [P for P in orderings if lift_exists(spec, P)] == expected
        assert lift_set(spec).liftable == tuple(expected)
        assert wadth_check(spec).lift_count == len(expected)

    def test_wadth(self, F2):
        x, _ = F2.vars()
        res = wadth_check(HermContext(base_spec(F2), (F2.one, F2.from_fraction(2), F2.from_fraction(3))))
        assert (res.all_lift, res.coset_index_one, res.lift_count) == (True, True, 4)
        res = wadth_check(HermContext(base_spec(F2), (F2.one, x)))
        assert (res.all_lift, res.coset_index_one) == (False, False)
        res = wadth_check(HermContext(base_spec(F2), (F2.one, x ** 2)))
        assert (res.all_lift, res.coset_index_one, res.lift_count) == (True, True, 4)


# one to ten variables: enumerating the orderings stays cheap enough to be
# the oracle of the sign systems
WIDE_FIELDS = tuple(FunctionField([f"x{i}" for i in range(r)]) for r in range(1, 11))


@st.composite
def mixed_entries(draw, min_size=1):
    """Entries of mixed signs over one field: monomials, binomials and
    quotients of binomials, each term with a fractional coefficient."""
    F = draw(st.sampled_from(WIDE_FIELDS))

    def monomial():
        exps = draw(st.lists(st.integers(0, 2), min_size=F.r, max_size=F.r))
        num = draw(st.integers(-3, 3).filter(bool))
        return F.monomial(exps, Fraction(num, draw(st.integers(1, 3))))

    def entry():
        kind = draw(st.sampled_from(("monomial", "binomial", "quotient")))
        if kind == "monomial":
            return monomial()
        f = monomial() + monomial()
        if kind == "quotient":
            den = monomial() + monomial()
            assume(den)
            f = f / den
        assume(f)
        return f

    return [entry() for _ in range(draw(st.integers(min_size, 4)))]


def shared_sign(P, entries) -> bool:
    return len({f.sign_at(P) for f in entries}) == 1


class TestSignSystemOracle:
    """The solved sign systems against enumeration of all orderings."""

    @settings(max_examples=40, deadline=None)
    @given(entries=mixed_entries())
    def test_common_sign_and_harrison(self, entries):
        F = entries[0].field
        orderings = enumerate_orderings(F.r)
        expected = [P for P in orderings if shared_sign(P, entries)]
        S = common_sign_orderings(entries)
        assert list(S) == expected
        assert S.count == len(expected)
        assert [P for P in orderings if P in S] == expected

        report = lift_set(HermContext(base_spec(F), tuple(entries)))
        assert report.liftable == tuple(expected)
        gens = report.harrison_generators
        harrison = [] if 0 in report.epsilons else [
            P for P in orderings if shared_sign(P, gens)]
        assert report.harrison_set == tuple(harrison)
        assert report.harrison_matches == (harrison == expected)

    @settings(max_examples=40, deadline=None)
    @given(entries=mixed_entries(min_size=2))
    def test_nil_and_quaternion_lifting(self, entries):
        a, b = entries[:2]
        orderings = enumerate_orderings(a.field.r)
        division = [P for P in orderings if a.sign_at(P) == -1 and b.sign_at(P) == -1]
        for inv in Involution:
            spec = QuatDivSpec(a, b, inv)
            expected = division if inv is Involution.INT_I_GAMMA else [
                P for P in orderings if P not in division]
            report = nil_orderings(spec)
            assert report.nil == tuple(expected)
            assert report.count == len(expected)
            # lift_exists at each ordering, with the trace form built once
            tf = trace_form(spec).entries
            liftable = [P for P in orderings if shared_sign(P, tf)]
            assert lift_set(spec).liftable == tuple(liftable)
            assert wadth_check(spec).lift_count == len(liftable)

    def test_wide_field(self):
        # 64 variables: 2^64 orderings are out of reach of enumeration
        F = FunctionField([f"x{i}" for i in range(64)])
        x = F.vars()
        h = (F.one, 2 * x[1] * x[5], -x[2] * x[7] ** 2 / 3)
        spec = HermContext(hamilton_spec(F), h)
        report = lift_set(spec)
        # x1 x5 positive and x2 negative: rank 2
        assert report.lifting.count == 1 << 62
        assert report.harrison_matches
        assert wadth_check(spec).lift_count == 1 << 62
        def at(negative):
            return OrderingSpec(tuple(-1 if i in negative else 1 for i in range(64)))

        assert at(()) not in report.lifting and at((1, 2)) not in report.lifting
        assert at((2,)) in report.lifting and at((1, 2, 5, 63)) in report.lifting
        assert len(nil_orderings(QuatDivSpec(x[0], x[3], Involution.GAMMA)).division
                   .directions) == 62


class TestNil:
    def test_example(self, F2):
        x, y = F2.vars()
        gamma = nil_orderings(QuatDivSpec(x, y, Involution.GAMMA))
        assert [P.eta for P in gamma.nil] == [(-1, 1), (1, -1), (1, 1)]
        sigma = nil_orderings(QuatDivSpec(x, y, Involution.INT_I_GAMMA))
        assert [P.eta for P in sigma.nil] == [(-1, -1)]

    def test_hamilton_empty(self, F2):
        m1 = F2.from_fraction(-1)
        assert nil_orderings(QuatDivSpec(m1, m1, Involution.GAMMA)).nil == ()

    def test_unsupported(self, F2):
        with pytest.raises(UnsupportedVariant):
            nil_orderings(HermContext(base_spec(F2), (F2.one,)))


class TestResidueOncePerGauge:
    def test_one_decomposition_per_gauge(self, F2, monkeypatch):
        # the decomposition depends on the form alone and is cached on it,
        # so the patch sees forms, not gauges
        decompose = gauges.residue_decomposition
        calls = []
        monkeypatch.setattr(gauges, "residue_decomposition",
                            lambda ctx: calls.append(ctx) or decompose(ctx))
        x, _ = F2.vars()
        C = make_cone(F2, [F2.one, x])
        assert calls == [C.ctx]
        compatibility_suite(C, sample_count=5, seed=0)
        # the suite reads the stored decomposition; only the residue cone's
        # block forms are new, each decomposed once
        assert sum(ctx is C.ctx for ctx in calls) == 1
        assert len({id(ctx) for ctx in calls}) == len(calls) == 3
        # a gauge of the same form at another ordering reads the cache
        other = GaugeContext(C.ctx, OrderingSpec((1, -1)))
        assert other.residue is C.residue
        assert len(calls) == 3


def isotropy_sum(coeffs, xs, ctx):
    """sum sigma(x_i) a_i x_i, with the adjoint of the form of ctx."""
    acc = MatE.zeros(ctx.espec, ctx.n)
    for f, x in zip(coeffs, xs):
        acc = acc + (adjoint(x, ctx) * x).scale(f)
    return acc


class TestAnisotropy:
    def test_units_certified(self, F2):
        ctx = HermContext(base_spec(F2), (F2.one, F2.one))
        P = OrderingSpec((1, 1))
        res = anisotropy_certificate([F2.one, F2.one, F2.one], ctx, P)
        assert res.status == "CERTIFIED"
        assert res.falsifier is None

    def test_hyperbolic_refuted(self, F2):
        ctx = HermContext(base_spec(F2), (F2.one,))
        P = OrderingSpec((1, 1))
        res = anisotropy_certificate([F2.one, -F2.one], ctx, P)
        assert res.status == "UNKNOWN"
        assert res.falsifier is not None

    def test_index_one_certified(self, F2):
        x, _ = F2.vars()
        ctx = HermContext(base_spec(F2), (F2.one,))
        P = OrderingSpec((1, 1))
        res = anisotropy_certificate([F2.one, x], ctx, P)
        assert res.status == "CERTIFIED"

    def test_negative_entry_unknown(self, F2):
        x, _ = F2.vars()
        ctx = HermContext(base_spec(F2), (F2.one,))
        res = anisotropy_certificate([F2.one, x], ctx, OrderingSpec((-1, 1)))
        assert res.status == "UNKNOWN"

    def test_indefinite_form_witness(self, F2):
        # <1, x> is indefinite at eta = (-1, 1) and its ratios e_j/e_i are
        # x and 1/x, so the adjoint's direction matters
        x, _ = F2.vars()
        ctx = HermContext(base_spec(F2), (F2.one, x))
        coeffs = [F2.one, -F2.one]
        res = anisotropy_certificate(coeffs, ctx, OrderingSpec((-1, 1)))
        assert res.status == "UNKNOWN"
        assert any(not w.is_zero for w in res.falsifier)
        assert isotropy_sum(coeffs, res.falsifier, ctx).is_zero
        # a non-scalar witness (u, 1): u = [[a, -x c], [c, a]] with
        # a^2 + x c^2 = 1 is unitary, sigma(u) u = 1, only for e_j/e_i
        a, c = (1 - x) / (1 + x), 2 / (1 + x)
        u = MatE.from_scalar_rows(ctx.espec, [[a, -x * c], [c, a]])
        assert isotropy_sum(coeffs, (u, MatE.identity(ctx.espec, 2)), ctx).is_zero
