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
from gaugecones.matrices import MatE, psd_at
from gaugecones.gauges import (
    GaugeContext,
    IndefiniteForm,
    adjoint,
    gauge_value,
    in_gauge_ideal,
    in_gauge_ring,
    residue_element,
    twisted_gauge_value,
)
from gaugecones.cones import (
    AnisotropyResult,
    CompatReport,
    ConditionResult,
    _sample_twisted,
    _scale_into_ring,
    UnsupportedVariant,
    anisotropy_certificate,
    check_prepositive_axioms,
    common_sign_orderings,
    compatibility_suite,
    cone_member,
    lift_exists,
    lift_set,
    nil_orderings,
    random_matrix,
    random_positive_scalar,
    residue_cone,
    sample_cone,
    wadth_check,
)

from test_acceptance import contexts as reference_contexts
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
        # <1, xy> is definite at (+,+) and at (-,-); flipping every sign
        # flips the sign of x, so x*I and -x*I swap cones
        rng = random.Random(51)
        x, y = F2.vars()
        C = make_cone(F2, [F2.one, x * y], eta=(1, 1))
        Cneg = GaugeContext(C.ctx, OrderingSpec((-1, -1)))
        xI = MatE.identity(C.espec, 2).scale(x)
        assert cone_member(xI, C)
        assert not cone_member(xI, Cneg)
        assert cone_member(-xI, Cneg)
        assert not cone_member(-xI, C)
        for a in sample_cone(C, count=8, rng=rng):
            assert cone_member(a, C)
        for a in sample_cone(Cneg, count=8, rng=rng):
            assert cone_member(a, Cneg)

    def test_hermitian_but_not_symmetric_rejected(self, F2):
        # [[1, 1], [1, 1]] is PSD, but for <1, x> sigma(a)_01 = x a_10 != a_01
        x, _ = F2.vars()
        for kind in ("base", "complex", "hamilton"):
            C = make_cone(F2, [F2.one, x], eta=(1, 1), kind=kind)
            one = C.espec.one()
            a = MatE(C.espec, [[one, one], [one, one]])
            assert psd_at(a, C.P) and not C.is_symmetric(a)
            assert not cone_member(a, C)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_symmetry_then_twist(self, data):
        """cone_member against the oracle "ad_h-symmetric, and psd_at on the
        Gram twist", on sampled members, sigma(b) + b and random matrices,
        each possibly negated."""
        F = FunctionField(["x", "y"])
        x, y = F.vars()
        form, eta = data.draw(st.sampled_from([
            ([F.one, x], (1, 1)), ([F.one, x * y], (-1, -1)),
            ([-F.one, y], (1, -1)), ([F.one, x, y], (1, 1))]))
        kind = data.draw(st.sampled_from(("base", "complex", "hamilton")))
        C = make_cone(F, form, eta=eta, kind=kind)
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        source = data.draw(st.sampled_from(("member", "symmetrised", "random")))
        if source == "member":
            a = sample_cone(C, count=1, rng=rng)[0]
        else:
            a = random_matrix(C.espec, C.n, rng)
            if source == "symmetrised":
                a = C.sigma(a) + a
        if data.draw(st.booleans()):
            a = -a
        expected = C.is_symmetric(a) and psd_at(C.gram_twist(a), C.P)
        assert cone_member(a, C) == expected


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
        for kind, form in (("base", [F2.one, x]), ("hamilton", [F2.one, F2.one]),
                           ("hamilton", [F2.one, x, y * y])):
            C = make_cone(F2, form, kind=kind)
            report = compatibility_suite(C, sample_count=25, seed=2)
            assert report.ok, {
                k: v.violations for k, v in report.conditions.items() if not v.ok
            }

    def test_failing_condition_keeps_its_witness(self):
        report = CompatReport(3, {"C0": ConditionResult()})
        report.check("C0", True, "kept only on failure")
        report.check("C0", False, (1, "C0"))
        assert report.conditions["C0"].tried == 2
        assert report.conditions["C0"].violations == [(1, "C0")]
        assert not report.ok


def mate_prepositive_axioms(G, samples=50, seed=0):
    """check_prepositive_axioms on MatE, as it ran before the twisted frame:
    the reference for the suite."""
    rng = random.Random(seed)
    names = ("zero_one", "addition", "sandwich", "scalar", "proper")
    report = CompatReport(seed, {k: ConditionResult() for k in names})
    check = report.check
    check("zero_one", cone_member(MatE.zeros(G.espec, G.n), G), "0")
    check("zero_one", cone_member(MatE.identity(G.espec, G.n), G), "1")
    for k in range(samples):
        a, b = sample_cone(G, count=2, rng=rng)
        check("addition", cone_member(a + b, G), (k, "a+b"))
        x = random_matrix(G.espec, G.n, rng)
        check("sandwich", cone_member(G.sigma(x) * a * x, G), (k, "sigma(x) a x"))
        u = random_positive_scalar(G.field, G.P, rng)
        check("scalar", cone_member(a.scale(u), G), (k, "u a"))
        if not a.is_zero:
            check("proper", not cone_member(-a, G), (k, "-a"))
    return report


def mate_compatibility_suite(G, sample_count=200, seed=0):
    """compatibility_suite on MatE, as it ran before the twisted frame: the
    reference for the suite (see its docstring for the conditions)."""
    rng = random.Random(seed)
    F = G.field
    names = ["C0", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "complicated"]
    report = CompatReport(seed, {k: ConditionResult() for k in names})
    check = report.check
    one_mat = MatE.identity(G.espec, G.n)
    for k in range(sample_count):
        a, c = sample_cone(G, count=2, rng=rng)
        b = a + c
        wa, wb = gauge_value(a, G), gauge_value(b, G)
        check("C0", wb == min(wa, gauge_value(c, G)), (k, "C0"))
        if not a.is_zero:
            check("C1", not wa < wb, (k, "C1"))
        u = _scale_into_ring(wb, F)
        check("C2", in_gauge_ring(a.scale(u), G) and in_gauge_ring(b.scale(u), G),
              (k, "C2"))
        u = _scale_into_ring(wb, F, strict=True)
        check("C3", in_gauge_ideal(a.scale(u), G) and in_gauge_ideal(b.scale(u), G),
              (k, "C3"))
        check("C4", in_gauge_ideal((a - c).scale(u), G), (k, "C4"))
        m = a.scale(_scale_into_ring(wa, F, strict=True))
        check("C6", cone_member(one_mat - m, G) and m != one_mat, (k, "C6"))
        x = random_matrix(G.espec, G.n, rng)
        s = G.sigma(x) + x
        s = s.scale(_scale_into_ring(gauge_value(s, G), F, strict=True))
        check("C7", cone_member(one_mat + s, G), (k, "C7"))
        u0 = random_positive_scalar(F, G.P, rng, maxdeg=0)
        cmat = one_mat.scale(u0) + m
        check("complicated", cone_member(cmat + s, G), (k, "complicated"))
    c5 = report.conditions["C5"]
    for block in residue_cone(G).block_specs:
        rep = mate_prepositive_axioms(block, samples=sample_count, seed=seed + 1)
        c5.tried += sum(r.tried for r in rep.conditions.values())
        for r in rep.conditions.values():
            c5.violations.extend(r.violations)
    return report


def twisted_oracle_cases():
    """(id, gauge, seeds, samples): the reference contexts at both orderings;
    forms with non-monomial entries or denominators, among them one whose
    cleared denominator d = x y is negative at the ordering; and a rank-3
    Hamilton form."""
    F = FunctionField(["x", "y"])
    x, y = F.vars()
    cases = [(f"{ctx.espec.kind.value}-{eta}", GaugeContext(ctx, OrderingSpec(eta)),
              (1, 2, 3), 10)
             for ctx, etas in reference_contexts() for eta in etas]
    for kind, form, eta in (
            ("base", ("1", "1 + x"), (-1, -1)),
            ("complex", ("1/3", "(x + 1)/(2*y)"), (1, 1)),
            ("complex", ("1/x", "(1 + y)/(x*y)"), (-1, 1)),
            ("hamilton", ("1", "x/2"), (1, -1)),
            ("hamilton", ("x^2 + y", "1/(1 + y)"), (1, 1))):
        G = make_cone(F, [F.parse(f) for f in form], eta=eta, kind=kind)
        cases.append((f"{kind}-<{', '.join(form)}>-{eta}", G, (1,), 8))
    cases.append(("hamilton-<1, x, y>", make_cone(F, [F.one, x, y], kind="hamilton"), (1,), 4))
    return cases


@pytest.mark.parametrize("case", twisted_oracle_cases(), ids=lambda case: case[0])
def test_twisted_suites_match_mate_reference(case):
    """Both suites run in the twisted frame on keyed lists; the MatE suites
    above must give the same report, condition by condition, with the same
    tries and the same witnesses."""
    _, G, seeds, samples = case
    for seed in seeds:
        # a report holds tries and witnesses only, which any w consistent
        # with itself would give; so the gauge values are compared too, on
        # members drawn alike in both frames
        twisted = _sample_twisted(G, samples, random.Random(seed))
        for t, a in zip(twisted, sample_cone(G, count=samples, rng=random.Random(seed))):
            assert twisted_gauge_value(t, G) == gauge_value(a, G)
        for suite, reference in ((compatibility_suite, mate_compatibility_suite),
                                 (check_prepositive_axioms, mate_prepositive_axioms)):
            got, want = suite(G, samples, seed), reference(G, samples, seed)
            assert list(got.conditions) == list(want.conditions)
            for name, res in want.conditions.items():
                assert (got.conditions[name].tried, got.conditions[name].violations) == (
                    res.tried, res.violations), (seed, suite.__name__, name)


class TestPerturbedResidue:
    """compatibility_suite perturbs u0 + m, u0 a positive constant and m a
    member scaled into the gauge ideal, without testing its residue for
    invertibility: the residue is u0 I in every block."""

    def test_residue_is_u0(self):
        rng = random.Random(58)
        for ctx, etas in reference_contexts():
            F = ctx.field
            for eta in etas:
                G = GaugeContext(ctx, OrderingSpec(eta))
                for a in sample_cone(G, count=20, rng=rng):
                    m = a.scale(_scale_into_ring(gauge_value(a, G), F, strict=True))
                    u0 = random_positive_scalar(F, G.P, rng, maxdeg=0)
                    blocks = residue_element(MatE.identity(G.espec, G.n).scale(u0) + m, G)
                    for B in blocks:
                        u = B.spec.field.from_fraction(u0.as_fraction())
                        assert B == MatE.identity(B.spec, B.n).scale(u)


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
        assert tuple(report.harrison) == tuple(harrison)
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
