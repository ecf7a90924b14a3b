"""End-to-end acceptance suite.

Twelve numbered criteria covering the quaternion worked example, coset
indices, lifting sets, the gauge compatibility conditions, Newton-polygon
cross-checks, the quaternionic matrix toolbox, and residue structure.  Each
criterion states its sample size and wall-clock budget inline.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from gaugecones.field import (
    FunctionField,
    GammaVal,
    OrderingSpec,
    enumerate_orderings,
    newton_root_valuations,
)
from gaugecones.algebra import (
    DiagForm,
    HermContext,
    Involution,
    QuatDivSpec,
    base_spec,
    complex_spec,
    hamilton_spec,
    trace_form,
)
from gaugecones.matrices import (
    MatE,
    Singular,
    cayley_hamilton_check,
    is_right_eigenvalue,
    psd_at,
    reduced_charpoly,
)
from gaugecones.gauges import (
    GaugeContext,
    coset_index,
    eigen_valuations,
    gauge_value,
    in_gauge_ideal,
    in_gauge_ring,
    in_st,
    is_dubrovin,
    residue_decomposition,
)
from gaugecones.cones import (
    compatibility_suite,
    lift_set,
    nil_orderings,
    random_matrix,
    wadth_check,
)
from gaugecones.cli import scenario_m6_index_example

from test_algebra import same_square_class_form


@contextmanager
def budget(seconds):
    """Fail a criterion that runs past its budget; on a pass, print the
    elapsed time against the budget (shown by pytest -s or -rP)."""
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"exceeded {seconds}s budget: {elapsed:.1f}s"
    print(f"elapsed {elapsed:.2f}s of {seconds}s budget")


def contexts():
    """The three reference contexts: M2 over F, F(sqrt(-1)), and (-1,-1)_F."""
    F = FunctionField(["x", "y"])
    x, y = F.vars()
    return [
        (HermContext(base_spec(F), (F.one, x)), ((1, 1), (1, -1))),
        (HermContext(complex_spec(F), (F.one, x * y)), ((1, 1), (-1, -1))),
        (HermContext(hamilton_spec(F), (F.one, F.one)), ((1, 1), (-1, 1))),
    ]


def random_form(F, rng, n, signed=True):
    coeffs = [-3, -2, -1, 1, 2, 3] if signed else [1, 2, 3]
    return tuple(
        F.monomial([rng.randint(0, 2) for _ in range(F.r)], rng.choice(coeffs))
        for _ in range(n)
    )


def test_criterion_01_quaternion_trace_forms():
    with budget(1):
        F = FunctionField(["x", "y"])
        x, y = F.vars()
        cases = [
            (Involution.GAMMA, (2 * F.one, -2 * x, -2 * y, 2 * x * y)),
            (Involution.INT_I_GAMMA, (2 * F.one, -2 * x, 2 * y, -2 * x * y)),
        ]
        for inv, expected in cases:
            tf = trace_form(QuatDivSpec(x, y, inv))
            for P in enumerate_orderings(2):
                assert same_square_class_form(tf, DiagForm(expected), P)


def test_criterion_02_lifting_and_nil_sets():
    with budget(1):
        F = FunctionField(["x", "y"])
        x, y = F.vars()
        gamma = QuatDivSpec(x, y, Involution.GAMMA)
        sigma = QuatDivSpec(x, y, Involution.INT_I_GAMMA)
        assert [P.eta for P in lift_set(gamma).liftable] == [(-1, -1)]
        assert [P.eta for P in lift_set(sigma).liftable] == [(-1, 1)]
        assert [P.eta for P in nil_orderings(gamma).nil] == [(-1, 1), (1, -1), (1, 1)]
        assert [P.eta for P in nil_orderings(sigma).nil] == [(-1, -1)]


def test_criterion_03_coset_index_phi():
    with budget(1):
        F = FunctionField(["x1", "x2", "x3", "x4"])
        x1, x2, x3, x4 = F.vars()
        ctx = HermContext(base_spec(F), (F.one, x1, x2, x3, x4, x1 * x2 * x3 * x4))
        assert coset_index(ctx) == 16
        G = GaugeContext(ctx, OrderingSpec((1, 1, 1, 1)))
        assert len({(a - b).mod_group(1) for a in G.ctx.half_vals for b in G.ctx.half_vals}) == 16


def test_criterion_04_coset_index_psi_vs_brute_force():
    with budget(1):
        F = FunctionField(["x1", "x2", "x3", "x4"])
        x1, x2, x3, x4 = F.vars()
        entries = (F.one, x1, x2, x3, x1 * x2, x3 * x4)
        ctx = HermContext(base_spec(F), entries)
        index = coset_index(ctx)

        # independent brute force on plain integer exponent vectors: count
        # distinct residues mod 2 of v(e_i) - v(e_j) over all 36 pairs
        exps = [
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (1, 1, 0, 0),
            (0, 0, 1, 1),
        ]
        brute = len(
            {
                tuple((a - b) % 2 for a, b in zip(u, v))
                for u in exps
                for v in exps
            }
        )
        assert index == brute

        # the previously published value for this index is 14; the computed
        # value is recorded alongside it and any disagreement is surfaced as
        # an erratum note in the report, not as a failure
        report = scenario_m6_index_example()["psi"]
        assert report["cosetIndex"] == index
        assert report["bruteForceIndex"] == brute
        assert report["referenceValue"] == 14
        if index != 14:
            assert "note" in report


def test_criterion_05_harrison_characterization():
    with budget(10):
        rng = random.Random(105)
        fields = [FunctionField(["x", "y"]), FunctionField(["x", "y", "z"])]
        for k in range(20):
            F = fields[k % 2]
            entries = random_form(F, rng, rng.randint(1, 3))
            report = lift_set(HermContext(base_spec(F), entries))
            assert report.harrison_matches, entries


def test_criterion_06_baer_krull_count():
    with budget(10):
        rng = random.Random(106)
        F = FunctionField(["x", "y"])
        for _ in range(10):
            # entry valuations all in twice the value group, positive residues
            entries = tuple(
                F.monomial([2 * rng.randint(0, 1) for _ in range(2)], rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            )
            res = wadth_check(HermContext(base_spec(F), entries))
            assert res.all_lift and res.lift_count == 4
        for _ in range(10):
            # one entry forced into an odd valuation class
            odd = [rng.randint(0, 1) for _ in range(2)]
            odd[rng.randrange(2)] = 1
            entries = (F.one, F.monomial(odd, rng.randint(1, 3)))
            res = wadth_check(HermContext(base_spec(F), entries))
            assert not res.all_lift and not res.coset_index_one


def test_criterion_07_compatibility_suite():
    with budget(120):
        for ctx, etas in contexts():
            for eta in etas:
                G = GaugeContext(ctx, OrderingSpec(eta))
                report = compatibility_suite(G, sample_count=200, seed=107)
                assert report.ok, {
                    k: v.violations for k, v in report.conditions.items() if not v.ok
                }
                for k, v in report.conditions.items():
                    # C1 skips the rare zero sample, so its count can dip
                    floor = 150 if k == "C1" else 200
                    assert v.tried >= floor, (k, v.tried)


def test_criterion_08_gauge_ring_newton_oracle():
    with budget(60):
        rng = random.Random(108)
        for ctx, etas in contexts():
            G = GaugeContext(ctx, OrderingSpec(etas[0]))
            zero = GammaVal.zero(ctx.field.r)
            for _ in range(200):
                a = random_matrix(ctx.espec, 2, rng)
                vals = newton_root_valuations(reduced_charpoly(G.sigma(a) * a))
                least = min(vals)
                assert in_gauge_ring(a, G) == (not least.half() < zero)
                assert in_gauge_ideal(a, G) == (least.half() > zero)


def test_criterion_09_eigen_valuation_identity():
    with budget(60):
        rng = random.Random(109)
        for ctx, etas in contexts():
            G = GaugeContext(ctx, OrderingSpec(etas[0]))
            for k in range(200):
                x = random_matrix(ctx.espec, 2, rng)
                b = G.sigma(x) + x if k % 2 else G.sigma(x) * x
                assert min(eigen_valuations(b, G)) == gauge_value(b, G)


def test_criterion_10_quaternion_matrix_suite():
    with budget(120):
        rng = random.Random(110)
        F = FunctionField(["x", "y"])
        spec = hamilton_spec(F)

        # Cayley-Hamilton, exact, sizes up to 4; coefficient reality is
        # enforced inside reduced_charpoly (non-real coefficients raise)
        for k in range(100):
            M = random_matrix(spec, 1 + k % 4, rng)
            assert cayley_hamilton_check(M)

        # reduced charpoly of MN and NM agree
        for _ in range(100):
            n = rng.randint(1, 3)
            M = random_matrix(spec, n, rng)
            N = random_matrix(spec, n, rng)
            assert reduced_charpoly(M * N) == reduced_charpoly(N * M)

        # PSD coefficient criterion vs quadratic-form sign sampling
        P = OrderingSpec((1, 1))
        sampled = 0
        for k in range(25):
            c = random_matrix(spec, 2, rng)
            a = c.bar_transpose() * c if k % 2 else _hermitian(c)
            verdict = psd_at(a, P)
            for _ in range(20):
                v = [_random_quat(spec, rng) for _ in range(2)]
                s = spec.zero()
                for i in range(2):
                    for j in range(2):
                        s = s + v[i].conj() * a[i, j] * v[j]
                q = s.real_part()
                sampled += 1
                if verdict and not q.is_zero:
                    assert q.sign_at(P) > 0, "criterion said PSD, sample negative"
            if k % 2 == 1:
                assert verdict, "bar_transpose(c) * c must be PSD"
        assert sampled >= 500

        # conjugation closure of right eigenvalues
        for _ in range(50):
            lam = _random_quat(spec, rng)
            M = MatE.diagonal(spec, [lam, _random_quat(spec, rng)])
            q = _random_quat(spec, rng)
            if q.is_zero:
                q = spec.one()
            conj_lam = q * lam * q.inverse()
            assert is_right_eigenvalue(M, conj_lam)


def _hermitian(c):
    return c + c.bar_transpose()


def _random_quat(spec, rng):
    F = spec.field
    coords = tuple(
        F.monomial([rng.randint(0, 1) for _ in range(F.r)], rng.randint(-2, 2))
        if rng.random() < 0.7
        else F.zero
        for _ in range(4)
    )
    from gaugecones.algebra import EElement

    return EElement(spec, coords)


def test_criterion_11_st_consistency():
    with budget(60):
        rng = random.Random(111)
        for ctx, etas in contexts():
            G = GaugeContext(ctx, OrderingSpec(etas[0]))
            done = 0
            while done < 100:
                a = random_matrix(ctx.espec, 2, rng)
                try:
                    inv = a.inverse()
                except Singular:
                    continue
                done += 1
                expected = gauge_value(inv, G) == -gauge_value(a, G)
                assert in_st(a, G) == expected


def test_criterion_12_residue_structure():
    with budget(30):
        rng = random.Random(112)
        F = FunctionField(["x", "y"])
        for _ in range(20):
            entries = random_form(F, rng, rng.randint(1, 5), signed=False)
            ctx = HermContext(base_spec(F), entries)
            G = GaugeContext(ctx, OrderingSpec((1, 1)))
            dec = residue_decomposition(G.ctx)

            covered = sorted(i for b in dec.blocks for i in b.indices)
            assert covered == list(range(len(entries)))
            for b in dec.blocks:
                assert b.size == len(b.indices)
                assert all(
                    b.residue_form[t] == entries[i].leading_term()[1]
                    for t, i in enumerate(b.indices)
                )

            # dimension identity: sum of squared block sizes equals the
            # number of cells (i, j) whose shift survives in the residue
            surviving = sum(
                1
                for ei in entries
                for ej in entries
                if (ei.val() - ej.val()).mod_group(2) == GammaVal.zero(F.r)
            )
            assert sum(b.size ** 2 for b in dec.blocks) == surviving
            assert is_dubrovin(G) == (len(dec.blocks) == 1)
