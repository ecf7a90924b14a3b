"""Tests for the base field: valuation, orderings, residue, Newton polygons, parsing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gaugecones.field import (
    INF,
    ExprSyntaxError,
    FieldError,
    FunctionField,
    GammaVal,
    NegativeValuation,
    NotMonicAfterNormalization,
    OrderingCoset,
    OrderingSpec,
    PolyX,
    RatFunc,
    UnknownVariable,
    enumerate_orderings,
    newton_root_valuations,
    parse_element,
    solve_sign_system,
)


@pytest.fixture
def F2():
    return FunctionField(["x", "y"])


def random_element(F, rng, nterms=3, maxdeg=3, height=10):
    """Sparse random nonzero polynomial, degree <= maxdeg per variable."""
    while True:
        f = F.zero
        for _ in range(rng.randint(1, nterms)):
            exps = [rng.randint(0, maxdeg) for _ in range(F.r)]
            c = rng.randint(-height, height)
            f = f + F.monomial(exps, c) if c else f
        if not f.is_zero:
            return f


def random_ratfunc(F, rng):
    return random_element(F, rng) / random_element(F, rng)


class TestGammaVal:
    def test_lex_order(self):
        assert GammaVal([1, 0]) < GammaVal([2, -5])
        assert GammaVal([1, 0]) < GammaVal([1, 1])
        assert GammaVal([0, 100]) < GammaVal([1, 0])

    def test_inf(self):
        assert GammaVal([5, 5]) < INF
        assert INF + GammaVal([1, 2]) == INF
        assert not INF < INF
        assert INF == GammaVal.infinity()

    def test_arithmetic(self):
        a, b = GammaVal([1, 2]), GammaVal([3, -1])
        assert a + b == GammaVal([4, 1])
        assert a - b == GammaVal([-2, 3])
        assert -a == GammaVal([-1, -2])
        assert GammaVal([1, 3]).half() == GammaVal([Fraction(1, 2), Fraction(3, 2)])
        assert GammaVal([3, -1]).mod_group(2) == GammaVal([1, 1])


class TestVal:
    def test_monomial(self, F2):
        x, y = F2.vars()
        assert x.val() == GammaVal([1, 0])

    def test_lex_min(self, F2):
        x, y = F2.vars()
        assert (x ** 2 * y + x ** 3).val() == GammaVal([2, 1])

    def test_quotient(self, F2):
        x, _ = F2.vars()
        assert (1 / x).val() == GammaVal([-1, 0])

    def test_zero(self, F2):
        assert F2.zero.val() == INF

    def test_multiplicative(self, F2):
        rng = random.Random(11)
        for _ in range(50):
            f, g = random_ratfunc(F2, rng), random_ratfunc(F2, rng)
            assert (f * g).val() == f.val() + g.val()
            h = f + g
            if not h.is_zero:
                assert h.val() >= min(f.val(), g.val())
            if f.val() != g.val():
                assert h.val() == min(f.val(), g.val())


class TestSignAt:
    def test_examples(self, F2):
        x, y = F2.vars()
        P = OrderingSpec((-1, 1))
        assert x.sign_at(P) == -1
        assert (-2 * x + x ** 2).sign_at(P) == 1
        for Q in enumerate_orderings(2):
            assert (2 + y).sign_at(Q) == 1
        assert F2.zero.sign_at(P) == 0

    def test_multiplicative(self, F2):
        rng = random.Random(12)
        for P in enumerate_orderings(2):
            for _ in range(30):
                f, g = random_ratfunc(F2, rng), random_ratfunc(F2, rng)
                assert (f * g).sign_at(P) == f.sign_at(P) * g.sign_at(P)
                assert (f * f).sign_at(P) == 1

    def test_compatibility_min_rule(self, F2):
        # on elements positive at P the valuation of a sum is the min
        rng = random.Random(13)
        for P in enumerate_orderings(2):
            n = 0
            while n < 200:
                f, g = random_ratfunc(F2, rng), random_ratfunc(F2, rng)
                if f.sign_at(P) != 1 or g.sign_at(P) != 1:
                    f, g = f * f, g * g
                    if f.is_zero or g.is_zero:
                        continue
                assert (f + g).val() == min(f.val(), g.val())
                n += 1

    def test_baer_krull_form(self, F2):
        # oracle: sgn(lc f) times eta_i over the odd coordinates of v(f)
        rng = random.Random(14)
        for _ in range(50):
            f = random_ratfunc(F2, rng)
            exps, coeff = f.leading_term()
            for P in enumerate_orderings(2):
                expected = 1 if coeff > 0 else -1
                for eta_i, a_i in zip(P.eta, exps, strict=True):
                    if a_i % 2:
                        expected *= eta_i
                assert f.sign_at(P) == expected


class TestPower:
    def test_negative_powers_are_canonical(self, F2):
        x, y = F2.vars()
        for f, n in ((-x, 1), ((x - 1) / (2 * y), 2), ((1 - x) / (2 * y), 1)):
            p, q = f ** -n, F2.one / f ** n
            assert p == q and hash(p) == hash(q) and str(p) == str(q)
        assert str((-x) ** -1) == "-1/x"
        with pytest.raises(ZeroDivisionError):
            F2.zero ** -1


class TestHash:
    def test_constants_hash_as_numbers(self, F2):
        # a constant equals its int or Fraction, so it must hash as one
        x, _ = F2.vars()
        for q in (0, 1, -3, Fraction(-7, 2)):
            for c in (F2.from_fraction(q), x - x + q):
                assert c == q and hash(c) == hash(q)
                assert c in {q} and q in {c}
                assert {c: "c"}.get(q) == "c" and {q: "q"}.get(c) == "q"
        assert {F2.one: 0}.get(1) == 0


class TestResidue:
    def test_examples(self, F2):
        x, y = F2.vars()
        assert ((2 + x) / (1 + y)).residue() == 2
        assert F2.from_fraction(5).residue() == 5
        assert x.residue() == 0

    def test_negative_valuation(self, F2):
        x, _ = F2.vars()
        with pytest.raises(NegativeValuation):
            (1 / x).residue()

    def test_ring_morphism(self, F2):
        rng = random.Random(15)
        zero = GammaVal.zero(2)
        n = 0
        while n < 60:
            f, g = random_ratfunc(F2, rng), random_ratfunc(F2, rng)
            if f.val() < zero or g.val() < zero:
                continue
            assert (f + g).residue() == f.residue() + g.residue()
            assert (f * g).residue() == f.residue() * g.residue()
            n += 1


class TestOrderings:
    def test_counts(self):
        assert len(enumerate_orderings(0)) == 1
        assert len(enumerate_orderings(2)) == 4
        assert len(enumerate_orderings(4)) == 16

    def test_distinct_and_deterministic(self):
        specs = enumerate_orderings(3)
        assert len(set(specs)) == 8
        assert specs == enumerate_orderings(3)
        assert specs[0].eta == (-1, -1, -1)
        assert specs[-1].eta == (1, 1, 1)


@st.composite
def sign_systems(draw, max_r=10):
    """r, and up to 2r equations (a, b) with a an r-bit mask."""
    r = draw(st.integers(0, max_r))
    eqs = draw(st.lists(st.tuples(st.integers(0, (1 << r) - 1), st.integers(0, 1)),
                        max_size=2 * r))
    return r, eqs


class TestSignSystems:
    @settings(max_examples=150, deadline=None)
    @given(system=sign_systems())
    def test_matches_enumeration(self, system):
        r, eqs = system
        S = solve_sign_system(r, eqs)
        orderings = enumerate_orderings(r)
        expected = [P for P in orderings
                    if all((a & P.bits).bit_count() % 2 == b for a, b in eqs)]
        assert list(S) == expected
        assert S.count == len(expected)
        assert [P for P in orderings if P in S] == expected
        if expected:
            assert S.count == 1 << (r - _rank(a for a, _ in eqs))

    @settings(max_examples=60, deadline=None)
    @given(system=sign_systems(), data=st.data())
    def test_canonical(self, system, data):
        # the same set from another system of equations is the same object:
        # shuffled, with sums of equations added
        r, eqs = system
        more = data.draw(st.permutations(eqs))
        for _ in range(data.draw(st.integers(0, 3))):
            if eqs:
                (a1, b1), (a2, b2) = data.draw(st.sampled_from(eqs)), data.draw(st.sampled_from(eqs))
                more.append((a1 ^ a2, b1 ^ b2))
        assert solve_sign_system(r, more) == solve_sign_system(r, eqs)

    def test_bits_round_trip(self):
        for P in enumerate_orderings(4):
            assert OrderingSpec.from_bits(P.bits, 4) == P
        assert [P.bits for P in enumerate_orderings(3)] == list(range(7, -1, -1))

    def test_examples(self):
        # x0 negative and x0 x2 positive: t0 = 1, t0 + t2 = 0
        S = solve_sign_system(3, [(0b100, 1), (0b101, 0)])
        assert [P.eta for P in S] == [(-1, -1, -1), (-1, 1, -1)]
        assert S == OrderingCoset(3, 0b101, (0b010,))
        assert solve_sign_system(2, [(0b11, 1), (0b11, 0)]) == OrderingCoset(2, None)
        assert solve_sign_system(2, [(0, 1)]).count == 0
        assert solve_sign_system(2, []).count == 4
        assert list(solve_sign_system(0, [])) == [OrderingSpec(())]

    def test_membership_checks_arity(self):
        S = solve_sign_system(2, [(0b10, 0)])
        for P in (OrderingSpec((-1,)), OrderingSpec(()), OrderingSpec((1, 1, 1))):
            with pytest.raises(FieldError, match="arity"):
                P in S
        with pytest.raises(FieldError, match="arity"):
            OrderingSpec((1,)) in OrderingCoset(2, None)

    def test_sign_character(self, F2):
        x, y = F2.vars()
        for f in (x, -x * y ** 2, (1 - x) / (2 * y - x * y), -3 / (x ** 3 + y)):
            a, s = f.sign_character()
            for P in enumerate_orderings(2):
                assert f.sign_at(P) == (-1) ** (s + (a & P.bits).bit_count())


def _rank(masks) -> int:
    basis = []
    for v in masks:
        for w in basis:
            v = min(v, v ^ w)
        if v:
            basis.append(v)
    return len(basis)


class TestNewton:
    def test_x_squared_minus_x(self):
        F = FunctionField(["x"])
        x = F.var(0)
        p = PolyX(F, [-x, F.zero, F.one])
        assert newton_root_valuations(p) == [GammaVal([Fraction(1, 2)])] * 2

    def test_split_factors(self):
        F = FunctionField(["x"])
        x = F.var(0)
        p = PolyX(F, [x, -(F.one + x), F.one])  # (X-1)(X-x)
        assert newton_root_valuations(p) == [GammaVal([0]), GammaVal([1])]

    def test_triple_root(self):
        F = FunctionField(["x"])
        one = F.one
        p = PolyX(F, [-one, 3 * one, -3 * one, one])
        assert newton_root_valuations(p) == [GammaVal([0])] * 3

    def test_zero_roots_give_inf(self):
        F = FunctionField(["x"])
        x = F.var(0)
        p = PolyX(F, [F.zero, F.zero, x, F.one])  # X^2 (X + x)
        vals = newton_root_valuations(p)
        assert vals == [GammaVal([1]), INF, INF]

    def test_rejects_zero(self):
        F = FunctionField(["x"])
        with pytest.raises(NotMonicAfterNormalization):
            newton_root_valuations(PolyX(F, []))

    def test_multiplicativity(self):
        F = FunctionField(["x", "y"])
        rng = random.Random(16)
        for _ in range(25):
            p = _random_monic(F, rng, rng.randint(1, 3))
            q = _random_monic(F, rng, rng.randint(1, 3))
            lhs = newton_root_valuations(p * q)
            rhs = sorted(newton_root_valuations(p) + newton_root_valuations(q))
            assert lhs == rhs

    def test_product_of_linear_factors(self):
        F = FunctionField(["x", "y"])
        rng = random.Random(17)
        for _ in range(25):
            roots = [random_ratfunc(F, rng) for _ in range(rng.randint(1, 4))]
            p = PolyX(F, [F.one])
            for f in roots:
                p = p * PolyX(F, [-f, F.one])
            assert newton_root_valuations(p) == sorted(f.val() for f in roots)


def _random_monic(F, rng, deg):
    coeffs = [random_element(F, rng) for _ in range(deg)] + [F.one]
    return PolyX(F, coeffs)


class TestPolyX:
    def test_divmod(self):
        F = FunctionField(["x"])
        x = F.var(0)
        p = PolyX(F, [x, -(F.one + x), F.one])
        d = PolyX(F, [-F.one, F.one])
        q, r = p.divmod(d)
        assert r.is_zero
        assert q == PolyX(F, [-x, F.one])
        assert q * d == p


class TestParser:
    def test_basic(self, F2):
        x, y = F2.vars()
        assert F2.parse("2*x^2*y - 1/3") == 2 * x ** 2 * y - Fraction(1, 3)
        assert F2.parse("(1+x)/(1-y)") == (1 + x) / (1 - y)
        assert F2.parse("-x + x") == F2.zero

    def test_negative_exponent_rejected(self, F2):
        with pytest.raises(ExprSyntaxError):
            F2.parse("x^-1")

    def test_unknown_variable(self, F2):
        with pytest.raises(UnknownVariable):
            F2.parse("z + 1")

    def test_error_position(self, F2):
        with pytest.raises(ExprSyntaxError) as e:
            F2.parse("x + @")
        assert e.value.position == 4

    def test_parse_element_helper(self):
        f = parse_element("x*y + 3", ["x", "y"])
        assert f.val() == GammaVal([0, 0])
        assert f.residue() == 3

    def test_round_trip(self, F2):
        rng = random.Random(18)
        for _ in range(30):
            f = random_ratfunc(F2, rng)
            assert F2.parse(str(f).replace("**", "^")) == f

    def test_round_trip_str(self, F2):
        # str() writes powers as '**', which the parser reads as '^'
        rng = random.Random(19)
        x, y = F2.vars()
        samples = [(x ** 2 + 3 * y) / (2 * x - y), -(x ** 3) * y ** 2 / 7]
        samples += [random_ratfunc(F2, rng) for _ in range(30)]
        for f in samples:
            assert F2.parse(str(f)) == f


# ---------------------------------------------------------------------------
# Fast paths of RatFunc against sympy's general fraction arithmetic
# ---------------------------------------------------------------------------

ORACLE_FIELDS = [FunctionField(["x", "y", "z"][:r]) for r in (0, 2, 3)]
KINDS = ("zero", "monomial", "polynomial", "rational")


@st.composite
def fracs(draw, F, kinds=KINDS):
    """A sympy fraction-field element of F, built by sympy alone: zero, a
    signed monomial with a fractional coefficient and exponents of either
    sign (x/2, 1/(3*y)), a polynomial, or a quotient of polynomials."""
    K = F._field

    def monomial(low, den):
        m = K(draw(st.integers(-3, 3).filter(bool))) / K(draw(st.integers(1, den)))
        for g in K.gens:
            m *= g ** draw(st.integers(low, 2))
        return m

    def polynomial():
        return sum((monomial(0, 1) for _ in range(draw(st.integers(2, 3)))), K.zero)

    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return K.zero
    if kind == "monomial":
        return monomial(-2, 3)
    if kind == "polynomial":
        return polynomial()
    num, den = polynomial(), polynomial()
    return num / den if den else num


def _same(result: RatFunc, expected) -> bool:
    """Structural equality with sympy's reduced form, printed form included."""
    return result._f == expected and str(result) == str(expected)


class TestFastPathOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_binary_ops_match_sympy(self, data):
        F = data.draw(st.sampled_from(ORACLE_FIELDS))
        f, g = data.draw(fracs(F)), data.draw(fracs(F))
        a, b = RatFunc(F, f), RatFunc(F, g)
        assert _same(a + b, f + g)
        assert _same(a - b, f - g)
        assert _same(a * b, f * g)
        if g:
            assert _same(a / b, f / g)
        else:
            with pytest.raises(ZeroDivisionError):
                a / b

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_monomial_products_match_sympy(self, data):
        F = data.draw(st.sampled_from(ORACLE_FIELDS[1:]))
        f, g = (data.draw(fracs(F, ("monomial",))) for _ in "fg")
        assert _same(RatFunc(F, f) * RatFunc(F, g), f * g)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_quotients_and_negative_powers_match_sympy(self, data):
        # division and negative powers multiply by the closed-form reciprocal;
        # sympy's quotient is cancelled by gcd
        F = data.draw(st.sampled_from(ORACLE_FIELDS))
        K = F._field
        f = data.draw(fracs(F, ("monomial",)))
        g = data.draw(fracs(F, ("monomial", "rational")).filter(bool))
        h = data.draw(fracs(F, KINDS[1:]).filter(bool))
        a, b, c = RatFunc(F, f), RatFunc(F, g), RatFunc(F, h)
        assert _same(a / b, f / g)  # monomial / monomial or quotient
        assert _same(b / a, g / f)  # monomial or quotient / monomial
        n = data.draw(st.integers(1, 3))
        assert _same(c ** -n, K.one / h ** n)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scalar_operands_match_sympy(self, data):
        F = data.draw(st.sampled_from(ORACLE_FIELDS))
        f = data.draw(fracs(F))
        q = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
        a, c = RatFunc(F, f), F._field(q.numerator) / F._field(q.denominator)
        assert _same(q + a, c + f)
        assert _same(q - a, c - f)
        assert _same(a - q, f - c)
        assert _same(q * a, c * f)
        if f:
            assert _same(q / a, c / f)
        if q:
            assert _same(a / q, f / c)
