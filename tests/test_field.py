"""Tests for the base field: valuation, orderings, residue, Newton polygons, parsing."""

import functools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gaugecones.field import (
    INF,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    ExprSyntaxError,
    FieldError,
    FunctionField,
    GammaVal,
    Kronecker,
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

    def test_zero_to_the_zero_is_one(self, F2):
        # as Fraction(0) ** 0; sympy's fraction would raise ValueError
        assert F2.zero ** 0 == F2.one
        assert F2.parse("(x-x)^0") == F2.one
        assert F2.parse("(x-x)^0") == Fraction(0) ** 0
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
        for src, position in (("x+", 2), ("x*", 2), ("(", 1), ("", 0)):
            with pytest.raises(ExprSyntaxError, match="unexpected end of expression") as e:
                F2.parse(src)
            assert e.value.position == position

    def test_exponent_bound(self, F2):
        x, y = F2.vars()
        assert F2.parse(f"x^{MAX_EXPONENT}") == x ** MAX_EXPONENT
        assert F2.parse(f"y^00{MAX_EXPONENT}") == y ** MAX_EXPONENT
        for src, position in ((f"x^{MAX_EXPONENT + 1}", 2),
                              ("(x+y)**1000000000", 7),
                              ("2^" + "9" * 5000, 2)):
            with pytest.raises(ExprSyntaxError, match="exponent exceeds") as e:
                F2.parse(src)
            assert e.value.position == position

    def test_nesting_bound(self, F2):
        x, _ = F2.vars()
        assert F2.parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == x
        with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_NESTING}") as e:
            F2.parse("x + " + "(" * 400 + "x" + ")" * 400)
        assert e.value.position == 4 + MAX_NESTING

    def test_integer_literal_bound(self, F2):
        limit = sys.get_int_max_str_digits()
        assert F2.parse("0" * limit) == F2.zero
        with pytest.raises(ExprSyntaxError, match=f"more than {limit} digits") as e:
            F2.parse("x + " + "1" * (limit + 1))
        assert e.value.position == 4

    def test_coefficient_digit_bound(self, F2):
        """Products, powers, quotients and sums of literals that each pass the
        literal bound are refused at their operator when a coefficient could
        outgrow the digits Python converts; str() of what is accepted works."""
        limit = sys.get_int_max_str_digits()
        big = "7" * (limit * 7 // 10)
        small = "9" * (limit // 50)
        for src, position in ((f"{big}*{big}*x", len(big)),
                              (f"x + ({small})^100", 4 + len(small) + 3),
                              (f"1/{big} + 1/{big}", 2 + len(big) + 1),
                              (f"x/{big} / {big}", 2 + len(big) + 1)):
            with pytest.raises(ExprSyntaxError, match=f"more than {limit} digits") as e:
                F2.parse(src)
            assert e.value.position == position, src
        # heights are read from the values built, not accumulated: a chain of
        # 20,000 unit products or sums stays at bit length 1 or 15
        for src in ("*".join(["x"] * 20_000), "+".join(["x"] * 20_000),
                    f"{big}*x^2 + {big}*x^2 + {big}*y", f"({small})^40"):
            str(F2.parse(src))

    def test_power_term_bound(self):
        F = FunctionField(["x", "y", "z"])
        # (1+x+y)^60 has C(62, 2) = 1,891 terms, within the bound
        assert len(F.parse("(1+x+y)^60")._f.numer) == 1891
        assert F.parse("1/(x+y)^100") == 1 / (F.parse("x+y") ** 100)
        for src, position in (("(1+x+y+z)^100", 10), ("x/(1+x+y+z)^100", 12),
                              ("((1+x+y)^60)^2", 13)):
            with pytest.raises(ExprSyntaxError, match=f"more than {MAX_TERMS} terms") as e:
                F.parse(src)
            assert e.value.position == position

    def test_product_quotient_and_sum_term_bound(self):
        xs = [f"x{i}" for i in range(10)]
        F = FunctionField(xs)
        # a sum of ten variables to the 4th has C(13, 9) = 715 terms, so 25
        # such factors would reach the same size as that sum to the 100th
        s4 = f"({'+'.join(xs)})^4"
        assert len(F.parse(f"{s4}*(x0+1)")._f.numer) == 2 * 715
        assert F.parse(f"x0/{s4} + x1/{s4}") == F.parse(f"(x0+x1)/{s4}")
        for src, what, position in (("*".join([s4] * 25), "product", len(s4)),
                                    (f"1/{s4}/{s4}", "quotient", len(s4) + 2),
                                    (f"1/{s4} + 1/({s4}+1)", "sum", len(s4) + 3)):
            with pytest.raises(ExprSyntaxError, match=f"{what} would have more than") as e:
                F.parse(src)
            assert e.value.position == position

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


def _matches_fraction(x: RatFunc, f) -> None:
    """x against the sympy fraction f of the same value: x is a triple
    exactly when f is a one-term quotient; x has f's fraction, printed form
    and hash and equals RatFunc(F, f); and x's readings equal those computed
    from f's terms."""
    F = x.field
    y = RatFunc(F, f)
    assert x == y and x._f == f and str(x) == str(f) and hash(x) == hash(y)
    assert (x._m is not None) == (len(f.numer) == len(f.denom) == 1)
    constant = f.numer.is_ground and f.denom.is_ground
    assert x.is_constant() == constant
    if constant:
        assert x.as_fraction() == Fraction(int(f.numer.coeff(1)), int(f.denom.coeff(1)))
    if not f:
        assert x.is_zero and x.val() == INF and x.residue() == 0
        return
    # terms() runs from the lex-largest term down, so the valuation's
    # leading terms come last
    (en, cn), (ed, cd) = f.numer.terms()[-1], f.denom.terms()[-1]
    v = tuple(p - q for p, q in zip(en, ed))
    assert x.val() == GammaVal(v)
    odd = sum(1 << (F.r - 1 - i) for i, e in enumerate(v) if e % 2)
    assert x.sign_character() == (odd, int((cn < 0) != (cd < 0)))
    if v < (0,) * F.r:
        with pytest.raises(NegativeValuation):
            x.residue()
    else:
        assert x.residue() == (Fraction(int(cn), int(cd)) if not any(v) else 0)


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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_triple_form_matches_sympy(self, data):
        # a non-zero monomial is held as an (exps, num, den) triple and
        # everything else as a sympy fraction; every operation and reading
        # is compared with sympy's arithmetic on F._field, and every result
        # with the same value built by RatFunc(F, frac), by F.monomial and
        # by parsing its printed form
        F = data.draw(st.sampled_from(ORACLE_FIELDS))
        K = F._field
        kinds = ("zero", "monomial", "monomial", "monomial", "polynomial", "rational")
        f, g = (data.draw(fracs(F, kinds)) for _ in "fg")
        q = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
        n = data.draw(st.integers(-3, 3))
        a, b = RatFunc(F, f), RatFunc(F, g)
        c, h = a * q, f * K(q.numerator) / K(q.denominator)  # like a when a is a monomial
        cases = [(a, f), (b, g), (c, h), (-a, -f), (a + b, f + g), (a - b, f - g),
                 (a * b, f * g), (a + c, f + h), (a - c, f - h), (c - a, h - f)]
        for x, y, fx, fy in ((a, b, f, g), (a, c, f, h)):
            if fy:
                cases.append((x / y, fx / fy))
            else:
                with pytest.raises(ZeroDivisionError):
                    x / y
        if f:
            cases.append((a ** n, f ** n if n >= 0 else K.one / f ** -n))
        elif n < 0:
            with pytest.raises(ZeroDivisionError):
                a ** n
        for x, expected in cases:
            _matches_fraction(x, expected)
            _matches_fraction(F.parse(str(x)), expected)
            if x._m is not None:
                exps, num, den = x._m
                _matches_fraction(F.monomial(exps, Fraction(num, den)), expected)

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


# ---------------------------------------------------------------------------
# The conversions between field elements and term lists
# ---------------------------------------------------------------------------

class TestTermListConversions:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_clear_denominators_then_polynomial(self, data):
        # zero, monomials with exponents of either sign and fractional
        # coefficients, polynomials, quotients whose denominators share the
        # factor g, and quotients with unrelated, mostly coprime, denominators
        F = data.draw(st.sampled_from(ORACLE_FIELDS))
        g = data.draw(fracs(F, ("polynomial",)).filter(bool))

        def element(kind):
            if kind != "shared":
                return data.draw(fracs(F, (kind,)))
            num = data.draw(fracs(F, ("polynomial",)))
            return num / (g * data.draw(fracs(F, ("polynomial",)).filter(bool)))

        kinds = data.draw(st.lists(st.sampled_from(KINDS + ("shared",)), min_size=1,
                                   max_size=6))
        cs = [RatFunc(F, element(kind)) for kind in kinds]
        d, ts = F.clear_denominators(cs)
        assert d._f.denom == 1
        assert d._f.numer == functools.reduce(lambda a, b: a.lcm(b), [c._f.denom for c in cs])
        assert len(ts) == len(cs)
        for c, t in zip(cs, ts):
            assert all(a for _, a in t)
            assert F.polynomial(t) == d * c
        assert (d is F.one) == all(c._f.denom == 1 for c in cs)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_kronecker_images(self, data):
        """unpack(split(image(pack(f)))) is f within the caps and the width,
        at the extreme coefficients and degrees too; keys order terms
        lexicographically; a product of images, and a keyed product, whose
        keys add, read back as the product; a digit outside the width
        raises."""
        caps = data.draw(st.lists(st.integers(0, 4), max_size=3))
        width = data.draw(st.integers(1, 12))
        top = 2 ** (width - 1) - 1

        def poly(degrees, bound):
            exps = st.tuples(*[st.integers(0, c) for c in degrees])
            coeffs = st.integers(-bound, bound).filter(bool) if bound else st.nothing()
            return data.draw(st.dictionaries(exps, coeffs, max_size=6))

        K = Kronecker(caps)
        f = poly(caps, top)
        keyed = K.pack(list(f.items()))
        keys = [k for k, _ in K.pack([(e, 1) for e in sorted(f)])]
        assert keys == sorted(set(keys))
        assert dict(K.unpack(K.split(K.image(keyed, width), width))) == f
        g, h = (poly([c // 2 for c in caps], 7) for _ in range(2))
        gh = {}
        for e1, c1 in g.items():
            for e2, c2 in h.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                gh[e] = gh.get(e, 0) + c1 * c2
        gh = {e: c for e, c in gh.items() if c}
        kg, kh = K.pack(list(g.items())), K.pack(list(h.items()))
        kgh = {}
        for k1, c1 in kg:
            for k2, c2 in kh:
                kgh[k1 + k2] = kgh.get(k1 + k2, 0) + c1 * c2
        assert dict(K.unpack([(k, c) for k, c in kgh.items() if c])) == gh
        w = max(map(abs, gh.values()), default=0).bit_length() + 1
        assert dict(K.unpack(K.split(K.image(kg, w) * K.image(kh, w), w))) == gh
        with pytest.raises(FieldError):
            K.split(-(2 ** (width - 1)), width)
