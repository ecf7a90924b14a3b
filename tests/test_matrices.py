"""Tests for matrix arithmetic over E, the complex embedding, reduced
characteristic polynomials, right eigenvalues, and exact PSD decisions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gaugecones.field import (
    FieldError,
    FunctionField,
    GammaVal,
    OrderingSpec,
    PolyX,
    RatFunc,
    enumerate_orderings,
    newton_root_valuations,
)
from gaugecones.algebra import (
    EElement,
    EKind,
    base_spec,
    complex_spec,
    hamilton_spec,
    quat_spec,
)
from gaugecones.matrices import (
    DimensionMismatch,
    MatE,
    NotHermitian,
    Singular,
    WrongKind,
    cayley_hamilton_check,
    chi,
    f_eigenvalues,
    is_right_eigenvalue,
    psd_at,
    reduced_charpoly,
)
from gaugecones.matrices import _caps, _cleared

from test_field import random_element, random_ratfunc


@pytest.fixture
def F2():
    return FunctionField(["x", "y"])


def random_mat(spec, n, rng, sparse=True):
    F = spec.field

    def entry():
        coords = []
        for _ in range(spec.dim):
            if sparse and rng.random() < 0.5:
                coords.append(F.zero)
            else:
                coords.append(random_element(F, rng, nterms=2, maxdeg=2, height=5))
        return EElement(spec, tuple(coords))

    return MatE(spec, [[entry() for _ in range(n)] for _ in range(n)])


def random_hermitian(spec, n, rng):
    a = random_mat(spec, n, rng)
    return a + a.bar_transpose()


def random_rational_mat(spec, n, rng):
    """Sparse matrix with a random rational function in its top-left real
    coordinate; the other nonzero coordinates are monomials with fractional
    coefficients and exponents of either sign."""
    F = spec.field

    def coord():
        if rng.random() < 0.5:
            return F.zero
        c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4]))
        return F.monomial([rng.randint(-1, 2) for _ in range(F.r)], c)

    rows = [[[coord() for _ in range(spec.dim)] for _ in range(n)] for _ in range(n)]
    rows[0][0][0] = random_ratfunc(F, rng)
    return MatE(spec, [[EElement(spec, tuple(q)) for q in r] for r in rows])


def faddeev_leverrier(M):
    """Reference charpoly over a commutative E: coefficients of det(X - M),
    constant first, by the Faddeev-LeVerrier recursion, which divides by k."""
    n = M.n
    coeffs = [M.spec.one()]
    N = MatE.identity(M.spec, n)
    for k in range(1, n + 1):
        N = M * N
        ck = (-N.trace()).scale(Fraction(1, k))
        coeffs.append(ck)
        N = N + MatE.diagonal(M.spec, [ck] * n)
    coeffs.reverse()
    return coeffs


def realification(M):
    """The 2n x 2n base-field matrix [[A, -B], [B, A]] of M = A + iB; its
    characteristic polynomial is the reduced one of M, p times conj(p)."""
    B = base_spec(M.spec.field)
    re = [[M[i, j].coords[0] for j in range(M.n)] for i in range(M.n)]
    im = [[M[i, j].coords[1] for j in range(M.n)] for i in range(M.n)]
    top = [re[i] + [-c for c in im[i]] for i in range(M.n)]
    bot = [im[i] + re[i] for i in range(M.n)]
    return MatE.from_scalar_rows(B, top + bot)


def reference_reduced_charpoly(M):
    """Reduced charpoly by Faddeev-LeVerrier on M, on its realification, or
    on its complex embedding chi, for base, complex, quaternion M."""
    if M.spec.kind is EKind.COMPLEX:
        M = realification(M)
    elif M.spec.kind is EKind.QUAT:
        M = chi(M)
    coeffs = faddeev_leverrier(M)
    assert all(c.is_central() for c in coeffs)
    return PolyX(M.spec.field, [c.coords[0] for c in coeffs])


def gauss_jordan_inverse(M):
    """Reference inverse over a division algebra E by Gauss-Jordan
    elimination, which divides by every pivot."""
    n = M.n
    A = [list(r) for r in M.rows]
    B = [list(r) for r in MatE.identity(M.spec, n).rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not A[r][col].is_zero), None)
        if pivot is None:
            raise Singular("matrix is not invertible")
        A[col], A[pivot] = A[pivot], A[col]
        B[col], B[pivot] = B[pivot], B[col]
        inv = A[col][col].inverse()
        A[col] = [inv * x for x in A[col]]
        B[col] = [inv * x for x in B[col]]
        for r in range(n):
            if r == col or A[r][col].is_zero:
                continue
            c = A[r][col]
            A[r] = [x - c * y for x, y in zip(A[r], A[col])]
            B[r] = [x - c * y for x, y in zip(B[r], B[col])]
    return MatE(M.spec, B)


def cleared(M):
    """(q, q M) with q the lcm of M's coordinate denominators, each
    coordinate built as numerator times q exquo denominator, so that
    products of cleared matrices need no gcd."""
    F = M.spec.field
    coords = [c._f for r in M.rows for x in r for c in x.coords]
    q = F._ring.one
    for c in coords:
        q = q.lcm(c.denom)
    it = (RatFunc(F, F._field.new(c.numer * q.exquo(c.denom), F._ring.one)) for c in coords)
    qM = MatE(M.spec, [[EElement(M.spec, tuple(next(it) for _ in range(M.spec.dim)))
                        for _ in r] for r in M.rows])
    return RatFunc(F, F._field.new(q, F._ring.one)), qM


def berkowitz(M):
    """Reference charpoly over a commutative E on EElement arithmetic:
    coefficients of det(X - M), constant first, by Berkowitz's recursion
    with every sum and product a field operation."""
    A = M.rows
    n = M.n
    p = [M.spec.one()]
    for k in range(n - 1, -1, -1):
        R = A[k][k + 1:]
        col = [A[i][k] for i in range(k + 1, n)]
        t = [M.spec.one(), -A[k][k]]
        for j in range(n - 1 - k):
            if j:
                col = [element_dot(A[i][k + 1:], col, M.spec) for i in range(k + 1, n)]
            t.append(-element_dot(R, col, M.spec))
        p = [element_dot(t[i::-1], p, M.spec) for i in range(len(p) + 1)]
    p.reverse()
    return p


def element_dot(u, v, spec):
    acc = spec.zero()
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def horner_tail(M, p):
    """Reference B = sum over k >= 1 of p_k M^(k-1) on EElement arithmetic,
    for a monic p given constant first, so that p(M) = B M + p_0 I."""
    if len(p) == 2:
        return MatE.identity(M.spec, M.n)
    B = add_scalar(M, p[-2])
    for c in reversed(p[1:-2]):
        B = add_scalar(B * M, c)
    return B


def add_scalar(M, c):
    if isinstance(c, RatFunc):
        c = M.spec.scalar(c)
    return M + MatE.diagonal(M.spec, [c] * M.n)


def oracle_reduced_charpoly(M):
    """Reduced charpoly by berkowitz on M itself, denominators uncleared."""
    F = M.spec.field
    if M.spec.kind is EKind.BASE:
        return PolyX(F, [c.coords[0] for c in berkowitz(M)])
    if M.spec.kind is EKind.COMPLEX:
        q = berkowitz(M)
        a, b = (PolyX(F, [c.coords[k] for c in q]) for k in (0, 1))
        return a * a + b * b
    coeffs = berkowitz(chi(M))
    assert all(c.is_central() for c in coeffs)
    return PolyX(F, [c.coords[0] for c in coeffs])


def oracle_cayley_hamilton(M):
    p = oracle_reduced_charpoly(M).coeffs
    return add_scalar(horner_tail(M, p) * M, p[0]).is_zero


def oracle_inverse(M):
    """-d B / p_0 by berkowitz and horner_tail on the cleared d M."""
    d, dM = cleared(M)
    if M.spec.kind is EKind.COMPLEX:
        p = berkowitz(dM)
        divisor = p[0].norm()
    else:
        p = oracle_reduced_charpoly(dM).coeffs
        divisor = p[0]
    if divisor.is_zero:
        raise Singular("matrix is not invertible")
    B = horner_tail(dM, p)
    if M.spec.kind is EKind.COMPLEX:
        B = MatE(M.spec, [[x * p[0].conj() for x in r] for r in B.rows])
    return B.scale(-d / divisor)


ORACLE_F = FunctionField(["x", "y"])
ORACLE_SPECS = (base_spec(ORACLE_F), complex_spec(ORACLE_F), hamilton_spec(ORACLE_F))


def _monomials(low):
    coeffs = {Fraction(a, b) for a in (-3, -1, 1, 2) for b in (1, 2, 3)}
    return [ORACLE_F.monomial((i, j), c) for c in sorted(coeffs)
            for i in range(low, 2) for j in range(low, 2)]


# one draw per coordinate keeps 3 x 3 quaternion matrices within
# hypothesis's example size
ORACLE_MONOMIALS = {low: _monomials(low) for low in (-1, 0)}


@st.composite
def oracle_matrices(draw):
    """n <= 3 with polynomial or monomial coordinates (monomials with
    fractional coefficients and exponents of either sign), or a 2 x 2
    random_rational_mat, over F, F(sqrt(-1)) or (-1,-1)_F.  Besides the
    real part of its diagonal entry, a row has about two non-zero
    coordinates, so Gauss-Jordan stays within seconds."""
    spec = draw(st.sampled_from(ORACLE_SPECS))
    kind = draw(st.sampled_from(["polynomial", "monomial", "rational"]))
    if kind == "rational":
        return random_rational_mat(spec, 2, random.Random(draw(st.integers(0, 2 ** 16))))
    F = spec.field

    def monomial(low):
        return draw(st.sampled_from(ORACLE_MONOMIALS[low]))

    n = draw(st.integers(1, 3))
    sparsity = max(2, n * spec.dim // 2)

    def coord(diagonal_real):
        if not diagonal_real and draw(st.integers(1, sparsity)) > 1:
            return F.zero
        if kind == "monomial":
            return monomial(-1)
        return monomial(0) + monomial(0)

    return MatE(spec, [[EElement(spec, tuple(coord(i == j and t == 0) for t in range(spec.dim)))
                        for j in range(n)] for i in range(n)])


F0 = FunctionField([])

# coordinates by entry kind: integral polynomials (d = 1), Laurent monomials
# with fractional coefficients, and quotients with a non-monomial
# denominator; over Q (r = 0) the last two are fractions
KERNEL_COORDS = {
    ORACLE_F: {
        "integral": ["1", "-2", "3*x", "x*y - 1", "y^2 + 2*x", "-x"],
        "laurent": ["1/2", "-3/x", "2*x*y/3", "y/(2*x)", "-x^2/5", "x"],
        "fraction": ["1/(1+x)", "(x - y)/(2 + y)", "x/(x*y - 3)", "3/2", "y"],
    },
    F0: {
        "integral": ["1", "-2", "3", "5"],
        "laurent": ["1/2", "-3/4", "5/3", "2"],
        "fraction": ["1/2", "-3/4", "5/3", "2"],
    },
}


@st.composite
def kernel_matrices(draw):
    """n <= 3 over F, F(sqrt(-1)) or (-1,-1)_F, over Q(x, y) or Q, with
    integral, Laurent-monomial or fractional coordinates, about two
    non-zero coordinates a row besides the real part of the diagonal; or
    the identity; sometimes with a zero row."""
    F = draw(st.sampled_from([ORACLE_F, F0]))
    spec = draw(st.sampled_from([base_spec(F), complex_spec(F), hamilton_spec(F)]))
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["random", "zero row", "identity"]))
    if shape == "identity":
        return MatE.identity(spec, n)
    table = [F.parse(c) for c in KERNEL_COORDS[F][draw(st.sampled_from(
        ["integral", "laurent", "fraction"]))]]
    sparsity = max(2, n * spec.dim // 2)

    def coord(diagonal_real):
        if not diagonal_real and draw(st.integers(1, sparsity)) > 1:
            return F.zero
        return draw(st.sampled_from(table))

    rows = [[EElement(spec, tuple(coord(i == j and t == 0) for t in range(spec.dim)))
             for j in range(n)] for i in range(n)]
    if shape == "zero row":
        rows[draw(st.integers(0, n - 1))] = [spec.zero()] * n
    return MatE(spec, rows)


F1 = FunctionField(["x"])
F3 = FunctionField(["x", "y", "z"])

# polynomial and Laurent-monomial coordinates over the fields on either side
# of the image selector; over Q(x, y, z) each matrix gets x y z on its
# diagonal, so that all three variables occur and the keyed lists are kept,
# and the polynomials are sparser, or the oracle would take seconds a matrix
IMAGE_COORDS = {
    F1: ["1", "-2", "3*x", "x - 1", "x^2 + 2", "-x/2", "5/x"],
    ORACLE_F: ["1", "-2", "3*x", "x*y - 1", "y^2 + 2*x", "-x/2", "5/y"],
    F0: ["1", "-2", "3", "1/2", "-5/3"],
    F3: ["1", "-2", "3*x", "x - z", "-y/2", "5/z", "y*z"],
}


@st.composite
def image_matrices(draw):
    """Matrices on which Berkowitz runs on 6 or 8 rows: Hamilton with n = 3
    or 4, and base and complex with n = 6, over Q(x), Q(x, y), Q (the
    Kronecker images) and Q(x, y, z) (the keyed lists); about two non-zero
    coordinates a row besides the real part of the diagonal."""
    F = draw(st.sampled_from(list(IMAGE_COORDS)))
    spec = draw(st.sampled_from([base_spec(F), complex_spec(F), hamilton_spec(F)]))
    n = draw(st.integers(3, 4)) if spec.kind is EKind.QUAT else 6
    table = [F.parse(c) for c in IMAGE_COORDS[F]]
    sparsity = max(2, n * spec.dim // 2)

    def coord(diagonal_real):
        if not diagonal_real and draw(st.integers(1, sparsity)) > 1:
            return F.zero
        return draw(st.sampled_from(table))

    rows = [[EElement(spec, tuple(coord(i == j and t == 0) for t in range(spec.dim)))
             for j in range(n)] for i in range(n)]
    if F is F3:
        k = draw(st.integers(0, n - 1))
        rows[k][k] = spec.scalar(F.parse("x*y*z"))
    return MatE(spec, rows)


def assert_kernels_match_oracle(M):
    """reduced_charpoly, cayley_hamilton_check and MatE.inverse against
    Berkowitz and Horner on EElements."""
    assert reduced_charpoly(M) == oracle_reduced_charpoly(M)
    assert cayley_hamilton_check(M) is oracle_cayley_hamilton(M) is True
    try:
        expected = oracle_inverse(M)
    except Singular:
        with pytest.raises(Singular):
            M.inverse()
        return
    assert M.inverse() == expected


def charpoly_psd(M, P):
    """Reference PSD test by the charpoly sign rule: the eigenvalues of a
    hermitian matrix are real over the real closure, so by Descartes' rule
    they are all nonnegative iff (-1)^k times the coefficient of X^(d-k) in
    the reduced characteristic polynomial is nonnegative at P for every k."""
    coeffs = reduced_charpoly(M).coeffs  # trimmed, so the last is X^d's
    return all(c.is_zero or c.sign_at(P) == (-1) ** k
               for k, c in enumerate(reversed(coeffs)))


@st.composite
def hermitian_matrices(draw):
    """n <= 4 over F, F(sqrt(-1)) or (-1,-1)_F: A + A*, or the sandwich A* A,
    singular when A is; as drawn, with a zeroed diagonal entry or a zeroed
    row and column; then negated, or shifted by a monomial c as A - c 1.
    A has polynomial monomial coordinates, about two non-zero ones a row."""
    spec = draw(st.sampled_from(ORACLE_SPECS))
    F = spec.field
    n = draw(st.integers(1, 4))
    sparsity = max(2, n * spec.dim // 2)

    def coord():
        if draw(st.integers(1, sparsity)) > 1:
            return F.zero
        return draw(st.sampled_from(ORACLE_MONOMIALS[0]))

    A = MatE(spec, [[EElement(spec, tuple(coord() for _ in range(spec.dim)))
                     for _ in range(n)] for _ in range(n)])
    M = A + A.bar_transpose() if draw(st.booleans()) else A.bar_transpose() * A
    rows = [list(r) for r in M.rows]
    k = draw(st.integers(0, n - 1))
    zeroed = draw(st.sampled_from(["none", "pivot", "row"]))
    if zeroed != "none":
        rows[k][k] = spec.zero()
    if zeroed == "row":
        for i in range(n):
            rows[i][k] = rows[k][i] = spec.zero()
    M = MatE(spec, rows)
    twist = draw(st.sampled_from(["a", "-a", "a - c"]))
    if twist == "-a":
        return -M
    if twist == "a - c":
        c = draw(st.sampled_from(ORACLE_MONOMIALS[0]))
        return M - MatE.diagonal(spec, [c] * n)
    return M


def ratfunc_psd(M, P):
    """psd_at as it ran before the keyed pivots: the same central pivots on
    M's RatFunc entries, m M' - r* r at each step; the reference for psd_at."""
    rows = M.rows
    while rows:
        m = rows[0][0].real_part()
        r, rest = rows[0][1:], rows[1:]
        if m.is_zero:
            if not all(x.is_zero for x in r):
                return False
            rows = [row[1:] for row in rest]
        elif m.sign_at(P) < 0:
            return False
        else:
            rows = [[x.scale(m) - row[0] * y for x, y in zip(row[1:], r)] for row in rest]
    return True


# denominators of either sign at the orderings of Q(x, y): d is negative at
# half of them for x, y, x y and y - 2 x, and positive at all for 1 + x^2 y
PSD_DENOMINATORS = [ORACLE_F.parse(s) for s in ("1", "x", "y", "x*y", "y - 2*x", "1 + x^2*y")]


@st.composite
def hermitian_over_denominators(draw):
    """hermitian_matrices divided by one of PSD_DENOMINATORS, so that the
    lcm d of the denominators is negative at some orderings."""
    M = draw(hermitian_matrices())
    return M.scale(ORACLE_F.one / draw(st.sampled_from(PSD_DENOMINATORS)))


class TestMatE:
    def test_ring_ops(self, F2):
        rng = random.Random(31)
        H = hamilton_spec(F2)
        for _ in range(5):
            a, b, c = (random_mat(H, 2, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a * b).bar_transpose() == b.bar_transpose() * a.bar_transpose()

    def test_inverse(self, F2):
        rng = random.Random(32)
        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2)):
            I = MatE.identity(spec, 3)
            done = 0
            while done < 5:
                a = random_mat(spec, 3, rng)
                try:
                    inv = a.inverse()
                except Singular:
                    continue
                assert a * inv == I
                assert inv * a == I
                done += 1

    def test_singular(self, F2):
        H = hamilton_spec(F2)
        with pytest.raises(Singular):
            MatE.zeros(H, 2).inverse()

    @settings(max_examples=60, deadline=None)
    @given(M=oracle_matrices())
    def test_inverse_matches_gauss_jordan(self, M):
        try:
            expected = gauss_jordan_inverse(M)
        except Singular:
            with pytest.raises(Singular):
                M.inverse()
            return
        assert M.inverse() == expected

    def test_inverse_rational_3x3(self, F2):
        """3 x 3 matrices with a rational entry, five of which took
        Gauss-Jordan over a minute; A A^-1 = A^-1 A = I is checked on
        cleared denominators, as (d A)(q A^-1) = (q A^-1)(d A) = d q I."""
        for spec in (complex_spec(F2), hamilton_spec(F2)):
            rng = random.Random(5)
            for _ in range(5):
                A = random_rational_mat(spec, 3, rng)
                d, dA = cleared(A)
                q, qB = cleared(A.inverse())
                dqI = MatE.identity(spec, 3).scale(d * q)
                assert dA * qB == dqI
                assert qB * dA == dqI


class TestChi:
    def test_one_by_one(self, F2):
        H = hamilton_spec(F2)
        a, b, c, d = (F2.from_fraction(q) for q in (1, 2, 3, 4))
        M = MatE(H, [[EElement(H, (a, b, c, d))]])
        X = chi(M)
        C = complex_spec(F2)
        assert X == MatE(
            C,
            [
                [EElement(C, (a, b)), EElement(C, (c, d))],
                [EElement(C, (-c, d)), EElement(C, (a, -b))],
            ],
        )

    def test_identity(self, F2):
        H = hamilton_spec(F2)
        assert chi(MatE.identity(H, 3)) == MatE.identity(complex_spec(F2), 6)

    def test_morphism(self, F2):
        rng = random.Random(33)
        H = hamilton_spec(F2)
        for _ in range(8):
            a, b = random_mat(H, 2, rng), random_mat(H, 2, rng)
            assert chi(a * b) == chi(a) * chi(b)
            assert chi(a + b) == chi(a) + chi(b)

    def test_wrong_kind(self, F2):
        with pytest.raises(WrongKind):
            chi(MatE.identity(base_spec(F2), 2))

    def test_other_quaternion_algebra(self, F2):
        """The block form of chi holds for (-1,-1)_F only: over (2,3)_F it
        would give [i] the charpoly X^2 + 1 instead of X^2 - 2."""
        spec = quat_spec(F2, F2.from_fraction(2), F2.from_fraction(3))
        M = MatE(spec, [[spec.basis()[1]]])
        for f in (chi, reduced_charpoly, cayley_hamilton_check, MatE.inverse):
            with pytest.raises(WrongKind):
                f(M)
        with pytest.raises(WrongKind):
            psd_at(MatE.identity(spec, 1), OrderingSpec((1, 1)))

    def test_non_square_rejected(self, F2):
        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2)):
            M = MatE.zeros(spec, 2, 3)
            for f in (reduced_charpoly, cayley_hamilton_check, MatE.inverse):
                with pytest.raises(DimensionMismatch):
                    f(M)


class TestReducedCharpoly:
    def test_quaternion_scalar(self, F2):
        H = hamilton_spec(F2)
        a, b, c, d = (F2.from_fraction(q) for q in (1, 2, 3, 4))
        M = MatE(H, [[EElement(H, (a, b, c, d))]])
        p = reduced_charpoly(M)
        assert p == PolyX(F2, [F2.from_fraction(30), F2.from_fraction(-2), F2.one])

    def test_j(self, F2):
        H = hamilton_spec(F2)
        M = MatE(H, [[H.basis()[2]]])
        assert reduced_charpoly(M) == PolyX(F2, [F2.one, F2.zero, F2.one])

    def test_base_diag(self, F2):
        B = base_spec(F2)
        M = MatE.diagonal(B, [F2.from_fraction(1), F2.from_fraction(2)])
        assert reduced_charpoly(M) == PolyX(
            F2, [F2.from_fraction(2), F2.from_fraction(-3), F2.one]
        )

    def test_degrees(self, F2):
        rng = random.Random(34)
        for spec, mult in ((base_spec(F2), 1), (complex_spec(F2), 2), (hamilton_spec(F2), 2)):
            M = random_mat(spec, 2, rng)
            assert reduced_charpoly(M).degree == 2 * mult

    def test_pMN_equals_pNM(self, F2):
        rng = random.Random(35)
        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2)):
            for _ in range(5):
                a, b = random_mat(spec, 2, rng), random_mat(spec, 2, rng)
                assert reduced_charpoly(a * b) == reduced_charpoly(b * a)

    def test_cayley_hamilton(self, F2):
        rng = random.Random(36)
        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2)):
            for n in (1, 2, 3):
                assert cayley_hamilton_check(random_mat(spec, n, rng))

    @settings(max_examples=120, deadline=None)
    @given(M=kernel_matrices())
    def test_kernels_match_eelement_oracle(self, M):
        """reduced_charpoly, cayley_hamilton_check and MatE.inverse on the
        cleared polynomials against Berkowitz and Horner on EElements."""
        assert_kernels_match_oracle(M)

    @settings(max_examples=30, deadline=None)
    @given(M=image_matrices())
    def test_images_match_eelement_oracle(self, M):
        """The kernels on both sides of the selector against the oracle:
        Kronecker images in at most two variables, keyed lists in three."""
        _, images = _caps(M.spec, _cleared(M)[1])
        assert images is not (M.spec.field is F3)
        assert_kernels_match_oracle(M)

    def test_image_coefficient_at_width_boundary(self):
        """det(X - A) = X^5 (X + c x^2) for c = 2^40 - 1, whose majorant is
        c itself, so the width is 41 bits and c the largest coefficient it
        holds.  A is upper triangular and singular."""
        B = base_spec(F1)
        c = 2 ** 40 - 1
        rows = [[F1.zero] * 6 for _ in range(6)]
        rows[0][0] = F1.parse(f"-{c}*x^2")
        for i in range(5):
            rows[i][i + 1] = F1.parse("x - 3")
        M = MatE.from_scalar_rows(B, rows)
        assert reduced_charpoly(M).coeffs[5] == F1.parse(f"{c}*x^2")
        assert_kernels_match_oracle(M)

    def test_image_degree_at_cap(self):
        """diag(x^3, ..., x^3) with y above the diagonal: the constant term
        of the reduced charpoly is x^(3 deg), at its cap in x, and a term
        beyond the cap would alias into y's digits."""
        for spec, n in ((base_spec(ORACLE_F), 6), (complex_spec(ORACLE_F), 6),
                        (hamilton_spec(ORACLE_F), 3)):
            x3, y = ORACLE_F.parse("x^3"), ORACLE_F.parse("y")
            rows = [[spec.scalar(x3 if i == j else y if j == i + 1 else ORACLE_F.zero)
                     for j in range(n)] for i in range(n)]
            M = MatE(spec, rows)
            deg = n if spec.kind is EKind.BASE else 2 * n
            assert reduced_charpoly(M).coeffs[0] == x3 ** deg
            assert_kernels_match_oracle(M)
            assert _caps(spec, _cleared(M)[1]) == ([3 * deg, deg], True)

    def test_keyed_degree_at_cap(self):
        """Hamilton n = 2 and 3 in three and six variables, on keyed lists:
        upper triangular, with x_1 x_2^2 x_3^3 x_4 ... on the diagonal and
        x_r j above it.  The constant term of the reduced charpoly, and the
        divisor of the inverse, is the diagonal to the power deg = 2n, at the
        cap of every variable; with any cap one lower, its exponent would
        decode as 0 or carry into the next variable's."""
        for F in (F3, FunctionField([f"x{i}" for i in range(6)])):
            H = hamilton_spec(F)
            xs = F.vars()
            exps = [i % 3 + 1 for i in range(F.r)]
            d = F.monomial(exps)
            j = H.basis()[2].scale(xs[-1])
            for n in (2, 3):
                M = MatE(H, [[H.scalar(d) if a == b else j if b == a + 1 else H.zero()
                              for b in range(n)] for a in range(n)])
                assert reduced_charpoly(M).coeffs[0] == d ** (2 * n)
                assert _caps(H, _cleared(M)[1]) == ([2 * n * e for e in exps], False)
                assert_kernels_match_oracle(M)

    def test_agrees_with_faddeev_leverrier(self, F2):
        rng = random.Random(40)
        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2)):
            for n in (1, 2, 3):
                for M in (random_mat(spec, n, rng), random_rational_mat(spec, n, rng)):
                    assert reduced_charpoly(M) == reference_reduced_charpoly(M)


def monic_first_newton(p):
    """Root valuations of the monic p / lc(p): the reference for
    newton_root_valuations, which reads the Newton polygon of p itself."""
    lc = p.coeffs[-1]
    return newton_root_valuations(PolyX(p.field, [c / lc for c in p.coeffs]))


class TestNewtonOnCharpolys:
    def test_scale_free(self, F2):
        rng = random.Random(41)
        for _ in range(5):
            for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2)):
                for n in (1, 2, 3):
                    for M in (random_mat(spec, n, rng), random_rational_mat(spec, n, rng)):
                        p = reduced_charpoly(M)
                        c = random_ratfunc(F2, rng)
                        for q in (p, PolyX(F2, [c * a for a in p.coeffs])):
                            assert newton_root_valuations(q) == monic_first_newton(q)


def horner_in_e(M, lam):
    """p(lam) = 0 evaluated in E by Horner's rule, the reference for
    is_right_eigenvalue: p is det(X - M) by berkowitz over F(sqrt(-1)),
    and the reduced charpoly of M otherwise."""
    if M.spec.kind is EKind.COMPLEX:
        coeffs = berkowitz(M)
    else:
        coeffs = [M.spec.scalar(c) for c in reduced_charpoly(M).coeffs]
    acc = M.spec.zero()
    for c in reversed(coeffs):
        acc = acc * lam + c
    return acc.is_zero


class TestRightEigenvalue:
    def test_matches_horner_in_e(self, F2):
        rng = random.Random(43)

        def element(spec, central):
            coords = [random_element(F2, rng, nterms=2, maxdeg=2, height=5)]
            for _ in range(spec.dim - 1):
                coords.append(F2.zero if central else
                              random_element(F2, rng, nterms=2, maxdeg=2, height=5))
            return EElement(spec, tuple(coords))

        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2)):
            for n in (1, 1, 2, 2, 3):
                for central in (True, False):
                    lam = element(spec, central)
                    # a diagonal matrix has its entries as right eigenvalues
                    D = MatE.diagonal(spec, [lam] + [element(spec, False) for _ in range(n - 1)])
                    assert is_right_eigenvalue(D, lam)
                    assert horner_in_e(D, lam)
                    for M in (random_mat(spec, n, rng), random_mat(spec, n, rng, sparse=False)):
                        assert is_right_eigenvalue(M, lam) == horner_in_e(M, lam)

    def test_j_has_eigenvalue_i(self, F2):
        H = hamilton_spec(F2)
        one, i, j, k = H.basis()
        M = MatE(H, [[j]])
        assert is_right_eigenvalue(M, i)
        assert not is_right_eigenvalue(M, one)

    def test_diag(self, F2):
        B = base_spec(F2)
        M = MatE.diagonal(B, [F2.from_fraction(1), F2.from_fraction(2)])
        assert is_right_eigenvalue(M, B.scalar(2))
        assert not is_right_eigenvalue(M, B.scalar(3))

    def test_complex_tells_conjugates_apart(self, F2):
        """Over F(sqrt(-1)) the reduced charpoly is det(X - M) times its
        conjugate, which vanishes at conj(lam) too; the test must not."""
        C = complex_spec(F2)
        one, i = C.basis()
        two = C.scalar(F2.from_fraction(2))
        assert is_right_eigenvalue(MatE(C, [[i]]), i)
        assert not is_right_eigenvalue(MatE(C, [[i]]), -i)
        D = MatE.diagonal(C, [i, two])
        assert is_right_eigenvalue(D, i)
        assert is_right_eigenvalue(D, two)
        assert not is_right_eigenvalue(D, -i)
        # six rows with a denominator: det(X - d D) on Kronecker images, at d lam
        x, y = (C.scalar(v) for v in F2.vars())
        D = MatE.diagonal(C, [i, two, x, y, C.scalar(F2.parse("1/x")), i + one])
        assert _caps(C, _cleared(D)[1])[1]
        for lam in (i, two, x, i + one):
            assert is_right_eigenvalue(D, lam)
        for lam in (-i, one - i, -x):
            assert not is_right_eigenvalue(D, lam)

    def test_conjugation_closure(self, F2):
        rng = random.Random(37)
        H = hamilton_spec(F2)
        one, i, j, k = H.basis()
        M = MatE(H, [[j]])
        for _ in range(10):
            c = EElement(
                H, tuple(F2.from_fraction(rng.randint(-3, 3)) for _ in range(4))
            )
            if c.is_zero:
                continue
            lam = c.inverse() * i * c
            assert is_right_eigenvalue(M, lam)


class TestPsdAt:
    def test_identity(self, F2):
        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2)):
            for P in enumerate_orderings(2):
                assert psd_at(MatE.identity(spec, 2), P)

    def test_diag_x(self, F2):
        x, _ = F2.vars()
        B = base_spec(F2)
        M = MatE.diagonal(B, [x, F2.one])
        assert not psd_at(M, OrderingSpec((-1, 1)))
        assert psd_at(M, OrderingSpec((1, 1)))

    def test_quaternion_example(self, F2):
        H = hamilton_spec(F2)
        one, i, j, k = H.basis()
        M = MatE(H, [[one, j], [-j, one]])
        assert M.is_hermitian()
        for P in enumerate_orderings(2):
            assert psd_at(M, P)

    def test_not_hermitian(self, F2):
        H = hamilton_spec(F2)
        one, i, j, k = H.basis()
        with pytest.raises(NotHermitian):
            psd_at(MatE(H, [[i]]), OrderingSpec((1, 1)))

    @settings(max_examples=80, deadline=None)
    @given(M=hermitian_matrices())
    def test_matches_charpoly_sign_rule(self, M):
        for P in enumerate_orderings(2):
            assert psd_at(M, P) is charpoly_psd(M, P)

    @settings(max_examples=150, deadline=None)
    @given(M=hermitian_over_denominators())
    def test_matches_ratfunc_pivots(self, M):
        """The keyed pivots of psd_at against the RatFunc pivot loop, at every
        ordering, so at those where the cleared denominator is negative."""
        for P in enumerate_orderings(2):
            assert psd_at(M, P) is ratfunc_psd(M, P)

    def test_negative_cleared_denominator(self, F2):
        """diag(-1, 1) / x at x < 0: d = x is negative, d M = diag(-1, 1) is
        negated once, and its second pivot, which carries d^2, decides."""
        x, _ = F2.vars()
        B = base_spec(F2)
        M = MatE.diagonal(B, [-F2.one / x, F2.one / x])
        for P in enumerate_orderings(2):
            assert psd_at(M, P) is ratfunc_psd(M, P) is False

    def test_reach_doubles_per_schur_step(self, F2):
        """An n x n input takes n - 1 Schur steps, so its exponents may reach
        16383 / 2^(n-1): the last pivot is only read, never squared."""
        x, _ = F2.vars()
        B = base_spec(F2)
        for M in (MatE.diagonal(B, [x ** 10000]), MatE.diagonal(B, [F2.one, x ** 5000])):
            for P in enumerate_orderings(2):
                assert psd_at(M, P) is ratfunc_psd(M, P)
        with pytest.raises(FieldError):
            psd_at(MatE.diagonal(B, [F2.one, x ** 9000]), enumerate_orderings(2)[0])

    def test_vector_sampling_consistency(self, F2):
        rng = random.Random(38)
        for spec in (base_spec(F2), complex_spec(F2), hamilton_spec(F2)):
            for _ in range(6):
                M = random_hermitian(spec, 2, rng)
                for P in enumerate_orderings(2):
                    if not psd_at(M, P):
                        continue
                    for _ in range(40):
                        v = MatE(
                            spec,
                            [[EElement(
                                spec,
                                tuple(
                                    F2.from_fraction(rng.randint(-4, 4))
                                    for _ in range(spec.dim)
                                ),
                            )] for _ in range(2)],
                        )
                        q = (v.bar_transpose() * M * v).rows[0][0]
                        assert q.is_central()
                        assert q.coords[0].sign_at(P) >= 0


class TestFEigenvalues:
    def test_diag(self, F2):
        B = base_spec(F2)
        M = MatE.diagonal(B, [F2.from_fraction(1), F2.from_fraction(2)])
        roots, splits = f_eigenvalues(M)
        assert splits
        assert sorted(r.as_fraction() for r in roots) == [1, 2]
        # non-integral roots, over F and over F(sqrt(-1))
        expected = [F2.parse(s) for s in ("1/2", "2*x/3", "(x+1)/(3*y)")]
        for spec in (B, complex_spec(F2)):
            roots, splits = f_eigenvalues(MatE.diagonal(spec, expected))
            assert splits
            assert sorted(roots, key=str) == sorted(expected, key=str)

    def test_quaternion_example(self, F2):
        H = hamilton_spec(F2)
        one, i, j, k = H.basis()
        M = MatE(H, [[one, j], [-j, one]])
        roots, splits = f_eigenvalues(M)
        assert splits
        assert sorted(r.as_fraction() for r in roots) == [0, 2]

    def test_irrational(self):
        F = FunctionField(["x"])
        x = F.var(0)
        B = base_spec(F)
        M = MatE.from_scalar_rows(B, [[F.zero, F.one], [F.one, x]])
        roots, splits = f_eigenvalues(M)
        assert roots == []
        assert not splits

    def test_psd_agrees_with_roots(self, F2):
        rng = random.Random(39)
        for _ in range(10):
            B = base_spec(F2)
            d = [random_element(F2, rng, nterms=1, maxdeg=2, height=4) for _ in range(2)]
            M = MatE.diagonal(B, d)
            roots, splits = f_eigenvalues(M)
            assert splits
            for P in enumerate_orderings(2):
                assert psd_at(M, P) == all(r.sign_at(P) >= 0 for r in roots)
