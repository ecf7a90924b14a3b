"""Matrices over the coefficient algebras.

Provides exact matrix arithmetic over E, the complex 2n x 2n embedding of a
quaternionic matrix, reduced characteristic polynomials with coefficients in
the base field, right-eigenvalue tests, Cayley-Hamilton verification, exact
positive-semidefiniteness at an ordering, and extraction of eigenvalues lying
in the base field.

Everything is division-free up to a final cancellation: characteristic
polynomials by Berkowitz's recursion, and the inverse by the Cayley-Hamilton
identity on the matrix with its denominators cleared, whose Horner tail
cayley_hamilton_check shares.
"""

from __future__ import annotations

from typing import Sequence

from sympy import ZZ
from sympy.polys.rings import ring as _sympy_ring

from .field import FieldError, PolyX, RatFunc, OrderingSpec
from .algebra import EElement, EKind, ESpec, SpecMismatch, complex_spec


class DimensionMismatch(FieldError):
    """Matrix sizes are incompatible."""


class WrongKind(FieldError):
    """Operation requires a different coefficient algebra."""


class NotHermitian(FieldError):
    """Operation requires a bar-transpose-symmetric matrix."""


class Singular(FieldError):
    """Matrix is not invertible."""


class NonRealCoefficient(FieldError):
    """A reduced characteristic polynomial coefficient is not in the base field."""


class MatE:
    """Square or rectangular matrix with entries in a coefficient algebra E."""

    __slots__ = ("spec", "rows")

    def __init__(self, spec: ESpec, rows: Sequence[Sequence[EElement]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged or empty matrix")
        for r in rows:
            for x in r:
                if x.spec != spec:
                    raise SpecMismatch("entry lives over a different algebra")
        self.spec = spec
        self.rows = rows

    @classmethod
    def identity(cls, spec: ESpec, n: int) -> "MatE":
        z, o = spec.zero(), spec.one()
        return cls(spec, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, spec: ESpec, n: int, m: int | None = None) -> "MatE":
        z = spec.zero()
        m = n if m is None else m
        return cls(spec, [[z] * m for _ in range(n)])

    @classmethod
    def from_scalar_rows(cls, spec: ESpec, rows: Sequence[Sequence[RatFunc]]) -> "MatE":
        return cls(spec, [[spec.scalar(f) for f in r] for r in rows])

    @classmethod
    def diagonal(cls, spec: ESpec, entries: Sequence[EElement | RatFunc]) -> "MatE":
        z = spec.zero()
        es = [x if isinstance(x, EElement) else spec.scalar(x) for x in entries]
        n = len(es)
        return cls(spec, [[es[i] if i == j else z for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.n == self.m

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other: "MatE") -> "MatE":
        if (self.n, self.m) != (other.n, other.m):
            raise DimensionMismatch("sizes differ")
        return MatE(
            self.spec,
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "MatE") -> "MatE":
        return self + (-other)

    def __neg__(self) -> "MatE":
        return MatE(self.spec, [[-a for a in r] for r in self.rows])

    def __mul__(self, other: "MatE") -> "MatE":
        if self.m != other.n:
            raise DimensionMismatch("inner sizes differ")
        cols = list(zip(*other.rows))
        return MatE(self.spec, [[_dot(r, c, self.spec) for c in cols] for r in self.rows])

    def scale(self, f) -> "MatE":
        return MatE(self.spec, [[a.scale(f) for a in r] for r in self.rows])

    def bar_transpose(self) -> "MatE":
        return MatE(
            self.spec,
            [[self.rows[j][i].conj() for j in range(self.n)] for i in range(self.m)],
        )

    def trace(self) -> EElement:
        if not self.is_square:
            raise DimensionMismatch("trace of a non-square matrix")
        acc = self.spec.zero()
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for r in self.rows for x in r)

    def is_hermitian(self) -> bool:
        return self.is_square and self == self.bar_transpose()

    def inverse(self) -> "MatE":
        """Division-free inverse by the Cayley-Hamilton identity.

        With d the lcm of the coordinate denominators, M' = d M has
        polynomial entries.  For the characteristic polynomial p of M'
        (the reduced one over F and the quaternions, det(X - M') over
        F(sqrt(-1))), p(M') = B M' + p_0 I = 0, where B is the Horner tail
        of p at M'; so M^-1 = -d B / p_0, and M is singular iff p_0 = 0.
        Everything up to B stays on polynomial arithmetic; the end costs
        one scalar division and one cancellation per non-zero coordinate.
        Over F(sqrt(-1)), 1/p_0 is conj(p_0)/n_E(p_0).

        E must be F, F(sqrt(-1)) or (-1,-1)_F, the algebras of HermContext;
        other quaternion algebras raise WrongKind (see chi).
        """
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        spec = self.spec
        d, cleared = _clear_denominators([c for r in self.rows for q in r for c in q.coords])
        it = iter(cleared)
        Mc = MatE(spec, [
            [EElement(spec, tuple(next(it) for _ in range(spec.dim))) for _ in r]
            for r in self.rows
        ])
        if spec.kind is EKind.COMPLEX:
            p = _charpoly_commutative(Mc)
            divisor = p[0].norm()
        else:
            p = reduced_charpoly(Mc).coeffs
            divisor = p[0]
        if divisor.is_zero:
            raise Singular("matrix is not invertible")
        B = _horner_tail(Mc, p)
        if spec.kind is EKind.COMPLEX:
            c = p[0].conj()
            B = MatE(spec, [[x * c for x in r] for r in B.rows])
        return B.scale(-d / divisor)

    def __eq__(self, other):
        if not isinstance(other, MatE):
            return NotImplemented
        return self.spec == other.spec and self.rows == other.rows

    def __hash__(self):
        return hash((self.spec, self.rows))

    def __repr__(self):
        body = "; ".join(", ".join(repr(x) for x in r) for r in self.rows)
        return f"MatE[{body}]"


def chi(M: MatE) -> MatE:
    """Complex 2n x 2n image of a quaternionic matrix.

    Writing each entry as q = (x0 + x1 i) + (x2 + x3 i) j, the image is the
    block matrix [[M1, M2], [-conj(M2), conj(M1)]] over F(sqrt(-1)).  The
    block form holds for (-1,-1)_F only; any other quaternion algebra raises
    WrongKind.
    """
    if not M.spec.hamilton:
        raise WrongKind("complex embedding needs entries in (-1,-1)_F")
    C = complex_spec(M.spec.field)

    def part(q: EElement, lo: int) -> EElement:
        return EElement(C, (q.coords[lo], q.coords[lo + 1]))

    n = M.n
    m1 = [[part(M.rows[i][j], 0) for j in range(n)] for i in range(n)]
    m2 = [[part(M.rows[i][j], 2) for j in range(n)] for i in range(n)]
    top = [m1[i] + m2[i] for i in range(n)]
    bot = [
        [-m2[i][j].conj() for j in range(n)] + [m1[i][j].conj() for j in range(n)]
        for i in range(n)
    ]
    return MatE(C, top + bot)


def _charpoly_commutative(M: MatE) -> list[EElement]:
    """Coefficients of det(X - M), constant first, over a commutative E, by
    Berkowitz's division-free recursion (Inf. Proc. Letters 18, 1984).

    Each trailing principal block A = [[a, R], [C, A1]] has p_A = T p_A1,
    where T is the lower-triangular Toeplitz matrix with first column
    1, -a, -R C, -R A1 C, -R A1^2 C, ...  Only ring operations occur, about
    n^4/4 multiplications in E, so integral entries stay integral.
    """
    A = M.rows
    n = M.n
    p = [M.spec.one()]  # det(X - A1) for the empty block, leading coefficient first
    for k in range(n - 1, -1, -1):
        R = A[k][k + 1:]
        col = [A[i][k] for i in range(k + 1, n)]  # A1^j C, from j = 0
        t = [M.spec.one(), -A[k][k]]
        for j in range(n - 1 - k):
            if j:
                col = [_dot(A[i][k + 1:], col, M.spec) for i in range(k + 1, n)]
            t.append(-_dot(R, col, M.spec))
        # (T p)_i = sum_j t[i - j] p[j]
        p = [_dot(t[i::-1], p, M.spec) for i in range(len(p) + 1)]
    p.reverse()
    return p


def _horner_tail(M: MatE, p: Sequence[EElement | RatFunc]) -> MatE:
    """B = sum over k >= 1 of p_k M^(k-1), by Horner's rule, for a monic p
    given constant first; then p(M) = B M + p_0 I.

    Takes deg p - 2 matrix products (none below degree 3); scalars enter
    on the diagonal only.
    """
    if len(p) == 2:
        return MatE.identity(M.spec, M.n)
    B = _add_scalar(M, p[-2])
    for c in reversed(p[1:-2]):
        B = _add_scalar(B * M, c)
    return B


def _add_scalar(M: MatE, c: EElement | RatFunc) -> MatE:
    """M + c I for a central c."""
    if isinstance(c, RatFunc):
        c = M.spec.scalar(c)
    return MatE(M.spec, [
        [x + c if i == j else x for j, x in enumerate(r)] for i, r in enumerate(M.rows)
    ])


def _clear_denominators(cs: Sequence[RatFunc]) -> tuple[RatFunc, list[RatFunc]]:
    """(d, [d c for c in cs]) for non-empty cs, with d the lcm of the
    denominators, so each d c is a polynomial, built as numerator times
    d exquo denominator without a gcd."""
    F = cs[0].field
    ring, frac = F._ring, F._field
    quotients = dict.fromkeys(c._f.denom for c in cs)
    d = ring.one
    for den in quotients:
        d = d.lcm(den)
    for den in quotients:
        quotients[den] = d.exquo(den)
    cleared = [
        RatFunc(F, frac.raw_new(c._f.numer * quotients[c._f.denom], ring.one))
        for c in cs
    ]
    return RatFunc(F, frac.raw_new(d, ring.one)), cleared


def _dot(u: Sequence[EElement], v: Sequence[EElement], spec: ESpec) -> EElement:
    acc = spec.zero()
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def _as_scalar(q: EElement) -> RatFunc:
    for c in q.coords[1:]:
        if not c.is_zero:
            raise NonRealCoefficient("coefficient has a nonzero imaginary part")
    return q.coords[0]


def reduced_charpoly(M: MatE) -> PolyX:
    """Reduced characteristic polynomial with coefficients in F.

    Degree n over F itself; degree 2n over F(sqrt(-1)) (the polynomial times
    its conjugate) and over the quaternions (characteristic polynomial of the
    complex embedding).  Over F(sqrt(-1)) that product is Re(q)^2 + Im(q)^2,
    real by construction; over the quaternions NonRealCoefficient is raised
    if a coefficient is not exactly real.
    """
    if not M.is_square:
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    F = M.spec.field
    if M.spec.kind is EKind.BASE:
        coeffs = _charpoly_commutative(M)
        return PolyX(F, [c.coords[0] for c in coeffs])
    if M.spec.kind is EKind.COMPLEX:
        # q qbar = Re(q)^2 + Im(q)^2 for q = det(X - M)
        q = _charpoly_commutative(M)
        a, b = (PolyX(F, [c.coords[k] for c in q]) for k in (0, 1))
        return a * a + b * b
    coeffs = _charpoly_commutative(chi(M))
    return PolyX(F, [_as_scalar(c) for c in coeffs])


def is_right_eigenvalue(M: MatE, lam: EElement) -> bool:
    """Whether lam is a right eigenvalue of M (some x != 0 with Mx = x lam)."""
    if lam.spec != M.spec:
        raise SpecMismatch("eigenvalue lives over a different algebra")
    p = reduced_charpoly(M)
    if all(c.is_zero for c in lam.coords[1:]) or M.spec.kind is not EKind.QUAT:
        # central case: direct evaluation in E
        acc = M.spec.zero()
        for c in reversed(p.coeffs):
            acc = acc * lam + M.spec.scalar(c)
        return acc.is_zero
    # non-central quaternion: lam satisfies X^2 - trd(lam) X + n(lam)
    F = M.spec.field
    q = PolyX(F, [lam.norm(), -lam.trd(), F.one])
    _, rem = p.divmod(q)
    return rem.is_zero


def cayley_hamilton_check(M: MatE) -> bool:
    """Whether the reduced characteristic polynomial annihilates M."""
    p = reduced_charpoly(M).coeffs
    return _add_scalar(_horner_tail(M, p) * M, p[0]).is_zero


def psd_at(M: MatE, P: OrderingSpec) -> bool:
    """Exact positive-semidefiniteness of a hermitian matrix at an ordering.

    All eigenvalues of a hermitian matrix are real over the real closure, and
    they are all nonnegative iff (-1)^k times the coefficient of X^(d-k) in
    the reduced characteristic polynomial is nonnegative at P for every k.
    """
    if not M.is_hermitian():
        raise NotHermitian("matrix is not bar-transpose symmetric")
    if M.n == 1:
        x = M.rows[0][0].real_part()
        return x.is_zero or x.sign_at(P) > 0
    if M.n == 2:
        # eigenvalues are the roots of X^2 - tr X + det, real and with
        # tr and det scalar by hermitian symmetry; nonnegative roots of a
        # real-rooted quadratic mean tr >= 0 and det >= 0
        tr = (M.rows[0][0] + M.rows[1][1]).real_part()
        det = (M.rows[0][0] * M.rows[1][1] - M.rows[0][1] * M.rows[1][0]).real_part()
        return (tr.is_zero or tr.sign_at(P) > 0) and (det.is_zero or det.sign_at(P) > 0)
    p = reduced_charpoly(M)
    d = p.degree
    sign = 1
    for k in range(d + 1):
        c = p.coeffs[d - k]
        if not c.is_zero and c.sign_at(P) != sign:
            return False
        sign = -sign
    return True


def f_eigenvalues(M: MatE) -> tuple[list[RatFunc], bool]:
    """Eigenvalues of a hermitian matrix that lie in the base field.

    Returns (roots with multiplicity, splits) where splits is true iff the
    reduced characteristic polynomial factors completely into linear factors
    over F.  Over F(sqrt(-1)) and the quaternions each base-field eigenvalue
    appears twice in the reduced polynomial; the halved multiplicity is
    reported.
    """
    if not M.is_hermitian():
        raise NotHermitian("matrix is not bar-transpose symmetric")
    p = reduced_charpoly(M)
    roots, splits = _rational_roots(p)
    if M.spec.kind is not EKind.BASE:
        halved = []
        grouped: dict[RatFunc, int] = {}
        for r in roots:
            grouped[r] = grouped.get(r, 0) + 1
        for r, mult in grouped.items():
            if mult % 2:
                raise FieldError("odd multiplicity in a doubled polynomial")
            halved.extend([r] * (mult // 2))
        roots = halved
    return sorted(roots, key=lambda f: str(f)), splits


def _rational_roots(p: PolyX) -> tuple[list[RatFunc], bool]:
    """Roots of p in F with multiplicity, and whether p splits over F.

    The denominators of p are cleared and the result is factored in
    Z[X, x_1, ..., x_r], the ring of F's numerators with X adjoined, so
    terms move between the two rings unchanged.
    """
    F = p.field
    names = ("_X",) + F.varnames
    built = _sympy_ring(names, ZZ)
    R = built[0]
    fring = F._ring

    _, cleared = _clear_denominators(p.coeffs)
    total = R.zero
    for i, c in enumerate(cleared):
        if c.is_zero:
            continue
        total += R.from_terms(
            [((i,) + exps, coeff) for exps, coeff in c._f.numer.terms()]
        )
    _, factors = total.factor_list()
    roots: list[RatFunc] = []
    splits = True
    for fac, mult in factors:
        degx = max(mono[0] for mono in fac.monoms())
        if degx == 0:
            continue
        if degx > 1:
            splits = False
            continue
        a_terms = [(exps[1:], c) for exps, c in fac.terms() if exps[0] == 1]
        b_terms = [(exps[1:], c) for exps, c in fac.terms() if exps[0] == 0]
        A = fring.from_terms(a_terms) if a_terms else fring.zero
        B = fring.from_terms(b_terms) if b_terms else fring.zero
        root = RatFunc(F, F._field.new(-B, fring.one)) / RatFunc(
            F, F._field.new(A, fring.one)
        )
        roots.extend([root] * mult)
    return roots, splits
