"""Matrices over the coefficient algebras.

Provides exact matrix arithmetic over E, the complex 2n x 2n embedding of a
quaternionic matrix, reduced characteristic polynomials with coefficients in
the base field, a right-eigenvalue test, Cayley-Hamilton verification, exact
positive-semidefiniteness at an ordering, and extraction of eigenvalues lying
in the base field.

Characteristic polynomials, the Cayley-Hamilton check and the inverse are
division-free kernels on the matrix with its denominators cleared, d M with
d the lcm of the coordinate denominators, held as coordinate term lists over
Z[x_1,...,x_r]: Berkowitz's recursion for the characteristic polynomial and
Horner's rule for the Cayley-Hamilton tail, each sum of products in E one
fused dot product.  Field elements are built from the results only: the
charpoly of M by one rescale by powers of d, the inverse by one scalar
division.  The kernels reach field elements only through
FunctionField.clear_denominators and FunctionField.polynomial.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .field import FieldError, PolyX, RatFunc, OrderingSpec, rational_roots
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
        zero = self.spec.zero()
        cols = list(zip(*other.rows))
        return MatE(self.spec, [[sum([a * b for a, b in zip(r, c)], zero) for c in cols]
                                for r in self.rows])

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
        Everything up to B runs on the cleared polynomials; the end costs
        one scalar division and one cancellation per non-zero coordinate.
        Over F(sqrt(-1)), 1/p_0 is conj(p_0)/n_E(p_0).

        E must be F, F(sqrt(-1)) or (-1,-1)_F, the algebras of HermContext;
        other quaternion algebras raise WrongKind (see chi).
        """
        d, A = _cleared(self)
        spec = self.spec
        F = spec.field
        mul = F.add_exponents
        if spec.kind is EKind.COMPLEX:
            p = _charpoly_commutative(A, spec.products, F)
            divisor = F.polynomial(_norm_coeffs(p[:1], spec.products, mul)[0][0])
        else:
            p = _cleared_charpoly(spec, A)
            divisor = F.polynomial(p[0][0])
        if divisor.is_zero:
            raise Singular("matrix is not invertible")
        B = _horner_tail(A, p, spec.products, mul)
        if spec.kind is EKind.COMPLEX:
            c = (p[0][0], _negated(p[0][1]))
            B = [[_dot((x,), (c,), spec.products, mul) for x in r] for r in B]
        B = MatE(spec, [[EElement(spec, tuple([F.polynomial(c) for c in x])) for x in r]
                        for r in B])
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
    rows = _chi([[q.coords for q in r] for r in M.rows], operator.neg)
    return MatE(C, [[EElement(C, x) for x in r] for r in rows])


def _chi(A, neg):
    """chi on rows of quaternion coordinate tuples, with neg negating one
    coordinate: [[M1, M2], [-conj(M2), conj(M1)]] as rows of complex
    coordinate pairs."""
    top = [[(q[0], q[1]) for q in r] + [(q[2], q[3]) for q in r] for r in A]
    bot = [[(neg(q[2]), q[3]) for q in r] + [(q[0], neg(q[1])) for q in r] for r in A]
    return top + bot


# The kernels below run on a matrix with its denominators cleared, on the
# term lists of field.py's module docstring: an element of E is the tuple of
# its coordinates' term lists, and a matrix a sequence of rows of elements.
# The kernels only add and multiply, so no RatFunc is built before the result.


def _dot(u, v, table, mul, init=None, neg=False):
    """init + sum of u_k v_k (minus the sum if neg) for elements of an
    algebra whose structure constants, table as in ESpec.products, are +-1.

    Every term product of every coordinate pair goes straight into one dict
    per output coordinate, with the sign of its structure constant: no
    product polynomial is built and no partial sum is copied.  mul adds two
    exponent tuples (FunctionField.add_exponents)."""
    acc = [dict(xs) for xs in init] if init is not None else [{} for _ in table]
    for x, y in zip(u, v):
        for i, xs in enumerate(x):
            if not xs:
                continue
            row = table[i]
            for j, ys in enumerate(y):
                if not ys:
                    continue
                k, sign, _ = row[j]
                out = acc[k]
                get = out.get
                flip = (sign < 0) is not neg
                for e1, c1 in xs:
                    if flip:
                        c1 = -c1
                    for e2, c2 in ys:
                        e = mul(e1, e2)
                        out[e] = get(e, 0) + c1 * c2
    return tuple([[(e, c) for e, c in out.items() if c] for out in acc])


def _charpoly_commutative(A, table, F) -> list:
    """Coefficients of det(X - A), constant first, for a cleared matrix A
    over a commutative E, by Berkowitz's division-free recursion (Inf.
    Proc. Letters 18, 1984).

    Each trailing principal block [[a, R], [C, A1]] has p = T p_A1, where T
    is the lower-triangular Toeplitz matrix with first column 1, -a, -R C,
    -R A1 C, -R A1^2 C, ...  Only ring operations occur, about n^4/4
    products in E, each sum of them one _dot, so the coefficients stay
    polynomials.  The 1 on T's diagonal is never multiplied: p_A1's
    coefficient starts the sum instead, and p_A1's leading 1 stays p's."""
    mul = F.add_exponents
    n = len(A)
    p = [_scalar([((0,) * F.r, 1)], len(table))]  # the empty block, leading first
    for k in range(n - 1, -1, -1):
        R = A[k][k + 1:]
        col = [A[i][k] for i in range(k + 1, n)]  # A1^j C, from j = 0
        t = [None, tuple([_negated(xs) for xs in A[k][k]])]
        for j in range(n - 1 - k):
            if j:
                col = [_dot(A[i][k + 1:], col, table, mul) for i in range(k + 1, n)]
            t.append(_dot(R, col, table, mul, neg=True))
        # (T p)_i = p_i + sum over j < i of t[i - j] p_j
        p = p[:1] + [_dot(t[i:0:-1], p[:i], table, mul, init=p[i] if i < len(p) else None)
                     for i in range(1, len(p) + 1)]
    p.reverse()
    return p


def _horner_tail(A, p, table, mul):
    """B = sum over k >= 1 of p_k A^(k-1), by Horner's rule, for a cleared
    matrix A and a monic p given constant first as elements; then
    p(A) = B A + p_0 I.

    Starts from the identity, whose empty coordinates the first product
    skips; scalars enter on the diagonal only, as the start of its sums."""
    n = len(A)
    zero = ([],) * len(table)
    B = [[p[-1] if i == j else zero for j in range(n)] for i in range(n)]
    cols = list(zip(*A))
    for c in reversed(p[1:-1]):
        B = _mul_add_scalar(B, cols, c, table, mul)
    return B


def _mul_add_scalar(B, cols, c, table, mul):
    """B A + c I, for A given by its columns and a central c."""
    return [[_dot(r, col, table, mul, init=c if i == j else None)
             for j, col in enumerate(cols)] for i, r in enumerate(B)]


def _negated(terms):
    return [(e, -c) for e, c in terms]


def _scalar(terms, dim: int):
    """The central element with real part terms."""
    return (terms,) + ([],) * (dim - 1)


def _norm_coeffs(q, table, mul) -> list:
    """Coefficients of q conj(q) = Re(q)^2 + Im(q)^2, central elements, for
    a polynomial q over F(sqrt(-1)) given by its complex coefficients,
    constant first.  table is F(sqrt(-1))'s; with the imaginary coordinates
    empty, only 1 * 1 = 1 is read."""
    n = len(q)
    re = [(c[0], []) for c in q]
    im = [(c[1], []) for c in q]
    out = []
    for k in range(2 * n - 1):
        idx = range(max(0, k - n + 1), min(k, n - 1) + 1)
        u = [re[i] for i in idx] + [im[i] for i in idx]
        v = [re[k - i] for i in idx] + [im[k - i] for i in idx]
        out.append(_dot(u, v, table, mul))
    return out


def _cleared_charpoly(spec: ESpec, A) -> list:
    """The reduced characteristic polynomial of the cleared matrix A, as
    central elements of E, constant first (see reduced_charpoly)."""
    F = spec.field
    if spec.kind is EKind.BASE:
        return _charpoly_commutative(A, spec.products, F)
    if spec.kind is EKind.COMPLEX:
        q = _charpoly_commutative(A, spec.products, F)
        return _norm_coeffs(q, spec.products, F.add_exponents)
    coeffs = _charpoly_commutative(_chi(A, _negated), complex_spec(F).products, F)
    if any(c[1] for c in coeffs):
        raise NonRealCoefficient("coefficient has a nonzero imaginary part")
    return [_scalar(c[0], spec.dim) for c in coeffs]


def _check_kind(spec: ESpec) -> None:
    if spec.kind is EKind.QUAT and not spec.hamilton:
        raise WrongKind("complex embedding needs entries in (-1,-1)_F")


def _cleared(M: MatE):
    """(d, rows of the term-list elements of d M), d the lcm of the
    coordinate denominators (FunctionField.clear_denominators).  The one
    way into the kernels: M must be square, over F, F(sqrt(-1)) or
    (-1,-1)_F."""
    if not M.is_square:
        raise DimensionMismatch("kernel input is not a square matrix")
    _check_kind(M.spec)
    d, flat = M.spec.field.clear_denominators([c for r in M.rows for q in r for c in q.coords])
    elems = list(zip(*[iter(flat)] * M.spec.dim))
    m = M.m
    return d, [elems[i:i + m] for i in range(0, len(elems), m)]


def reduced_charpoly(M: MatE) -> PolyX:
    """Reduced characteristic polynomial with coefficients in F.

    Degree n over F itself; degree 2n over F(sqrt(-1)) (the polynomial times
    its conjugate) and over the quaternions (characteristic polynomial of the
    complex embedding).  Over F(sqrt(-1)) that product is Re(q)^2 + Im(q)^2,
    real by construction; over the quaternions NonRealCoefficient is raised
    if a coefficient is not exactly real.

    Computed for d M, with d the lcm of M's denominators, on polynomials
    only; its coefficient of X^k is d^(deg-k) p_k, so the rescale at the end
    is one product per coefficient, and none when d = 1.
    """
    d, A = _cleared(M)
    F = M.spec.field
    coeffs = [F.polynomial(c[0]) for c in _cleared_charpoly(M.spec, A)]
    if d is not F.one:
        inv = d ** -1
        s = inv
        for k in range(len(coeffs) - 2, -1, -1):
            coeffs[k] = coeffs[k] * s
            if k:
                s = s * inv
    return PolyX(F, coeffs)


def is_right_eigenvalue(M: MatE, lam: EElement) -> bool:
    """Whether lam is a right eigenvalue of M (some x != 0 with Mx = x lam).

    The reduced characteristic polynomial p lies in F[X], so p(lam) = 0 iff
    the minimal polynomial of lam over F divides p: X - lam for central
    lam, X^2 - trd(lam) X + n(lam) otherwise.  Over F(sqrt(-1)), p is
    det(X - M) times its conjugate, so the test holds for lam when lam or
    conj(lam) is an eigenvalue.
    """
    if lam.spec != M.spec:
        raise SpecMismatch("eigenvalue lives over a different algebra")
    F = M.spec.field
    if lam.is_central():
        q = PolyX(F, [-lam.real_part(), F.one])
    else:
        q = PolyX(F, [lam.norm(), -lam.trd(), F.one])
    return reduced_charpoly(M).divmod(q)[1].is_zero


def cayley_hamilton_check(M: MatE) -> bool:
    """Whether the reduced characteristic polynomial annihilates M.

    Checked as p'(d M) = 0 on the cleared matrix d M, with p' its own
    reduced charpoly, which holds iff p(M) = 0 (p'(X) = d^deg p(X / d))."""
    _, A = _cleared(M)
    spec = M.spec
    mul = spec.field.add_exponents
    p = _cleared_charpoly(spec, A)
    B = _horner_tail(A, p, spec.products, mul)
    pA = _mul_add_scalar(B, list(zip(*A)), p[0], spec.products, mul)
    return not any(any(x) for r in pA for x in r)


def psd_at(M: MatE, P: OrderingSpec) -> bool:
    """Exact positive-semidefiniteness of a hermitian matrix at an ordering.

    Decided by central pivots, Sylvester's law in Schur-complement form (F.
    Zhang, Linear Algebra Appl. 251, 1997).  In M = [[m, r], [r*, M']] the
    pivot m is its own conjugate, so it lies in F and is central.  If m < 0
    at P, M is not PSD; if m = 0, M is PSD iff r = 0 and M' is PSD; if m > 0,
    iff m M' - r* r is PSD: the Schur complement scaled by m, hermitian and
    division-free.  E must be F, F(sqrt(-1)) or (-1,-1)_F, the algebras of
    HermContext; other quaternion algebras raise WrongKind.
    """
    if not M.is_hermitian():
        raise NotHermitian("matrix is not bar-transpose symmetric")
    _check_kind(M.spec)
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
    roots, splits = rational_roots(p)
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
