"""Matrices over the coefficient algebras.

Provides exact matrix arithmetic over E, the complex 2n x 2n embedding of a
quaternionic matrix, reduced characteristic polynomials with coefficients in
the base field, a right-eigenvalue test, Cayley-Hamilton verification, exact
positive-semidefiniteness at an ordering, and extraction of eigenvalues lying
in the base field.

Positive semidefiniteness, and the property suites of the cones module, run
on KeyedMat: coordinates held as keyed Laurent lists (field.Laurent), whose
keys add in a product and whose smallest key is the valuation-leading term,
so a pivot's sign at an ordering is read from one term.  Its two doors,
of_terms and cleared, pack the keys and take the reach, the largest |e_i|.

Characteristic polynomials, the Cayley-Hamilton check and the inverse are
division-free kernels on the matrix with its denominators cleared, d M with
d the lcm of the coordinate denominators, whose coordinates lie in
Z[x_1,...,x_r]: Berkowitz's recursion for the characteristic polynomial and
Horner's rule for the Cayley-Hamilton tail, each sum of products in E one
dot product.  Each coordinate is keyed once (field.Kronecker, whose
degree caps bound every output), and the kernels are written once over two
representations of the keyed coordinates.  Where Berkowitz runs on at
least 6 rows (n, or 2n for a quaternion matrix) and at most two variables
occur in d M, each coordinate is its Kronecker image, one int, and a dot
product is a sum of int products; elsewhere the coordinates stay keyed
lists, and a dot product adds each term product, keyed by the sum of two
keys, into one dict per output coordinate.  The images' width comes from a
first run of the same kernel on majorants: the coordinates' 1-norms, with
every structure-constant sign taken as + and negation as the identity,
which bound the 1-norm, and so the coefficients, of every output.  Field
elements are built from the outputs only: the charpoly of M by one rescale
by powers of d, the inverse by one scalar division.  The kernels reach
field elements only through FunctionField.clear_denominators and
FunctionField.polynomial.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Sequence

from .field import (FieldError, Kronecker, Laurent, PolyX, RatFunc, OrderingSpec,
                    rational_roots)
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
        (imaginary, divisor, B), element = _run(spec, A, _inverse_kernel)
        _require_real(imaginary)
        divisor = element(divisor[0])
        if divisor.is_zero:
            raise Singular("matrix is not invertible")
        B = MatE(spec, [[EElement(spec, tuple([element(c) for c in x])) for x in r]
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


# The kernels below run on a matrix with its denominators cleared and its
# coordinates keyed (field.Kronecker), in one of three representations, each
# a _Ring: keyed lists, their Kronecker images, and majorants, ints that
# bound the coordinates' 1-norms.  An element of E is the tuple of its
# coordinates, and a matrix a sequence of rows of elements.  The kernels
# only add and multiply, so no RatFunc is built before the result; _run
# picks the representation and reads results back.


class _Ring(NamedTuple):
    """One representation of the coordinates.  dot(u, v, table, init=None,
    neg=False) is init plus the sum of u_k v_k (minus it if neg) for
    elements of an algebra whose structure constants, table as in
    ESpec.products, are +-1; zero and one are the coordinates of 0 and 1,
    and neg negates a coordinate."""

    dot: Callable
    zero: object
    one: object
    neg: Callable


def _dot(u, v, table, init=None, neg=False):
    """dot on keyed lists.  Every term product of every coordinate pair goes
    straight into one dict per output coordinate, keyed by the sum of the
    two keys, with the sign of its structure constant: no product
    polynomial is built and no partial sum is copied."""
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
                        e = e1 + e2
                        out[e] = get(e, 0) + c1 * c2
    return tuple([[(e, c) for e, c in out.items() if c] for out in acc])


def _dot_image(u, v, table, init=None, neg=False):
    """dot on Kronecker images: one int product per pair of non-zero
    coordinates, added or subtracted by the sign of its structure constant."""
    acc = list(init) if init is not None else [0] * len(table)
    for x, y in zip(u, v):
        for i, a in enumerate(x):
            if not a:
                continue
            row = table[i]
            for j, b in enumerate(y):
                if b:
                    k, sign, _ = row[j]
                    if (sign < 0) is not neg:
                        acc[k] -= a * b
                    else:
                        acc[k] += a * b
    return tuple(acc)


def _dot_majorant(u, v, table, init=None, neg=False):
    """dot on majorants: _dot_image with every sign taken as +.  Since
    |f + g|_1 <= |f|_1 + |g|_1 and |f g|_1 <= |f|_1 |g|_1, each output
    bounds the 1-norm of dot's output on coordinates whose 1-norms the
    inputs bound."""
    acc = list(init) if init is not None else [0] * len(table)
    for x, y in zip(u, v):
        for i, a in enumerate(x):
            if a:
                row = table[i]
                for j, b in enumerate(y):
                    acc[row[j][0]] += a * b
    return tuple(acc)


_KEYED = _Ring(_dot, [], [(0, 1)], lambda keyed: [(k, -c) for k, c in keyed])
_IMAGE = _Ring(_dot_image, 0, 1, operator.neg)
_MAJORANT = _Ring(_dot_majorant, 0, 1, operator.pos)


def _charpoly_commutative(A, table, ring) -> list:
    """Coefficients of det(X - A), constant first, for a cleared matrix A
    over a commutative E, by Berkowitz's division-free recursion (Inf.
    Proc. Letters 18, 1984).

    Each trailing principal block [[a, R], [C, A1]] has p = T p_A1, where T
    is the lower-triangular Toeplitz matrix with first column 1, -a, -R C,
    -R A1 C, -R A1^2 C, ...  Only ring operations occur, about n^4/4
    products in E, each sum of them one dot, so the coefficients stay
    polynomials.  t holds the column without its signs, which the dot into
    p supplies.  The 1 on T's diagonal is never multiplied: p_A1's
    coefficient starts the sum instead, and p_A1's leading 1 stays p's."""
    dot = ring.dot
    n = len(A)
    p = [_scalar(ring.one, ring, len(table))]  # the empty block, leading first
    for k in range(n - 1, -1, -1):
        row = A[k][k + 1:]
        col = [A[i][k] for i in range(k + 1, n)]  # A1^j C, from j = 0
        t = [None, A[k][k]]
        for j in range(n - 1 - k):
            if j:
                col = [dot(A[i][k + 1:], col, table) for i in range(k + 1, n)]
            t.append(dot(row, col, table))
        # (T p)_i = p_i - sum over j < i of t[i - j] p_j
        p = p[:1] + [dot(t[i:0:-1], p[:i], table, init=p[i] if i < len(p) else None, neg=True)
                     for i in range(1, len(p) + 1)]
    p.reverse()
    return p


def _horner_tail(A, p, table, ring):
    """B = sum over k >= 1 of p_k A^(k-1), by Horner's rule, for a cleared
    matrix A and a monic p given constant first as elements; then
    p(A) = B A + p_0 I.

    Starts from the identity, whose zero coordinates the first product
    skips; scalars enter on the diagonal only, as the start of its sums."""
    n = len(A)
    zero = (ring.zero,) * len(table)
    B = [[p[-1] if i == j else zero for j in range(n)] for i in range(n)]
    cols = list(zip(*A))
    for c in reversed(p[1:-1]):
        B = _mul_add_scalar(B, cols, c, table, ring)
    return B


def _mul_add_scalar(B, cols, c, table, ring):
    """B A + c I, for A given by its columns and a central c."""
    return [[ring.dot(r, col, table, init=c if i == j else None)
             for j, col in enumerate(cols)] for i, r in enumerate(B)]


def _scalar(c, ring, dim: int):
    """The central element with real part c."""
    return (c,) + (ring.zero,) * (dim - 1)


def _norm_coeffs(q, table, ring) -> list:
    """Coefficients of q conj(q) = Re(q)^2 + Im(q)^2, central elements, for
    a polynomial q over F(sqrt(-1)) given by its complex coefficients,
    constant first.  table is F(sqrt(-1))'s; with the imaginary coordinates
    zero, only 1 * 1 = 1 is read."""
    n = len(q)
    re = [(c[0], ring.zero) for c in q]
    im = [(c[1], ring.zero) for c in q]
    out = []
    for k in range(2 * n - 1):
        idx = range(max(0, k - n + 1), min(k, n - 1) + 1)
        u = [re[i] for i in idx] + [im[i] for i in idx]
        v = [re[k - i] for i in idx] + [im[k - i] for i in idx]
        out.append(ring.dot(u, v, table))
    return out


def _cleared_charpoly(spec: ESpec, A, ring) -> tuple[list, list]:
    """(p, imaginary parts): p the reduced characteristic polynomial of the
    cleared matrix A, as central elements of E, constant first (see
    reduced_charpoly); over the quaternions, p is read off the charpoly of
    chi(A), whose imaginary parts must vanish (_require_real)."""
    table = spec.products
    if spec.kind is EKind.BASE:
        return _charpoly_commutative(A, table, ring), []
    if spec.kind is EKind.COMPLEX:
        return _norm_coeffs(_charpoly_commutative(A, table, ring), table, ring), []
    coeffs = _charpoly_commutative(_chi(A, ring.neg), complex_spec(spec.field).products, ring)
    return [_scalar(c[0], ring, spec.dim) for c in coeffs], [c[1] for c in coeffs]


def _require_real(imaginary) -> None:
    if any(imaginary):
        raise NonRealCoefficient("coefficient has a nonzero imaginary part")


def _cayley_hamilton_kernel(spec: ESpec, A, ring) -> tuple:
    """(imaginary parts, p(A)) for A's reduced charpoly p."""
    p, imaginary = _cleared_charpoly(spec, A, ring)
    B = _horner_tail(A, p, spec.products, ring)
    return imaginary, _mul_add_scalar(B, list(zip(*A)), p[0], spec.products, ring)


def _inverse_kernel(spec: ESpec, A, ring) -> tuple:
    """(imaginary parts, divisor, B') with A^-1 = -B' / divisor: the
    divisor is p_0 and B' the Horner tail B of the reduced charpoly p, or
    over F(sqrt(-1)) n(p_0) and B conj(p_0) for p = det(X - A).  B' is
    empty when the divisor is 0."""
    table = spec.products
    if spec.kind is EKind.COMPLEX:
        p, imaginary = _charpoly_commutative(A, table, ring), []
        divisor = _norm_coeffs(p[:1], table, ring)[0]
    else:
        p, imaginary = _cleared_charpoly(spec, A, ring)
        divisor = p[0]
    if not divisor[0]:
        return imaginary, divisor, []
    B = _horner_tail(A, p, table, ring)
    if spec.kind is EKind.COMPLEX:
        c = (p[0][0], ring.neg(p[0][1]))
        B = [[ring.dot((x,), (c,), table) for x in r] for r in B]
    return imaginary, divisor, B


def _cleared(M: MatE):
    """(d, rows of the term-list elements of d M), d the lcm of the
    coordinate denominators (FunctionField.clear_denominators).  The one
    way into the kernels: M must be square, over F, F(sqrt(-1)) or
    (-1,-1)_F."""
    if not M.is_square:
        raise DimensionMismatch("kernel input is not a square matrix")
    if M.spec.kind is EKind.QUAT and not M.spec.hamilton:
        raise WrongKind("complex embedding needs entries in (-1,-1)_F")
    d, flat = M.spec.field.clear_denominators([c for r in M.rows for q in r for c in q.coords])
    elems = list(zip(*[iter(flat)] * M.spec.dim))
    m = M.m
    return d, [elems[i:i + m] for i in range(0, len(elems), m)]


# The images pay from Berkowitz on 6 rows (a 3 x 3 quaternion matrix) in at
# most two variables, measured as CPU time per operation on Hamilton
# matrices (the grid in CHANGES.md).  On smaller matrices the keyed lists are
# as fast or faster; with a third variable an image holds the product of
# the cap_i + 1 digits, most of them zero, and is 1.6 to 2.5 times slower.
_IMAGE_MIN_SIZE = 6
_IMAGE_MAX_VARIABLES = 2


def _caps(spec: ESpec, A):
    """(caps, images) for the cleared matrix A: the degree caps of its keys,
    and whether its coordinates are held as Kronecker images, which is when
    Berkowitz runs on at least _IMAGE_MIN_SIZE rows (n, or 2n through chi)
    and at most _IMAGE_MAX_VARIABLES variables occur in A.  With e_i the
    largest exponent of x_i in A, every kernel output has degree at most
    deg e_i in x_i, deg the degree of the reduced charpoly: n over F, and
    2n over the quaternions (Berkowitz on chi) and over F(sqrt(-1)), whose
    norm products and inverse double Berkowitz's n e_i."""
    n = len(A)
    e = spec.field.largest_exponents([c for r in A for x in r for c in x])
    deg = n if spec.kind is EKind.BASE else 2 * n
    images = ((2 * n if spec.kind is EKind.QUAT else n) >= _IMAGE_MIN_SIZE
              and sum(map(bool, e)) <= _IMAGE_MAX_VARIABLES)
    return [deg * a for a in e], images


def _run(spec: ESpec, A, kernel):
    """(kernel(spec, A, ring), element) for the cleared matrix A, with
    element turning one output coordinate into a field element: A's
    coordinates are keyed once, and the kernel runs on the keyed lists or,
    where _caps chooses them, on their Kronecker images.

    A kernel returns exactly the values that are read back or tested for
    zero, and these lie within the caps.  The images' width comes from a
    first run of the kernel on the coordinates' 1-norms, the majorants:
    each of its outputs bounds the 1-norm of the matching output, and so
    each of its coefficients, and a sign bit above the largest makes every
    output decode."""
    F = spec.field
    caps, images = _caps(spec, A)
    K = Kronecker(caps)
    A = _map_coords(A, K.pack)
    if not images:
        return kernel(spec, A, _KEYED), lambda v: F.polynomial(K.unpack(v))
    width = _largest(kernel(spec, _map_coords(A, _norm1), _MAJORANT)).bit_length() + 1
    A = _map_coords(A, lambda keyed: K.image(keyed, width))
    return kernel(spec, A, _IMAGE), lambda v: F.polynomial(K.unpack(K.split(v, width)))


def _norm1(terms) -> int:
    return sum([abs(c) for _, c in terms])


def _map_coords(A, f):
    return [[tuple(map(f, x)) for x in r] for r in A]


def _largest(tree) -> int:
    """The largest int in nested tuples and lists of ints, 0 if none."""
    if isinstance(tree, int):
        return tree
    return max(map(_largest, tree), default=0)


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
    (p, imaginary), element = _run(M.spec, A, _cleared_charpoly)
    _require_real(imaginary)
    coeffs = [element(c[0]) for c in p]
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

    Over F(sqrt(-1)), which is commutative, that is det(lam - M) = 0,
    tested as det(X - d M) = 0 at d lam on the cleared d M; lam and
    conj(lam) are told apart.  Over F and the quaternions the reduced
    characteristic polynomial p lies in F[X], so p(lam) = 0 iff the
    minimal polynomial of lam over F divides p: X - lam for central lam,
    X^2 - trd(lam) X + n(lam) otherwise; the right eigenvalues of a
    quaternion matrix are closed under similarity, so under conjugation.
    """
    if lam.spec != M.spec:
        raise SpecMismatch("eigenvalue lives over a different algebra")
    spec = M.spec
    F = spec.field
    if spec.kind is EKind.COMPLEX:
        d, A = _cleared(M)
        q, element = _run(spec, A, lambda spec, A, ring: _charpoly_commutative(
            A, spec.products, ring))
        x = lam.scale(d)
        acc = spec.zero()
        for c in reversed(q):
            acc = acc * x + EElement(spec, tuple([element(t) for t in c]))
        return acc.is_zero
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
    (imaginary, pA), _ = _run(M.spec, A, _cayley_hamilton_kernel)
    _require_real(imaginary)
    return not any(any(x) for r in pA for x in r)


class KeyedMat:
    """A square matrix over F, F(sqrt(-1)) or (-1,-1)_F held as rows of
    elements whose coordinates are keyed Laurent lists (field.Laurent) with
    integer coefficients, over one positive integer den: the matrix is
    rows / den.  reach bounds the |exponents| of every term, and every
    product checks it against the keys' range.  Each entry of a sum, a
    product or a scaling is one _dot."""

    __slots__ = ("spec", "rows", "den", "reach")

    def __init__(self, spec: ESpec, rows, den: int = 1, reach: int = 0):
        self.spec = spec
        self.rows = rows
        self.den = den
        self.reach = reach

    @classmethod
    def of_terms(cls, spec: ESpec, rows) -> "KeyedMat":
        """The matrix whose rows of elements have coordinates given as term
        lists with integer coefficients, each packed once; the reach is the
        largest |exponent| packed."""
        pack = spec.field.laurent.pack
        reach = max([abs(a) for r in rows for x in r for t in x for e, _ in t for a in e],
                    default=0)
        return cls(spec, [[tuple([pack(t) if t else [] for t in x]) for x in r] for r in rows], 1,
                   Laurent.check(reach))

    @classmethod
    def cleared(cls, M: MatE) -> tuple[RatFunc, "KeyedMat"]:
        """(d, d M), d the lcm of M's denominators (_cleared)."""
        d, A = _cleared(M)
        return d, cls.of_terms(M.spec, A)

    def _plus(self, other: "KeyedMat", sign: int) -> "KeyedMat":
        """self + sign other, over the lcm of the denominators."""
        den, dim = math.lcm(self.den, other.den), self.spec.dim
        p = _scalar([(0, den // self.den)], _KEYED, dim)
        q = _scalar([(0, sign * (den // other.den))], _KEYED, dim)
        table = self.spec.products
        return KeyedMat(self.spec, [[_dot((p, q), (x, y), table) for x, y in zip(r, s)]
                                    for r, s in zip(self.rows, other.rows)],
                        den, max(self.reach, other.reach))

    def __add__(self, other: "KeyedMat") -> "KeyedMat":
        return self._plus(other, 1)

    def __sub__(self, other: "KeyedMat") -> "KeyedMat":
        return self._plus(other, -1)

    def __neg__(self) -> "KeyedMat":
        neg = _KEYED.neg
        return KeyedMat(self.spec, [[tuple(map(neg, x)) for x in r] for r in self.rows],
                        self.den, self.reach)

    def __mul__(self, other: "KeyedMat") -> "KeyedMat":
        table = self.spec.products
        cols = list(zip(*other.rows))
        return KeyedMat(self.spec, [[_dot(r, c, table) for c in cols] for r in self.rows],
                        self.den * other.den, Laurent.check(self.reach + other.reach))

    def scale(self, u: RatFunc) -> "KeyedMat":
        """u self for a monomial or zero u."""
        if u.is_zero:
            return KeyedMat(self.spec, [[([],) * self.spec.dim for _ in r] for r in self.rows])
        exps, c = u.leading_term()
        s = _scalar(self.spec.field.laurent.pack([(exps, c.numerator)]), _KEYED, self.spec.dim)
        table = self.spec.products
        return KeyedMat(self.spec, [[_dot((s,), (x,), table) for x in r] for r in self.rows],
                        self.den * c.denominator,
                        Laurent.check(self.reach + max(map(abs, exps), default=0)))

    def star(self) -> "KeyedMat":
        """The bar-transpose."""
        neg = _KEYED.neg
        return KeyedMat(self.spec, [[(x[0],) + tuple(map(neg, x[1:])) for x in c]
                                    for c in zip(*self.rows)], self.den, self.reach)

    @property
    def is_zero(self) -> bool:
        return not any(any(x) for r in self.rows for x in r)

    def is_hermitian(self) -> bool:
        rows, neg = self.rows, _KEYED.neg
        for i, r in enumerate(rows):
            for j in range(i, len(rows)):
                x, y = r[j], rows[j][i]
                if sorted(x[0]) != sorted(y[0]) or any(
                        sorted(a) != sorted(neg(b)) for a, b in zip(x[1:], y[1:])):
                    return False
        return True

    def psd_at(self, P: OrderingSpec) -> bool:
        """Positive semidefiniteness at P; den > 0 leaves it unchanged.

        Decided by central pivots, Sylvester's law in Schur-complement form
        (F. Zhang, Linear Algebra Appl. 251, 1997).  In M = [[m, r], [r*, M']]
        the pivot m is its own conjugate, so it lies in F and is central.  If
        m < 0 at P, M is not PSD; if m = 0, M is PSD iff r = 0 and M' is PSD;
        if m > 0, iff m M' - r* r is PSD: the Schur complement scaled by m,
        hermitian and division-free, each entry one _dot, with the reach
        doubling.  A pivot's sign is that of its leading term, the smallest
        key."""
        if not self.is_hermitian():
            raise NotHermitian("matrix is not bar-transpose symmetric")
        spec, rows, reach = self.spec, self.rows, self.reach
        K, table, neg = spec.field.laurent, spec.products, _KEYED.neg
        while rows:
            m = rows[0][0][0]
            r, rest = rows[0][1:], rows[1:]
            if not m:
                if any(any(x) for x in r):
                    return False
                rows = [row[1:] for row in rest]
            elif K.sign_at(m, P) < 0:
                return False
            elif not rest:
                return True
            else:
                reach = K.check(2 * reach)
                m = _scalar(m, _KEYED, spec.dim)
                r = [tuple(map(neg, y)) for y in r]
                rows = [[_dot((m, row[0]), (x, y), table) for x, y in zip(row[1:], r)]
                        for row in rest]
        return True


def psd_at(M: MatE, P: OrderingSpec) -> bool:
    """Exact positive-semidefiniteness of a hermitian matrix at an ordering:
    KeyedMat.psd_at on d M (KeyedMat.cleared), negated once if d < 0 at P.
    d is real, so d M is hermitian exactly when M is, and after a Schur step
    the entries carry d^2.  E must be F, F(sqrt(-1)) or (-1,-1)_F."""
    d, K = KeyedMat.cleared(M)
    return (-K if d.sign_at(P) < 0 else K).psd_at(P)


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
