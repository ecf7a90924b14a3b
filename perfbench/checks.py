"""Independent checks of the benchmark's outputs.

Each check is either a property the mathematics forces on the output or a
value computed here from the inputs without going through the code under
test.  A failed check raises CheckFailed with a message naming the value.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program contradicts an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# compat_cones
# ---------------------------------------------------------------------------

CONDITIONS = ("C0", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "complicated")


def compat_report(report, samples: int) -> None:
    """Every condition reports no violation, and each tried count reaches the
    floor criterion 07 applies (all samples, three quarters of them for C1,
    which skips zero samples, and for complicated, which needs an
    invertible residue)."""
    require(tuple(sorted(report.conditions)) == tuple(sorted(CONDITIONS)),
            f"conditions {sorted(report.conditions)}")
    for name, res in report.conditions.items():
        require(not res.violations, f"{name} violated: {res.violations[:3]}")
        floor = -(-3 * samples // 4) if name in ("C1", "complicated") else samples
        require(res.tried >= floor, f"{name} tried {res.tried} < {floor}")


# ---------------------------------------------------------------------------
# quat_charpoly
# ---------------------------------------------------------------------------

def hamilton_real_product(p, q):
    """Real part of the Hamilton product p q, from the coordinates alone."""
    a, b = p.coords, q.coords
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def charpoly_shape(p, n: int, trace) -> None:
    """A reduced charpoly of an n x n quaternion matrix is monic of degree 2n
    and its X^(2n-1) coefficient is -2 times the real part of the trace."""
    require(not p.is_zero and p.degree == 2 * n, f"degree {len(p.coeffs) - 1} != {2 * n}")
    require(p.coeffs[-1] == 1, f"leading coefficient {p.coeffs[-1]}")
    require(p.coeffs[-2] == -2 * trace,
            f"X^{2 * n - 1} coefficient {p.coeffs[-2]} != {-2 * trace}")


def real_trace(M):
    acc = M.spec.field.zero
    for i in range(M.n):
        acc = acc + M.rows[i][i].coords[0]
    return acc


def real_trace_of_product(M, N):
    """Re tr(MN) = sum over i, j of Re(M_ij N_ji), without forming MN."""
    acc = M.spec.field.zero
    for i in range(M.n):
        for j in range(M.n):
            acc = acc + hamilton_real_product(M.rows[i][j], N.rows[j][i])
    return acc


def product_charpolys(p_mn, p_nm, p_m, p_n, M, N) -> None:
    """p(MN) = p(NM), both have the shape of a reduced charpoly, and the
    constant term is multiplicative: p_MN(0) = p_M(0) p_N(0)."""
    require(p_mn == p_nm, "reduced charpolys of MN and NM differ")
    charpoly_shape(p_mn, M.n, real_trace_of_product(M, N))
    require(p_mn.coeffs[0] == p_m.coeffs[0] * p_n.coeffs[0],
            f"p_MN(0) = {p_mn.coeffs[0]} != p_M(0) p_N(0) = {p_m.coeffs[0] * p_n.coeffs[0]}")


# ---------------------------------------------------------------------------
# rational_inverse: exact quaternions over Q, for point evaluation
# ---------------------------------------------------------------------------

def q_mul(p, q):
    """Product in the Hamilton quaternions over Q; F and F(sqrt(-1)) embed
    as the first one and two coordinates."""
    a0, a1, a2, a3 = p
    b0, b1, b2, b3 = q
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
        a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
    )


def q_inv(q):
    n = sum(c * c for c in q)
    return (q[0] / n, -q[1] / n, -q[2] / n, -q[3] / n)


def invertible_2x2(a, b, c, d) -> bool:
    """Whether [[a, b], [c, d]] over the rational quaternions is invertible:
    d - c a^-1 b != 0 when a != 0, else b != 0 and c != 0."""
    zero = (0, 0, 0, 0)
    if tuple(a) != zero:
        cab = q_mul(q_mul(c, q_inv(a)), b)
        return tuple(x - y for x, y in zip(d, cab)) != zero
    return tuple(b) != zero and tuple(c) != zero


def eval_terms(terms, point) -> Fraction:
    """Value at a point of a Laurent polynomial given as {exponents: coeff}."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        v = Fraction(coeff)
        for x, e in zip(point, exps):
            v *= x ** e
        total += v
    return total


def is_identity(P) -> bool:
    one, zero = P.spec.one(), P.spec.zero()
    return all(
        P.rows[i][j] == (one if i == j else zero)
        for i in range(P.n)
        for j in range(P.m)
    )


def inverse_pair(A, B) -> None:
    """B is the two-sided inverse of A."""
    require(is_identity(A * B), "A * A^-1 is not the identity")
    require(is_identity(B * A), "A^-1 * A is not the identity")


# ---------------------------------------------------------------------------
# lift_cli: liftable orderings of (M_n(H), ad_h) from exponents and signs
# ---------------------------------------------------------------------------

def fmt_signs(eta) -> str:
    return "".join("+" if s > 0 else "-" for s in eta)


def hamilton_liftable(form) -> set[str]:
    """Sign vectors at which all entries of the trace form share a sign.

    For (M_n(H), ad_h) with h = <e_1, ..., e_n> the trace form is
    2 e_i/e_j on each of the four quaternion basis directions, so it is
    definite exactly where all e_i share a sign.  form is a list of
    (sign, exponent vector) of the monomial entries e_i.
    """
    r = len(form[0][1])
    out = set()
    for eta in itertools.product((-1, 1), repeat=r):
        signs = set()
        for sign, exps in form:
            s = sign
            for e, a in zip(eta, exps):
                if a % 2:
                    s *= e
            signs.add(s)
        if len(signs) == 1:
            out.add(fmt_signs(eta))
    return out


def coset_index(form) -> int:
    """Number of distinct (a_i - a_j) mod 2 over all pairs of exponent vectors."""
    return len({
        tuple((x - y) % 2 for x, y in zip(u, v))
        for _, u in form
        for _, v in form
    })


def lift_report(emitted: bytes, form) -> None:
    """The emitted JSON parses, the Harrison and wadth cross-checks hold, and
    the liftable set, its size and the coset index match the values computed
    from the form's exponents and signs."""
    try:
        doc = json.loads(emitted)
    except ValueError as exc:
        raise CheckFailed(f"emitted report is not JSON: {exc}") from None
    analyses = doc["analyses"]
    for name, section in analyses.items():
        require("error" not in section, f"{name}: {section.get('error')}")
    lift, wadth = analyses["lift"], analyses["wadth"]
    require(lift["harrisonMatches"] is True, "harrisonMatches is not true")
    require(wadth["consistent"] is True, "wadth.consistent is not true")
    expected = hamilton_liftable(form)
    require(set(lift["liftable"]) == expected and len(lift["liftable"]) == len(expected),
            f"liftable {sorted(lift['liftable'])} != {sorted(expected)}")
    require(wadth["liftCount"] == len(expected),
            f"liftCount {wadth['liftCount']} != {len(expected)}")
    index = coset_index(form)
    require(analyses["gauge"]["cosetIndex"] == index,
            f"cosetIndex {analyses['gauge']['cosetIndex']} != {index}")
