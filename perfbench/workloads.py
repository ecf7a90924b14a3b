"""The benchmark's four workloads.

A workload is a list of operations built from a seed.  Building it is the
set-up that run.py times; running every operation once is one round.  Each
operation carries a check that compares its output with properties the
mathematics forces or with values computed in checks.py apart from the
program.

Operations look up the program's functions on their modules at call time
(``cones.compatibility_suite``, not an imported name), so that the traced
run's wrappers see every call.

Random inputs are drawn so that every seed does about the same amount of
work: matrices from ``cones.random_matrix`` are kept only when exactly half
of their coordinates are non-zero, and the rational-function matrices have
fixed shapes (which coordinates are non-zero, the exponent vectors and the
terms of the rational entry) drawn once from SHAPE_SEED, with the seed
drawing their coefficients.  Without this the run-to-run spread of one
round is several tens of percent, far above the bounds the benchmark keeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from gaugecones import cli, cones, gauges, matrices
from gaugecones.algebra import (
    EElement,
    HermContext,
    base_spec,
    complex_spec,
    hamilton_spec,
)
from gaugecones.field import FunctionField, OrderingSpec

import checks


@dataclass
class Op:
    """One timed operation: run() is timed, check(output) is not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def reference_contexts(F: FunctionField):
    """The three reference contexts of criterion 07, each with two orderings
    at which its form is definite."""
    x, y = F.vars()
    return [
        ("base", HermContext(base_spec(F), (F.one, x)), ((1, 1), (1, -1))),
        ("complex", HermContext(complex_spec(F), (F.one, x * y)), ((1, 1), (-1, -1))),
        ("hamilton", HermContext(hamilton_spec(F), (F.one, F.one)), ((1, 1), (-1, 1))),
    ]


def nonzero_coords(M) -> int:
    return sum(not c.is_zero for row in M.rows for q in row for c in q.coords)


def half_dense_matrix(spec, n: int, rng: random.Random):
    """cones.random_matrix conditioned on exactly half of its coordinates
    being non-zero."""
    target = spec.dim * n * n // 2
    while True:
        M = cones.random_matrix(spec, n, rng)
        if nonzero_coords(M) == target:
            return M


# ---------------------------------------------------------------------------
# compat_cones
# ---------------------------------------------------------------------------

COMPAT_SAMPLES = 20


def compat_cones(seed: int, samples: int = COMPAT_SAMPLES) -> list[Op]:
    """compatibility_suite on each reference context at both orderings."""
    F = FunctionField(["x", "y"])
    ops = []
    for name, ctx, etas in reference_contexts(F):
        for eta in etas:
            C = cones.ConeSpec(ctx, OrderingSpec(eta))
            suite_seed = seed * 100 + len(ops)
            ops.append(Op(
                f"compat/{name}/{checks.fmt_signs(eta)}",
                lambda C=C, s=suite_seed: cones.compatibility_suite(
                    C, sample_count=samples, seed=s),
                lambda report: checks.compat_report(report, samples),
            ))
    return ops


# ---------------------------------------------------------------------------
# quat_charpoly
# ---------------------------------------------------------------------------

# operations per round by matrix size; the counts put the median operation
# inside the n = 3 Cayley-Hamilton checks rather than between two sizes
CH_COUNTS = {1: 2, 2: 2, 3: 6, 4: 4}
MN_COUNTS = {1: 2, 2: 2, 3: 4}


def _ch_check(M):
    def check(holds):
        checks.require(holds is True, "Cayley-Hamilton fails")
        checks.charpoly_shape(matrices.reduced_charpoly(M), M.n, checks.real_trace(M))
    return check


def _mn_check(M, N):
    def check(pair):
        checks.product_charpolys(*pair, matrices.reduced_charpoly(M),
                                 matrices.reduced_charpoly(N), M, N)
    return check


def quat_charpoly(seed: int, ch_counts=CH_COUNTS, mn_counts=MN_COUNTS) -> list[Op]:
    """Cayley-Hamilton checks and MN/NM reduced charpolys of Hamilton
    matrices with random monomial entries."""
    rng = random.Random(seed)
    spec = hamilton_spec(FunctionField(["x", "y"]))
    ops = []
    for n, count in ch_counts.items():
        for k in range(count):
            M = half_dense_matrix(spec, n, rng)
            ops.append(Op(f"cayley_hamilton/{n}/{k}",
                          lambda M=M: matrices.cayley_hamilton_check(M),
                          _ch_check(M)))
    for n, count in mn_counts.items():
        for k in range(count):
            M = half_dense_matrix(spec, n, rng)
            N = half_dense_matrix(spec, n, rng)
            ops.append(Op(f"charpoly_mn_nm/{n}/{k}",
                          lambda M=M, N=N: (matrices.reduced_charpoly(M * N),
                                            matrices.reduced_charpoly(N * M)),
                          _mn_check(M, N)))
    return ops


# ---------------------------------------------------------------------------
# rational_inverse
# ---------------------------------------------------------------------------

SHAPE_SEED = 0
POINT = (Fraction(2, 3), Fraction(5, 7))
EXPONENT_GRID = [(i, j) for i in range(4) for j in range(4)]
MONO_COEFFS = ([-3, -1, 1, 2, 5], [1, 2, 3, 4])

# (coefficient algebra, number of shapes, draws of each shape per round,
# non-zero monomial coordinates besides the rational entry)
INVERSE_SHAPES = (("complex", 8, 12, 3), ("hamilton", 6, 8, 4))
IN_ST_PER_CONTEXT = 12


@dataclass(frozen=True)
class Shape:
    """Which coordinates of a 2 x 2 matrix are non-zero and their exponents;
    coordinate 0 is the rational entry num/den, the others are monomials."""

    dim: int
    monomials: dict
    num: tuple
    den: tuple


def make_shape(dim: int, nonzero: int, rng: random.Random) -> Shape:
    """A shape whose matrices are invertible for generic coefficients: with
    a != 0, d - c a^-1 b vanishes identically only when d = 0 and b c = 0."""
    while True:
        positions = rng.sample(range(1, 4 * dim), nonzero)
        b, c, d = ({k // dim for k in positions} & {t} for t in (1, 2, 3))
        if d or (b and c):
            break
    monomials = {k: (rng.randint(-1, 2), rng.randint(-1, 2)) for k in sorted(positions)}
    return Shape(dim, monomials, tuple(rng.sample(EXPONENT_GRID, 3)),
                 tuple(rng.sample(EXPONENT_GRID, 3)))


def draw_rational_matrix(spec, shape: Shape, rng: random.Random):
    """A matrix of the given shape with coefficients from rng, invertible at
    POINT and hence over F."""
    F = spec.field
    for _ in range(1000):
        num = {e: rng.choice([-1, 1]) * rng.randint(1, 10) for e in shape.num}
        den = {e: rng.choice([-1, 1]) * rng.randint(1, 10) for e in shape.den}
        mono = {k: Fraction(rng.choice(MONO_COEFFS[0]), rng.choice(MONO_COEFFS[1]))
                for k in shape.monomials}
        den_at = checks.eval_terms(den, POINT)
        if den_at == 0:
            continue
        d = shape.dim
        values = [Fraction(0)] * (4 * d)
        values[0] = checks.eval_terms(num, POINT) / den_at
        for k, c in mono.items():
            values[k] = checks.eval_terms({shape.monomials[k]: c}, POINT)
        cells = [tuple(values[t * d:(t + 1) * d]) + (0,) * (4 - d) for t in range(4)]
        if checks.invertible_2x2(*cells):
            break
    else:
        raise RuntimeError(f"no invertible draw of {shape}")
    coords = [F.zero] * (4 * d)
    coords[0] = _poly(F, num) / _poly(F, den)
    for k, c in mono.items():
        coords[k] = F.monomial(shape.monomials[k], c)
    cells = [EElement(spec, tuple(coords[t * d:(t + 1) * d])) for t in range(4)]
    return matrices.MatE(spec, [cells[:2], cells[2:]])


def _poly(F, terms):
    acc = F.zero
    for exps, c in terms.items():
        acc = acc + F.monomial(exps, c)
    return acc


def monomial_matrix_at(M, point):
    """The 2 x 2 monomial matrix M evaluated at a point, as rational
    quaternions; each coordinate is read from its leading term, which is the
    whole coordinate for a monomial."""
    out = []
    for row in M.rows:
        for q in row:
            values = []
            for c in q.coords:
                if c.is_zero:
                    values.append(Fraction(0))
                    continue
                exps, coeff = c.leading_term()
                checks.require(c == c.field.monomial(exps, coeff), f"{c} is not a monomial")
                values.append(checks.eval_terms({exps: coeff}, point))
            out.append(tuple(values) + (Fraction(0),) * (4 - len(values)))
    return out


def _inverse_check(A):
    return lambda B: checks.inverse_pair(A, B)


def _in_st_check(a, G):
    def check(verdict):
        expected = gauges.gauge_value(a.inverse(), G) == -gauges.gauge_value(a, G)
        checks.require(verdict is expected, f"in_st {verdict}, w(a^-1) = -w(a) is {expected}")
    return check


def rational_inverse(seed: int, shapes=INVERSE_SHAPES,
                     in_st_per_context: int = IN_ST_PER_CONTEXT) -> list[Op]:
    """MatE.inverse on 2 x 2 complex and Hamilton matrices with one
    rational-function entry, and in_st on invertible 2 x 2 monomial matrices
    of the three reference contexts."""
    F = FunctionField(["x", "y"])
    spec_of = {"complex": complex_spec(F), "hamilton": hamilton_spec(F)}
    shape_rng = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    ops = []
    for kind, count, draws, nonzero in shapes:
        spec = spec_of[kind]
        for s in range(count):
            shape = make_shape(spec.dim, nonzero, shape_rng)
            for k in range(draws):
                A = draw_rational_matrix(spec, shape, rng)
                ops.append(Op(f"inverse/{kind}/{s}/{k}", lambda A=A: A.inverse(),
                              _inverse_check(A)))
    for name, ctx, etas in reference_contexts(F):
        G = gauges.GaugeContext(ctx, OrderingSpec(etas[0]))
        for k in range(in_st_per_context):
            while True:
                a = half_dense_matrix(ctx.espec, 2, rng)
                if checks.invertible_2x2(*monomial_matrix_at(a, POINT)):
                    break
            ops.append(Op(f"in_st/{name}/{k}",
                          lambda a=a, G=G: gauges.in_st(a, G),
                          _in_st_check(a, G)))
    return ops


# ---------------------------------------------------------------------------
# lift_cli
# ---------------------------------------------------------------------------

# (number of variables, rank of the Hamilton form) of each config in a round;
# an odd count keeps the median operation inside one config's timings
LIFT_CONFIGS = ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2))
LIFT_ANALYSES = ["gauge", "residue", "lift", "wadth"]


def monomial_form(r: int, rank: int, rng: random.Random):
    """Monomial entries (sign, exponents, |coefficient|), all positive at a
    random sign vector, so the form is definite somewhere."""
    eta = [rng.choice((-1, 1)) for _ in range(r)]
    form = []
    for _ in range(rank):
        exps = tuple(rng.randint(0, 2) for _ in range(r))
        sign = 1
        for e, a in zip(eta, exps):
            if a % 2:
                sign *= e
        form.append((sign, exps, rng.randint(1, 3)))
    return form


def monomial_source(sign: int, exps, magnitude: int) -> str:
    factors = [str(sign * magnitude)]
    factors += [f"x{i + 1}^{a}" if a > 1 else f"x{i + 1}"
                for i, a in enumerate(exps) if a]
    return "*".join(factors)


def lift_config(form, seed: int) -> dict:
    r = len(form[0][1])
    return {
        "vars": [f"x{i + 1}" for i in range(r)],
        "algebra": {"variant": "matrix", "kind": "hamilton",
                    "form": [monomial_source(*entry) for entry in form]},
        "ordering": "ALL",
        "analyses": list(LIFT_ANALYSES),
        "seed": seed,
    }


def lift_cli(seed: int, configs=LIFT_CONFIGS) -> list[Op]:
    """parse_config -> run -> emit on rank-2 and rank-3 Hamilton forms of
    monomials."""
    rng = random.Random(seed)
    ops = []
    for r, rank in configs:
        form = monomial_form(r, rank, rng)
        doc = lift_config(form, seed)
        signs_exps = [(sign, exps) for sign, exps, _ in form]
        ops.append(Op(f"lift/r{r}/rank{rank}",
                      lambda doc=doc: cli.emit(cli.run(cli.parse_config(doc))),
                      lambda out, f=signs_exps: checks.lift_report(out, f)))
    return ops


WORKLOADS = {
    "compat_cones": compat_cones,
    "quat_charpoly": quat_charpoly,
    "rational_inverse": rational_inverse,
    "lift_cli": lift_cli,
}
