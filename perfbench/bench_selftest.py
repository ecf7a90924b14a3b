"""Tests of the benchmark itself, kept out of the project's test suite.

    python3 -m pytest perfbench/bench_selftest.py -q

Every workload runs at a tiny size with no failed operation, each
independent check rejects a deliberately wrong value, and the tracer counts
the same calls on two traced rounds and leaves the program as it found it.
"""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from gaugecones import cones, field, matrices  # noqa: E402
from gaugecones.algebra import hamilton_spec  # noqa: E402
from gaugecones.field import PolyX  # noqa: E402

TINY = {
    "compat_cones": lambda seed: workloads.compat_cones(seed, samples=2),
    "quat_charpoly": lambda seed: workloads.quat_charpoly(
        seed, ch_counts={1: 1, 2: 1}, mn_counts={1: 1, 2: 1}),
    "rational_inverse": lambda seed: workloads.rational_inverse(
        seed, shapes=(("complex", 1, 1, 3), ("hamilton", 1, 1, 4)), in_st_per_context=1),
    "lift_cli": lambda seed: workloads.lift_cli(seed, configs=((2, 2), (3, 3))),
}


def verified(ops, rounds=1):
    verifier = run.Verifier(ops)
    for _ in range(rounds):
        verifier.verify(run.run_round(ops)[2])
    return verifier


def op_output(ops, prefix):
    op = next(op for op in ops if op.label.startswith(prefix))
    return op, op.run()


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_has_no_failures(name):
    assert set(TINY) == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    verifier = verified(TINY[name](7), rounds=2)
    assert verifier.messages == []
    assert (verifier.failed, verifier.wrong) == (0, 0)
    assert verifier.attempted == 2 * len(verifier.ops)


def test_inputs_repeat_for_a_seed():
    labels = [op.label for op in TINY["rational_inverse"](3)]
    a = [op.run() for op in TINY["rational_inverse"](3)]
    b = [op.run() for op in TINY["rational_inverse"](3)]
    assert a == b and len(labels) == len(a)


def test_wrong_output_makes_the_run_incorrect():
    ops = TINY["quat_charpoly"](1)
    op = next(op for op in ops if op.label.startswith("charpoly_mn_nm/2"))
    right = op.run

    def wrong():
        p_mn, p_nm = right()
        return p_mn, p_nm.scale(p_nm.field.from_fraction(2))

    op.run = wrong
    verifier = verified(ops)
    assert verifier.wrong == 1 and verifier.failed == 1


def test_liftable_set_with_a_flipped_sign_vector_is_rejected():
    ops = TINY["lift_cli"](5)
    op, emitted = op_output(ops, "lift/r3")
    op.check(emitted)
    doc = json.loads(emitted)
    liftable = doc["analyses"]["lift"]["liftable"]
    assert liftable, "the forms are definite at some ordering"
    first = liftable[0]
    flipped = ("-" if first[0] == "+" else "+") + first[1:]
    doc["analyses"]["lift"]["liftable"] = [flipped] + liftable[1:]
    with pytest.raises(checks.CheckFailed, match="liftable"):
        op.check(json.dumps(doc).encode())


def test_hamilton_liftable_by_hand():
    # <1, x1> over Q(x1, x2): x1 > 0 exactly when eta_1 = +1
    form = [(1, (0, 0)), (1, (1, 0))]
    assert checks.hamilton_liftable(form) == {"+-", "++"}
    assert checks.coset_index(form) == 2
    # <1, -x1 x2>: definite where eta_1 eta_2 = -1
    assert checks.hamilton_liftable([(1, (0, 0)), (-1, (1, 1))]) == {"+-", "-+"}


def test_charpoly_with_a_wrong_constant_term_is_rejected():
    ops = TINY["quat_charpoly"](2)
    op, (p_mn, p_nm) = op_output(ops, "charpoly_mn_nm/2")
    op.check((p_mn, p_nm))
    bad = PolyX(p_mn.field, (p_mn.coeffs[0] + 1,) + p_mn.coeffs[1:])
    with pytest.raises(checks.CheckFailed, match="p_MN"):
        op.check((bad, bad))


def test_charpoly_with_a_wrong_trace_coefficient_is_rejected():
    ops = TINY["quat_charpoly"](2)
    op, holds = op_output(ops, "cayley_hamilton/2")
    op.check(holds)
    with pytest.raises(checks.CheckFailed):
        op.check(False)
    spec = hamilton_spec(field.FunctionField(["x", "y"]))
    M = workloads.half_dense_matrix(spec, 3, random.Random(2))
    p = matrices.reduced_charpoly(M)
    checks.charpoly_shape(p, 3, checks.real_trace(M))
    shifted = PolyX(p.field, p.coeffs[:-2] + (p.coeffs[-2] + 1, p.coeffs[-1]))
    with pytest.raises(checks.CheckFailed, match="coefficient"):
        checks.charpoly_shape(shifted, 3, checks.real_trace(M))


def test_matrix_that_is_not_the_inverse_is_rejected():
    ops = TINY["rational_inverse"](4)
    op, inverse = op_output(ops, "inverse/hamilton")
    op.check(inverse)
    with pytest.raises(checks.CheckFailed, match="identity"):
        op.check(inverse.scale(2))


def test_in_st_verdict_is_checked_against_the_gauge_identity():
    ops = TINY["rational_inverse"](4)
    op, verdict = op_output(ops, "in_st/hamilton")
    op.check(verdict)
    with pytest.raises(checks.CheckFailed, match="in_st"):
        op.check(not verdict)


def test_compat_report_with_a_violation_is_rejected():
    ops = TINY["compat_cones"](1)
    op, report = op_output(ops, "compat/complex")
    op.check(report)
    bad = copy.deepcopy(report)
    bad.conditions["C4"].violations.append((0, "C4"))
    with pytest.raises(checks.CheckFailed, match="C4"):
        op.check(bad)
    short = copy.deepcopy(report)
    short.conditions["C0"].tried -= 1
    with pytest.raises(checks.CheckFailed, match="C0 tried"):
        op.check(short)


def test_invertibility_oracle():
    one, zero = (1, 0, 0, 0), (0, 0, 0, 0)
    i, j = (0, 1, 0, 0), (0, 0, 1, 0)
    assert checks.invertible_2x2(one, zero, zero, one)
    assert not checks.invertible_2x2(one, one, one, one)
    # [[i, j], [1, -k]]: -k - 1 * i^-1 * j = -k + k = 0
    assert not checks.invertible_2x2(i, j, one, (0, 0, 0, -1))
    assert checks.invertible_2x2(zero, one, one, zero)


def test_tracer_counts_repeat_and_wrappers_come_off():
    ops = TINY["quat_charpoly"](3) + TINY["lift_cli"](3) + TINY["rational_inverse"](3)
    before = (field.RatFunc.__add__, matrices.MatE.__mul__, cones.lift_set,
              matrices.reduced_charpoly)
    tracer = tracing.Tracer()
    rounds = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            run.run_round(ops)
        finally:
            tracer.uninstall()
        rounds.append(tracer.layer_metrics())
    assert (field.RatFunc.__add__, matrices.MatE.__mul__, cones.lift_set,
            matrices.reduced_charpoly) == before
    counts = [{k: v for k, v in r.items() if not k.endswith("_s")} for r in rounds]
    assert counts[0] == counts[1]
    assert counts[0]["matrices.reduced_charpoly.calls"] > 0
    assert counts[0]["cones.lift_exists.calls"] > 0
    # two inverse operations, and one inverse inside each of three in_st calls
    assert counts[0]["matrices.inverse.calls"] == 5
    spans = tracer.spans()
    assert len(spans["start"]) == len(spans["end"]) == len(spans["parent"])
    assert all(e >= s for s, e in zip(spans["start"], spans["end"]))
    total_self = sum(v for k, v in rounds[1].items() if k.endswith(".self_s"))
    top = sum(e - s for s, e, p in zip(spans["start"], spans["end"], spans["parent"])
              if p == -1)
    assert total_self == pytest.approx(top, rel=1e-6, abs=1e-6)
    names = {name for name, _, _ in tracing.PER_LAYER}
    assert names - set(rounds[0]) == {"trace.overhead_s"}
