"""The names of the program that the benchmark in perfbench/ uses still resolve.

The benchmark's own self-tests run outside this suite, so without these
checks a renamed or deleted function would first show as a failed benchmark
or traced run.  perfbench/ is put on the path for these tests only.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("compat_cones", "quat_charpoly", "rational_inverse", "lift_cli")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    return tracer, workloads


def test_trace_targets_resolve(perfbench):
    tracer, _ = perfbench
    for name, owner, attr in tracer.TARGETS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"
    # the traced run installs every wrapper and takes it off again
    t = tracer.Tracer()
    t.install()
    t.uninstall()


def test_workload_names(perfbench):
    _, workloads = perfbench
    assert tuple(workloads.WORKLOADS) == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_builds(perfbench, name):
    _, workloads = perfbench
    assert workloads.WORKLOADS[name](1)


# each workload at a tiny size: every operation's output must pass the
# benchmark's own check, so a kernel that breaks one fails here too
TINY = {
    "compat_cones": {"samples": 2},
    "quat_charpoly": {"ch_counts": {1: 1, 2: 1, 3: 1}, "mn_counts": {2: 1}},
    "rational_inverse": {"shapes": (("complex", 1, 1, 3), ("hamilton", 1, 1, 4)),
                         "in_st_per_context": 1},
    "lift_cli": {"configs": ((3, 2), (3, 3))},
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_checks_pass_at_a_tiny_size(perfbench, name):
    _, workloads = perfbench
    for op in workloads.WORKLOADS[name](1, **TINY[name]):
        op.check(op.run())
