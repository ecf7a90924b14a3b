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
