"""Time the layered baselines of ROADMAP item 1 once each.

    python3 perfbench/baselines.py

- compatibility_suite with 40 samples on each reference context (first
  ordering, seed 107 as in criterion 07);
- lift_set on the rank-3 Hamilton form <1, x1, x2 x3> over eight variables;
- the two built-in CLI scenarios, each as a fresh process, import included.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main() -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    from gaugecones import cones
    from gaugecones.algebra import HermContext, hamilton_spec
    from gaugecones.field import FunctionField, OrderingSpec

    import workloads

    F = FunctionField(["x", "y"])
    for name, ctx, etas in workloads.reference_contexts(F):
        C = cones.ConeSpec(ctx, OrderingSpec(etas[0]))
        t = timed(lambda: cones.compatibility_suite(C, sample_count=40, seed=107))
        print(f"compatibility_suite 40 samples {name:9s} {t:8.2f} s")

    F8 = FunctionField([f"x{i}" for i in range(1, 9)])
    x = F8.vars()
    ctx = HermContext(hamilton_spec(F8), (F8.one, x[0], x[1] * x[2]))
    print(f"lift_set r=8 rank-3 hamilton           {timed(lambda: cones.lift_set(ctx)):8.2f} s")

    env = dict(os.environ, PYTHONPATH=str(SRC))
    for scenario in ("bk2_example", "m6_index_example"):
        cmd = [sys.executable, "-m", "gaugecones.cli", "run", "--scenario", scenario]
        t = timed(lambda: subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True))
        print(f"cli run --scenario {scenario:19s} {t:8.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
