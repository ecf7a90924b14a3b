"""Benchmark of gaugecones: four fixed-seed workloads, end-to-end metrics,
and a traced mode with per-layer metrics.

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload quat_charpoly --seed 1 --seconds 15
    python3 perfbench/run.py --workload lift_cli --trace 1

One workload runs in one single-threaded process.  It is built from the
seed (the set-up), then run in whole rounds, each round running every
operation of the workload once, until the rounds have taken --seconds.
Every output of the first round is checked against checks.py; later
rounds must reproduce it exactly.  The last line printed is one JSON
object: correct, attempted, failed and the metrics.  The untraced run
reports the end-to-end metrics; --trace 1 runs half its time untraced and
half with tracer.py's wrappers installed, and reports the per-layer
metrics.  Results and traces are written under perfbench/results/.

The program is imported from the src/ directory next to this one; without
it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("compat_cones", "quat_charpoly", "rational_inverse", "lift_cli")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_SAMPLES = 5
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_median_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Put src/ first on the path and check gaugecones comes from there."""
    package = SRC / "gaugecones"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: gaugecones sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import gaugecones

    if Path(gaugecones.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: gaugecones imported from {gaugecones.__file__}")


def build(name: str, seed: int):
    import workloads

    return workloads.WORKLOADS[name](seed)


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def setup_seconds(name: str, seed: int) -> list[float]:
    """Set-up times of fresh processes: from spawning the interpreter to the
    workload being built, which covers importing gaugecones and sympy."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", name, "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up process failed with code {proc.returncode}")
        out.append(elapsed)
    return out


# ---------------------------------------------------------------------------
# Rounds and checks
# ---------------------------------------------------------------------------

class OpError:
    """An operation that raised instead of returning."""

    def __init__(self, exc: Exception):
        self.message = f"{type(exc).__name__}: {exc}"


def run_round(ops):
    times, outputs = [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            out = OpError(exc)
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - start, times, outputs


class Verifier:
    """Checks each round's outputs outside the timed part.  The first
    passing output of each operation is checked in full and kept; an equal
    output in a later round is the same checked value."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def verify(self, outputs):
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            self.attempted += 1
            if isinstance(out, OpError):
                self._fail(op, out.message)
                continue
            if self.reference[i] is not None and out == self.reference[i]:
                continue
            try:
                op.check(out)
            except Exception as exc:  # noqa: BLE001 - any check error is a wrong output
                self.wrong += 1
                self._fail(op, f"wrong output: {type(exc).__name__}: {exc}")
                continue
            if self.reference[i] is None:
                self.reference[i] = out

    def _fail(self, op, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{op.label}: {message}")


def run_rounds(ops, seconds: float, verifier: Verifier):
    """Whole rounds until their time adds up to seconds, at least one."""
    walls, op_times = [], []
    while not walls or sum(walls) < seconds:
        wall, times, outputs = run_round(ops)
        walls.append(wall)
        op_times.extend(times)
        verifier.verify(outputs)
    return walls, op_times


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    setups = [] if trace else setup_seconds(name, seed)
    ops = build(name, seed)
    verifier = Verifier(ops)
    detail = {"workload": name, "seed": seed, "ops_per_round": len(ops)}

    if not trace:
        walls, op_times = run_rounds(ops, seconds, verifier)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_median_ms": 1000 * statistics.median(op_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        detail.update(setup_samples_s=setups, round_walls_s=walls)
    else:
        metrics, units = traced_metrics(ops, seconds, verifier, detail)

    result = {
        "correct": verifier.wrong == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail.update(result, failures=verifier.messages)
    RESULTS.mkdir(exist_ok=True)
    suffix = "-trace" if trace else ""
    with open(RESULTS / f"{name}-seed{seed}{suffix}.json", "w") as fh:
        json.dump(detail, fh, separators=(",", ":"), default=lambda a: a.tolist())

    print(f"workload {name}  seed {seed}  {len(ops)} operations per round")
    for k, v in metrics.items():
        print(f"  {k:40s} {v:>14.6g} {units[k]}")
    print(f"  attempted {verifier.attempted}  failed {verifier.failed}  "
          f"correct {str(result['correct']).lower()}")
    for message in verifier.messages:
        print(f"  FAILED {message}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def traced_metrics(ops, seconds, verifier, detail):
    """Half the time untraced, half traced; counts come from the first
    traced round and must repeat in every later one, times are medians."""
    import tracer as tracing

    walls, _ = run_rounds(ops, seconds / 2, verifier)
    tracer = tracing.Tracer()
    traced_walls, rounds = [], []
    while not traced_walls or sum(traced_walls) < seconds / 2:
        tracer.reset()
        tracer.install()
        try:
            wall, _, outputs = run_round(ops)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        rounds.append(tracer.layer_metrics())
        if len(rounds) == 1:
            detail["spans"] = tracer.spans()
        verifier.verify(outputs)
    metrics = {}
    counts_repeat = True
    for key, unit, _ in tracing.PER_LAYER:
        if key == "trace.overhead_s":
            continue
        values = [r[key] for r in rounds]
        if unit == "s":
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            counts_repeat &= all(v == values[0] for v in values)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    if not counts_repeat:
        print("warning: per-layer counts differ between traced rounds", file=sys.stderr)
    detail.update(untraced_walls_s=walls, traced_walls_s=traced_walls,
                  counts_repeat=counts_repeat)
    units = {key: unit for key, unit, _ in tracing.PER_LAYER}
    return metrics, units


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; a combined result last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time the rounds must add up to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_only:
        build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
