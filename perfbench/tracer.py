"""Per-layer tracing for the traced run.

Wrappers go onto the public functions of each gaugecones module only while
a traced round runs; the untraced rounds call the program untouched.  Each
wrapped call records a span (name, start, end, parent span) in flat arrays
and updates per-name counters.  A module's self time is the time during
which one of its wrapped calls is the innermost one running: each span's
duration minus the durations of the wrapped spans directly inside it.

Two counters need the representation of field elements: whether an
addition leaves the fast path for two unit denominators, and the number of
terms of a result.  They read the numerator and denominator of RatFunc's
sympy fraction (``_f.numer``, ``_f.denom``).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from fractions import Fraction

from gaugecones import algebra, cli, cones, field, gauges, matrices

MODULES = (field, algebra, matrices, gauges, cones, cli)

RatFunc = field.RatFunc

# (span name, owner, attribute): the owner is a class or a module; a module
# function is also replaced wherever another gaugecones module imported it
TARGETS = (
    ("field.add", RatFunc, "__add__"),
    ("field.add", RatFunc, "__radd__"),
    ("field.add", RatFunc, "__sub__"),
    ("field.add", RatFunc, "__rsub__"),
    ("field.mul", RatFunc, "__mul__"),
    ("field.mul", RatFunc, "__rmul__"),
    ("field.div", RatFunc, "__truediv__"),
    ("field.div", RatFunc, "__rtruediv__"),
    ("field.val", RatFunc, "val"),
    ("field.sign_at", RatFunc, "sign_at"),
    ("algebra.mul", algebra.EElement, "__mul__"),
    ("algebra.norm", algebra.EElement, "norm"),
    ("algebra.inverse", algebra.EElement, "inverse"),
    ("algebra.trace_form", algebra, "trace_form"),
    ("matrices.mul", matrices.MatE, "__mul__"),
    ("matrices.inverse", matrices.MatE, "inverse"),
    ("matrices.reduced_charpoly", matrices, "reduced_charpoly"),
    ("matrices.cayley_hamilton_check", matrices, "cayley_hamilton_check"),
    ("matrices.psd_at", matrices, "psd_at"),
    ("gauges.gauge_value", gauges, "gauge_value"),
    ("gauges.residue_decomposition", gauges, "residue_decomposition"),
    ("gauges.residue_element", gauges, "residue_element"),
    ("gauges.in_st", gauges, "in_st"),
    ("cones.sample_cone", cones, "sample_cone"),
    ("cones.cone_member", cones, "cone_member"),
    ("cones.compatibility_suite", cones, "compatibility_suite"),
    ("cones.lift_exists", cones, "lift_exists"),
    ("cones.lift_set", cones, "lift_set"),
    ("cones.wadth_check", cones, "wadth_check"),
    ("cli.parse_config", cli, "parse_config"),
    ("cli.run", cli, "run"),
    ("cli.emit", cli, "emit"),
)

# per-layer metrics of BENCHMARK.json: (name, unit, better)
PER_LAYER = (
    ("field.add.calls", "count", "lower"),
    ("field.add.time_s", "s", "lower"),
    ("field.add_general.calls", "count", "lower"),
    ("field.add_general.time_s", "s", "lower"),
    ("field.mul.calls", "count", "lower"),
    ("field.mul.time_s", "s", "lower"),
    ("field.mul.nonzero_ratio", "ratio", "higher"),
    ("field.div.calls", "count", "lower"),
    ("field.div.time_s", "s", "lower"),
    ("field.val.calls", "count", "lower"),
    ("field.sign_at.calls", "count", "lower"),
    ("field.max_terms", "count", "lower"),
    ("field.self_s", "s", "lower"),
    ("algebra.mul.calls", "count", "lower"),
    ("algebra.mul.time_s", "s", "lower"),
    ("algebra.norm.calls", "count", "lower"),
    ("algebra.inverse.calls", "count", "lower"),
    ("algebra.trace_form.calls", "count", "lower"),
    ("algebra.trace_form.time_s", "s", "lower"),
    ("algebra.self_s", "s", "lower"),
    ("matrices.mul.calls", "count", "lower"),
    ("matrices.mul.time_s", "s", "lower"),
    ("matrices.inverse.calls", "count", "lower"),
    ("matrices.inverse.time_s", "s", "lower"),
    ("matrices.reduced_charpoly.calls", "count", "lower"),
    ("matrices.reduced_charpoly.time_s", "s", "lower"),
    ("matrices.cayley_hamilton_check.time_s", "s", "lower"),
    ("matrices.psd_at.calls", "count", "lower"),
    ("matrices.self_s", "s", "lower"),
    ("gauges.gauge_value.calls", "count", "lower"),
    ("gauges.gauge_value.time_s", "s", "lower"),
    ("gauges.residue_decomposition.calls", "count", "lower"),
    ("gauges.residue_element.calls", "count", "lower"),
    ("gauges.in_st.time_s", "s", "lower"),
    ("gauges.self_s", "s", "lower"),
    ("cones.sample_cone.time_s", "s", "lower"),
    ("cones.cone_member.calls", "count", "lower"),
    ("cones.cone_member.time_s", "s", "lower"),
    ("cones.compatibility_suite.time_s", "s", "lower"),
    ("cones.lift_exists.calls", "count", "lower"),
    ("cones.lift_set.time_s", "s", "lower"),
    ("cones.wadth_check.time_s", "s", "lower"),
    ("cones.self_s", "s", "lower"),
    ("cli.parse_config.time_s", "s", "lower"),
    ("cli.run.time_s", "s", "lower"),
    ("cli.emit.time_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _unit_denominator(x) -> bool:
    if isinstance(x, RatFunc):
        return x._f.denom == x._f.field.ring.one
    return not isinstance(x, Fraction) or x.denominator == 1


class Tracer:
    """Spans and counters of the wrapped calls of one traced round."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # open spans: [index, time in wrapped children]
        self.calls: Counter = Counter()
        self.time: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.add_general_calls = 0
        self.add_general_time = 0.0
        self.mul_nonzero = 0
        self.max_terms = 0

    # -- wrappers ------------------------------------------------------------

    def _probe_add(self, args, result, dur):
        if not (_unit_denominator(args[0]) and _unit_denominator(args[1])):
            self.add_general_calls += 1
            self.add_general_time += dur
        self._probe_terms(args, result, dur)

    def _probe_mul(self, args, result, dur):
        if args[0] and args[1]:
            self.mul_nonzero += 1
        self._probe_terms(args, result, dur)

    def _probe_terms(self, args, result, dur):
        if isinstance(result, RatFunc):
            f = result._f
            self.max_terms = max(self.max_terms, len(f.numer), len(f.denom))

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        layer = name.split(".")[0]
        probe = {"field.add": self._probe_add, "field.mul": self._probe_mul,
                 "field.div": self._probe_terms}.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            index = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.span_start[index] = start
                tracer.span_end[index] = end
                tracer.calls[name] += 1
                tracer.time[name] += dur
                tracer.self_time[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if probe is not None:
                probe(args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Replace every target with its wrapper, in every module that
        holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in TARGETS:
            fn = owner.__dict__[attr]
            wrapper = self._wrap(name, fn)
            holders = [owner] if isinstance(owner, type) else [
                m for m in MODULES if m.__dict__.get(attr) is fn]
            for holder in holders:
                self._saved.append((holder, attr, fn))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved = []

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the round traced since the last reset, without
        trace.overhead_s, which needs the untraced rounds."""
        calls, t = self.calls, self.time
        out = {}
        for metric, _, _ in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(base, 0)
            elif kind == "time_s":
                out[metric] = t.get(base, 0.0)
            elif kind == "self_s":
                out[metric] = self.self_time.get(base, 0.0)
        out["field.add_general.calls"] = self.add_general_calls
        out["field.add_general.time_s"] = self.add_general_time
        muls = calls.get("field.mul", 0)
        out["field.mul.nonzero_ratio"] = self.mul_nonzero / muls if muls else 0.0
        out["field.max_terms"] = self.max_terms
        return out

    def spans(self) -> dict:
        """The recorded spans as parallel lists; start and end are seconds
        from the first span's start, parent is a span index or -1."""
        t0 = self.span_start[0] if self.span_start else 0.0
        return {
            "names": list(self.names),
            "name": self.span_name,
            "parent": self.span_parent,
            "start": array("d", (round(s - t0, 7) for s in self.span_start)),
            "end": array("d", (round(e - t0, 7) for e in self.span_end)),
        }
