"""Tests for configuration parsing, report emission, determinism, and exit codes."""

import json
import sys
from pathlib import Path

import pytest

from gaugecones import cli
from gaugecones.field import MAX_EXPONENT, MAX_NESTING, MAX_TERMS, FieldError, RatFunc
from gaugecones.matrices import NonRealCoefficient
from gaugecones.cli import (
    ConfigError,
    emit,
    load_config,
    main,
    parse_config,
    report_has_violations,
    run,
)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE_DOC = {
    "vars": ["x", "y"],
    "algebra": {"variant": "matrix", "kind": "base", "form": ["1", "x"]},
    "ordering": "ALL",
    "analyses": ["gauge", "residue", "lift", "wadth"],
    "seed": 7,
    "sampleCount": 10,
}


class TestConfig:
    def test_parse_matrix(self):
        cfg = parse_config(BASE_DOC)
        assert cfg["field"].varnames == ("x", "y")
        assert cfg["samples"] == 10
        assert len(cfg["orderings"]) == 4

    def test_parse_quatdiv(self):
        cfg = parse_config(
            {
                "vars": ["x", "y"],
                "algebra": {"variant": "quatdiv", "a": "x", "b": "y", "involution": "gamma"},
                "ordering": [-1, -1],
                "analyses": ["lift", "nil"],
            }
        )
        assert len(cfg["orderings"]) == 1
        assert cfg["orderings"][0].eta == (-1, -1)

    def test_bad_variant(self):
        doc = dict(BASE_DOC, algebra={"variant": "octonion"})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.location == "algebra.variant"

    def test_bad_expression(self):
        doc = dict(BASE_DOC, algebra={"variant": "matrix", "kind": "base", "form": ["1", "z"]})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.location == "algebra"

    def test_bad_ordering_length(self):
        doc = dict(BASE_DOC, ordering=[1])
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_unknown_analysis(self):
        doc = dict(BASE_DOC, analyses=["spectral"])
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.location == "analyses"

    def test_load_from_file(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE_DOC))
        assert cfg["seed"] == 7


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "patch, location, message",
        [
            ({"vars": ["x", "x"]}, "vars", "duplicate variable names"),
            ({"vars": ["x y"]}, "vars", "list of identifiers"),
            ({"algebra": {"variant": "quatdiv", "a": 1, "b": "y"}}, "algebra.a",
             "a must be an expression"),
            ({"algebra": {"variant": "quatdiv", "a": "x", "b": "y", "involution": ["gamma"]}},
             "algebra.involution", "gamma or int_i_gamma"),
            ({"algebra": {"variant": "matrix", "form": ["1", 2]}}, "algebra.form",
             "list of expressions"),
            ({"seed": "abc"}, "seed", "must be an integer"),
            ({"sampleCount": 2.5}, "sampleCount", "must be an integer"),
            ({"sampleCount": -4}, "sampleCount", "at least 1"),
            ({"sampleCount": 0}, "sampleCount", "at least 1"),
            ({"sampleCount": cli.MAX_SAMPLE_COUNT + 1}, "sampleCount",
             f"at most {cli.MAX_SAMPLE_COUNT}"),
            ({"analyses": "gauge"}, "analyses", "must be a list"),
            ({"ordering": [None, 1]}, "ordering", "each -1 or 1"),
            ({"ordering": [1.5, 1]}, "ordering", "each -1 or 1"),
            ({"ordering": [True, 1]}, "ordering", "each -1 or 1"),
            ({"ordering": ["1", 1]}, "ordering", "each -1 or 1"),
            ({"algebra": {"variant": "matrix", "kind": ["base"], "form": ["1", "x"]}},
             "algebra.kind", "unknown coefficient kind"),
            ({"algebra": {"variant": "matrix", "form": ["1", ""]}}, "algebra",
             "unexpected end of expression (at position 0)"),
            ({"algebra": {"variant": "matrix", "form": ["1", "0"]}}, "algebra",
             "form entries must be invertible"),
            ({"algebra": {"variant": "matrix", "form": ["1", "(" * 400 + "x" + ")" * 400]}},
             "algebra", f"nested deeper than {MAX_NESTING} (at position {MAX_NESTING})"),
            ({"algebra": {"variant": "matrix",
                          "form": ["1", "x + " + "1" * (sys.get_int_max_str_digits() + 1)]}},
             "algebra", "integer literal has more than"),
            ({"algebra": {"variant": "matrix", "form": ["1", "7" * 3000 + "*" + "7" * 3000 + "*x"]}},
             "algebra", "product could have a coefficient of more than"),
            ({"algebra": {"variant": "quatdiv", "a": "0", "b": "y"}}, "algebra",
             "quaternion parameters must be nonzero"),
            # trace_form prints e_1/e_2 = N M x, and 2ab over (a,b)_F
            ({"algebra": {"variant": "matrix", "form": ["7" * 2200 + "*x", "1/" + "3" * 2200]}},
             "algebra.form", "a product of two entries could have a coefficient of more than"),
            ({"algebra": {"variant": "quatdiv", "a": "7" * 2200, "b": "3" * 2200}},
             "algebra.b", "a product of two entries could have a coefficient of more than"),
        ],
        ids=["duplicate-vars", "vars-not-identifiers", "quatdiv-a-int", "involution-list",
             "form-entry-int", "seed-string", "sampleCount-float", "sampleCount-negative",
             "sampleCount-zero", "sampleCount-above-bound", "analyses-string",
             "ordering-null", "ordering-float", "ordering-bool", "ordering-string",
             "kind-list", "form-entry-empty", "form-entry-zero", "form-entry-nested",
             "form-entry-long-literal", "form-entry-long-product", "quatdiv-a-zero",
             "form-entries-long-quotient", "quatdiv-long-product"],
    )
    def test_exits_2_naming_the_location(self, tmp_path, capsys, patch, location, message):
        self.check_exit_2(tmp_path, capsys, dict(BASE_DOC, **patch), location, message)

    @pytest.mark.parametrize(
        "doc, location, message",
        [
            ([1], "$", "configuration must be an object"),
            ({k: v for k, v in BASE_DOC.items() if k != "algebra"}, "algebra",
             "algebra section is required"),
        ],
        ids=["top-level-list", "no-algebra"],
    )
    def test_whole_document(self, tmp_path, capsys, doc, location, message):
        self.check_exit_2(tmp_path, capsys, doc, location, message)

    @staticmethod
    def check_exit_2(tmp_path, capsys, doc, location, message):
        assert main(["run", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {location}: " in err
        assert message in err


class TestAllOrderingsBound:
    def test_too_many_variables_exit_2_before_enumerating(self, tmp_path, capsys,
                                                          monkeypatch):
        built = []
        monkeypatch.setattr(cli, "enumerate_orderings", lambda r: built.append(r) or [])
        wide = [f"x{i}" for i in range(cli.MAX_ALL_ORDERING_VARS + 1)]
        doc = {"vars": wide, "algebra": {"variant": "matrix", "form": ["1"]},
               "ordering": "ALL", "analyses": []}
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert "configuration error: ordering: " in capsys.readouterr().err
        assert built == []
        # at the bound, ALL is still enumerated
        parse_config(dict(doc, vars=wide[:-1]))
        assert built == [cli.MAX_ALL_ORDERING_VARS]


class TestExponentBound:
    def test_huge_exponent_exits_2_without_computing(self, tmp_path, capsys, monkeypatch):
        powers = []
        pow_ = RatFunc.__pow__

        def recording_pow(self, n):
            powers.append(n)
            assert n <= MAX_EXPONENT, "a power above the bound was computed"
            return pow_(self, n)

        monkeypatch.setattr(RatFunc, "__pow__", recording_pow)
        doc = dict(BASE_DOC, algebra={"variant": "matrix", "kind": "base",
                                      "form": ["1", "x^1000000000"]})
        assert main(["run", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: algebra: exponent exceeds" in err
        assert "(at position 2)" in err
        assert "Traceback" not in err
        assert powers == []

    def test_power_with_too_many_terms_exits_2_without_computing(self, tmp_path, capsys,
                                                                 monkeypatch):
        powers = []
        monkeypatch.setattr(RatFunc, "__pow__", lambda self, n: powers.append(n))
        wide = [f"x{i}" for i in range(10)]
        doc = dict(BASE_DOC, vars=wide,
                   algebra={"variant": "matrix", "kind": "base",
                            "form": ["1", f"({'+'.join(wide)})^100"]})
        assert main(["run", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: algebra: power would have more than {MAX_TERMS}" in err
        assert "Traceback" not in err
        assert powers == []


class TestWideField:
    """lift, nil and wadth solve for the orderings instead of enumerating
    them, so a config naming one ordering runs at any number of variables."""

    R = 40

    def run_wide(self, tmp_path, capsys, algebra, analyses):
        doc = {"vars": [f"x{i}" for i in range(self.R)], "algebra": algebra,
               "ordering": [1] * self.R, "analyses": analyses}
        assert main(["run", write_config(tmp_path, doc)]) == 0
        return json.loads(capsys.readouterr().out)["analyses"]

    def test_matrix(self, tmp_path, capsys):
        # definite at the all-plus ordering; x1 x5 and x0 must be positive
        out = self.run_wide(tmp_path, capsys, {
            "variant": "matrix", "kind": "hamilton", "form": ["1", "x1*x5", "3*x0^3"]},
            ["gauge", "residue", "lift", "wadth"])
        count = 1 << (self.R - 2)
        assert out["wadth"]["liftCount"] == count
        lift = out["lift"]
        assert lift["harrisonMatches"] is True
        assert lift["liftable"] == lift["harrisonSet"]
        assert lift["liftable"]["count"] == count
        assert lift["liftable"]["particular"] == "+" * self.R
        assert len(lift["liftable"]["directions"]) == self.R - 2
        assert out["gauge"]["orderings"]["+" * self.R]["valid"] is True

    def test_quatdiv(self, tmp_path, capsys):
        # (x3 (1 + x4), -x9^3/2) is division where x3 < 0 and x9 > 0
        out = self.run_wide(tmp_path, capsys, {
            "variant": "quatdiv", "a": "x3*(1+x4)", "b": "-x9^3/2", "involution": "gamma"},
            ["lift", "nil", "wadth"])
        nil = out["nil"]["nil"]
        assert nil["count"] == (1 << self.R) - (1 << (self.R - 2))
        assert nil["complementOf"]["count"] == 1 << (self.R - 2)
        assert nil["complementOf"]["particular"] == "+++-" + "+" * (self.R - 4)
        assert out["lift"]["liftable"]["count"] == out["wadth"]["liftCount"]


class TestRun:
    def test_empty_analyses(self):
        cfg = parse_config(dict(BASE_DOC, analyses=[]))
        report = run(cfg)
        assert report["analyses"] == {}
        assert not report_has_violations(report)

    def test_analysis_error_isolated(self):
        # the form <1, x> is definite at no ordering with eta(x) = -1, so the
        # residue analysis fails; the others must still run
        cfg = parse_config(dict(BASE_DOC, analyses=["residue", "wadth"], ordering=[-1, 1]))
        report = run(cfg)
        assert "error" in report["analyses"]["residue"]
        assert report["analyses"]["wadth"]["consistent"]
        assert report_has_violations(report)

    def test_quatdiv_report(self):
        cfg = parse_config(
            {
                "vars": ["x", "y"],
                "algebra": {"variant": "quatdiv", "a": "x", "b": "y", "involution": "gamma"},
                "analyses": ["lift", "nil", "wadth"],
            }
        )
        report = run(cfg)
        assert report["analyses"]["lift"]["liftable"] == ["--"]
        assert report["analyses"]["nil"]["nil"] == ["-+", "+-", "++"]
        assert report["analyses"]["wadth"]["allLift"] is False

    def test_per_ordering_analyses_need_a_matrix_presentation(self):
        cfg = parse_config(dict(QUATDIV_DOC, analyses=["gauge", "residue", "cones", "compat"]))
        report = run(cfg)["analyses"]
        for name, noun in (("gauge", "gauge"), ("residue", "residue"), ("cones", "cone"),
                           ("compat", "compatibility")):
            assert report[name] == {
                "note": f"{noun} analysis applies to matrix presentations only"}

    def test_raising_analysis_isolated(self, tmp_path, capsys, monkeypatch):
        def boom(spec):
            raise FieldError("boom")

        monkeypatch.setattr(cli, "lift_set", boom)
        path = write_config(tmp_path, dict(BASE_DOC, analyses=["lift", "wadth"]))
        assert main(["run", path]) == 1
        report = json.loads(capsys.readouterr().out)["analyses"]
        assert report["lift"] == {"error": "FieldError: boom"}
        assert report["wadth"]["consistent"]

    def test_nonreal_charpoly_clears_coefficients_real(self, monkeypatch):
        def nonreal(M):
            raise NonRealCoefficient("coefficient has a nonzero imaginary part")

        cfg = parse_config(dict(BASE_DOC, analyses=["quatmat-selftest"]))
        assert run(cfg)["analyses"]["quatmat-selftest"]["coefficientsReal"] is True
        monkeypatch.setattr(cli, "reduced_charpoly", nonreal)
        report = run(cfg)
        assert report["analyses"]["quatmat-selftest"]["coefficientsReal"] is False
        assert report_has_violations(report)


class TestDeterminism:
    def test_identical_seed_identical_bytes(self):
        doc = dict(BASE_DOC, analyses=["gauge", "compat", "quatmat-selftest"])
        a = emit(run(parse_config(doc)))
        b = emit(run(parse_config(doc)))
        assert a == b

    def test_text_format(self):
        report = run(parse_config(dict(BASE_DOC, analyses=["wadth"])))
        text = emit(report, format="text").decode()
        assert "liftCount" in text


class TestMain:
    def test_scenario_bk2(self, capsys):
        assert main(["run", "--scenario", "bk2_example"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma"]["liftable"] == ["--"]
        assert out["intIGamma"]["nil"] == ["--"]

    def test_scenario_m6(self, capsys):
        assert main(["run", "--scenario", "m6_index_example"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["phi"]["cosetIndex"] == 16
        assert out["psi"]["cosetIndex"] == out["psi"]["bruteForceIndex"]
        assert "note" in out["psi"] or out["psi"]["matchesReference"]

    def test_config_path(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_DOC)
        assert main(["run", path, "--seed", "5", "--samples", "8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["seed"] == 5

    def test_flags_override_config(self, tmp_path, monkeypatch, capsys):
        # the config sets seed 7 and sampleCount 10; flags at their
        # defaults' values still override, absent flags do not
        seen = []
        monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or {"analyses": {}})
        path = write_config(tmp_path, BASE_DOC)
        assert main(["run", path, "--seed", "0", "--samples", "50"]) == 0
        assert main(["run", path]) == 0
        assert [(c["seed"], c["samples"]) for c in seen] == [(0, 50), (7, 10)]

    @pytest.mark.parametrize("samples", ["-4", "0", str(cli.MAX_SAMPLE_COUNT + 1)])
    def test_samples_below_one_exit_2(self, tmp_path, monkeypatch, capsys, samples):
        seen = []
        monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or {"analyses": {}})
        path = write_config(tmp_path, BASE_DOC)
        assert main(["run", path, "--samples", samples]) == 2
        assert main(["run", "--scenario", "bk2_example", "--samples", samples]) == 2
        assert "configuration error: --samples: " in capsys.readouterr().err
        assert seen == []
        assert main(["run", path, "--samples", "1"]) == 0
        assert [c["samples"] for c in seen] == [1]

    def test_samples_at_the_bound_run(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or {"analyses": {}})
        path = write_config(tmp_path, dict(BASE_DOC, sampleCount=cli.MAX_SAMPLE_COUNT))
        assert main(["run", path]) == 0
        assert main(["run", path, "--samples", str(cli.MAX_SAMPLE_COUNT)]) == 0
        assert [c["samples"] for c in seen] == [cli.MAX_SAMPLE_COUNT] * 2

    def test_missing_argument(self, capsys):
        assert main(["run"]) == 2
        assert main(["run", "--scenario", "bk2_example", "somepath"]) == 2

    def test_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["run", str(bad)]) == 2

    def test_byte_identical_cli_runs(self, tmp_path, capsys):
        path = write_config(
            tmp_path, dict(BASE_DOC, analyses=["gauge", "cones", "quatmat-selftest"])
        )
        main(["run", path, "--seed", "11"])
        first = capsys.readouterr().out
        main(["run", path, "--seed", "11"])
        assert capsys.readouterr().out == first


class TestViolationDetection:
    def test_error_marks_failure(self):
        assert report_has_violations({"analyses": {"x": {"error": "boom"}}})

    def test_violation_list_marks_failure(self):
        assert report_has_violations({"C0": {"tried": 3, "violations": ["bad"]}})

    @pytest.mark.parametrize("key, value", [("harrisonMatches", False),
                                            ("consistent", False),
                                            ("cayleyHamiltonViolations", 2)])
    def test_flag_marks_failure(self, key, value):
        assert report_has_violations({"analyses": {"x": {key: value}}})

    def test_clean_report(self):
        assert not report_has_violations({"C0": {"tried": 3, "violations": []}})


class TestOverQ:
    """With no variables the valuation is trivial: the gauge ring is the
    whole algebra and its ideal is {0}, so the elements that C3, C4, C6 and
    C7 scale into the ideal are 0."""

    @pytest.mark.parametrize("algebra", [
        {"variant": "matrix", "form": ["1"]},
        {"variant": "matrix", "kind": "hamilton", "form": ["1", "2"]},
    ], ids=["base", "hamilton"])
    def test_compat_has_no_violations(self, tmp_path, capsys, algebra):
        doc = {"algebra": algebra, "analyses": ["compat"], "sampleCount": 2}
        assert main(["run", write_config(tmp_path, doc)]) == 0
        compat = json.loads(capsys.readouterr().out)["analyses"]["compat"]
        assert list(compat) == ["()"]
        for name, res in compat["()"].items():
            assert res["tried"] > 0 and res["violations"] == [], name


QUATDIV_DOC = {
    "vars": ["x", "y"],
    "algebra": {"variant": "quatdiv", "a": "x*(1+y)", "b": "-y^3/2", "involution": "int_i_gamma"},
    "analyses": ["lift", "nil", "wadth"],
}

# a benchmark-style config: monomials on M_3((-1,-1)_F) at all 32 orderings,
# definite at 8 of them
HAMILTON_R5_DOC = {
    "vars": ["x1", "x2", "x3", "x4", "x5"],
    "algebra": {"variant": "matrix", "kind": "hamilton",
                "form": ["2*x1*x3", "-x2*x5^2", "3*x1*x4^2*x5"]},
    "ordering": "ALL",
    "analyses": ["gauge", "residue", "lift", "wadth"],
    "seed": 1,
}

# (golden file, config document or None for a scenario, CLI arguments);
# the files hold the CLI's stdout, captured with the same arguments
GOLDEN_CASES = [
    ("bk2_example.json", None, ["--scenario", "bk2_example"]),
    ("m6_index_example.json", None, ["--scenario", "m6_index_example"]),
    ("base_all.json", dict(BASE_DOC, analyses=list(cli.ANALYSES)),
     ["--seed", "3", "--samples", "8"]),
    ("base_all.txt", dict(BASE_DOC, analyses=list(cli.ANALYSES)),
     ["--seed", "3", "--samples", "8", "--format", "text"]),
    ("quatdiv.json", QUATDIV_DOC, []),
    ("hamilton_r5_all.json", HAMILTON_R5_DOC, []),
]
GOLDEN_DIR = Path(__file__).parent / "golden"


class TestGoldenBytes:
    @pytest.mark.parametrize("name, doc, args", GOLDEN_CASES,
                             ids=[case[0] for case in GOLDEN_CASES])
    def test_output_matches_golden_file(self, tmp_path, capsysbinary, name, doc, args):
        argv = ["run"] + ([] if doc is None else [write_config(tmp_path, doc)]) + args
        main(argv)
        assert capsysbinary.readouterr().out == (GOLDEN_DIR / name).read_bytes()
