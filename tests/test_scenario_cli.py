import collections
import copy
import enum
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import blowdown.scenario as scenario_module
from blowdown import GeometryError, ScenarioError, explore_frobenius, load_scenario, run_repro, run_scenario
from blowdown.cli import main
from blowdown.scenario import (
    BUNDLED_EXPECTED,
    Report,
    Scenario,
    bundled_scenario,
    canonical_json,
    parse_scenario,
    rational_str,
    scenario_digest,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "blowdown" / "data"


def bundled_dict():
    return json.loads((DATA / "keel-mckernan-p3.json").read_text())


def check_of(raw, kind):
    return next(c for c in raw["checks"] if c["kind"] == kind)


def run_cli(raw, directory):
    """Write ``raw`` as a scenario file and run it through ``blowdown run``."""
    path = Path(directory) / "scenario.json"
    path.write_text(json.dumps(raw))
    return main(["run", "--scenario", str(path), "--out", str(Path(directory) / "report.txt")])


def test_bundled_scenario_loads():
    scenario = bundled_scenario()
    assert scenario.name == "keel-mckernan-p3"
    assert scenario.base == "quadric"
    assert len(scenario.blowups) == 9
    assert len(scenario.contraction) == 10
    assert len(scenario.checks) == 7


def test_repro_passes_and_matches_golden_report():
    report = run_repro()
    assert report.passed
    assert report.first_failure is None
    kinds = [c.kind for c in report.checks]
    assert kinds == [
        "intersection-table",
        "canonical-pullback",
        "rank-one-positivity",
        "singular-points",
        "anticanonical-sections",
        "kvv-failure",
        "cone",
    ]
    golden = (DATA / BUNDLED_EXPECTED).read_text()
    assert canonical_json(report.to_dict()) == golden


def test_report_determinism():
    a = canonical_json(run_repro().to_dict())
    b = canonical_json(run_repro().to_dict())
    assert a == b


def test_scenario_round_trip():
    scenario = bundled_scenario()
    rebuilt = parse_scenario(scenario.to_dict())
    assert rebuilt == scenario
    assert scenario_digest(rebuilt) == scenario_digest(scenario)
    scenario.to_dict()["checks"][0].clear()  # the caller's own copy
    assert scenario_digest(rebuilt) == scenario_digest(scenario)


def test_empty_scenario_is_valid():
    scenario = parse_scenario(
        {
            "schema": "blowdown-scenario/1",
            "name": "bare",
            "base": "quadric",
            "curves": [],
            "blowups": [],
            "contraction": [],
            "divisors": {},
            "checks": [],
        }
    )
    report = run_scenario(scenario)
    assert report.passed
    assert report.checks == []


class TestValidation:
    def test_wrong_schema(self):
        with pytest.raises(ScenarioError, match="schema"):
            parse_scenario({"schema": "nope", "name": "x", "base": "quadric"})

    def test_unknown_curve_in_blowup(self):
        raw = bundled_dict()
        raw["blowups"][0]["incident"][0]["curve"] = "missing"
        with pytest.raises(ScenarioError, match="missing"):
            parse_scenario(raw).build()

    def test_unknown_contraction_name(self):
        raw = bundled_dict()
        raw["contraction"].append("missing")
        with pytest.raises(ScenarioError, match="contraction"):
            parse_scenario(raw)

    def test_unknown_divisor_reference_in_check(self):
        raw = bundled_dict()
        raw["checks"][0]["entries"][0]["a"] = "missing"
        with pytest.raises(ScenarioError, match="missing"):
            parse_scenario(raw)

    def test_float_rejected(self):
        raw = bundled_dict()
        raw["divisors"]["A"]["E2"] = 0.5
        with pytest.raises(ScenarioError, match="exact rational"):
            parse_scenario(raw)

    def test_unknown_check_kind(self):
        raw = bundled_dict()
        raw["checks"].append({"kind": "mystery"})
        with pytest.raises(ScenarioError, match="mystery"):
            parse_scenario(raw)

    def test_incidence_violation_located(self, tmp_path):
        raw = bundled_dict()
        # a tenth blow-up at the already-separated point
        raw["blowups"].append(
            {
                "name": "X",
                "incident": [{"curve": "C", "mult": 1}, {"curve": "F1", "mult": 1}],
            }
        )
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(raw))
        with pytest.raises(ScenarioError, match=r"blowups\[9\].*incidence budget"):
            load_scenario(str(path))

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="parse error"):
            load_scenario(str(path))

    @staticmethod
    def _run_with(tmp_path, capsys, kind, key, value):
        """Set the check's field at the dotted ``key``, run through the CLI."""
        raw = bundled_dict()
        target = next(c for c in raw["checks"] if c["kind"] == kind)
        *parents, leaf = key.split(".")
        for parent in parents:
            target = target[parent]
        target[leaf] = value
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(raw))
        with pytest.raises(ScenarioError):
            parse_scenario(raw)
        code = main(["run", "--scenario", str(path)])
        return code, capsys.readouterr().err

    def test_class_group_spec_must_be_object(self, tmp_path, capsys):
        code, err = self._run_with(
            tmp_path, capsys, "rank-one-positivity", "expect_class_group", 5
        )
        assert code == 2 and "'expect_class_group' must be an object" in err

    def test_fibers_must_be_list(self, tmp_path, capsys):
        code, err = self._run_with(tmp_path, capsys, "anticanonical-sections", "fibers", 7)
        assert code == 2 and "'fibers' must be a list" in err

    def test_bool_total_rejected(self, tmp_path, capsys):
        code, err = self._run_with(tmp_path, capsys, "singular-points", "expect_total", True)
        assert code == 2 and "expect_total: must be an integer" in err

    def test_bool_certificate_m_rejected(self, tmp_path, capsys):
        code, err = self._run_with(tmp_path, capsys, "cone", "certificate_m", True)
        assert code == 2 and "certificate_m: must be an integer" in err

    # True == 1 and False == 0, so a mistyped expectation could pass its check
    @pytest.mark.parametrize(
        "kind, key, value, message",
        [
            ("cone", "expect.cm", 0, "expect.cm: must be true or false"),
            ("cone", "expect.class_group_rank", False, "class_group_rank: must be an integer"),
            ("cone", "expect.class_group_torsion", 7, "class_group_torsion: must be a list"),
            ("kvv-failure", "expect.nef_degrees", 5, "checks[5].expect: 'nef_degrees' must be an"),
            ("cone", "expect.class_group_torsion", [True], "torsion[0]: must be an integer"),
            ("kvv-failure", "expect.not_globally_f_split", 1, "f_split: must be true or false"),
            ("kvv-failure", "expect.h1_nonzero", "yes", "h1_nonzero: must be true or false"),
            ("canonical-pullback", "expect_classification", 5, "must be one of"),
            ("canonical-pullback", "expect_classification", "KLT", "must be one of"),
        ],
    )
    def test_mistyped_expectation_rejected(self, tmp_path, capsys, kind, key, value, message):
        code, err = self._run_with(tmp_path, capsys, kind, key, value)
        assert code == 2 and message in err

    def test_ample_entry_needs_expect(self):
        raw = bundled_dict()
        check = next(c for c in raw["checks"] if c["kind"] == "rank-one-positivity")
        del check["ample"][0]["expect"]
        with pytest.raises(ScenarioError, match=r"ample\[0\]\.expect: must be true or false"):
            parse_scenario(raw)

    def test_bool_census_entry_rejected(self):
        raw = bundled_dict()
        check = next(c for c in raw["checks"] if c["kind"] == "singular-points")
        check["expect"][0]["count"] = True
        with pytest.raises(ScenarioError, match=r"expect\[0\]\.count: must be an integer"):
            parse_scenario(raw)

    # an unknown field, or a name that is not a curve where a curve is due,
    # is invalid input
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda r: check_of(r, "canonical-pullback").update(expect_coeficients={"C": "5"}),
                "checks[1]: unknown field 'expect_coeficients'",
            ),
            (
                lambda r: check_of(r, "singular-points")["expect"][0].update(extra=1),
                "checks[3].expect[0]: unknown field 'extra'",
            ),
            (
                lambda r: check_of(r, "anticanonical-sections").update(fibers=["K"]),
                "checks[4].fibers[0]: unknown curve 'K'",
            ),
            (
                lambda r: check_of(r, "anticanonical-sections").update(curve="A"),
                "checks[4].curve: unknown curve 'A'",
            ),
            (
                lambda r: check_of(r, "canonical-pullback")["expect_coefficients"].update(X="0"),
                "checks[1].expect_coefficients['X']: unknown curve 'X'",
            ),
            (
                lambda r: check_of(r, "kvv-failure")["expect"]["expansion"].update(X="0"),
                "checks[5].expect.expansion['X']: unknown curve 'X'",
            ),
            (
                lambda r: check_of(r, "kvv-failure")["expect"]["nef_degrees"].update(K="0"),
                "checks[5].expect.nef_degrees['K']: unknown curve 'K'",
            ),
            (
                lambda r: r.update(contractoin=r.pop("contraction")),
                "scenario.json: unknown field 'contractoin'",
            ),
            (
                lambda r: r["curves"][0].update(clas=[1, 0]),
                "scenario.json.curves[0]: unknown field 'clas'",
            ),
            (
                lambda r: r["blowups"][0].update(incidence=[]),
                "scenario.json.blowups[0]: unknown field 'incidence'",
            ),
            (
                lambda r: r["blowups"][0]["incident"][0].update(mutl=1),
                "scenario.json.blowups[0].incident[0]: unknown field 'mutl'",
            ),
            (
                lambda r: r["blowups"][0].update({"incident?": []}),
                "scenario.json.blowups[0]: unknown field 'incident?'",
            ),
            (
                lambda r: check_of(r, "cone").update({"expect?": {}}),
                "checks[6]: unknown field 'expect?'",
            ),
        ],
        ids=["misspelt-key", "census-extra-key", "fiber-K", "curve-divisor",
             "coefficients-curve", "expansion-curve", "nef-degrees-curve",
             "top-level-key", "curve-key", "blowup-key", "incidence-key",
             "optional-marker-key", "check-optional-marker-key"],
    )
    def test_schema_rejects(self, tmp_path, capsys, mutate, message):
        raw = bundled_dict()
        mutate(raw)
        assert run_cli(raw, tmp_path) == 2
        assert message in capsys.readouterr().err

    # Fraction() alone would also read exponents, decimals, underscores and
    # spaces; "1e300000" built a 300001-digit integer, then crashed `blowdown run`
    @pytest.mark.parametrize("value", ["1e300000", "1e30000000", "0.5", "2.5e3", "1_000", " 1/2"])
    def test_rational_string_must_be_integer_or_fraction(self, tmp_path, capsys, value):
        raw = bundled_dict()
        raw["divisors"]["A"]["E1"] = value
        assert run_cli(raw, tmp_path) == 2
        assert "divisors['A']['E1']: bad rational" in capsys.readouterr().err

    # an integral value parses to an int, any other to a Fraction
    @pytest.mark.parametrize(
        "value, expected", [("-1", -1), ("+2/4", F(1, 2)), (3, 3), ("-4", -4), ("+3", 3), ("4/2", F(2))]
    )
    def test_rational_forms_accepted(self, value, expected):
        raw = bundled_dict()
        raw["divisors"]["A"]["E1"] = value
        parsed = dict(dict(parse_scenario(raw).divisors)["A"])["E1"]
        assert parsed == expected
        assert type(parsed) is type(expected)

    # past the interpreter's digit limit for reading an integer from text
    @pytest.mark.parametrize("value", ["1" * 5000, "-" + "7" * 5000 + "/3"], ids=["integer", "fraction"])
    def test_rational_string_past_digit_limit_rejected(self, tmp_path, capsys, value):
        raw = bundled_dict()
        raw["divisors"]["A"]["E1"] = value
        assert run_cli(raw, tmp_path) == 2
        err = capsys.readouterr().err
        assert "divisors['A']['E1']: bad rational" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_rational_string_subclass_still_matched(self):
        class Text(str):
            pass

        raw = bundled_dict()
        raw["divisors"]["A"]["E1"] = Text("1.5")
        with pytest.raises(ScenarioError, match=r"divisors\['A'\]\['E1'\]: bad rational"):
            parse_scenario(raw)

    # beyond the interpreter's integer digit limit, or not UTF-8
    @pytest.mark.parametrize(
        "text", [b'{"schema": ' + b"1" * 5000 + b"}", b"\xff\xfe{}"], ids=["digits", "not-utf8"]
    )
    def test_unreadable_json_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_bytes(text)
        assert main(["run", "--scenario", str(path)]) == 2
        assert f"error: {path}: parse error" in capsys.readouterr().err

    # json.load recurses once per level, past the interpreter's recursion limit
    def test_deep_nesting_rejected(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert main(["run", "--scenario", str(path)]) == 2
        assert f"error: {path}: parse error" in capsys.readouterr().err

    # the fields outside the checks are located like those in them
    @pytest.mark.parametrize(
        "mutate, location",
        [
            (lambda r: r.update(name=["x"]), ("name",)),
            (lambda r: r.update(name=""), ("name",)),
            (lambda r: r.update(base="torus"), ("base",)),
            (lambda r: r.update(curves={}), ("curves",)),
            (lambda r: r["curves"][0]["class"].append(True), ("curves[0]", "class")),
            (lambda r: r["blowups"][0].update(incident={}), ("blowups[0]", "incident")),
            (lambda r: r["blowups"][0]["incident"][0].update(mult=0), ("blowups[0].incident[0]", "mult")),
            (lambda r: r["blowups"][0]["incident"][0].update(mult=True), ("blowups[0].incident[0]", "mult")),
            (lambda r: r["blowups"][0]["incident"][0].pop("mult"), ("blowups[0].incident[0]", "mult")),
            (lambda r: r["contraction"].append(5), ("contraction",)),
            (lambda r: r.update(divisors=[]), ("divisors",)),
        ],
        ids=["name-list", "name-empty", "base", "curves", "class-bool", "incident",
             "mult-zero", "mult-bool", "mult-missing", "contraction-int", "divisors"],
    )
    def test_document_field_rejected(self, tmp_path, capsys, mutate, location):
        raw = bundled_dict()
        mutate(raw)
        assert run_cli(raw, tmp_path) == 2
        prefix = f"error: {tmp_path / 'scenario.json'}"
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert all(part in err[len(prefix):] for part in location)

    # build errors are located like parse errors, from the file path on
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda r: r["blowups"].append(
                    {"name": "X", "incident": [{"curve": "C", "mult": 1}, {"curve": "F1", "mult": 1}]}
                ),
                ".blowups[9] ('X'): incidence budget violated",
            ),
            (lambda r: r["contraction"].append("E1"), ".contraction: not contractible"),
        ],
        ids=["blowup", "contraction"],
    )
    def test_build_error_starts_with_path(self, tmp_path, capsys, mutate, message):
        raw = bundled_dict()
        mutate(raw)
        assert run_cli(raw, tmp_path) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'scenario.json'}{message}")

    # resolve() reads K and a leading '-' itself, and a curve name would
    # shadow the curve's own class
    @pytest.mark.parametrize("name", ["C", "E1", "K", "-A"])
    def test_unusable_divisor_name_rejected(self, tmp_path, capsys, name):
        raw = bundled_dict()
        raw["divisors"][name] = {"E1": "1"}
        assert run_cli(raw, tmp_path) == 2
        assert f"divisors[{name!r}]: a divisor name must not be" in capsys.readouterr().err

    # the same reading of K and '-' would make a check pair the canonical
    # class or a negation instead of the curve: a quadric curve K of class
    # (1, 0) with K.K expected 0 would report "expected 0, got 8"
    @pytest.mark.parametrize(
        "field, name, location",
        [
            ("curves", "K", "curves[0].name"),
            ("curves", "-X", "curves[0].name"),
            ("blowups", "K", "blowups[0].name"),
            ("blowups", "-E", "blowups[0].name"),
        ],
    )
    def test_unusable_curve_name_rejected(self, tmp_path, capsys, field, name, location):
        raw = {
            "schema": "blowdown-scenario/1",
            "name": "curve named like a reference",
            "base": "quadric",
            "curves": [{"name": name if field == "curves" else "F", "class": [1, 0]}],
            "blowups": [{"name": name if field == "blowups" else "E"}],
            "checks": [
                {"kind": "intersection-table", "entries": [{"a": name, "b": name, "expect": 0}]}
            ],
        }
        assert run_cli(raw, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'scenario.json'}.{location}: ")
        assert "a curve or blow-up name must not be 'K' or start with '-'" in err


class TestFailureModes:
    def test_zero_ample_divisor_fails_checks(self):
        raw = bundled_dict()
        raw["divisors"]["A"] = {}
        report = run_scenario(parse_scenario(raw))
        assert not report.passed
        kvv = next(c for c in report.checks if c.kind == "kvv-failure")
        assert not kvv.passed
        assert kvv.details["euler_characteristic"] == "1"
        assert kvv.details["h1_nonzero"] is False
        assert any("chi" in m or "euler" in m.lower() for m in kvv.mismatches) or kvv.mismatches

    def test_contraction_missing_curve_fails_rank_check(self):
        raw = bundled_dict()
        raw["contraction"].remove("C")
        report = run_scenario(parse_scenario(raw))
        assert not report.passed
        rank_check = next(
            c for c in report.checks if c.kind == "rank-one-positivity"
        )
        assert not rank_check.passed
        assert rank_check.details["target_rank"] == 2
        assert any("rank" in m for m in rank_check.mismatches)

    def test_partial_class_group_compares_present_fields(self, tmp_path):
        raw = bundled_dict()
        check_of(raw, "rank-one-positivity")["expect_class_group"] = {"torsion": [3, 3, 3]}
        assert run_cli(raw, tmp_path) == 0
        check_of(raw, "rank-one-positivity")["expect_class_group"] = {"rank": 2}
        assert run_cli(raw, tmp_path) == 1
        report = run_scenario(parse_scenario(raw))
        assert report.first_failure == "rank-one-positivity: class group rank: expected 2, got 1"


class TestOptionalExpectations:
    """Each optional scalar expectation of the bundled scenario, set wrong,
    adds exactly one mismatch, with this text, and leaves the details (their
    values and key order) as they were.  ``WRONG`` lists each kind's
    expectations in the order of their mismatches (the census, a list, is
    compared before the total that its details write first)."""

    WRONG = [
        ("canonical-pullback", ("expect_classification",), "lc",
         "classification: expected lc, got klt"),
        ("canonical-pullback", ("expect_min_discrepancy",), "5",
         "min discrepancy: expected 5, got -1/3"),
        ("rank-one-positivity", ("expect_rank",), 2, "target rank: expected 2, got 1"),
        ("rank-one-positivity", ("expect_class_group", "rank"), 5,
         "class group rank: expected 5, got 1"),
        ("rank-one-positivity", ("expect_class_group", "torsion"), [2],
         "class group torsion: expected [2], got [3, 3, 3]"),
        ("singular-points", ("expect",), [],
         "singular point census: expected [], got [(3, 1, 4), (3, 2, 3)]"),
        ("singular-points", ("expect_total",), 99, "total singular points: expected 99, got 7"),
        ("anticanonical-sections", ("expect_bidegree",), [0, 0],
         "base bidegree: expected [0, 0], got [-2, -1]"),
        ("anticanonical-sections", ("expect_h0",), 5, "h0: expected 5, got 0"),
        ("kvv-failure", ("expect", "k_dot_floor"), "7", "K.floor: expected 7, got -2"),
        ("kvv-failure", ("expect", "floor_squared"), "7", "floor^2: expected 7, got -6"),
        ("kvv-failure", ("expect", "euler_characteristic"), "7", "chi: expected 7, got -1"),
        ("kvv-failure", ("expect", "h1_nonzero"), False, "h1_nonzero: expected False, got True"),
        ("kvv-failure", ("expect", "not_globally_f_split"), False,
         "not_globally_f_split: expected False, got True"),
        ("kvv-failure", ("expect", "no_w2_liftable_log_resolution"), False,
         "no_w2_liftable_log_resolution: expected False, got True"),
        ("cone", ("expect", "r"), "5", "r: expected 5, got -1"),
        ("cone", ("expect", "section_discrepancy"), "5", "section discrepancy: expected 5, got 0"),
        ("cone", ("expect", "class_group_rank"), 5, "cone class group rank: expected 5, got 0"),
        ("cone", ("expect", "class_group_torsion"), [2],
         "cone class group torsion: expected [2], got [3, 3, 3]"),
        ("cone", ("expect", "cm"), True, "Cohen-Macaulay: expected True, got False"),
    ]

    @pytest.mark.parametrize(
        "kind, path, value, text", WRONG, ids=[f"{k}:{p[-1]}" for k, p, _, _ in WRONG]
    )
    def test_wrong_value_adds_one_mismatch(self, kind, path, value, text):
        raw = bundled_dict()
        index = raw["checks"].index(check_of(raw, kind))
        passing = run_scenario(parse_scenario(raw)).checks[index]
        node = check_of(raw, kind)
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        report = run_scenario(parse_scenario(raw))
        check = report.checks[index]
        assert passing.mismatches == [] and check.mismatches == [text]
        assert report.first_failure == f"{kind}: {text}"
        assert list(check.details.items()) == list(passing.details.items())

    @pytest.mark.parametrize("kind", sorted({w[0] for w in WRONG}))
    def test_all_wrong_mismatches_keep_their_order(self, kind):
        raw = bundled_dict()
        index = raw["checks"].index(check_of(raw, kind))
        for _, path, value, _ in (w for w in self.WRONG if w[0] == kind):
            node = check_of(raw, kind)
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        check = run_scenario(parse_scenario(raw)).checks[index]
        assert check.mismatches == [w[3] for w in self.WRONG if w[0] == kind]

    def test_fractional_polarization_compares_a_missing_class_group(self):
        raw = bundled_dict()
        raw["divisors"]["A3"] = {n: str(F(v) / 3) for n, v in raw["divisors"]["A"].items()}
        raw["checks"] = [{
            "kind": "cone", "divisor": "A3", "certificate_m": -3,
            "expect": {"r": "-3", "class_group_rank": 0, "class_group_torsion": [3, 3, 3]},
        }]
        (check,) = run_scenario(parse_scenario(raw)).checks
        assert check.mismatches == [
            "cone class group rank: expected 0, got None",
            "cone class group torsion: expected [3, 3, 3], got None",
        ]
        assert check.details["class_group"] is None
        assert (check.details["r"], check.details["section_discrepancy"]) == ("-3", "2")
        assert list(check.details) == [
            "r", "section_discrepancy", "q_gorenstein", "crepant_partial_resolution",
            "class_group", "cm", "certificate_m", "klt_note",
        ]

    def test_omitted_census_is_not_compared(self):
        raw = bundled_dict()
        del check_of(raw, "singular-points")["expect"]
        spec = next(s for s in parse_scenario(raw).specs if s["kind"] == "singular-points")
        assert "expect" not in spec
        report = run_scenario(parse_scenario(raw))
        assert report.passed
        check = next(c for c in report.checks if c.kind == "singular-points")
        assert check.details["total"] == 7

    def test_empty_census_expects_no_points(self):
        raw = bundled_dict()
        check_of(raw, "singular-points")["expect"] = []
        report = run_scenario(parse_scenario(raw))
        assert report.first_failure == (
            "singular-points: singular point census: expected [], got [(3, 1, 4), (3, 2, 3)]"
        )

    def test_omitted_lists_stay_absent(self):
        spec = parse_scenario({
            "schema": "blowdown-scenario/1", "name": "bare", "base": "quadric",
            "checks": [{"kind": "intersection-table"}, {"kind": "rank-one-positivity"}],
        }).specs
        assert spec == ({"kind": "intersection-table"}, {"kind": "rank-one-positivity"})


class TestKvvOncePerRun:
    """The kvv-failure check and the cone's certificate share one vanishing-
    failure report per (divisor reference, multiple) in a run."""

    @pytest.fixture
    def kvv_calls(self, monkeypatch):
        calls = []
        verify = scenario_module.verify_kvv_failure

        def counted(contraction, divisor):
            calls.append(divisor)
            return verify(contraction, divisor)

        monkeypatch.setattr(scenario_module, "verify_kvv_failure", counted)
        return calls

    def test_one_call_per_bundled_run(self, kvv_calls):
        assert canonical_json(run_repro().to_dict()) == (DATA / BUNDLED_EXPECTED).read_text()
        assert len(kvv_calls) == 1

    def test_other_certificate_multiple_adds_a_call(self, kvv_calls):
        raw = bundled_dict()
        check_of(raw, "cone")["certificate_m"] = -2
        scenario = parse_scenario(raw)
        report = run_scenario(scenario)
        cone = next(c for c in report.checks if c.kind == "cone")
        assert len(kvv_calls) == 2
        assert kvv_calls[1] == scenario.build().resolve("A").scaled(2)
        # chi(floor(-psi*2A)) > -1 certifies nothing, so the verdict stays open
        assert (cone.details["cm"], cone.details["certificate_m"]) == (None, None)
        assert cone.mismatches == ["Cohen-Macaulay: expected False, got None"]

    def test_cone_before_kvv_gives_identical_checks(self, kvv_calls):
        raw = bundled_dict()
        kinds = [c["kind"] for c in raw["checks"]]
        i, j = kinds.index("kvv-failure"), kinds.index("cone")
        raw["checks"][i], raw["checks"][j] = raw["checks"][j], raw["checks"][i]
        swapped = {c.kind: c.to_dict() for c in run_scenario(parse_scenario(raw)).checks}
        assert swapped == {c.kind: c.to_dict() for c in run_repro().checks}
        assert len(kvv_calls) == 2  # one per run

    def test_floor_not_relatively_nef_fails_both_checks(self, kvv_calls):
        raw = bundled_dict()
        raw["divisors"]["A"] = {"E1": -2, "E2": -2, "E3": "3/2"}
        report = run_scenario(parse_scenario(raw))
        kvv, cone = (next(c for c in report.checks if c.kind == k) for k in ("kvv-failure", "cone"))
        assert not kvv.passed and not cone.passed
        assert kvv.mismatches == cone.mismatches
        assert kvv.mismatches[0].startswith("Leray degeneration hypothesis fails")
        assert len(kvv_calls) == 2  # an error is not cached

    def test_leray_message_writes_degrees_exactly(self):
        raw = bundled_dict()
        raw["divisors"]["A"] = {"E1": -2, "E2": -2, "E3": "3/2"}
        report = run_scenario(parse_scenario(raw))
        kvv = next(c for c in report.checks if c.kind == "kvv-failure")
        assert kvv.mismatches == [
            "Leray degeneration hypothesis fails: floor is not relatively nef "
            "(negative degrees H3: -1)"
        ]


# a stray int / int gives a float, which must not be written as its binary fraction
@pytest.mark.parametrize("value", [0.5, 2.0, True, False])
def test_rational_str_rejects_float_and_bool(value):
    with pytest.raises(TypeError, match="not an exact rational"):
        rational_str(value)


class TestCli:
    def test_repro_exit_zero(self, capsys):
        assert main(["repro"]) == 0
        out = capsys.readouterr().out
        assert "result:   PASS (7/7 checks)" in out

    def test_repro_json(self, capsys):
        assert main(["repro", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["schema"] == "blowdown-report/1"

    def test_run_failing_scenario_exit_one(self, tmp_path, capsys):
        raw = bundled_dict()
        raw["divisors"]["A"] = {}
        path = tmp_path / "zero.json"
        path.write_text(canonical_json(raw))
        assert main(["run", "--scenario", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "first failure" in out

    def test_run_invalid_scenario_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--scenario", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_oversized_integer_exit_two(self, tmp_path, capsys, fmt):
        # C.C = 2 * 10**4400 has more digits than the interpreter writes as text
        raw = {
            "schema": "blowdown-scenario/1", "name": "huge", "base": "quadric",
            "curves": [{"name": "C", "class": [10**2200, 10**2200]}],
            "checks": [{"kind": "intersection-table",
                        "entries": [{"a": "C", "b": "C", "expect": 0}]}],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # located from the file path on, like the parse and build errors
        assert captured.err.startswith(f"error: {path}.checks[0] (intersection-table): ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        with pytest.raises(ScenarioError, match=r"checks\[0\] \(intersection-table\)"):
            run_scenario(load_scenario(path))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_lone_surrogate_exit_two(self, tmp_path, capsys, fmt):
        # the valid JSON escape "\ud800" is not text: it has no UTF-8 bytes
        raw = bundled_dict()
        raw["name"] = "\ud800"
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "a string holds the lone surrogate '\\ud800', which is not text"
        assert captured.err == f"error: {path}: {message}\n"

    def test_lone_surrogate_raises_scenario_error(self, tmp_path):
        raw = bundled_dict()
        raw["divisors"]["\udfff"] = {"E1": "1"}
        message = "a string holds the lone surrogate '\\udfff', which is not text"
        with pytest.raises(ScenarioError) as info:
            run_scenario(parse_scenario(raw))
        assert str(info.value) == message
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError) as info:
            run_scenario(load_scenario(str(path)))
        assert str(info.value) == f"{path}: {message}"

    def test_interrupt_exits_130_without_a_traceback(self, monkeypatch, capsys):
        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr("blowdown.cli.run_repro", interrupted)
        assert main(["repro"]) == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: interrupted\n"

    @pytest.mark.parametrize("fmt, unused", [("json", "to_text"), ("text", "to_dict")])
    def test_only_the_written_format_is_built(self, monkeypatch, capsys, fmt, unused):
        def fail(report):
            raise AssertionError(f"{unused} called for --format {fmt}")

        monkeypatch.setattr(Report, unused, fail)
        assert main(["repro", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            assert out == (DATA / BUNDLED_EXPECTED).read_text()
        else:
            assert "result:   PASS (7/7 checks)" in out

    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["repro", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True

    def test_unwritable_out_exit_two(self, capsys):
        code = main(["repro", "--out", "/nonexistent-dir/report.txt"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_run_class_group_of_1200_plain_blow_ups(self, tmp_path):
        # nothing contracted at rank 1202: every column is a free summand; it
        # took tens of seconds while every column went to the dense Smith form
        raw = {
            "schema": "blowdown-scenario/1", "name": "plain-1200", "base": "quadric",
            "blowups": [{"name": f"E{i}"} for i in range(1, 1201)],
            "checks": [{"kind": "rank-one-positivity", "expect_class_group": {"rank": 1202}}],
        }
        start = time.perf_counter()
        assert run_cli(raw, tmp_path) == 0
        assert time.perf_counter() - start < 20

    @pytest.mark.parametrize("base, blowups", [("quadric", 4), ("plane", 5)])
    def test_lattice_rank_past_the_limit_exits_two(self, tmp_path, capsys, monkeypatch, base, blowups):
        # a small limit stands in for MAX_LATTICE_RANK: the refusal reads only
        # the base rank and the number of blow-ups, so nothing large is built
        monkeypatch.setattr("blowdown.explorer.MAX_LATTICE_RANK", 5)
        raw = {"schema": "blowdown-scenario/1", "name": "many", "base": base,
               "blowups": [{"name": f"E{i}"} for i in range(1, blowups + 1)]}
        assert run_cli({**raw, "blowups": raw["blowups"][:-1]}, tmp_path) == 0  # rank 5
        capsys.readouterr()
        path = tmp_path / "many.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        base_rank = 6 - blowups
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}.blowups: lattice rank {base_rank} + {blowups} blow-ups = 6,"
            " past the limit 5\n"
        )

    def test_lattice_rank_is_refused_before_the_digest(self, tmp_path, monkeypatch):
        def digest(scenario):
            raise AssertionError("digested")

        monkeypatch.setattr("blowdown.explorer.MAX_LATTICE_RANK", 10)
        monkeypatch.setattr(scenario_module, "scenario_digest", digest)
        path = tmp_path / "bundled.json"
        path.write_text(json.dumps(bundled_dict()))  # rank 2 + 9 blow-ups = 11
        with pytest.raises(ScenarioError, match=r"\.blowups: lattice rank 2 \+ 9 blow-ups = 11,"):
            load_scenario(str(path))
        with pytest.raises(ScenarioError, match=r"^scenario\.blowups: lattice rank"):
            parse_scenario(bundled_dict())

    def test_explore_reference(self, capsys):
        assert main(["explore", "--p", "3", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "del_pezzo" in out
        assert "reference construction" in out

    def test_explore_json(self, capsys):
        assert main(["explore", "--p", "5", "--points", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["anticanonical_degree"] == "-1"
        assert payload["verdict"] == "canonically_ample"
        assert payload["provenance"] == "extrapolated construction"

    def test_explore_invalid_exit_two(self, capsys):
        assert main(["explore", "--p", "3", "--points", "2"]) == 2
        assert "not contractible" in capsys.readouterr().err


class TestBuildOnce:
    """`blowdown run` builds the construction once: `run_scenario` takes the
    trial build that `load_scenario` validated instead of building again."""

    PATH = str(DATA / "keel-mckernan-p3.json")

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = Scenario.build

        def counted(scenario):
            calls.append(scenario.name)
            return build(scenario)

        monkeypatch.setattr(Scenario, "build", counted)
        return calls

    def test_cli_run(self, builds, tmp_path):
        assert main(["run", "--scenario", self.PATH, "--out", str(tmp_path / "r.txt")]) == 0
        assert builds == ["keel-mckernan-p3"]

    def test_load_then_run(self, builds):
        assert run_scenario(load_scenario(self.PATH)).passed
        assert len(builds) == 1

    def test_parsed_scenario_still_builds(self, builds):
        assert run_scenario(parse_scenario(bundled_dict())).passed
        assert len(builds) == 1

    def test_loaded_scenario_runs_twice_identically(self, builds):
        scenario = load_scenario(self.PATH)
        first, second = (canonical_json(run_scenario(scenario).to_dict()) for _ in range(2))
        assert first == second == (DATA / BUNDLED_EXPECTED).read_text()
        assert len(builds) == 2  # the trial build serves one run


class TestParseAndDigestOnce:
    """A loaded scenario is digested at load, and the bundled one is read,
    parsed and digested once per process."""

    PATH = TestBuildOnce.PATH

    @pytest.fixture
    def documents(self, monkeypatch):
        calls = []
        document = Scenario._document

        def counted(scenario):
            calls.append(scenario.name)
            return document(scenario)

        monkeypatch.setattr(Scenario, "_document", counted)
        return calls

    def test_loaded_scenario_writes_its_document_once(self, documents):
        scenario = load_scenario(self.PATH)
        golden = json.loads((DATA / BUNDLED_EXPECTED).read_text())["scenario"]["digest"]
        assert [run_scenario(scenario).scenario_digest for _ in range(2)] == [golden] * 2
        assert documents == ["keel-mckernan-p3"]

    def test_lone_surrogate_found_before_any_build(self, tmp_path, monkeypatch):
        builds = []
        monkeypatch.setattr(Scenario, "build", lambda scenario: builds.append(scenario))
        raw = bundled_dict()
        raw["name"] = "\ud800"
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError) as info:
            load_scenario(str(path))
        message = "a string holds the lone surrogate '\\ud800', which is not text"
        assert str(info.value) == f"{path}: {message}"
        assert builds == []

    def test_bundled_results_are_distinct_and_equal(self, monkeypatch, documents):
        parses = []
        parse = scenario_module.parse_scenario
        monkeypatch.setattr(scenario_module, "_bundled", None)
        monkeypatch.setattr(scenario_module, "parse_scenario", lambda raw: parses.append(1) or parse(raw))
        first, second = bundled_scenario(), bundled_scenario()
        assert (len(parses), len(documents)) == (1, 1)
        assert first is not second and first == second
        first._trial, first._path = first.build(), "here.json"
        assert (second._trial, second._path) == (None, None)
        assert bundled_scenario()._trial is None and bundled_scenario()._path is None

    def test_changing_a_bundled_document_changes_no_later_one(self):
        document = bundled_scenario().to_dict()
        changed = bundled_scenario().to_dict()
        changed["name"] = "other"
        changed["checks"][0]["entries"].clear()
        changed["divisors"].clear()
        later = bundled_scenario()
        assert later.to_dict() == document
        assert scenario_digest(later) == scenario_digest(parse_scenario(document))

    def test_repro_twice_gives_the_golden_bytes(self):
        golden = (DATA / BUNDLED_EXPECTED).read_text()
        assert [canonical_json(run_repro().to_dict()) for _ in range(2)] == [golden] * 2


def _json_paths(node, prefix=()):
    """Paths into a JSON tree, the root excluded; beyond the checks, a list
    contributes its first two items only, so long tables do not crowd out
    the other fields."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if isinstance(key, int) and key > 1 and prefix != ("checks",):
            continue
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


BUNDLED_PATHS = tuple(_json_paths(bundled_dict()))

junk_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(min_value=10**40, max_value=10**60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["K", "-K", "A", "-A", "C", "E1", "x", "1/0", "2/3", "klt", ""]),
    st.sampled_from(["1e300000", "1e30000000", "0.5", "-2.5e-3", "1_0"]),
    st.lists(st.integers(-3, 3), max_size=3),
    st.lists(st.sampled_from(["K", "A", "C", "F1"]), max_size=3),
    st.dictionaries(st.sampled_from(["K", "A", "C", "E1", "zz"]), st.sampled_from(["1", 1, True]), max_size=2),
)

mutations = st.tuples(
    st.sampled_from(BUNDLED_PATHS),
    st.sampled_from(["replace", "drop", "add-key"]),
    junk_values,
)


class TestFuzz:
    """A mutated scenario exits 0, 1 or 2 through ``blowdown run``, never raising."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(mutations, min_size=1, max_size=3))
    def test_mutated_scenario_exits_cleanly(self, edits):
        raw = bundled_dict()
        for path, action, value in edits:
            parent = raw
            try:
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]]
            except (KeyError, IndexError, TypeError):
                continue  # an earlier edit removed or retyped this path
            if not isinstance(parent, (dict, list)):
                continue
            if action == "replace":
                parent[path[-1]] = value
            elif action == "drop":
                del parent[path[-1]]
            elif isinstance(parent[path[-1]], dict):
                parent[path[-1]]["unexpected"] = value
        with tempfile.TemporaryDirectory() as directory:
            assert run_cli(raw, directory) in (0, 1, 2)
        try:
            scenario = parse_scenario(raw)
        except ScenarioError:
            return
        # the digest hashes the canonical bytes of the document to_dict gives
        assert scenario_digest(scenario) == sha256_digest(canonical_json(scenario.to_dict()))


def tower_dict(p, n, extra_entries=()):
    """A quadric with a curve C of class (1, p) and fibres F1..Fn, blown up p
    times over each fibre at the point it shares with C; its table holds the
    closed-form intersection numbers plus ``extra_entries``.  Rank 2 + p*n."""
    blowups, entries = [], [("C", "C", p * (2 - n))]
    for i in range(1, n + 1):
        fibre, top = f"F{i}", f"E{i}_{p}"
        entries += [(fibre, fibre, -p), (fibre, top, 1), ("C", top, 1), ("C", fibre, 0)]
        for k in range(1, p + 1):
            name = f"E{i}_{k}"
            incident = [{"curve": "C", "mult": 1}, {"curve": fibre, "mult": 1}]
            if k > 1:
                incident.append({"curve": f"E{i}_{k - 1}", "mult": 1})
            blowups.append({"name": name, "incident": incident})
            entries.append((name, name, -2 if k < p else -1))
            if k < p:
                entries.append((name, f"E{i}_{k + 1}", 1))
    return {
        "schema": "blowdown-scenario/1",
        "name": f"tower-p{p}-n{n}",
        "base": "quadric",
        "curves": [{"name": "C", "class": [1, p]}]
        + [{"name": f"F{i}", "class": [1, 0]} for i in range(1, n + 1)],
        "blowups": blowups,
        "divisors": {"D": {"C": "1/2", "F1": 1, "E1_1": "-1/3"}},
        "checks": [
            {
                "kind": "intersection-table",
                "entries": [{"a": a, "b": b, "expect": v} for a, b, v in entries]
                + list(extra_entries),
            }
        ],
    }


def sha256_digest(text):
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def stdlib_indent2(text):
    """``text`` decoded and encoded again by the stdlib with the canonical options."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class TestIntersectionTableResolvesOnce:
    """The intersection-table check pairs each reference's class resolved once
    per run; its values are those of resolving every reference afresh."""

    REFS = ("C", "-C", "K", "-K", "D", "-D", "F2", "E2_3")

    def scenarios(self):
        # the extra entries' expectations are placeholders: only the reported
        # values are compared, with those of the per-entry resolution
        extra = [
            {"a": a, "b": b, "expect": 0}
            for _ in range(3)
            for a, b in itertools.product(self.REFS, repeat=2)
        ]
        return [bundled_scenario(), parse_scenario(tower_dict(3, 4, extra))]

    def test_values_match_fresh_resolution(self):
        for scenario in self.scenarios():
            spec = next(s for s in scenario.specs if s["kind"] == "intersection-table")
            rows = run_scenario(scenario).checks[0].details["entries"]
            run = scenario.build()
            assert [(r["a"], r["b"]) for r in rows] == [(e["a"], e["b"]) for e in spec["entries"]]
            for row in rows:
                expected = run.model.intersect(run.resolve(row["a"]), run.resolve(row["b"]))
                assert F(row["value"]) == expected, (row, expected)

    def test_second_run_gives_identical_bytes(self):
        for scenario in self.scenarios():
            first, second = (canonical_json(run_scenario(scenario).to_dict()) for _ in range(2))
            assert first == second


def test_tower_report_bytes_match_stdlib_encoder(tmp_path):
    """At rank 82 the report and the digest payload are the bytes the stdlib
    writes with ``sort_keys=True, indent=2, ensure_ascii=False``."""
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower_dict(4, 20)))
    scenario = load_scenario(str(path))
    report = run_scenario(scenario)
    assert report.passed, report.first_failure
    text = canonical_json(report.to_dict())
    assert text == stdlib_indent2(text)
    payload = canonical_json(scenario.to_dict())
    assert payload == stdlib_indent2(payload)
    assert scenario_digest(scenario) == sha256_digest(payload)
    stdlib = json.dumps(scenario.to_dict(), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert report.scenario_digest == sha256_digest(stdlib)


class TestDigestHash:
    """`scenario_digest` hashes with the interpreter's own SHA-256 module where
    it has one, and with hashlib's where not: the same digest either way."""

    def test_matches_hashlib_on_random_payloads(self):
        rng = random.Random(1919)
        # the block edges of SHA-256's 64-byte blocks and its 56-byte length rule
        sizes = [0, 1, 55, 56, 63, 64, 65, 100_000] + [rng.randrange(100_001) for _ in range(40)]
        for size in sizes:
            payload = rng.randbytes(size)
            expected = hashlib.sha256(payload).hexdigest()
            assert scenario_module._sha256(payload).hexdigest() == expected, size

    def test_falls_back_to_hashlib(self):
        # neither built-in module importable: the digest comes from hashlib
        code = (
            "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "import blowdown.cli; from blowdown.scenario import run_repro; "
            "print('hashlib' in sys.modules, run_repro().scenario_digest)"
        )
        src = str(DATA.parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        golden = json.loads((DATA / BUNDLED_EXPECTED).read_text())
        assert result.stdout.split() == ["True", golden["scenario"]["digest"]]


class Level(enum.IntEnum):
    THREE = 3


class Verdict(str, enum.Enum):
    klt = "klt"
    A = "A"


def test_library_values_in_raw_checks_keep_their_digest():
    """A library caller's IntEnum, str Enum and OrderedDict values in the raw
    checks are written as their base JSON types, so the digest is the golden
    report's, which the plain values give."""
    raw = bundled_dict()
    plain = parse_scenario(copy.deepcopy(raw))
    pullback, rank_one, census, kvv, cone = (
        check_of(raw, kind)
        for kind in (
            "canonical-pullback", "rank-one-positivity", "singular-points", "kvv-failure", "cone"
        )
    )
    pullback["expect_classification"] = Verdict.klt
    pullback["expect_coefficients"] = collections.OrderedDict(pullback["expect_coefficients"])
    rank_one["ample"][0]["divisor"] = Verdict.A
    rank_one["expect_class_group"]["torsion"] = [Level.THREE] * 3
    census["expect"][0]["n"] = Level.THREE
    kvv["expect"] = collections.OrderedDict(reversed(kvv["expect"].items()))
    raw["checks"][raw["checks"].index(cone)] = collections.OrderedDict(cone)
    scenario = parse_scenario(raw)
    assert scenario.specs == plain.specs
    digest = scenario_digest(scenario)
    assert digest == scenario_digest(plain) == sha256_digest(canonical_json(scenario.to_dict()))
    assert digest == json.loads((DATA / BUNDLED_EXPECTED).read_text())["scenario"]["digest"]
    # the scenario shares the caller's raw checks, so a field added after
    # parsing is in the document, written by the generic encoder
    raw["checks"][0]["entries"][0]["note"] = "added after parsing"
    raw["checks"][1]["note"] = [Level.THREE]
    assert scenario_digest(scenario) == sha256_digest(canonical_json(scenario.to_dict())) != digest


class TestOutputShapesAreComplete:
    """Every check kind's report, passing, failing or raising, with the fields
    written only on occasion, and the exploration at several sizes, are
    written with the bytes of the stdlib's ``indent=2`` encoder."""

    def failing_dict(self):
        raw = bundled_dict()
        table, pullback, rank_one, census, sections, kvv, cone = raw["checks"]
        table["entries"][0]["expect"] = "5"
        pullback["expect_min_discrepancy"] = "7"
        rank_one["expect_rank"] = 2
        census["expect_total"] = 99
        sections["fibers"].pop()  # the class identity fails: a difference class
        kvv["divisor"] = "K"  # an expansion with a residual class
        cone["expect"]["r"] = "99"
        return raw

    def results(self, monkeypatch):
        passing = run_repro().checks
        failing = run_scenario(parse_scenario(self.failing_dict())).checks
        partial = bundled_dict()
        partial["contraction"] = partial["contraction"][:4]  # kvv-failure and cone raise
        failing += run_scenario(parse_scenario(partial)).checks
        for kind in scenario_module.CHECKS:
            monkeypatch.setitem(scenario_module.CHECKS, kind, self.raise_geometry_error)
        raising = run_scenario(bundled_scenario()).checks
        return passing, failing, raising

    @staticmethod
    def raise_geometry_error(run, spec):
        raise GeometryError(f"{spec['kind']} cannot be evaluated")

    def test_every_check_kind_fits_its_shape(self, monkeypatch):
        passing, failing, raising = self.results(monkeypatch)
        kinds = set(scenario_module.CHECKS)
        assert kinds == set(scenario_module.CHECK_SCHEMAS)
        assert {c.kind for c in passing if c.passed} == kinds
        assert {c.kind for c in failing if not c.passed and "error" not in c.details} == kinds
        assert {c.kind for c in raising if set(c.details) == {"error"}} == kinds
        optional = {c.kind: c.details for c in failing[:len(kinds)]}  # the fields written on occasion
        assert "difference_class" in optional["anticanonical-sections"]
        assert "residual" in optional["kvv-failure"]["expansion"]
        for checks in (passing, failing, raising):
            report = Report("shapes", "sha256:0", checks).to_dict()
            assert canonical_json(report) == stdlib_indent2(json.dumps(report))
        # a check that raised writes its error and nothing of its kind's text
        lines = Report("shapes", "sha256:0", raising).to_text().splitlines()
        for check in raising:
            start = lines.index(f"[FAIL] {check.kind}") + 1
            end = next(i for i in range(start, len(lines)) if not lines[i].startswith("    "))
            message = f"{check.kind} cannot be evaluated"
            assert lines[start:end] == [f"    error: {message}", f"    !! {message}"]

    def test_exploration_fits_its_shape(self):
        for p, n in ((3, 3), (5, 5), (2, 4)):
            exploration = scenario_module.exploration_to_dict(explore_frobenius(p, n))
            assert canonical_json(exploration) == stdlib_indent2(json.dumps(exploration))


class TestCheckKinds:
    """Each check kind is declared once, in `CHECK_KINDS`."""

    def test_schemas_and_evaluators_come_from_one_table(self):
        kinds = list(scenario_module.CHECK_KINDS)
        assert list(scenario_module.CHECKS) == list(scenario_module.CHECK_SCHEMAS) == kinds

    def test_every_kind_is_in_the_readme_table(self):
        readme = (DATA.parent.parent.parent / "README.md").read_text(encoding="utf-8")
        rows = {line.split("`")[1] for line in readme.splitlines() if line.startswith("| `")}
        assert set(scenario_module.CHECKS) <= rows
