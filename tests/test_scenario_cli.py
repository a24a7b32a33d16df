import copy
import json
from pathlib import Path

import pytest

from blowdown import ScenarioError, load_scenario, run_repro, run_scenario
from blowdown.cli import main
from blowdown.scenario import (
    BUNDLED_EXPECTED,
    bundled_scenario,
    canonical_json,
    parse_scenario,
    scenario_digest,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "blowdown" / "data"


def bundled_dict():
    return json.loads((DATA / "keel-mckernan-p3.json").read_text())


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
        raw = bundled_dict()
        check = next(c for c in raw["checks"] if c["kind"] == kind)
        check[key] = value
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

    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["repro", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True

    def test_unwritable_out_exit_two(self, capsys):
        code = main(["repro", "--out", "/nonexistent-dir/report.txt"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

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
