"""Scenario files, check evaluation, and machine-readable reports.

A scenario is a JSON document describing a construction (base surface,
declared curves, blow-up sequence, contraction) together with named divisors
and a list of checks with exact expected values.  Running a scenario builds
the construction, evaluates every check, and produces a report whose JSON
serialization is canonical (sorted keys, rationals as "num/den" strings), so
two runs of the same scenario are byte-identical.

Exit-code taxonomy used by the CLI: a malformed scenario or a numerically
impossible construction is *invalid input*; a check whose computed values
differ from the expectations is a *mathematical failure*.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Any, Callable

from .cohomology import (
    verify_h0_anticanonical_zero,
    verify_kvv_failure,
)
from .cone import build_cone, local_cohomology_certificate
from .contraction import Contraction, contract
from .errors import GeometryError, ScenarioError
from .surface import PLANE, QUADRIC, QDivisor, SurfaceModel, new_plane, new_quadric

SCENARIO_SCHEMA = "blowdown-scenario/1"
REPORT_SCHEMA = "blowdown-report/1"
EXPLORATION_SCHEMA = "blowdown-exploration/1"

BUNDLED_SCENARIO = "keel-mckernan-p3.json"
BUNDLED_EXPECTED = "keel-mckernan-p3.expected.json"


# -- canonical JSON -----------------------------------------------------------


def canonical_json(obj: Any) -> str:
    """Deterministic serialization: sorted keys, 2-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def scenario_digest(scenario: "Scenario") -> str:
    payload = canonical_json(scenario.to_dict()).encode("utf-8")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ScenarioError(f"{where}: expected an exact rational, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{where}: bad rational {value!r} ({exc})") from None


def rational_str(value: Fraction | int) -> str:
    return str(Fraction(value))


# -- scenario data -------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str
    base: str
    curves: tuple[tuple[str, tuple[int, ...]], ...]
    blowups: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    contraction: tuple[str, ...]
    divisors: tuple[tuple[str, tuple[tuple[str, Fraction], ...]], ...]
    checks: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "base": self.base,
            "curves": [
                {"name": n, "class": list(vec)} for n, vec in self.curves
            ],
            "blowups": [
                {
                    "name": n,
                    "incident": [{"curve": c, "mult": m} for c, m in incident],
                }
                for n, incident in self.blowups
            ],
            "contraction": list(self.contraction),
            "divisors": {
                n: {c: rational_str(v) for c, v in coeffs}
                for n, coeffs in self.divisors
            },
            "checks": [copy.deepcopy(c) for c in self.checks],
        }

    def build(self) -> "ScenarioRun":
        """Construct the model and the contraction; raises ScenarioError with
        a location when the declared data is numerically impossible."""
        model = new_quadric() if self.base == QUADRIC else new_plane()
        for i, (name, vec) in enumerate(self.curves):
            try:
                model.declare_curve(name, vec)
            except GeometryError as exc:
                raise ScenarioError(f"curves[{i}] ({name!r}): {exc}") from None
        for i, (name, incident) in enumerate(self.blowups):
            try:
                model.blow_up(name, incident)
            except GeometryError as exc:
                raise ScenarioError(f"blowups[{i}] ({name!r}): {exc}") from None
        try:
            con = contract(model, self.contraction)
        except GeometryError as exc:
            raise ScenarioError(f"contraction: {exc}") from None
        divisors = {n: QDivisor(dict(coeffs)) for n, coeffs in self.divisors}
        return ScenarioRun(self, model, con, divisors)


@dataclass
class ScenarioRun:
    scenario: Scenario
    model: SurfaceModel
    contraction: Contraction
    divisors: dict[str, QDivisor]

    def resolve(self, ref: str) -> QDivisor:
        """Divisor references in checks: 'K', a declared divisor name, a
        prime divisor name, optionally prefixed with '-' for negation."""
        if ref.startswith("-"):
            return -self.resolve(ref[1:])
        if ref == "K":
            return self.model.canonical_divisor()
        if ref in self.divisors:
            return self.divisors[ref]
        if ref in self.model.prime_divisors:
            return QDivisor({ref: 1})
        raise ScenarioError(f"unknown divisor reference {ref!r}")


def parse_scenario(raw: Any, where: str = "scenario") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: top level must be an object")
    schema = raw.get("schema")
    if schema != SCENARIO_SCHEMA:
        raise ScenarioError(f"{where}: schema must be {SCENARIO_SCHEMA!r}, got {schema!r}")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{where}: 'name' must be a nonempty string")
    base = raw.get("base")
    if base not in (QUADRIC, PLANE):
        raise ScenarioError(f"{where}: base must be 'quadric' or 'plane', got {base!r}")

    curves = []
    for i, entry in enumerate(_expect_list(raw, "curves", where)):
        cname = _expect_str(entry, "name", f"{where}.curves[{i}]")
        vec = entry.get("class")
        if not isinstance(vec, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in vec):
            raise ScenarioError(f"{where}.curves[{i}]: 'class' must be a list of integers")
        curves.append((cname, tuple(vec)))

    blowups = []
    for i, entry in enumerate(_expect_list(raw, "blowups", where)):
        bname = _expect_str(entry, "name", f"{where}.blowups[{i}]")
        incident = []
        raw_incident = entry.get("incident", [])
        if not isinstance(raw_incident, list):
            raise ScenarioError(f"{where}.blowups[{i}]: 'incident' must be a list")
        for j, inc in enumerate(raw_incident):
            curve = _expect_str(inc, "curve", f"{where}.blowups[{i}].incident[{j}]")
            mult = inc.get("mult")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise ScenarioError(
                    f"{where}.blowups[{i}].incident[{j}]: 'mult' must be an integer >= 1"
                )
            incident.append((curve, mult))
        blowups.append((bname, tuple(incident)))

    contraction = raw.get("contraction", [])
    if not isinstance(contraction, list) or not all(isinstance(x, str) for x in contraction):
        raise ScenarioError(f"{where}: 'contraction' must be a list of names")

    known_names = {n for n, _ in curves} | {n for n, _ in blowups}
    divisors = []
    raw_divisors = raw.get("divisors", {})
    if not isinstance(raw_divisors, dict):
        raise ScenarioError(f"{where}: 'divisors' must be an object")
    for dname, coeffs in raw_divisors.items():
        if not isinstance(coeffs, dict):
            raise ScenarioError(f"{where}.divisors[{dname!r}]: must be an object")
        parsed = []
        for cname, value in coeffs.items():
            if cname not in known_names:
                raise ScenarioError(
                    f"{where}.divisors[{dname!r}]: unknown curve {cname!r}"
                )
            parsed.append((cname, parse_rational(value, f"{where}.divisors[{dname!r}][{cname!r}]")))
        divisors.append((dname, tuple(parsed)))

    divisor_names = {n for n, _ in divisors}
    refs_ok = known_names | divisor_names | {"K"}

    checks = []
    for i, check in enumerate(_expect_list(raw, "checks", where)):
        kind = _expect_str(check, "kind", f"{where}.checks[{i}]")
        if kind not in CHECKS:
            raise ScenarioError(f"{where}.checks[{i}]: unknown check kind {kind!r}")
        _validate_check(check, kind, refs_ok, f"{where}.checks[{i}]")
        checks.append(check)

    for i, cname in enumerate(contraction):
        if cname not in known_names:
            raise ScenarioError(f"{where}: contraction[{i}] references unknown {cname!r}")

    return Scenario(
        name=name,
        base=base,
        curves=tuple(curves),
        blowups=tuple(blowups),
        contraction=tuple(contraction),
        divisors=tuple(divisors),
        checks=tuple(checks),
    )


def _expect_list(raw: dict, key: str, where: str) -> list:
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: '{key}' must be a list")
    return value


def _expect_str(entry: Any, key: str, where: str) -> str:
    if not isinstance(entry, dict) or not isinstance(entry.get(key), str):
        raise ScenarioError(f"{where}: missing string field '{key}'")
    return entry[key]


def _require_ref(ref, refs_ok: set[str], where: str) -> None:
    if not isinstance(ref, str):
        raise ScenarioError(f"{where}: divisor reference must be a string")
    bare = ref[1:] if ref.startswith("-") else ref
    if bare not in refs_ok:
        raise ScenarioError(f"{where}: unknown divisor reference {ref!r}")


def _require_entries(check: dict, key: str, where: str) -> list:
    entries = check.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ScenarioError(f"{where}: '{key}' must be a list of objects")
    return entries


def _require_rational_map(value, where: str) -> None:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: must be an object of rationals")
    for name, coeff in value.items():
        parse_rational(coeff, f"{where}[{name!r}]")


def _require_int(value, where: str) -> None:
    # bool is an int subclass, and True == 1 would pass an equality check
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{where}: must be an integer")


def _require_int_list(value, where: str) -> None:
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: must be a list of integers")
    for i, x in enumerate(value):
        _require_int(x, f"{where}[{i}]")


def _validate_check(check: dict, kind: str, refs_ok: set[str], where: str) -> None:
    """Shape- and reference-validate one check so evaluation cannot crash on
    malformed input; all expected rationals are parsed eagerly."""
    if kind == "intersection-table":
        for i, entry in enumerate(_require_entries(check, "entries", where)):
            _require_ref(entry.get("a"), refs_ok, f"{where}.entries[{i}]")
            _require_ref(entry.get("b"), refs_ok, f"{where}.entries[{i}]")
            parse_rational(entry.get("expect"), f"{where}.entries[{i}].expect")
    elif kind == "canonical-pullback":
        _require_rational_map(
            check.get("expect_coefficients", {}), f"{where}.expect_coefficients"
        )
        if "expect_min_discrepancy" in check:
            parse_rational(check["expect_min_discrepancy"], f"{where}.expect_min_discrepancy")
    elif kind == "rank-one-positivity":
        for i, entry in enumerate(_require_entries(check, "degrees", where)):
            _require_ref(entry.get("divisor"), refs_ok, f"{where}.degrees[{i}]")
            parse_rational(entry.get("expect"), f"{where}.degrees[{i}].expect")
        for i, entry in enumerate(_require_entries(check, "proportionality", where)):
            _require_ref(entry.get("d1"), refs_ok, f"{where}.proportionality[{i}]")
            _require_ref(entry.get("d2"), refs_ok, f"{where}.proportionality[{i}]")
            parse_rational(entry.get("expect"), f"{where}.proportionality[{i}].expect")
        for i, entry in enumerate(_require_entries(check, "ample", where)):
            _require_ref(entry.get("divisor"), refs_ok, f"{where}.ample[{i}]")
            if not isinstance(entry.get("expect"), bool):
                raise ScenarioError(f"{where}.ample[{i}].expect: must be true or false")
        if "expect_rank" in check:
            _require_int(check["expect_rank"], f"{where}.expect_rank")
        if "expect_class_group" in check:
            spec = check["expect_class_group"]
            if not isinstance(spec, dict):
                raise ScenarioError(f"{where}: 'expect_class_group' must be an object")
            if "rank" in spec:
                _require_int(spec["rank"], f"{where}.expect_class_group.rank")
            if "torsion" in spec:
                _require_int_list(spec["torsion"], f"{where}.expect_class_group.torsion")
    elif kind == "singular-points":
        for i, entry in enumerate(_require_entries(check, "expect", where)):
            for key in ("n", "q", "count"):
                _require_int(entry.get(key), f"{where}.expect[{i}].{key}")
        if "expect_total" in check:
            _require_int(check["expect_total"], f"{where}.expect_total")
    elif kind == "anticanonical-sections":
        fibers = check.get("fibers")
        if not isinstance(fibers, list):
            raise ScenarioError(f"{where}: 'fibers' must be a list of names")
        names = fibers + [check.get("curve")]
        towers = check.get("towers")
        if not isinstance(towers, list) or not all(isinstance(t, list) for t in towers):
            raise ScenarioError(f"{where}: 'towers' must be a list of name lists")
        for tower in towers:
            names.extend(tower)
        for name in names:
            if not isinstance(name, str) or name not in refs_ok:
                raise ScenarioError(f"{where}: unknown curve name {name!r}")
        if "expect_bidegree" in check:
            _require_int_list(check["expect_bidegree"], f"{where}.expect_bidegree")
        if "expect_h0" in check:
            _require_int(check["expect_h0"], f"{where}.expect_h0")
    elif kind == "kvv-failure":
        _require_ref(check.get("divisor"), refs_ok, where)
        spec = check.get("expect", {})
        if not isinstance(spec, dict):
            raise ScenarioError(f"{where}: 'expect' must be an object")
        for key in ("expansion", "floor", "nef_degrees"):
            _require_rational_map(spec.get(key, {}), f"{where}.expect.{key}")
        for key in ("k_dot_floor", "floor_squared", "euler_characteristic"):
            if key in spec:
                parse_rational(spec[key], f"{where}.expect.{key}")
    elif kind == "cone":
        _require_ref(check.get("divisor"), refs_ok, where)
        if "certificate_m" in check:
            _require_int(check["certificate_m"], f"{where}.certificate_m")
        spec = check.get("expect", {})
        if not isinstance(spec, dict):
            raise ScenarioError(f"{where}: 'expect' must be an object")
        for key in ("r", "section_discrepancy"):
            if key in spec:
                parse_rational(spec[key], f"{where}.expect.{key}")


def load_scenario(path: str) -> Scenario:
    """Parse and fully validate a scenario file (including a trial build)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from None
    scenario = parse_scenario(raw, where=path)
    scenario.build()  # surfaces incidence-budget violations with locations
    return scenario


def bundled_scenario() -> Scenario:
    data = resources.files("blowdown").joinpath("data", BUNDLED_SCENARIO)
    scenario = parse_scenario(json.loads(data.read_text(encoding="utf-8")))
    return scenario


# -- checks ---------------------------------------------------------------------


@dataclass
class CheckResult:
    kind: str
    passed: bool
    details: dict
    mismatches: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "details": self.details,
            "mismatches": list(self.mismatches),
        }


class _Expect:
    """Collects exact comparisons for one check."""

    def __init__(self) -> None:
        self.mismatches: list[str] = []

    def eq(self, label: str, actual: Any, expected: Any) -> None:
        if actual != expected:
            self.mismatches.append(f"{label}: expected {expected}, got {actual}")

    def rational(self, label: str, actual: Fraction, expected: Any, where: str) -> None:
        self.eq(label, Fraction(actual), parse_rational(expected, where))


def _divisor_json(d: QDivisor) -> dict:
    out: dict[str, Any] = {"coefficients": {n: rational_str(c) for n, c in sorted(d.named.items())}}
    if d.residual is not None and any(d.residual):
        out["residual"] = list(d.residual)
    return out


def _check_intersection_table(run: ScenarioRun, check: dict) -> CheckResult:
    expect = _Expect()
    rows = []
    for i, entry in enumerate(check.get("entries", [])):
        a, b = entry["a"], entry["b"]
        value = run.model.intersect(run.resolve(a), run.resolve(b))
        expect.rational(f"{a}.{b}", value, entry["expect"], f"entries[{i}].expect")
        rows.append({"a": a, "b": b, "value": rational_str(value)})
    details = {"entries": rows, "count": len(rows)}
    return CheckResult("intersection-table", not expect.mismatches, details, expect.mismatches)


def _check_canonical_pullback(run: ScenarioRun, check: dict) -> CheckResult:
    expect = _Expect()
    con = run.contraction
    k_target = con.pushforward(run.model.canonical_divisor())
    pullback = con.pullback(k_target)
    corrections = {n: pullback.coefficient(n) for n in con.contracted}
    for name, value in check.get("expect_coefficients", {}).items():
        expect.rational(
            f"coefficient of {name}",
            corrections.get(name, Fraction(0)),
            value,
            f"expect_coefficients[{name!r}]",
        )
    discreps, classification = con.discrepancies()
    if "expect_classification" in check:
        expect.eq("classification", classification.value, check["expect_classification"])
    if "expect_min_discrepancy" in check:
        if discreps:
            expect.rational(
                "min discrepancy",
                min(discreps.values()),
                check["expect_min_discrepancy"],
                "expect_min_discrepancy",
            )
        else:
            expect.mismatches.append("min discrepancy: nothing contracted")
    details = {
        "pullback_corrections": {n: rational_str(c) for n, c in sorted(corrections.items())},
        "discrepancies": {n: rational_str(a) for n, a in sorted(discreps.items())},
        "classification": classification.value,
        "min_discrepancy": rational_str(min(discreps.values())) if discreps else None,
    }
    return CheckResult("canonical-pullback", not expect.mismatches, details, expect.mismatches)


def _check_rank_one_positivity(run: ScenarioRun, check: dict) -> CheckResult:
    expect = _Expect()
    con = run.contraction
    details: dict[str, Any] = {"target_rank": con.target_rank}
    if "expect_rank" in check:
        expect.eq("target rank", con.target_rank, check["expect_rank"])
    degrees = {}
    if con.target_rank == 1:
        for i, entry in enumerate(check.get("degrees", [])):
            ref = entry["divisor"]
            value = con.degree_against(run.resolve(ref))
            degrees[ref] = rational_str(value)
            expect.rational(f"degree of {ref}", value, entry["expect"], f"degrees[{i}]")
        props = {}
        for i, entry in enumerate(check.get("proportionality", [])):
            r = con.numerically_proportional(run.resolve(entry["d1"]), run.resolve(entry["d2"]))
            key = f"{entry['d1']}~{entry['d2']}"
            props[key] = None if r is None else rational_str(r)
            if r is None:
                expect.mismatches.append(f"{key}: second divisor numerically trivial")
            else:
                expect.rational(key, r, entry["expect"], f"proportionality[{i}]")
        amp = {}
        for entry in check.get("ample", []):
            ref = entry["divisor"]
            value = con.is_ample_rank1(run.resolve(ref))
            amp[ref] = value
            expect.eq(f"ample({ref})", value, entry["expect"])
        details.update({"degrees": degrees, "proportionality": props, "ample": amp})
    elif check.get("degrees") or check.get("proportionality") or check.get("ample"):
        expect.mismatches.append(
            f"rank-one quantities undefined: target rank is {con.target_rank}"
        )
    if "expect_class_group" in check:
        group = con.class_group()
        spec = check["expect_class_group"]
        expect.eq("class group rank", group.rank, spec.get("rank"))
        expect.eq("class group torsion", list(group.torsion), spec.get("torsion"))
        details["class_group"] = {"rank": group.rank, "torsion": list(group.torsion)}
    return CheckResult("rank-one-positivity", not expect.mismatches, details, expect.mismatches)


def _check_singular_points(run: ScenarioRun, check: dict) -> CheckResult:
    expect = _Expect()
    reports = run.contraction.classify_singularities()
    counts: dict[tuple[int, int], int] = {}
    for report in reports:
        counts[report.hj_type] = counts.get(report.hj_type, 0) + 1
    census = sorted((n, q, c) for (n, q), c in counts.items())
    expected = sorted(
        (entry["n"], entry["q"], entry["count"]) for entry in check.get("expect", [])
    )
    expect.eq("singular point census", census, expected)
    if "expect_total" in check:
        expect.eq("total singular points", len(reports), check["expect_total"])
    details = {
        "total": len(reports),
        "census": [{"n": n, "q": q, "count": c} for n, q, c in census],
        "points": [
            {
                "component": list(r.component),
                "self_intersections": list(r.self_intersections),
                "type": list(r.hj_type),
                "label": r.label.value,
            }
            for r in reports
        ],
    }
    return CheckResult("singular-points", not expect.mismatches, details, expect.mismatches)


def _check_anticanonical_sections(run: ScenarioRun, check: dict) -> CheckResult:
    expect = _Expect()
    report = verify_h0_anticanonical_zero(
        run.contraction,
        fibers=list(check["fibers"]),
        curve=check["curve"],
        towers=[list(t) for t in check["towers"]],
    )
    expect.eq("class identity", report.identity_holds, True)
    if "expect_bidegree" in check:
        expect.eq("base bidegree", list(report.base_bidegree), check["expect_bidegree"])
    if "expect_h0" in check:
        expect.eq("h0", report.h0, check["expect_h0"])
    details: dict[str, Any] = {
        "identity_holds": report.identity_holds,
        "base_bidegree": list(report.base_bidegree),
        "h0": report.h0,
    }
    if report.difference_class is not None:
        details["difference_class"] = [rational_str(x) for x in report.difference_class]
    return CheckResult(
        "anticanonical-sections", not expect.mismatches, details, expect.mismatches
    )


def _compare_coefficient_map(
    expect: "_Expect", label: str, actual: QDivisor, spec: dict
) -> None:
    """Exact comparison of a divisor's nonzero coefficients with a spec map."""
    expected = {n: parse_rational(v, f"{label}[{n!r}]") for n, v in spec.items()}
    expected = {n: v for n, v in expected.items() if v != 0}
    for name in sorted(set(expected) | set(actual.named)):
        if actual.coefficient(name) != expected.get(name, Fraction(0)):
            expect.mismatches.append(
                f"{label}[{name}]: expected {expected.get(name, Fraction(0))}, "
                f"got {actual.coefficient(name)}"
            )


def _check_kvv_failure(run: ScenarioRun, check: dict) -> CheckResult:
    expect = _Expect()
    divisor = run.resolve(check["divisor"])
    report = verify_kvv_failure(run.contraction, divisor)
    spec = check.get("expect", {})
    if "expansion" in spec:
        _compare_coefficient_map(
            expect, "expansion", report.pullback_expansion, spec["expansion"]
        )
    if "floor" in spec:
        _compare_coefficient_map(expect, "floor", report.floor, spec["floor"])
    for name, value in spec.get("nef_degrees", {}).items():
        expect.rational(
            f"nef degree against {name}",
            report.nef_degrees.get(name, Fraction(0)),
            value,
            f"expect.nef_degrees[{name!r}]",
        )
    for key, label in (
        ("k_dot_floor", "K.floor"),
        ("floor_squared", "floor^2"),
        ("euler_characteristic", "chi"),
    ):
        if key in spec:
            actual = {
                "k_dot_floor": report.k_dot_floor,
                "floor_squared": report.floor_squared,
                "euler_characteristic": report.euler_char,
            }[key]
            expect.rational(label, actual, spec[key], f"expect.{key}")
    for key, actual in (
        ("h1_nonzero", report.h1_nonzero),
        ("not_globally_f_split", report.not_globally_f_split),
        ("no_w2_liftable_log_resolution", report.no_w2_liftable_log_resolution),
    ):
        if key in spec:
            expect.eq(key, actual, spec[key])
    details = {
        "expansion": _divisor_json(report.pullback_expansion),
        "floor": _divisor_json(report.floor),
        "relatively_nef": report.relatively_nef,
        "nef_degrees": {n: rational_str(v) for n, v in sorted(report.nef_degrees.items())},
        "k_dot_floor": rational_str(report.k_dot_floor),
        "floor_squared": rational_str(report.floor_squared),
        "euler_characteristic": rational_str(report.euler_char),
        "h1_nonzero": report.h1_nonzero,
        "not_globally_f_split": report.not_globally_f_split,
        "no_w2_liftable_log_resolution": report.no_w2_liftable_log_resolution,
        "nef_hypothesis_note": report.nef_hypothesis_note,
    }
    return CheckResult("kvv-failure", not expect.mismatches, details, expect.mismatches)


def _check_cone(run: ScenarioRun, check: dict) -> CheckResult:
    expect = _Expect()
    divisor = run.resolve(check["divisor"])
    cone = build_cone(run.contraction, divisor)
    certificate_m = check.get("certificate_m", -1)
    kvv = verify_kvv_failure(run.contraction, divisor.scaled(-certificate_m))
    cone = local_cohomology_certificate(cone, certificate_m, kvv.h1_nonzero)
    spec = check.get("expect", {})
    if "r" in spec:
        expect.rational("r", cone.r, spec["r"], "expect.r")
    if "section_discrepancy" in spec:
        expect.rational(
            "section discrepancy",
            cone.section_discrepancy,
            spec["section_discrepancy"],
            "expect.section_discrepancy",
        )
    if "class_group_rank" in spec:
        expect.eq(
            "cone class group rank",
            None if cone.class_group is None else cone.class_group.rank,
            spec["class_group_rank"],
        )
    if "class_group_torsion" in spec:
        expect.eq(
            "cone class group torsion",
            None if cone.class_group is None else list(cone.class_group.torsion),
            spec["class_group_torsion"],
        )
    if "cm" in spec:
        expect.eq("Cohen-Macaulay", cone.cm, spec["cm"])
    details = {
        "r": rational_str(cone.r),
        "section_discrepancy": rational_str(cone.section_discrepancy),
        "q_gorenstein": cone.q_gorenstein,
        "crepant_partial_resolution": cone.crepant_partial_resolution,
        "class_group": None
        if cone.class_group is None
        else {"rank": cone.class_group.rank, "torsion": list(cone.class_group.torsion)},
        "cm": cone.cm,
        "certificate_m": cone.cm_certificate_m,
        "klt_note": cone.klt_note,
    }
    return CheckResult("cone", not expect.mismatches, details, expect.mismatches)


CHECKS: dict[str, Callable[[ScenarioRun, dict], CheckResult]] = {
    "intersection-table": _check_intersection_table,
    "canonical-pullback": _check_canonical_pullback,
    "rank-one-positivity": _check_rank_one_positivity,
    "singular-points": _check_singular_points,
    "anticanonical-sections": _check_anticanonical_sections,
    "kvv-failure": _check_kvv_failure,
    "cone": _check_cone,
}


# -- reports ----------------------------------------------------------------------


@dataclass
class Report:
    scenario_name: str
    scenario_digest: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> str | None:
        for check in self.checks:
            if not check.passed:
                if check.mismatches:
                    return f"{check.kind}: {check.mismatches[0]}"
                return check.kind
        return None

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "scenario": {"name": self.scenario_name, "digest": self.scenario_digest},
            "passed": self.passed,
            "first_failure": self.first_failure,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_text(self) -> str:
        lines = [
            f"scenario: {self.scenario_name}",
            f"digest:   {self.scenario_digest}",
            f"result:   {'PASS' if self.passed else 'FAIL'} "
            f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)",
        ]
        for check in self.checks:
            lines.append(f"[{'PASS' if check.passed else 'FAIL'}] {check.kind}")
            lines.extend(_text_details(check))
            for mismatch in check.mismatches:
                lines.append(f"    !! {mismatch}")
        if not self.passed:
            lines.append(f"first failure: {self.first_failure}")
        return "\n".join(lines) + "\n"


def _text_details(check: CheckResult) -> list[str]:
    d = check.details
    if check.kind == "intersection-table" and "entries" in d:
        return [f"    {e['a']}.{e['b']} = {e['value']}" for e in d["entries"]]
    if check.kind == "canonical-pullback" and "pullback_corrections" in d:
        corr = ", ".join(f"{n}: {v}" for n, v in d["pullback_corrections"].items())
        return [
            f"    corrections: {corr}",
            f"    classification: {d['classification']} (min {d['min_discrepancy']})",
        ]
    if check.kind == "singular-points" and "census" in d:
        return [
            f"    {d['total']} singular points: "
            + ", ".join(f"1/{e['n']}(1,{e['q']}) x{e['count']}" for e in d["census"])
        ]
    if check.kind == "kvv-failure" and "euler_characteristic" in d:
        return [
            f"    K.floor = {d['k_dot_floor']}, floor^2 = {d['floor_squared']}, "
            f"chi = {d['euler_characteristic']}, h1_nonzero = {d['h1_nonzero']}"
        ]
    if check.kind == "cone" and "r" in d:
        return [
            f"    r = {d['r']}, section discrepancy = {d['section_discrepancy']}, "
            f"CM = {d['cm']}"
        ]
    out = []
    for key, value in d.items():
        if key in ("entries", "points"):
            continue
        out.append(f"    {key}: {value}")
    return out


def run_scenario(scenario: Scenario) -> Report:
    """Build the scenario and evaluate every check.

    A numerical-geometry error raised while evaluating a check (wrong target
    rank, pipeline abort, ...) counts as that check failing, not as invalid
    input: the scenario built fine, its mathematics did not."""
    run = scenario.build()
    checks = []
    for check in scenario.checks:
        try:
            result = CHECKS[check["kind"]](run, check)
        except GeometryError as exc:
            result = CheckResult(check["kind"], False, {"error": str(exc)}, [str(exc)])
        checks.append(result)
    return Report(scenario.name, scenario_digest(scenario), checks)


def run_repro() -> Report:
    """Run the bundled reference scenario."""
    return run_scenario(bundled_scenario())


def exploration_to_dict(report) -> dict:
    return {
        "schema": EXPLORATION_SCHEMA,
        "p": report.p,
        "points": report.n_points,
        "target_rank": report.target_rank,
        "anticanonical_degree": rational_str(report.anticanonical_degree),
        "verdict": report.verdict,
        "census": [list(entry) for entry in report.census],
        "singular_points": [
            {
                "component": list(r.component),
                "self_intersections": list(r.self_intersections),
                "type": list(r.hj_type),
                "label": r.label.value,
            }
            for r in report.singular_points
        ],
        "provenance": report.provenance,
    }


def exploration_to_text(report) -> str:
    lines = [
        f"exploration p={report.p} points={report.n_points} ({report.provenance})",
        f"target rank: {report.target_rank}",
        f"anticanonical degree: {report.anticanonical_degree} -> {report.verdict}",
        f"singular points: {len(report.singular_points)}",
    ]
    for n, q, count in report.census:
        lines.append(f"  1/{n}(1,{q}) x{count}")
    return "\n".join(lines) + "\n"
