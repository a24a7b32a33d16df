"""The package's record types: construction, equality, hashing, immutability
and repr, for the value records (``NamedTuple``s) and the plain classes alike;
and the start-up imports of the command line."""

import copy
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from blowdown import (
    AnticanonicalSectionsReport,
    ChainLabel,
    ClassGroupReport,
    ConeModel,
    KltDecision,
    KvvFailureReport,
    SingularPointReport,
    build_cone,
    explore_frobenius,
    load_scenario,
    local_cohomology_certificate,
    verify_kvv_failure,
)
from blowdown.cohomology import NEF_HYPOTHESIS_NOTE
from blowdown.cone import KLT_NOTE
from blowdown.exactlin import IntMatrix, SnfDecomposition
from blowdown.explorer import Construction, ExplorationReport
from blowdown.scenario import (
    CheckResult,
    Report,
    Scenario,
    ScenarioRun,
    bundled_scenario,
    parse_scenario,
)

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "blowdown" / "data"

#: Records that could not be assigned to before and still cannot.
MUTABLE = (ScenarioRun, CheckResult, Report)


def _fields(obj, names):
    return {n: getattr(obj, n) for n in names}


def _cases(ref):
    """(class, required fields in order, defaulted fields in order, one field
    with a different value) for every record type."""
    kvv = verify_kvv_failure(ref.contraction, ref.ample)
    cone = build_cone(ref.contraction, ref.ample)
    exploration = explore_frobenius(3, 3)
    scenario = bundled_scenario()
    run = scenario.build()
    one = IntMatrix(1, 1, (1,))
    return {
        AnticanonicalSectionsReport: (
            {"identity_holds": True, "difference_class": None, "base_bidegree": (0, 0), "h0": 0},
            {},
            ("h0", 1),
        ),
        KvvFailureReport: (
            _fields(kvv, (
                "pullback_expansion", "floor", "relatively_nef", "nef_degrees", "k_dot_floor",
                "floor_squared", "euler_char", "h1_nonzero", "not_globally_f_split",
                "no_w2_liftable_log_resolution",
            )),
            {"nef_hypothesis_note": NEF_HYPOTHESIS_NOTE},
            ("euler_char", F(0)),
        ),
        ConeModel: (
            _fields(cone, (
                "base_contraction", "polarization", "r", "section_discrepancy", "class_group",
                "q_gorenstein", "crepant_partial_resolution",
            )),
            {"cm": None, "cm_certificate_m": None},
            ("r", F(7)),
        ),
        KltDecision: (
            {"conclusion": "klt", "rows_applied": (1,), "caveats": ()}, {}, ("rows_applied", (3,))
        ),
        SingularPointReport: (
            {
                "component": ("C",),
                "self_intersections": (3,),
                "hj_type": (3, 1),
                "label": ChainLabel.WEIGHTED_CYCLIC,
            },
            {},
            ("hj_type", (3, 2)),
        ),
        ClassGroupReport: ({"rank": 0, "torsion": (3, 3, 3)}, {}, ("rank", 1)),
        SnfDecomposition: (
            {"u": one, "d": IntMatrix(1, 1, (2,)), "v": one}, {}, ("d", IntMatrix(1, 1, (4,)))
        ),
        Construction: (
            _fields(ref.construction, ("model", "curve", "fibers", "towers")), {}, ("curve", "F1")
        ),
        ExplorationReport: (
            _fields(exploration, (
                "p", "n_points", "target_rank", "anticanonical_degree", "verdict",
                "singular_points", "census", "provenance", "construction", "contraction",
            )),
            {},
            ("verdict", "K_trivial"),
        ),
        IntMatrix: ({"rows": 1, "cols": 2, "entries": (1, 2)}, {}, ("entries", (1, 3))),
        Scenario: (
            _fields(scenario, (
                "name", "base", "curves", "blowups", "contraction", "divisors", "checks", "specs",
            )),
            {},
            ("name", "other"),
        ),
        ScenarioRun: (
            _fields(run, ("scenario", "model", "contraction", "divisors")), {}, ("divisors", {})
        ),
        CheckResult: (
            {"kind": "cone", "passed": True, "details": {"r": "-1"}},
            {"mismatches": []},
            ("passed", False),
        ),
        Report: (
            {"scenario_name": "s", "scenario_digest": "sha256:0", "checks": []},
            {},
            ("checks", [CheckResult("cone", True, {})]),
        ),
    }


RECORDS = [
    AnticanonicalSectionsReport, KvvFailureReport, ConeModel, KltDecision, SingularPointReport,
    ClassGroupReport, SnfDecomposition, Construction, ExplorationReport, IntMatrix, Scenario,
    ScenarioRun, CheckResult, Report,
]


@pytest.fixture(scope="module")
def cases(ref):
    return _cases(ref)


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def case(request, cases):
    cls = request.param
    required, defaults, change = cases[cls]
    return cls, required, defaults, change


class TestRecordSemantics:
    def test_keyword_construction_and_defaults(self, case):
        cls, required, defaults, _ = case
        record = cls(**required)
        for name, value in {**required, **defaults}.items():
            assert getattr(record, name) == value, name

    def test_positional_construction_in_field_order(self, case):
        cls, required, defaults, _ = case
        assert cls(*required.values(), *defaults.values()) == cls(**required)

    def test_equal_when_fields_equal(self, case):
        cls, required, _, (name, value) = case
        record = cls(**required)
        assert record == cls(**required)
        assert not record != cls(**required)
        other = cls(**{**required, name: value})
        assert record != other
        assert not record == other

    def test_tuple_equality_only_for_value_records(self, case):
        # a NamedTuple record equals the plain tuple of its values; a plain
        # class never equals a tuple
        cls, required, defaults, _ = case
        values = (*required.values(), *defaults.values())
        assert (cls(**required) == values) is issubclass(cls, tuple)

    def test_hash_of_formerly_frozen_records(self, case):
        cls, required, defaults, _ = case
        record = cls(**required)
        if cls in MUTABLE:
            with pytest.raises(TypeError):
                hash(record)
            return
        values = (*required.values(), *defaults.values())
        try:
            expected = hash(values)
        except TypeError:  # a field holds a dict or a list
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    def test_assignment(self, case):
        cls, required, _, (name, value) = case
        record = cls(**required)
        if cls in MUTABLE:
            setattr(record, name, value)
            assert getattr(record, name) == value
        else:
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) == required[name]

    def test_copy(self, case):
        cls, required, _, _ = case
        record = cls(**required)
        duplicate = copy.copy(record)
        assert type(duplicate) is cls and duplicate == record

    def test_repr(self, case):
        cls, required, defaults, _ = case
        record = cls(**required)
        fields = ", ".join(f"{n}={v!r}" for n, v in {**required, **defaults}.items())
        assert repr(record) == f"{cls.__name__}({fields})"


class TestScenarioRecord:
    def test_loaded_scenario_equals_its_reparse(self):
        path = DATA / "keel-mckernan-p3.json"
        loaded = load_scenario(str(path))
        assert loaded._trial is not None and loaded._path == str(path)
        reparsed = parse_scenario(json.loads(path.read_text()))
        assert reparsed._trial is None and reparsed._path is None
        assert loaded == reparsed
        assert repr(loaded) == repr(reparsed)

    def test_run_and_path_are_ordinary_attributes(self):
        scenario = bundled_scenario()
        scenario._trial, scenario._path = scenario.build(), "here.json"
        assert scenario == bundled_scenario()
        with pytest.raises(AttributeError, match="'specs'"):
            scenario.specs = ()


class TestConeModelCopy:
    def test_certificate_copies_the_cone(self, ref):
        cone = build_cone(ref.contraction, ref.ample)
        certified = local_cohomology_certificate(cone, -1, True)
        assert type(certified) is ConeModel and certified is not cone
        assert (certified.cm, certified.cm_certificate_m) == (False, -1)
        assert (cone.cm, cone.cm_certificate_m) == (None, None)
        assert certified._replace(cm=None, cm_certificate_m=None) == cone

    def test_no_certificate_keeps_the_cone(self, ref):
        cone = build_cone(ref.contraction, ref.ample)
        assert local_cohomology_certificate(cone, -1, False) is cone

    def test_klt_note_is_not_a_field(self, ref):
        cone = build_cone(ref.contraction, ref.ample)
        assert "klt_note" not in ConeModel._fields
        assert cone.klt_note == ConeModel.klt_note == KLT_NOTE


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, 0, ()), "negative dimensions"),
        ((0, -2, ()), "negative dimensions"),
        ((2, 2, (1, 2, 3)), "2x2 matrix needs 4 entries, got 3"),
        ((1, 1, (F(1, 2),)), "entries must be integers"),
        ((1, 2, (1, 2.0)), "entries must be integers"),
    ],
)
def test_int_matrix_validation_messages(args, message):
    with pytest.raises(ValueError) as info:
        IntMatrix(*args)
    assert str(info.value) == message


def test_set_once_records_survive_pickle():
    # a copy or an unpickled record sets each field once, like __init__
    matrix = IntMatrix(2, 1, (3, -4))
    assert pickle.loads(pickle.dumps(matrix)) == matrix
    scenario = bundled_scenario()
    scenario._path = "here.json"
    restored = pickle.loads(pickle.dumps(scenario))
    assert restored == scenario and restored._path == "here.json"
    with pytest.raises(AttributeError):
        restored.name = "other"


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    # both cost milliseconds on every start: dataclasses pulls in inspect,
    # ast and dis, and each dataclass execs generated source
    code = (
        "import sys; before = set(sys.modules); import blowdown.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    added = set(result.stdout.split())
    assert "blowdown.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added & {"dataclasses", "inspect"})


def test_lean_start_up_loads_neither_openssl_nor_importlib_resources():
    # `import hashlib` loads OpenSSL and `importlib.resources` pulls in
    # tempfile, shutil and pathlib: MB and ms on every start.  Under -S no
    # .pth file in site-packages can import either before blowdown does
    code = (
        "import sys; before = set(sys.modules); import blowdown.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    added = set(result.stdout.split())
    assert "blowdown.cli" in added
    unwanted = {"importlib.resources"}
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
        unwanted |= {"hashlib", "_hashlib"}  # else the digest needs hashlib's SHA-256
    assert not added & unwanted, sorted(added & unwanted)
