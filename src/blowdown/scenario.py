"""Scenario files, check evaluation, and machine-readable reports.

A scenario is a JSON document describing a construction (base surface,
declared curves, blow-up sequence, contraction) together with named divisors
and a list of checks with exact expected values.  Running a scenario builds
the construction, evaluates every check, and produces a report whose JSON
serialization is canonical (sorted keys, rationals as "num/den" strings), so
two runs of the same scenario are byte-identical.

The format is stated once, in the table `DOCUMENT_SCHEMA` (with the fields of
each check kind in `CHECK_SCHEMAS`), which is its reference.  At import the
table is compiled into one parser and one writer per node: `parse_scenario`
runs the parsers, and `scenario_digest` writes the document with the writers.
The outputs have shapes beside it, which name the fields of each object and
nest only objects and lists of objects: `REPORT_SHAPE` (with the details of
each check kind in `DETAILS_SHAPES`) and `EXPLORATION_SHAPE`.  Nothing reads
the outputs back, so their shapes are compiled into writers only, and
`canonical_json` picks the writer by the output's "schema" tag.

Exit-code taxonomy used by the CLI: a malformed scenario or a numerically
impossible construction is *invalid input*; a check whose computed values
differ from the expectations is a *mathematical failure*.
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys
from fractions import Fraction
from typing import Any, Callable, NoReturn

from .cohomology import KvvFailureReport, verify_h0_anticanonical_zero, verify_kvv_failure
from .cone import build_cone, local_cohomology_certificate
from .contraction import Contraction, SingClass, contract, singular_point_census
from .errors import GeometryError, ScenarioError
from .surface import PLANE, QUADRIC, QDivisor, SparseClass, SurfaceModel, new_plane, new_quadric

SCENARIO_SCHEMA = "blowdown-scenario/1"
REPORT_SCHEMA = "blowdown-report/1"
EXPLORATION_SCHEMA = "blowdown-exploration/1"

BUNDLED_SCENARIO = "keel-mckernan-p3.json"
BUNDLED_EXPECTED = "keel-mckernan-p3.expected.json"

# hashlib loads OpenSSL, a few MB and ms on every start; as in CPython's own
# `random`, try the interpreter's lean module first (_sha2 from 3.12 on)
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256


# -- canonical JSON -----------------------------------------------------------


#: The stdlib's string encoder for ``ensure_ascii=False`` (its C version when built).
_encode_str = json.encoder.encode_basestring


def canonical_json(obj: Any) -> str:
    """The canonical serialization of a report or scenario document.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"``: keys sorted, each container item on its own
    line indented by 2 spaces per level, ``","`` ending each item's line but
    the last and ``": "`` after each key, non-ASCII text written as itself,
    and a trailing newline.  The values are dicts with ``str`` keys, lists,
    tuples, str, int, float, bool and None; anything else raises TypeError,
    and an int past the int-to-str digit limit ValueError, as in the stdlib.

    This writer exists because any ``indent`` makes ``json.dumps`` leave its C
    encoder for its pure-Python one, which took more time than the checks on
    a large intersection table.  Strings still go through the stdlib's C
    string encoder and floats through ``json.dumps``.  A plain dict tagged
    with the report or exploration "schema" goes to the writer compiled from
    its shape, any other value (a scenario document too) to the generic
    `_write`: the bytes are the same."""
    if type(obj) is dict and type(tag := obj.get("schema")) is str and tag in _WRITERS:
        return _WRITERS[tag](obj) + "\n"
    return _write(obj, "\n") + "\n"


def _write(obj: Any, newline: str) -> str:
    """`canonical_json` of ``obj`` at the indent that ``newline`` ends with."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is dict or kind is list or kind is tuple:
        if not obj:
            return "{}" if kind is dict else "[]"
        inner = newline + "  "
        if kind is dict:
            items = [_encode_str(k) + ": " + _write(obj[k], inner) for k in sorted(obj)]
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        items = [_write(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return json.dumps(obj)
    # a subclass, such as a namedtuple or an OrderedDict, is written as its base type
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, (list, tuple)):
        return _write(list(obj), newline)
    if isinstance(obj, dict):
        return _write(dict(obj.items()), newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def scenario_digest(scenario: "Scenario") -> str:
    """The sha256 of the scenario document's `canonical_json` bytes, written
    by the writers compiled from `DOCUMENT_SCHEMA`.

    The hash is the interpreter's own SHA-256 module (``_sha2`` or ``_sha256``),
    and ``hashlib`` only where neither is built: ``import hashlib`` loads
    OpenSSL, which costs every command about 3.5 MB of peak memory and 3-4 ms,
    while the built-in hash takes about 0.1 ms more on a large document.  The
    bytes hashed, and so the digest, are the same.  A string holding a lone
    surrogate (the JSON escape ``"\\ud800"``) is not text and has no UTF-8
    bytes: ScenarioError."""
    text = _write_document(scenario._document()) + "\n"
    try:
        payload = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        char = ascii(exc.object[exc.start])
        raise ScenarioError(f"a string holds the lone surrogate {char}, which is not text") from None
    return "sha256:" + _sha256(payload).hexdigest()


#: A rational string: an integer or "num/den", no exponent, point or space.
RATIONAL_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational_str(value: int | Fraction) -> str:
    """An exact rational as "n" or "n/d"; a float or a bool (a stray ``int / int``
    or a flag) raises TypeError instead of being written as a number."""
    kind = type(value)
    if kind is not int and kind is not Fraction:
        if isinstance(value, (bool, float)):
            raise TypeError(f"not an exact rational: {value!r}")
        value = Fraction(value)
    return _text(value)


def _text(value: Any) -> str:
    """``str(value)``; ScenarioError for an int past the interpreter's digit limit."""
    try:
        return str(value)
    except ValueError:  # only an int past sys.get_int_max_str_digits() raises it
        limit = sys.get_int_max_str_digits()
        raise ScenarioError(f"a number has more than {limit} digits, too many to write") from None


# -- scenario data -------------------------------------------------------------


class _Record:
    """``==`` field by field between records of one type, and the repr
    ``Name(field=value, ...)``, over the names in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Scenario(_Record):
    """A parsed scenario document; its fields cannot be reassigned, and it
    compares by them alone.  It hashes by them only while it has no check:
    ``hash()`` raises TypeError otherwise, because the raw ``checks`` are dicts.

    ``divisors`` holds each coefficient as an ``int`` if written as an integer,
    else a ``Fraction``; ``specs`` the checks parsed against ``CHECK_SCHEMAS``
    (``to_dict`` keeps the raw ``checks``).  ``_trial`` is the build
    ``load_scenario`` validated, which ``run_scenario`` takes instead of
    building again, and ``_path`` the file it read, which starts the location
    of a check's error; neither is part of the document."""

    _fields = ("name", "base", "curves", "blowups", "contraction", "divisors", "checks", "specs")
    __slots__ = _fields + ("_trial", "_path")
    name: str
    base: str
    curves: tuple[tuple[str, tuple[int, ...]], ...]
    blowups: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    contraction: tuple[str, ...]
    divisors: tuple[tuple[str, tuple[tuple[str, int | Fraction], ...]], ...]
    checks: tuple[dict, ...]
    specs: tuple[dict, ...]

    def __init__(self, name, base, curves, blowups, contraction, divisors, checks, specs) -> None:
        values = (name, base, curves, blowups, contraction, divisors, checks, specs)
        for f, value in zip(self._fields, values):
            setattr(self, f, value)
        self._trial: ScenarioRun | None = None
        self._path: str | None = None

    def __setattr__(self, name: str, value: Any) -> None:
        if name in self._fields and hasattr(self, name):  # set once, by __init__ or a copy
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def to_dict(self) -> dict:
        """The scenario document; its checks are copies the caller may change."""
        document = self._document()
        document["checks"] = copy.deepcopy(document["checks"])
        return document

    def _document(self) -> dict:
        """The scenario document, sharing the raw checks: for serialising only."""
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
            "checks": list(self.checks),
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


class ScenarioRun(_Record):
    """A built scenario: its model, contraction and declared divisors.

    ``sparse_class`` caches the class of each divisor reference for the run,
    and ``kvv`` the vanishing-failure report of each multiple of one.  The
    model is complete before any check runs and pairing never changes a
    class, so every check may share the cached values."""

    _fields = ("scenario", "model", "contraction", "divisors")
    __slots__ = _fields + ("_classes", "_kvv")

    def __init__(self, scenario: Scenario, model: SurfaceModel, contraction: Contraction,
                 divisors: dict[str, QDivisor]) -> None:
        self.scenario, self.model, self.contraction = scenario, model, contraction
        self.divisors = divisors
        self._classes: dict[str, SparseClass] = {}
        self._kvv: dict[tuple[str, int], KvvFailureReport] = {}

    def sparse_class(self, ref: str) -> SparseClass:
        """The model's sparse class of ``resolve(ref)``, resolved once per
        reference string ('-C', 'K' and divisor names included)."""
        cls = self._classes.get(ref)
        if cls is None:
            cls = self._classes[ref] = self.model.sparse_class(self.resolve(ref))
        return cls

    def kvv(self, ref: str, multiple: int) -> KvvFailureReport:
        """`verify_kvv_failure` of ``multiple`` times ``resolve(ref)``, computed
        once per (reference string, multiple); an error is raised again by
        each call, never cached."""
        report = self._kvv.get((ref, multiple))
        if report is None:
            divisor = self.resolve(ref).scaled(multiple)
            report = self._kvv[ref, multiple] = verify_kvv_failure(self.contraction, divisor)
        return report

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
    """Parse a scenario document against `DOCUMENT_SCHEMA`; every error's
    location starts with ``where``."""
    try:
        doc = _parse_document(raw, {CURVE: set(), REF: {"K"}})
    except _Invalid as exc:
        raise ScenarioError(f"{where}{''.join(reversed(exc.path))}: {exc.message}") from None
    return Scenario(
        name=doc["name"],
        base=doc["base"],
        curves=tuple((c["name"], tuple(c["class"])) for c in doc["curves"]),
        blowups=tuple(
            (b["name"], tuple((i["curve"], i["mult"]) for i in b["incident"]))
            for b in doc["blowups"]
        ),
        contraction=tuple(doc["contraction"]),
        divisors=tuple((n, tuple(c.items())) for n, c in doc.get("divisors", {}).items()),
        checks=tuple(raw.get("checks", ())),
        specs=tuple(doc["checks"]),
    )


# -- the document schema ------------------------------------------------------------

# Leaf types.  A rational is an integer or a "num/den" string; it parses to an
# int if it is an integer or an integer string, else to a Fraction.  ``INTS``
# is a list of integers, ``MULT`` an integer >= 1, ``NAME`` a nonempty string.
# A ``REF`` is a divisor reference (see ``ScenarioRun.resolve``) and a
# ``CURVE`` a declared curve or blow-up name.
# ``NEW_CURVE`` declares a curve or blow-up name, which must not be 'K' or start
# with '-', and ``NEW_DIVISOR`` a divisor name, which must also not be a curve
# or blow-up name (resolve() would read it as K, a negation or the curve).
# ``CHECK`` is a check, parsed against the ``CHECK_SCHEMAS`` entry of its kind,
# and ``RESULT`` a check's result, whose details take the ``DETAILS_SHAPES``
# entry of its kind.  A tuple, or an enum such as ``SingClass``, takes one of
# its values.
RATIONAL, INT, BOOL, INTS, MULT = "<rational>", "<int>", "<bool>", "<ints>", "<mult>"
STR, NAME, REF, CURVE = "<str>", "<name>", "<ref>", "<curve>"
NEW_CURVE, NEW_DIVISOR, CHECK, RESULT = "<new curve>", "<new divisor>", "<check>", "<result>"

# A key ending in "?" is optional, and an absent optional list reads as empty.
# ``[item]`` is a list of items, ``{leaf: item}`` a map whose keys are that
# leaf, and any other dict an object with exactly those keys.  An object's
# fields are parsed in the order given, so every name is declared before the
# fields that refer to it.

#: The scenario document.
DOCUMENT_SCHEMA: dict = {
    "schema": (SCENARIO_SCHEMA,),
    "name": NAME,
    "base": (QUADRIC, PLANE),
    "curves?": [{"name": NEW_CURVE, "class": INTS}],
    "blowups?": [{"name": NEW_CURVE, "incident?": [{"curve": STR, "mult": MULT}]}],
    "contraction?": [CURVE],
    "divisors?": {NEW_DIVISOR: {CURVE: RATIONAL}},
    "checks?": [CHECK],
}

#: The fields of each check kind besides "kind".
CHECK_SCHEMAS: dict[str, dict] = {
    "intersection-table": {
        "entries?": [{"a": REF, "b": REF, "expect": RATIONAL}],
    },
    "canonical-pullback": {
        "expect_coefficients?": {CURVE: RATIONAL},
        "expect_min_discrepancy?": RATIONAL,
        "expect_classification?": SingClass,
    },
    "rank-one-positivity": {
        "degrees?": [{"divisor": REF, "expect": RATIONAL}],
        "proportionality?": [{"d1": REF, "d2": REF, "expect": RATIONAL}],
        "ample?": [{"divisor": REF, "expect": BOOL}],
        "expect_rank?": INT,
        "expect_class_group?": {"rank?": INT, "torsion?": INTS},
    },
    "singular-points": {
        "expect?": [{"n": INT, "q": INT, "count": INT}],
        "expect_total?": INT,
    },
    "anticanonical-sections": {
        "fibers": [CURVE],
        "curve": CURVE,
        "towers": [[CURVE]],
        "expect_bidegree?": INTS,
        "expect_h0?": INT,
    },
    "kvv-failure": {
        "divisor": REF,
        "expect?": {
            "expansion?": {CURVE: RATIONAL},
            "floor?": {CURVE: RATIONAL},
            "nef_degrees?": {CURVE: RATIONAL},
            "k_dot_floor?": RATIONAL,
            "floor_squared?": RATIONAL,
            "euler_characteristic?": RATIONAL,
            "h1_nonzero?": BOOL,
            "not_globally_f_split?": BOOL,
            "no_w2_liftable_log_resolution?": BOOL,
        },
    },
    "cone": {
        "divisor": REF,
        "certificate_m?": INT,
        "expect?": {
            "r?": RATIONAL,
            "section_discrepancy?": RATIONAL,
            "class_group_rank?": INT,
            "class_group_torsion?": INTS,
            "cm?": BOOL,
        },
    },
}


# The output shapes state what the writers behind `canonical_json` need of the
# report, each check kind's details and the exploration: the names of each
# object's fields, and which of them hold an object or a list of objects.  Any
# other field is a ``VALUE``, which the object holding it writes itself; the
# code that builds the output (`Report.to_dict`, the ``_check_*`` functions,
# `exploration_to_dict`) is what gives it its type.  Nothing reads these
# outputs back, so they are compiled to writers only.
VALUE = "<value>"


def _fields(*names: str, **nested: Any) -> dict:
    """An output object whose fields ``names`` hold a ``VALUE`` and whose fields
    ``nested`` hold the object or list of objects given."""
    return {**dict.fromkeys(names, VALUE), **nested}


#: The report of a run (`Report.to_dict`).
REPORT_SHAPE = _fields(
    "schema", "passed", "first_failure", scenario=_fields("name", "digest"), checks=[RESULT]
)

_POINT = _fields("component", "self_intersections", "type", "label")  # a singular point
_DIVISOR = _fields("coefficients", "residual")  # a QDivisor
_CLASS_GROUP = _fields("rank", "torsion")

#: The details of each check kind's result.  A check that raised GeometryError
#: has "error", its message, and no other field.
DETAILS_SHAPES: dict[str, dict] = {
    "intersection-table": _fields("count", "error", entries=[_fields("a", "b", "value")]),
    "canonical-pullback": _fields(
        "pullback_corrections", "discrepancies", "classification", "min_discrepancy", "error"
    ),
    "rank-one-positivity": _fields(
        "target_rank", "degrees", "proportionality", "ample", "error", class_group=_CLASS_GROUP
    ),
    "singular-points": _fields("total", "error", census=[_fields("n", "q", "count")], points=[_POINT]),
    "anticanonical-sections": _fields("identity_holds", "base_bidegree", "h0", "difference_class", "error"),
    "kvv-failure": _fields(
        "relatively_nef", "nef_degrees", "k_dot_floor", "floor_squared", "euler_characteristic",
        "h1_nonzero", "not_globally_f_split", "no_w2_liftable_log_resolution", "nef_hypothesis_note",
        "error", expansion=_DIVISOR, floor=_DIVISOR,
    ),
    "cone": _fields(
        "r", "section_discrepancy", "q_gorenstein", "crepant_partial_resolution", "cm",
        "certificate_m", "klt_note", "error", class_group=_CLASS_GROUP,
    ),
}

#: The exploration of one (p, n) pair (`exploration_to_dict`).
EXPLORATION_SHAPE = _fields(
    "schema", "p", "points", "target_rank", "anticanonical_degree", "verdict", "census", "provenance",
    singular_points=[_POINT],
)

#: The objects a tagged node stands for, keyed by their "kind".
_TAGGED: dict[str, dict[str, dict]] = {
    CHECK: {kind: {"kind": STR, **fields} for kind, fields in CHECK_SCHEMAS.items()},
    RESULT: {
        kind: _fields("kind", "passed", "mismatches", details=details)
        for kind, details in DETAILS_SHAPES.items()
    },
}


class _Invalid(Exception):
    """A value that breaks the schema.  Each container it leaves on its way out
    adds its key to ``path``, innermost first; ``shape`` names the container the
    value should have been, so that an object field can name itself."""

    def __init__(self, message: str, shape: str = "") -> None:
        self.message, self.shape, self.path = message, shape, []


def _fail(message: str) -> NoReturn:
    raise _Invalid(message)


def _rational(value: Any, names: dict) -> int | Fraction:
    """An int for an integer or an integer string, a Fraction for "num/den"."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _Invalid(f"expected an exact rational, got {value!r}")
    if isinstance(value, int):  # a subclass, such as an IntEnum
        return int(value)
    if not RATIONAL_STRING.fullmatch(value):
        raise _Invalid(f'bad rational {value!r} (expected a string like "2/3")')
    num, slash, den = value.partition("/")
    try:
        return Fraction(int(num), int(den)) if slash else int(num)
    except (ValueError, ZeroDivisionError) as exc:
        raise _Invalid(f"bad rational {value!r} ({exc})") from None


def _new_curve(value: Any, names: dict) -> str:
    if not isinstance(value, str):
        raise _Invalid("must be a string")
    if value == "K" or value[:1] == "-":
        raise _Invalid("a curve or blow-up name must not be 'K' or start with '-'")
    names[CURVE].add(value)
    return value


def _new_divisor(value: Any, names: dict) -> str:
    if not isinstance(value, str) or value == "K" or value[:1] == "-" or value in names[CURVE]:
        raise _Invalid(
            "a divisor name must not be 'K', start with '-' or be a curve or blow-up name"
        )
    names[REF].add(value)
    return value


#: The parser of each leaf, ``(value, names) -> parsed``, which raises _Invalid
#: with no location; ``names`` holds the curve and divisor names declared so far.
#: bool is an int subclass, and True == 1 would pass an equality check.
_LEAVES: dict[str, Callable[[Any, dict], Any]] = {
    RATIONAL: _rational,
    INT: lambda v, names: v if type(v) is int or isinstance(v, int) and not isinstance(v, bool)
    else _fail("must be an integer"),
    MULT: lambda v, names: v if (type(v) is int or isinstance(v, int) and not isinstance(v, bool))
    and v >= 1 else _fail("must be an integer >= 1"),
    BOOL: lambda v, names: v if isinstance(v, bool) else _fail("must be true or false"),
    STR: lambda v, names: v if isinstance(v, str) else _fail("must be a string"),
    NAME: lambda v, names: v if isinstance(v, str) and v else _fail("must be a nonempty string"),
    REF: lambda v, names: v if isinstance(v, str) and (
        (u := v.removeprefix("-")) in names[REF] or u in names[CURVE]
    ) else _fail(f"unknown divisor reference {v!r}"),
    CURVE: lambda v, names: v if isinstance(v, str) and v in names[CURVE]
    else _fail(f"unknown curve {v!r}"),
    NEW_CURVE: _new_curve,
    NEW_DIVISOR: _new_divisor,
}


def _is_object(schema: Any) -> bool:
    """An object node: a dict that is not a map keyed by a leaf."""
    return type(schema) is dict and (len(schema) != 1 or next(iter(schema))[0] != "<")


def _parser(schema: Any) -> Callable:
    """The parser, ``(value, names) -> parsed``, of the schema node ``schema``."""
    if _is_object(schema):
        return _parse_object(schema)
    if schema == CHECK:  # an object with the fields of its kind
        kinds = {kind: _parse_object(fields) for kind, fields in _TAGGED[CHECK].items()}

        def parse_check(value: Any, names: dict) -> dict:
            kind = value.get("kind") if isinstance(value, dict) else _fail("must be an object")
            if not isinstance(kind, str) or kind not in kinds:
                raise _Invalid(f"unknown check kind {kind!r}")
            return kinds[kind](value, names)

        return parse_check
    if type(schema) is dict:  # a map, keyed by a leaf
        ((key, item),) = schema.items()
        parse_key, parse_item = _LEAVES[key], _parser(item)

        def parse_map(value: Any, names: dict) -> dict:
            if type(value) is not dict and not isinstance(value, dict):
                raise _Invalid("must be an object", "an object")
            out = {}
            for k, x in value.items():
                try:
                    parsed_key = parse_key(k, names)
                    out[parsed_key] = parse_item(x, names)
                except _Invalid as exc:
                    exc.path.append(f"[{k!r}]")
                    raise
            return out

        return parse_map
    if type(schema) is list or schema == INTS:
        ints = schema == INTS
        parse_item = _parser(INT if ints else schema[0])
        message, shape = ("must be a list of integers", "") if ints else ("must be a list", "a list")

        def parse_list(value: Any, names: dict) -> list:
            if type(value) is not list and not isinstance(value, list):
                raise _Invalid(message, shape)
            out: list = []
            try:
                for x in value:
                    out.append(parse_item(x, names))
            except _Invalid as exc:
                exc.path.append(f"[{len(out)}]")
                raise
            return out

        return parse_list
    if schema in _LEAVES:
        return _LEAVES[schema]
    choices = [getattr(c, "value", c) for c in schema]  # a tuple, or an enum
    convert = schema if isinstance(schema, type) else lambda value: value

    def parse_choice(value: Any, names: dict) -> Any:
        if value not in choices:
            raise _Invalid(f"must be one of {choices}, got {value!r}")
        return convert(value)

    return parse_choice


def _parse_object(schema: dict) -> Callable:
    """`_parser` of an object: it takes exactly the given fields, in the order given."""
    fields = []  # (name, parse, required, absent reads as [])
    for key, item in schema.items():
        name = key.rstrip("?")
        fields.append((name, _parser(item), name == key, type(item) is list))
    known = frozenset(f[0] for f in fields)

    def parse(value: Any, names: dict) -> dict:
        if type(value) is not dict and not isinstance(value, dict):
            raise _Invalid("must be an object", "an object")
        if not known.issuperset(value):
            raise _Invalid(f"unknown field {next(k for k in value if k not in known)!r}")
        out = {}
        for name, parse_item, required, is_list in fields:
            # a missing required field is checked as null, which no type accepts
            if name in value or required:
                try:
                    out[name] = parse_item(value.get(name), names)
                except _Invalid as exc:
                    if exc.shape and not exc.path:  # a field names itself
                        exc.message, exc.shape = f"'{name}' must be {exc.shape}", ""
                    else:
                        exc.path.append(f".{name}")
                    raise
            elif is_list:
                out[name] = []
        return out

    return parse


def _writer(schema: Any, newline: str) -> Callable | None:
    """The writer, ``value -> canonical_json text``, of the schema node ``schema``
    whose closing bracket follows ``newline``: of the document, whose nodes also
    have parsers (`_parser`), or of an output shape, whose nodes have writers
    only.  A leaf, a map and a list of leaves have no writer of their own: the
    object holding them writes them.  Every writer gives `_write`'s bytes for
    any value: one that breaks the shape (not a plain dict or list, an unknown
    field or kind) goes to `_write` whole."""
    if _is_object(schema):
        return _write_object(schema, newline)
    if type(schema) is str and schema in _TAGGED:  # an object with the fields of its kind
        kinds = {kind: _write_object(fields, newline) for kind, fields in _TAGGED[schema].items()}

        def write_tagged(value: Any) -> str:
            kind = value.get("kind") if type(value) is dict else None
            if type(kind) is not str or kind not in kinds:
                return _write(value, newline)
            return kinds[kind](value)

        return write_tagged
    if type(schema) is list and (write_item := _writer(schema[0], newline + "  ")) is not None:
        inner = newline + "  "

        def write_list(value: Any) -> str:
            if type(value) is not list or not value:
                return _write(value, newline)
            return "[" + inner + ("," + inner).join([write_item(x) for x in value]) + newline + "]"

        return write_list
    return None


def _write_object(schema: dict, newline: str) -> Callable:
    """`_writer` of an object.  It takes the fields in their statically sorted
    order and writes a str, int, bool or None inline; any other value without a
    writer of its own goes to `_write`."""
    inner = newline + "  "
    fields = []  # (name, its line's start, writer)
    for key, item in schema.items():
        name = key.rstrip("?")
        fields.append((name, f"{inner}{_encode_str(name)}: ", _writer(item, inner)))
    fields.sort()
    known = frozenset(f[0] for f in fields)

    def write(value: Any) -> str:
        if type(value) is not dict or not known.issuperset(value):
            return _write(value, newline)
        parts = []
        for name, prefix, write_item in fields:
            if name in value:
                x = value[name]
                if write_item is not None:
                    parts.append(prefix + write_item(x))
                elif (kind := type(x)) is str:
                    parts.append(prefix + _encode_str(x))
                elif kind is int:
                    parts.append(prefix + int.__repr__(x))
                elif kind is bool:
                    parts.append(prefix + ("true" if x else "false"))
                elif x is None:
                    parts.append(prefix + "null")
                else:
                    parts.append(prefix + _write(x, inner))
        return "{" + ",".join(parts) + newline + "}" if parts else "{}"

    return write


#: `DOCUMENT_SCHEMA` compiled once into its parser and writer, and each output
#: shape into its writer, by the "schema" tag `canonical_json` reads.
_parse_document = _parser(DOCUMENT_SCHEMA)
_write_document = _writer(DOCUMENT_SCHEMA, "\n")
_WRITERS: dict[str, Callable] = {
    REPORT_SCHEMA: _writer(REPORT_SHAPE, "\n"),
    EXPLORATION_SCHEMA: _writer(EXPLORATION_SHAPE, "\n"),
}


def load_scenario(path: str) -> Scenario:
    """Parse and fully validate a scenario file (including a trial build)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from None
    # not UTF-8, an integer past the digit limit, or nested past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"{path}: parse error: {exc}") from None
    scenario = parse_scenario(raw, where=path)
    try:
        run = scenario.build()  # surfaces incidence-budget violations with locations
    except ScenarioError as exc:
        raise ScenarioError(f"{path}.{exc}") from None
    scenario._trial, scenario._path = run, path
    return scenario


def bundled_scenario() -> Scenario:
    """The bundled reference scenario, read by this module's own loader from
    the package's data directory (as ``pkgutil.get_data`` does, without
    importing ``importlib.resources``, which costs about 24 ms and 4 MB)."""
    path = os.path.join(os.path.dirname(__file__), "data", BUNDLED_SCENARIO)
    return parse_scenario(json.loads(__loader__.get_data(path).decode("utf-8")))


# -- checks ---------------------------------------------------------------------


class CheckResult(_Record):
    _fields = __slots__ = ("kind", "passed", "details", "mismatches")

    def __init__(
        self, kind: str, passed: bool, details: dict, mismatches: list[str] | None = None
    ) -> None:
        self.kind, self.passed, self.details = kind, passed, details
        self.mismatches = [] if mismatches is None else mismatches

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
            self.miss(label, actual, expected)

    def miss(self, label: str, actual: Any, expected: Any) -> None:
        """Records ``actual``, which is not ``expected``."""
        self.mismatches.append(f"{label}: expected {_text(expected)}, got {_text(actual)}")

    def present(self, spec: dict, rows: tuple) -> None:
        """``eq`` for each (key, label, actual) row whose key ``spec`` holds."""
        for key, label, actual in rows:
            if key in spec:
                self.eq(label, actual, spec[key])


def _divisor_json(d: QDivisor) -> dict:
    out: dict[str, Any] = {"coefficients": {n: rational_str(c) for n, c in sorted(d.named.items())}}
    if d.residual is not None and any(d.residual):
        out["residual"] = list(d.residual)
    return out


def _singular_points_json(reports) -> list[dict]:
    return [
        {
            "component": list(r.component),
            "self_intersections": list(r.self_intersections),
            "type": list(r.hj_type),
            "label": r.label.value,
        }
        for r in reports
    ]


def _check_intersection_table(run: ScenarioRun, spec: dict) -> CheckResult:
    expect = _Expect()
    rows = []
    pairing, sparse_class, prime = run.model.pairing, run.sparse_class, run.model.prime_divisors
    # a name resolve() reads as the curve itself (not K, -X or a divisor) pairs in O(1)
    named = {n for n in prime if n not in run.divisors and n != "K" and n[:1] != "-"}
    for entry in spec["entries"]:
        a, b = entry["a"], entry["b"]
        value = pairing(a if a in named else sparse_class(a), b if b in named else sparse_class(b))
        if value != entry["expect"]:  # the label is built for a mismatch only
            expect.miss(f"{a}.{b}", value, entry["expect"])
        rows.append({"a": a, "b": b, "value": _text(value)})
    details = {"entries": rows, "count": len(rows)}
    return CheckResult("intersection-table", not expect.mismatches, details, expect.mismatches)


def _check_canonical_pullback(run: ScenarioRun, spec: dict) -> CheckResult:
    expect = _Expect()
    discreps, classification = run.contraction.discrepancies()
    corrections = {n: -a for n, a in discreps.items()}  # psi*K_T = K_S - sum a_j G_j
    for name, value in spec.get("expect_coefficients", {}).items():
        expect.eq(f"coefficient of {name}", corrections.get(name, 0), value)
    if "expect_classification" in spec:
        expect.eq("classification", classification.value, spec["expect_classification"].value)
    if "expect_min_discrepancy" in spec:
        if discreps:
            expect.eq("min discrepancy", min(discreps.values()), spec["expect_min_discrepancy"])
        else:
            expect.mismatches.append("min discrepancy: nothing contracted")
    details = {
        "pullback_corrections": {n: rational_str(c) for n, c in sorted(corrections.items())},
        "discrepancies": {n: rational_str(a) for n, a in sorted(discreps.items())},
        "classification": classification.value,
        "min_discrepancy": rational_str(min(discreps.values())) if discreps else None,
    }
    return CheckResult("canonical-pullback", not expect.mismatches, details, expect.mismatches)


def _check_rank_one_positivity(run: ScenarioRun, spec: dict) -> CheckResult:
    expect = _Expect()
    con = run.contraction
    details: dict[str, Any] = {"target_rank": con.target_rank}
    expect.present(spec, (("expect_rank", "target rank", con.target_rank),))
    degrees = {}
    if con.target_rank == 1:
        for entry in spec["degrees"]:
            ref = entry["divisor"]
            value = con.degree_against(run.resolve(ref))
            degrees[ref] = rational_str(value)
            expect.eq(f"degree of {ref}", value, entry["expect"])
        props = {}
        for entry in spec["proportionality"]:
            r = con.numerically_proportional(run.resolve(entry["d1"]), run.resolve(entry["d2"]))
            key = f"{entry['d1']}~{entry['d2']}"
            props[key] = None if r is None else rational_str(r)
            if r is None:
                expect.mismatches.append(f"{key}: second divisor numerically trivial")
            else:
                expect.eq(key, r, entry["expect"])
        amp = {}
        for entry in spec["ample"]:
            ref = entry["divisor"]
            value = con.is_ample_rank1(run.resolve(ref))
            amp[ref] = value
            expect.eq(f"ample({ref})", value, entry["expect"])
        details.update({"degrees": degrees, "proportionality": props, "ample": amp})
    elif spec["degrees"] or spec["proportionality"] or spec["ample"]:
        expect.mismatches.append(
            f"rank-one quantities undefined: target rank is {con.target_rank}"
        )
    if "expect_class_group" in spec:
        group = con.class_group()
        expect.present(
            spec["expect_class_group"],
            (
                ("rank", "class group rank", group.rank),
                ("torsion", "class group torsion", list(group.torsion)),
            ),
        )
        details["class_group"] = {"rank": group.rank, "torsion": list(group.torsion)}
    return CheckResult("rank-one-positivity", not expect.mismatches, details, expect.mismatches)


def _check_singular_points(run: ScenarioRun, spec: dict) -> CheckResult:
    expect = _Expect()
    reports = run.contraction.classify_singularities()
    census = list(singular_point_census(reports))
    expected = sorted((entry["n"], entry["q"], entry["count"]) for entry in spec["expect"])
    expect.eq("singular point census", census, expected)
    expect.present(spec, (("expect_total", "total singular points", len(reports)),))
    details = {
        "total": len(reports),
        "census": [{"n": n, "q": q, "count": c} for n, q, c in census],
        "points": _singular_points_json(reports),
    }
    return CheckResult("singular-points", not expect.mismatches, details, expect.mismatches)


def _check_anticanonical_sections(run: ScenarioRun, spec: dict) -> CheckResult:
    expect = _Expect()
    report = verify_h0_anticanonical_zero(
        run.contraction, fibers=spec["fibers"], curve=spec["curve"], towers=spec["towers"]
    )
    expect.eq("class identity", report.identity_holds, True)
    expect.present(
        spec,
        (
            ("expect_bidegree", "base bidegree", list(report.base_bidegree)),
            ("expect_h0", "h0", report.h0),
        ),
    )
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
    expect: "_Expect", label: str, actual: QDivisor, expected: dict[str, int | Fraction]
) -> None:
    """Exact comparison of a divisor's nonzero coefficients with a spec map."""
    expected = {n: v for n, v in expected.items() if v != 0}
    for name in sorted(set(expected) | set(actual.named)):
        expect.eq(f"{label}[{name}]", actual.coefficient(name), expected.get(name, 0))


def _check_kvv_failure(run: ScenarioRun, spec: dict) -> CheckResult:
    expect = _Expect()
    report = run.kvv(spec["divisor"], 1)
    want = spec.get("expect", {})
    if "expansion" in want:
        _compare_coefficient_map(expect, "expansion", report.pullback_expansion, want["expansion"])
    if "floor" in want:
        _compare_coefficient_map(expect, "floor", report.floor, want["floor"])
    for name, value in want.get("nef_degrees", {}).items():
        expect.eq(f"nef degree against {name}", report.nef_degrees.get(name, 0), value)
    expect.present(
        want,
        (
            ("k_dot_floor", "K.floor", report.k_dot_floor),
            ("floor_squared", "floor^2", report.floor_squared),
            ("euler_characteristic", "chi", report.euler_char),
            ("h1_nonzero", "h1_nonzero", report.h1_nonzero),
            ("not_globally_f_split", "not_globally_f_split", report.not_globally_f_split),
            (
                "no_w2_liftable_log_resolution",
                "no_w2_liftable_log_resolution",
                report.no_w2_liftable_log_resolution,
            ),
        ),
    )
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


def _check_cone(run: ScenarioRun, spec: dict) -> CheckResult:
    expect = _Expect()
    divisor = run.resolve(spec["divisor"])
    cone = build_cone(run.contraction, divisor)
    certificate_m = spec.get("certificate_m", -1)
    kvv = run.kvv(spec["divisor"], -certificate_m)
    cone = local_cohomology_certificate(cone, certificate_m, kvv.h1_nonzero)
    group = cone.class_group
    expect.present(
        spec.get("expect", {}),
        (
            ("r", "r", cone.r),
            ("section_discrepancy", "section discrepancy", cone.section_discrepancy),
            ("class_group_rank", "cone class group rank", None if group is None else group.rank),
            (
                "class_group_torsion",
                "cone class group torsion",
                None if group is None else list(group.torsion),
            ),
            ("cm", "Cohen-Macaulay", cone.cm),
        ),
    )
    details = {
        "r": rational_str(cone.r),
        "section_discrepancy": rational_str(cone.section_discrepancy),
        "q_gorenstein": cone.q_gorenstein,
        "crepant_partial_resolution": cone.crepant_partial_resolution,
        "class_group": None
        if group is None
        else {"rank": group.rank, "torsion": list(group.torsion)},
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


class Report(_Record):
    _fields = __slots__ = ("scenario_name", "scenario_digest", "checks")

    def __init__(self, scenario_name: str, scenario_digest: str, checks: list[CheckResult]) -> None:
        self.scenario_name, self.scenario_digest = scenario_name, scenario_digest
        self.checks = checks

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
    input: the scenario built fine, its mathematics did not.  A ScenarioError
    (a number too long to write) gains the check's location, after the file
    path of a scenario that `load_scenario` read; one from `scenario_digest`
    (a lone surrogate) gains that path.  The trial build of `load_scenario`,
    if not yet used, is used instead of a new one."""
    run = scenario._trial or scenario.build()
    scenario._trial = None
    checks = []
    for i, spec in enumerate(scenario.specs):
        try:
            result = CHECKS[spec["kind"]](run, spec)
        except GeometryError as exc:
            result = CheckResult(spec["kind"], False, {"error": str(exc)}, [str(exc)])
        except ScenarioError as exc:
            where = f"{scenario._path}." if scenario._path is not None else ""
            raise ScenarioError(f"{where}checks[{i}] ({spec['kind']}): {exc}") from None
        checks.append(result)
    try:
        digest = scenario_digest(scenario)
    except ScenarioError as exc:
        if scenario._path is None:
            raise
        raise ScenarioError(f"{scenario._path}: {exc}") from None
    return Report(scenario.name, digest, checks)


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
        "singular_points": _singular_points_json(report.singular_points),
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
