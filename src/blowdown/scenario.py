"""Scenario files, check evaluation, and machine-readable reports.

A scenario is a JSON document describing a construction (base surface,
declared curves, blow-up sequence, contraction) together with named divisors
and a list of checks with exact expected values.  Running a scenario builds
the construction, evaluates every check, and produces a report whose JSON
serialization is canonical (sorted keys, rationals as "num/den" strings), so
two runs of the same scenario are byte-identical.

The format is stated once, in the table `DOCUMENT_SCHEMA`, which is its
reference.  Each check kind is declared once, by its entry in `CHECK_KINDS`:
its fields, its evaluator and its text lines.  `CHECK_SCHEMAS` and `CHECKS`
are read from that table, and at import the schema is compiled into one
parser per node, which `parse_scenario` runs.  The outputs (the report and
the exploration) have no schema: the code that builds them states their
fields.  `canonical_json` is the one JSON writer: it writes the document
that `scenario_digest` hashes, the report and the exploration.

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
from typing import Any, Callable, NamedTuple, NoReturn

from . import explorer
from .cohomology import KvvFailureReport, verify_h0_anticanonical_zero, verify_kvv_failure
from .cone import build_cone, local_cohomology_certificate
from .contraction import Contraction, SingClass, contract, singular_point_census
from .errors import GeometryError, ScenarioError, _Frozen, _Record
from .surface import BASES, PLANE, QUADRIC, QDivisor, SparseClass, SurfaceModel, new_plane, new_quadric

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
    a large intersection table.  Every part goes into one list, joined once
    at the end, so no container's text is copied into its parent's; an error
    leaves no partial text.  Strings still go through the stdlib's C string
    encoder and floats through ``json.dumps``."""
    parts: list[str] = []
    _write(obj, "\n", {}, parts.append)
    parts.append("\n")
    return "".join(parts)


def _write(obj: Any, newline: str, heads: dict, put: Callable[[str], None]) -> None:
    """`put` the parts of `canonical_json` of ``obj`` at the indent that ``newline`` ends with.

    Each member goes out after its head: ``"{"``, ``"["`` or ``","``, the newline and
    indent and, in a dict, the written ``"key": ``; a str, int, bool or None member is
    one part, head and text.  ``heads`` caches, for one call, the list item heads of
    each indent and the sorted keys' heads of each (indent, key tuple): the rows of a
    table share theirs, and one key set at two depths has two."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            return put("{}")
        if (entry := heads.get(names := (newline, *obj))) is None:
            inner = newline + "  "
            keyed = [(k, f",{inner}{_encode_str(k)}: ") for k in sorted(obj)]
            keyed[0] = (keyed[0][0], "{" + keyed[0][1][1:])
            entry = heads[names] = (keyed, inner, newline + "}")
        keyed, inner, close = entry
        for k, head in keyed:
            x = obj[k]
            if (tx := type(x)) is str:
                put(head + _encode_str(x))
            elif tx is int:
                put(head + int.__repr__(x))
            elif tx is bool:
                put(head + ("true" if x else "false"))
            elif x is None:
                put(head + "null")
            else:
                put(head)
                _write(x, inner, heads, put)
        return put(close)
    if kind is list or kind is tuple:
        if not obj:
            return put("[]")
        if (entry := heads.get(newline)) is None:
            inner = newline + "  "
            entry = heads[newline] = ("[" + inner, "," + inner, inner, newline + "]")
        head, sep, inner, close = entry
        for x in obj:
            if (tx := type(x)) is str:
                put(head + _encode_str(x))
            elif tx is int:
                put(head + int.__repr__(x))
            elif tx is bool:
                put(head + ("true" if x else "false"))
            elif x is None:
                put(head + "null")
            else:
                put(head)
                _write(x, inner, heads, put)
            head = sep
        return put(close)
    # a subclass, such as a namedtuple or an OrderedDict, is written as its base type
    if isinstance(obj, (list, tuple)):
        return _write(list(obj), newline, heads, put)
    if isinstance(obj, dict):
        return _write(dict(obj.items()), newline, heads, put)
    put(json.dumps(obj, ensure_ascii=False))  # a float, another scalar, or TypeError


def scenario_digest(scenario: "Scenario") -> str:
    """The sha256 of the scenario document's `canonical_json` bytes.

    The hash is the interpreter's own SHA-256 module (``_sha2`` or ``_sha256``),
    and ``hashlib`` only where neither is built: ``import hashlib`` loads
    OpenSSL, which costs every command about 3.5 MB of peak memory and 3-4 ms,
    while the built-in hash takes about 0.1 ms more on a large document.  The
    bytes hashed, and so the digest, are the same.  A string holding a lone
    surrogate (the JSON escape ``"\\ud800"``) is not text and has no UTF-8
    bytes: ScenarioError.

    A scenario that `load_scenario` or `bundled_scenario` made keeps the
    digest they took (``_digest``), so its runs encode the document no more.
    Any other scenario, such as one from `parse_scenario`, shares raw checks
    its caller may still change, and is encoded again on every call."""
    if scenario._digest is not None:
        return scenario._digest
    try:
        payload = canonical_json(scenario._document()).encode("utf-8")
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


class Scenario(_Frozen):
    """A parsed scenario document; its fields cannot be reassigned, and it
    compares by them alone.  It hashes by them only while it has no check:
    ``hash()`` raises TypeError otherwise, because the raw ``checks`` are dicts.

    ``divisors`` holds each coefficient as an ``int`` if written as an integer,
    else a ``Fraction``; ``specs`` the checks parsed against ``CHECK_SCHEMAS``
    (``to_dict`` keeps the raw ``checks``).  ``_trial`` is the build
    ``load_scenario`` validated, which ``run_scenario`` takes instead of
    building again, ``_path`` the file it read, which starts the location
    of a check's error, and ``_digest`` the `scenario_digest` it took; none
    is part of the document."""

    _fields = ("name", "base", "curves", "blowups", "contraction", "divisors", "checks", "specs")
    __slots__ = _fields + ("_trial", "_path", "_digest")
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
        self._digest: str | None = None

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
    location starts with ``where``.  A lattice rank (base rank plus blow-ups)
    past `explorer.MAX_LATTICE_RANK` is refused before anything is built."""
    try:
        doc = _parse_document(raw, {CURVE: set(), REF: {"K"}})
    except _Invalid as exc:
        raise ScenarioError(f"{where}{''.join(reversed(exc.path))}: {exc.message}") from None
    base_rank, blowups = len(BASES[doc["base"]][0]), len(doc.get("blowups", ()))
    if base_rank + blowups > explorer.MAX_LATTICE_RANK:
        raise ScenarioError(f"{where}.blowups: lattice rank {base_rank} + {blowups} blow-ups ="
                            f" {base_rank + blowups}, past the limit {explorer.MAX_LATTICE_RANK}")
    return Scenario(
        name=doc["name"],
        base=doc["base"],
        curves=tuple((c["name"], tuple(c["class"])) for c in doc.get("curves", ())),
        blowups=tuple(
            (b["name"], tuple((i["curve"], i["mult"]) for i in b.get("incident", ())))
            for b in doc.get("blowups", ())
        ),
        contraction=tuple(doc.get("contraction", ())),
        divisors=tuple((n, tuple(c.items())) for n, c in doc.get("divisors", {}).items()),
        checks=tuple(raw.get("checks", ())),
        specs=tuple(doc.get("checks", ())),
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
# ``CHECK`` is a check, parsed against the fields of its kind in ``CHECK_KINDS``.
# A tuple, or an enum such as ``SingClass``, takes one of its values.
RATIONAL, INT, BOOL, INTS, MULT = "<rational>", "<int>", "<bool>", "<ints>", "<mult>"
STR, NAME, REF, CURVE = "<str>", "<name>", "<ref>", "<curve>"
NEW_CURVE, NEW_DIVISOR, CHECK = "<new curve>", "<new divisor>", "<check>"

# A key ending in "?" is optional: an absent one is absent from the parsed object.
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
        kinds = {kind: _parse_object({"kind": STR, **f}) for kind, f in CHECK_SCHEMAS.items()}

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
    fields = [(key.rstrip("?"), _parser(item), key[-1:] != "?") for key, item in schema.items()]
    known = frozenset(f[0] for f in fields)

    def parse(value: Any, names: dict) -> dict:
        if type(value) is not dict and not isinstance(value, dict):
            raise _Invalid("must be an object", "an object")
        if not known.issuperset(value):
            raise _Invalid(f"unknown field {next(k for k in value if k not in known)!r}")
        out = {}
        for name, parse_item, required in fields:
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
        return out

    return parse


def load_scenario(path: str) -> Scenario:
    """Parse and fully validate a scenario file: its digest, which finds a
    lone surrogate before anything is built, then a trial build."""
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
        scenario._digest = scenario_digest(scenario)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    try:
        run = scenario.build()  # surfaces incidence-budget violations with locations
    except ScenarioError as exc:
        raise ScenarioError(f"{path}.{exc}") from None
    scenario._trial, scenario._path = run, path
    return scenario


#: The bundled scenario as the first `bundled_scenario` call parsed it.
_bundled: Scenario | None = None


def bundled_scenario() -> Scenario:
    """The bundled reference scenario, read by this module's own loader from
    the package's data directory (as ``pkgutil.get_data`` does, without
    importing ``importlib.resources``, which costs about 24 ms and 4 MB).

    The first call reads, parses and digests the file.  Each call returns a
    new `Scenario`, with its own ``_trial`` and ``_path``, that shares the
    fields and the digest of that parse."""
    global _bundled
    if _bundled is None:
        path = os.path.join(os.path.dirname(__file__), "data", BUNDLED_SCENARIO)
        scenario = parse_scenario(json.loads(__loader__.get_data(path).decode("utf-8")))
        scenario._digest = scenario_digest(scenario)
        _bundled = scenario
    return copy.copy(_bundled)


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
    """Collects exact comparisons for one check against ``want``, its map of
    optional expectations: the spec, its "expect" map or a class-group map."""

    def __init__(self, want: dict) -> None:
        self.want, self.mismatches = want, []

    def eq(self, label: str, actual: Any, expected: Any) -> None:
        if actual != expected:
            self.miss(label, actual, expected)

    def miss(self, label: str, actual: Any, expected: Any) -> None:
        """Records ``actual``, which is not ``expected``."""
        self.mismatches.append(f"{label}: expected {_text(expected)}, got {_text(actual)}")

    def field(self, key: str, label: str, actual: Any, write: Callable | None = rational_str) -> Any:
        """``actual`` as the details write it (as itself if ``write`` is None),
        compared with ``want[key]`` when that expectation is given."""
        if key in self.want and actual != self.want[key]:
            self.miss(label, actual, self.want[key])
        return actual if write is None else write(actual)


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


def _check_intersection_table(run: ScenarioRun, spec: dict) -> tuple[dict, list[str]]:
    expect = _Expect(spec)
    rows = []
    pairing, sparse_class, prime = run.model.pairing, run.sparse_class, run.model.prime_divisors
    # a name resolve() reads as the curve itself (not K, -X or a divisor) pairs in O(1)
    named = {n for n in prime if n not in run.divisors and n != "K" and n[:1] != "-"}
    for entry in spec.get("entries", ()):
        a, b = entry["a"], entry["b"]
        value = pairing(a if a in named else sparse_class(a), b if b in named else sparse_class(b))
        if value != entry["expect"]:  # the label is built for a mismatch only
            expect.miss(f"{a}.{b}", value, entry["expect"])
        rows.append({"a": a, "b": b, "value": _text(value)})
    details = {"entries": rows, "count": len(rows)}
    return details, expect.mismatches


def _check_canonical_pullback(run: ScenarioRun, spec: dict) -> tuple[dict, list[str]]:
    expect = _Expect(spec)
    discreps, classification = run.contraction.discrepancies()
    corrections = {n: -a for n, a in discreps.items()}  # psi*K_T = K_S - sum a_j G_j
    for name, value in spec.get("expect_coefficients", {}).items():
        expect.eq(f"coefficient of {name}", corrections.get(name, 0), value)
    if "expect_classification" in spec:
        expect.eq("classification", classification.value, spec["expect_classification"].value)
    if not discreps and "expect_min_discrepancy" in spec:
        expect.mismatches.append("min discrepancy: nothing contracted")
    details = {
        "pullback_corrections": {n: rational_str(c) for n, c in sorted(corrections.items())},
        "discrepancies": {n: rational_str(a) for n, a in sorted(discreps.items())},
        "classification": classification.value,
        "min_discrepancy": expect.field(
            "expect_min_discrepancy", "min discrepancy", min(discreps.values())
        ) if discreps else None,
    }
    return details, expect.mismatches


def _class_group_json(expect: _Expect, group, label: str, key: str = "") -> dict | None:
    """The class group as the details write it, its rank and torsion compared
    with the expectations ``key + "rank"`` and ``key + "torsion"``; a missing
    group (None) is compared as a rank and torsion of None."""
    rank, torsion = (None, None) if group is None else (group.rank, list(group.torsion))
    rank = expect.field(f"{key}rank", f"{label} rank", rank, None)
    torsion = expect.field(f"{key}torsion", f"{label} torsion", torsion, None)
    return None if group is None else {"rank": rank, "torsion": torsion}


def _check_rank_one_positivity(run: ScenarioRun, spec: dict) -> tuple[dict, list[str]]:
    expect = _Expect(spec)
    con = run.contraction
    details = {"target_rank": expect.field("expect_rank", "target rank", con.target_rank, None)}
    degrees = {}
    if con.target_rank == 1:
        for entry in spec.get("degrees", ()):
            ref = entry["divisor"]
            value = con.degree_against(run.resolve(ref))
            degrees[ref] = rational_str(value)
            expect.eq(f"degree of {ref}", value, entry["expect"])
        props = {}
        for entry in spec.get("proportionality", ()):
            r = con.numerically_proportional(run.resolve(entry["d1"]), run.resolve(entry["d2"]))
            key = f"{entry['d1']}~{entry['d2']}"
            props[key] = None if r is None else rational_str(r)
            if r is None:
                expect.mismatches.append(f"{key}: second divisor numerically trivial")
            else:
                expect.eq(key, r, entry["expect"])
        amp = {}
        for entry in spec.get("ample", ()):
            ref = entry["divisor"]
            value = con.is_ample_rank1(run.resolve(ref))
            amp[ref] = value
            expect.eq(f"ample({ref})", value, entry["expect"])
        details.update({"degrees": degrees, "proportionality": props, "ample": amp})
    elif spec.get("degrees") or spec.get("proportionality") or spec.get("ample"):
        expect.mismatches.append(
            f"rank-one quantities undefined: target rank is {con.target_rank}"
        )
    if "expect_class_group" in spec:
        group_expect = _Expect(spec["expect_class_group"])
        details["class_group"] = _class_group_json(group_expect, con.class_group(), "class group")
        expect.mismatches += group_expect.mismatches
    return details, expect.mismatches


def _check_singular_points(run: ScenarioRun, spec: dict) -> tuple[dict, list[str]]:
    expect = _Expect(spec)
    reports = run.contraction.classify_singularities()
    census = list(singular_point_census(reports))
    if "expect" in spec:
        expected = sorted((entry["n"], entry["q"], entry["count"]) for entry in spec["expect"])
        expect.eq("singular point census", census, expected)
    details = {  # the census is compared before the total, which is written first
        "total": expect.field("expect_total", "total singular points", len(reports), None),
        "census": [{"n": n, "q": q, "count": c} for n, q, c in census],
        "points": _singular_points_json(reports),
    }
    return details, expect.mismatches


def _check_anticanonical_sections(run: ScenarioRun, spec: dict) -> tuple[dict, list[str]]:
    expect = _Expect(spec)
    report = verify_h0_anticanonical_zero(
        run.contraction, fibers=spec["fibers"], curve=spec["curve"], towers=spec["towers"]
    )
    expect.eq("class identity", report.identity_holds, True)
    bidegree = list(report.base_bidegree)
    details: dict[str, Any] = {
        "identity_holds": report.identity_holds,
        "base_bidegree": expect.field("expect_bidegree", "base bidegree", bidegree, None),
        "h0": expect.field("expect_h0", "h0", report.h0, None),
    }
    if report.difference_class is not None:
        details["difference_class"] = [rational_str(x) for x in report.difference_class]
    return details, expect.mismatches


def _compare_coefficient_map(
    expect: "_Expect", label: str, actual: QDivisor, expected: dict[str, int | Fraction]
) -> None:
    """Exact comparison of a divisor's nonzero coefficients with a spec map."""
    expected = {n: v for n, v in expected.items() if v != 0}
    for name in sorted(set(expected) | set(actual.named)):
        expect.eq(f"{label}[{name}]", actual.coefficient(name), expected.get(name, 0))


def _check_kvv_failure(run: ScenarioRun, spec: dict) -> tuple[dict, list[str]]:
    report = run.kvv(spec["divisor"], 1)
    expect = _Expect(want := spec.get("expect", {}))
    if "expansion" in want:
        _compare_coefficient_map(expect, "expansion", report.pullback_expansion, want["expansion"])
    if "floor" in want:
        _compare_coefficient_map(expect, "floor", report.floor, want["floor"])
    for name, value in want.get("nef_degrees", {}).items():
        expect.eq(f"nef degree against {name}", report.nef_degrees.get(name, 0), value)
    details = {
        "expansion": _divisor_json(report.pullback_expansion),
        "floor": _divisor_json(report.floor),
        "relatively_nef": report.relatively_nef,
        "nef_degrees": {n: rational_str(v) for n, v in sorted(report.nef_degrees.items())},
        "k_dot_floor": expect.field("k_dot_floor", "K.floor", report.k_dot_floor),
        "floor_squared": expect.field("floor_squared", "floor^2", report.floor_squared),
        "euler_characteristic": expect.field("euler_characteristic", "chi", report.euler_char),
    }
    for flag in ("h1_nonzero", "not_globally_f_split", "no_w2_liftable_log_resolution"):
        details[flag] = expect.field(flag, flag, getattr(report, flag), None)  # labelled by its key
    details["nef_hypothesis_note"] = report.nef_hypothesis_note
    return details, expect.mismatches


def _check_cone(run: ScenarioRun, spec: dict) -> tuple[dict, list[str]]:
    expect = _Expect(spec.get("expect", {}))
    divisor = run.resolve(spec["divisor"])
    cone = build_cone(run.contraction, divisor)
    certificate_m = spec.get("certificate_m", -1)
    kvv = run.kvv(spec["divisor"], -certificate_m)
    cone = local_cohomology_certificate(cone, certificate_m, kvv.h1_nonzero)
    details = {
        "r": expect.field("r", "r", cone.r),
        "section_discrepancy": expect.field(
            "section_discrepancy", "section discrepancy", cone.section_discrepancy
        ),
        "q_gorenstein": cone.q_gorenstein,
        "crepant_partial_resolution": cone.crepant_partial_resolution,
        "class_group": _class_group_json(expect, cone.class_group, "cone class group", "class_group_"),
        "cm": expect.field("cm", "Cohen-Macaulay", cone.cm, None),
        "certificate_m": cone.cm_certificate_m,
        "klt_note": cone.klt_note,
    }
    return details, expect.mismatches


class CheckKind(NamedTuple):
    """A check kind: its ``fields`` besides "kind", in the notation of
    `DOCUMENT_SCHEMA`; ``run``, its evaluator ``(run, spec) -> (details,
    mismatches)``, whose check passes when ``mismatches`` is empty; and
    ``text``, the lines of its text report from its details, or None for one
    ``key: value`` line per detail."""

    fields: dict
    run: Callable[[ScenarioRun, dict], tuple[dict, list[str]]]
    text: Callable[[dict], list[str]] | None = None


#: Every check kind, each declared once.
CHECK_KINDS: dict[str, CheckKind] = {
    "intersection-table": CheckKind(
        {"entries?": [{"a": REF, "b": REF, "expect": RATIONAL}]},
        _check_intersection_table,
        lambda d: [f"    {e['a']}.{e['b']} = {e['value']}" for e in d["entries"]],
    ),
    "canonical-pullback": CheckKind(
        {
            "expect_coefficients?": {CURVE: RATIONAL},
            "expect_min_discrepancy?": RATIONAL,
            "expect_classification?": SingClass,
        },
        _check_canonical_pullback,
        lambda d: [
            "    corrections: "
            + ", ".join(f"{n}: {v}" for n, v in d["pullback_corrections"].items()),
            f"    classification: {d['classification']} (min {d['min_discrepancy']})",
        ],
    ),
    "rank-one-positivity": CheckKind(
        {
            "degrees?": [{"divisor": REF, "expect": RATIONAL}],
            "proportionality?": [{"d1": REF, "d2": REF, "expect": RATIONAL}],
            "ample?": [{"divisor": REF, "expect": BOOL}],
            "expect_rank?": INT,
            "expect_class_group?": {"rank?": INT, "torsion?": INTS},
        },
        _check_rank_one_positivity,
    ),
    "singular-points": CheckKind(
        {
            "expect?": [{"n": INT, "q": INT, "count": INT}],
            "expect_total?": INT,
        },
        _check_singular_points,
        lambda d: [
            f"    {d['total']} singular points: "
            + ", ".join(f"1/{e['n']}(1,{e['q']}) x{e['count']}" for e in d["census"])
        ],
    ),
    "anticanonical-sections": CheckKind(
        {
            "fibers": [CURVE],
            "curve": CURVE,
            "towers": [[CURVE]],
            "expect_bidegree?": INTS,
            "expect_h0?": INT,
        },
        _check_anticanonical_sections,
    ),
    "kvv-failure": CheckKind(
        {
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
        _check_kvv_failure,
        lambda d: [
            f"    K.floor = {d['k_dot_floor']}, floor^2 = {d['floor_squared']}, "
            f"chi = {d['euler_characteristic']}, h1_nonzero = {d['h1_nonzero']}"
        ],
    ),
    "cone": CheckKind(
        {
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
        _check_cone,
        lambda d: [
            f"    r = {d['r']}, section discrepancy = {d['section_discrepancy']}, "
            f"CM = {d['cm']}"
        ],
    ),
}

#: The fields of each check kind besides "kind", and its evaluator, read from
#: `CHECK_KINDS`.  `run_scenario` calls each evaluator through `CHECKS`, so an
#: entry replaced there (by a tracer or a test) is the one called.
CHECK_SCHEMAS: dict[str, dict] = {kind: k.fields for kind, k in CHECK_KINDS.items()}
CHECKS = {kind: k.run for kind, k in CHECK_KINDS.items()}

#: `DOCUMENT_SCHEMA` compiled once into its parser.
_parse_document = _parser(DOCUMENT_SCHEMA)


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
    """The text lines of the check's kind, or one ``key: value`` line per
    detail for a check that raised or a kind with no lines of its own."""
    text = CHECK_KINDS[check.kind].text
    if text is None or "error" in check.details:
        return [f"    {key}: {value}" for key, value in check.details.items()]
    return text(check.details)


def run_scenario(scenario: Scenario) -> Report:
    """Build the scenario and evaluate every check.

    A numerical-geometry error raised while evaluating a check (wrong target
    rank, pipeline abort, ...) counts as that check failing, not as invalid
    input: the scenario built fine, its mathematics did not.  A ScenarioError
    (a number too long to write) gains the check's location, after the file
    path of a scenario that `load_scenario` read.  The trial build of
    `load_scenario`, if not yet used, is used instead of a new one."""
    run = scenario._trial or scenario.build()
    scenario._trial = None
    checks = []
    for i, spec in enumerate(scenario.specs):
        kind = spec["kind"]
        try:
            details, mismatches = CHECKS[kind](run, spec)
        except GeometryError as exc:
            details, mismatches = {"error": str(exc)}, [str(exc)]
        except ScenarioError as exc:
            where = f"{scenario._path}." if scenario._path is not None else ""
            raise ScenarioError(f"{where}checks[{i}] ({kind}): {exc}") from None
        checks.append(CheckResult(kind, not mismatches, details, mismatches))
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
