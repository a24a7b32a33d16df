"""A seeded corpus of scenario files and the outcome of each through
``blowdown run``: for both formats, the exit code and one sha256 over stdout
and stderr.

The inputs are mutations of the bundled scenario and of a rank-8 tower, plus
hand-written cases: numbers past the interpreter's digit limit, nested wrong
types, 'K' and '-X' names, nesting past the recursion limit, oversized
integers, "n/d" forms, checks that raise, whose report holds
``{"error": ...}`` details, and lone surrogates.  Everything comes from one
seeded ``random.Random``, so the inputs are the same bytes on every run.

``tests/test_outcomes.py`` regenerates the inputs and compares their outcomes
with ``tests/data/outcomes.json``.  A change that is meant to change outcomes
writes that file again, from the repository root::

    PYTHONPATH=src python tests/outcome_corpus.py
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from blowdown.cli import main

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "src" / "blowdown" / "data" / "keel-mckernan-p3.json"
OUTCOMES = Path(__file__).resolve().parent / "data" / "outcomes.json"
SEED = 18
FORMATS = ("text", "json")

#: stands for an integer literal past the 4300-digit limit, which json.dumps cannot write
HUGE = "@huge-int@"
HUGE_LITERAL = "9" * 5000

RATIONAL_FORMS = [
    "1/2", "-1/2", "+1/2", "2/4", "4/2", "0/7", "-0", "007", "1/0", "1/-2", "1 /2",
    " 1", "1/2/3", "1.5", "1e3", "0x10", "1_000", "½", "١", "", "/", "3/",
]
NAMES = ["K", "-K", "--K", "-A", "A", "C", "-C", "E1", "F1", "G1", "x", "", "é", "a\nb", "K ", "f_x"]


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


JUNK = [
    None, True, False, 0, 1, -1, 2, 3, -3, 10**40, -(10**40), 10**300, 10**4299,
    0.5, -2.5e-3, 1e300, "1" * 5000, HUGE, [], [1, 2], [1, -1], [0, 0], ["K", "A"], [[1]], [{}],
    {}, {"K": 1}, {"C": "1/2"}, {"A": True}, {"kind": "cone"}, _nested(60),
    "klt", "canonical", "cone", "kvv-failure", "intersection-table",
    *RATIONAL_FORMS, *NAMES,
]


def tower() -> dict:
    """The quadric blown up twice over each of three fibres at the point it
    shares with the curve C of class (1, 2): rank 8, and contracting C, the
    fibres and the first blow-up over each leaves a rank-one target."""
    blowups = []
    for i in (1, 2, 3):
        blowups += [
            {"name": f"H{i}", "incident": [{"curve": "C", "mult": 1}, {"curve": f"F{i}", "mult": 1}]},
            {"name": f"E{i}", "incident": [
                {"curve": "C", "mult": 1}, {"curve": f"F{i}", "mult": 1}, {"curve": f"H{i}", "mult": 1},
            ]},
        ]
    return {
        "schema": "blowdown-scenario/1",
        "name": "tower-p2-n3",
        "base": "quadric",
        "curves": [{"name": "C", "class": [1, 2]}] + [{"name": f"F{i}", "class": [1, 0]} for i in (1, 2, 3)],
        "blowups": blowups,
        "contraction": ["C", "F1", "F2", "F3", "H1", "H2", "H3"],
        "divisors": {"A": {"E1": 1, "E2": "1/2", "E3": "-1/3"}, "B": {"E1": 1, "E2": 1, "E3": 1}},
        "checks": [
            {"kind": "intersection-table", "entries": [
                {"a": "C", "b": "C", "expect": -2}, {"a": "E1", "b": "C", "expect": 1},
                {"a": "K", "b": "-C", "expect": 0}, {"a": "A", "b": "B", "expect": "-1/6"},
            ]},
            {"kind": "canonical-pullback", "expect_classification": "canonical",
             "expect_min_discrepancy": 0, "expect_coefficients": {"C": 0}},
            {"kind": "rank-one-positivity", "expect_rank": 1, "degrees": [{"divisor": "B", "expect": 3}],
             "proportionality": [{"d1": "B", "d2": "-K", "expect": "1/2"}],
             "ample": [{"divisor": "B", "expect": True}], "expect_class_group": {"rank": 1}},
            {"kind": "singular-points", "expect": [{"n": 2, "q": 1, "count": 7}], "expect_total": 7},
            {"kind": "anticanonical-sections", "fibers": ["F1", "F2", "F3"], "curve": "C",
             "towers": [["H1", "E1"], ["H2", "E2"], ["H3", "E3"]], "expect_h0": 0},
            {"kind": "kvv-failure", "divisor": "B", "expect": {"h1_nonzero": False}},
            {"kind": "cone", "divisor": "B", "certificate_m": 1, "expect": {"cm": True}},
        ],
    }


def _paths(node, prefix=()):
    """Paths into a JSON tree, the root excluded; beyond the checks, a list
    gives its first two items only, so long tables do not crowd out the rest."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if isinstance(key, int) and key > 1 and prefix != ("checks",):
            continue
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(base: dict, rng: random.Random) -> dict:
    """``base`` with one to three random edits: replace a value with junk,
    drop it, add an unknown key beside it, or repeat a list's first item."""
    raw, paths = copy.deepcopy(base), list(_paths(base))
    for _ in range(rng.randint(1, 3)):
        path, action, value = rng.choice(paths), rng.random(), copy.deepcopy(rng.choice(JUNK))
        parent = raw
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or retyped this path
        if not isinstance(parent, (dict, list)):
            continue
        if action < 0.6:
            parent[path[-1]] = value
        elif action < 0.8:
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], dict):
            parent[path[-1]]["unexpected"] = value
        elif isinstance(parent[path[-1]], list) and parent[path[-1]]:
            parent[path[-1]].append(copy.deepcopy(parent[path[-1]][0]))
    return raw


def _encode(raw) -> bytes:
    return json.dumps(raw, ensure_ascii=False).replace(f'"{HUGE}"', HUGE_LITERAL).encode("utf-8")


def _targeted(bundled: dict, small: dict):
    """Hand-written cases, as (name, JSON value or raw bytes)."""
    yield "empty-file", b""
    yield "not-utf8", b'{"name": "\xff\xfe"}'
    yield "bom", "\ufeff{}".encode("utf-8")
    yield "truncated", _encode(bundled)[:-7]
    yield "trailing-comma", b'{"schema": "blowdown-scenario/1",}'
    yield "nan-literal", b'{"schema": "blowdown-scenario/1", "name": NaN}'
    tops = [("null", b"null"), ("list", b"[]"), ("number", b"1"), ("string", b'"x"'), ("object", b"{}")]
    for name, text in tops:
        yield f"top-level-{name}", text
    yield "deep-list", b"[" * 100000 + b"]" * 100000
    yield "deep-object", b'{"a":' * 100000 + b"1" + b"}" * 100000
    yield "deep-in-check", _with(bundled, ("checks", 0, "entries"), _nested(200))
    yield "duplicate-keys", b'{"schema": "blowdown-scenario/1", "name": "a", "name": "", "base": "plane"}'
    # digit limits: a literal past the reading limit, a rational string past it,
    # and values whose products are past the writing limit
    yield "huge-literal-class", _with(small, ("curves", 0, "class", 0), HUGE)
    yield "huge-literal-expect", _with(bundled, ("checks", 0, "entries", 0, "expect"), HUGE)
    yield "huge-rational-string", _with(bundled, ("divisors", "A", "E1"), "1" * 5000)
    yield "huge-rational-denominator", _with(bundled, ("divisors", "A", "E1"), "1/" + "3" * 5000)
    yield "huge-square", {
        "schema": "blowdown-scenario/1", "name": "huge", "base": "quadric",
        "curves": [{"name": "C", "class": [10**2200, 10**2200]}],
        "checks": [{"kind": "intersection-table", "entries": [{"a": "C", "b": "C", "expect": 0}]}],
    }
    yield "limit-digits-expect", _with(bundled, ("checks", 0, "entries", 0, "expect"), 10**4299)
    yield "limit-digits-string", _with(bundled, ("checks", 0, "entries", 0, "expect"), "7" * 4300)
    # oversized integers where the schema takes an int
    for i, (path, value) in enumerate([
        (("blowups", 0, "incident", 0, "mult"), 10**40),
        (("blowups", 0, "incident", 0, "mult"), 2),
        (("curves", 0, "class"), [10**40, 1]),
        (("curves", 0, "class"), [-1, 3]),
        (("checks", 2, "expect_rank"), 10**40),
        (("checks", 3, "expect_total"), -(10**40)),
        (("checks", 6, "certificate_m"), 10**40),
        (("checks", 6, "certificate_m"), 0),
        (("checks", 6, "certificate_m"), -3),
        (("checks", 2, "expect_class_group", "torsion"), [10**40]),
    ]):
        yield f"big-int-{i}", _with(small, path, value)
    # "n/d" forms where the schema takes a rational
    for i, form in enumerate(RATIONAL_FORMS):
        yield f"rational-coefficient-{i}", _with(bundled, ("divisors", "A", "E1"), form)
        yield f"rational-expect-{i}", _with(small, ("checks", 0, "entries", 3, "expect"), form)
    # 'K' and '-X' names wherever a name is declared or referred to
    for i, name in enumerate(NAMES):
        yield f"name-curve-{i}", _with(small, ("curves", 1, "name"), name)
        yield f"name-blowup-{i}", _with(small, ("blowups", 0, "name"), name)
        yield f"name-divisor-{i}", _renamed_divisor(small, name)
        yield f"name-reference-{i}", _with(small, ("checks", 0, "entries", 0, "a"), name)
        yield f"name-contracted-{i}", _with(small, ("contraction", 0), name)
    # nested wrong types, one level under each field of the document
    for i, (path, value) in enumerate([
        (("curves", 0), ["C", [1, 2]]),
        (("curves", 0, "class"), {"0": 1}),
        (("blowups", 0, "incident"), {"curve": "C", "mult": 1}),
        (("blowups", 0, "incident", 0), ["C", 1]),
        (("divisors", "A"), [["E1", 1]]),
        (("checks", 0, "entries", 0), ["C", "C", -2]),
        (("checks", 2, "degrees", 0, "expect"), [3]),
        (("checks", 2, "expect_class_group"), [1, []]),
        (("checks", 4, "towers"), ["H1", "E1"]),
        (("checks", 5, "expect"), [["h1_nonzero", False]]),
        (("checks", 6, "expect", "cm"), "true"),
        (("checks", 1, "expect_classification"), 1),
    ]):
        yield f"wrong-type-{i}", _with(small, path, value)
    # checks that raise: each contracted curve dropped in turn leaves a
    # higher-rank target, so the kvv-failure and cone checks hold an error
    for i in range(7):
        yield f"partial-contraction-{i}", _with(small, ("contraction",), small["contraction"][:i])
    yield "bundled-partial-contraction", _with(bundled, ("contraction",), bundled["contraction"][:4])
    yield "plane-base", {
        "schema": "blowdown-scenario/1", "name": "plane", "base": "plane",
        "curves": [{"name": "L", "class": [1]}], "contraction": [],
        "checks": [{"kind": "anticanonical-sections", "fibers": [], "curve": "L", "towers": []},
                   {"kind": "cone", "divisor": "L"}, {"kind": "kvv-failure", "divisor": "-L"}],
    }
    yield "contracted-witness", _with(small, ("checks", 2, "degrees", 0, "divisor"), "C")
    # a lone surrogate, the valid JSON escape "\ud800", is not text: written
    # escaped, since it has no UTF-8 bytes
    yield "lone-surrogate-name", json.dumps(_with(bundled, ("name",), "\ud800")).encode("ascii")
    surrogate_divisor = _with(bundled, ("divisors", "\udfff"), {"E1": "1"})
    yield "lone-surrogate-divisor", json.dumps(surrogate_divisor).encode("ascii")
    yield "bundled", bundled
    yield "tower", small


def _with(base: dict, path: tuple, value) -> dict:
    raw = copy.deepcopy(base)
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return raw


def _renamed_divisor(base: dict, name: str) -> dict:
    raw = copy.deepcopy(base)
    raw["divisors"][name] = raw["divisors"].pop("A")
    return raw


def inputs() -> list[tuple[str, bytes]]:
    """Every input of the corpus, named, in a fixed order."""
    rng = random.Random(SEED)
    bundled, small = json.loads(BUNDLED.read_text(encoding="utf-8")), tower()
    cases = [(name, raw if type(raw) is bytes else _encode(raw)) for name, raw in _targeted(bundled, small)]
    cases += [(f"bundled-mutation-{i}", _encode(_mutate(bundled, rng))) for i in range(180)]
    cases += [(f"tower-mutation-{i}", _encode(_mutate(small, rng))) for i in range(140)]
    return cases


def inputs_digest(cases: list[tuple[str, bytes]]) -> str:
    """One sha256 over every input's name and bytes, which pins the generator."""
    digest = hashlib.sha256()
    for name, data in cases:
        digest.update(b"%d:%s%d:" % (len(name), name.encode("utf-8"), len(data)) + data)
    return digest.hexdigest()


def run(data: bytes, fmt: str, path: str = "scenario.json") -> tuple[int | str, str, str]:
    """The exit code of ``blowdown run`` on ``data`` in ``fmt`` written to
    ``path``, with its stdout and stderr; an exception raised out of the
    command is the code ``"traceback: <type>"``."""
    Path(path).write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code: int | str = main(["run", "--scenario", path, "--format", fmt])
    except Exception as exc:  # the outcome the corpus exists to rule out
        code = f"traceback: {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def outcome(code: int | str, stdout: str, stderr: str) -> list:
    """[exit code, sha256 over stdout and stderr]."""
    payload = (stdout + "\0" + stderr).encode("utf-8")
    return [code, hashlib.sha256(payload).hexdigest()]


def write() -> None:
    cases = inputs()
    outcomes = {}
    with tempfile.TemporaryDirectory() as directory:
        cwd = os.getcwd()
        os.chdir(directory)  # the relative path in error messages is the same on every run
        try:
            for name, data in cases:
                outcomes[name] = {fmt: outcome(*run(data, fmt)) for fmt in FORMATS}
        finally:
            os.chdir(cwd)
    python = "%d.%d" % sys.version_info[:2]
    document = {"inputs_sha256": inputs_digest(cases), "python": python, "seed": SEED, "outcomes": outcomes}
    OUTCOMES.parent.mkdir(exist_ok=True)
    OUTCOMES.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    codes = [o[fmt][0] for o in outcomes.values() for fmt in FORMATS]
    print(f"{len(cases)} inputs; exit codes {sorted({c: codes.count(c) for c in codes}.items(), key=str)}",
          file=sys.stderr)


if __name__ == "__main__":
    write()
