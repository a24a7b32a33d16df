"""The committed outcome corpus: every input of `outcome_corpus` gives the exit
code and the stdout and stderr bytes recorded in ``tests/data/outcomes.json``."""

import json
import sys

import pytest

import outcome_corpus as corpus

COMMITTED = json.loads(corpus.OUTCOMES.read_text(encoding="utf-8"))

pytestmark = pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != COMMITTED["python"]
    or getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="the outcomes hold the interpreter's own error texts, recorded on one Python "
    "version under the default 4300-digit int-to-str limit",
)


def test_outcomes_match_the_committed_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # error messages name the input by its relative path
    cases = corpus.inputs()
    assert len(cases) == len({name for name, _ in cases}) >= 500
    assert corpus.inputs_digest(cases) == COMMITTED["inputs_sha256"], "the generator changed"
    changed = []
    for name, data in cases:
        for fmt in corpus.FORMATS:
            code, stdout, stderr = corpus.run(data, fmt)
            assert code in (0, 1, 2), (name, fmt, code)
            if code == 2:
                assert stdout == "" and stderr.startswith("error: "), (name, fmt, stderr)
                assert stderr.count("\n") == 1 and stderr.endswith("\n"), (name, fmt, stderr)
            else:
                assert stderr == "", (name, fmt, stderr)
            if corpus.outcome(code, stdout, stderr) != COMMITTED["outcomes"][name][fmt]:
                changed.append((name, fmt, code))
    assert not changed, f"{len(changed)} outcomes changed, first {changed[:5]}"
    assert sorted(COMMITTED["outcomes"]) == sorted(name for name, _ in cases)
