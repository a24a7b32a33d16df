"""The explorer's closed forms at scale, through `python -m blowdown explore`.

For the (p, n) member the anticanonical degree is 2/(n-2) + 2 - p, and the
census is n x 1/p(1,1) (the fibres), n x 1/p(1,p-1) (the (-2)-chains) and
one 1/(p(n-2))(1,1) (the curve C); at n = 3 and p = 1000 the curve, the
fibres and the chains give 1/1000(1,1) four times and 1/1000(1,999) three
times.  Each member runs in about a second only while construction, pairing
and contraction cost O(support) and chains are eliminated in O(k); the
subprocess timeout is a guard against a hang, not a measurement.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def explore(p, n):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "blowdown", "explore", "--p", str(p), "--points", str(n),
         "--format", "json"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
        timeout=30,
    )
    return json.loads(result.stdout)


@pytest.mark.parametrize(
    "p, n, degree, census",
    [
        (11, 11, "-79/9", [[11, 1, 11], [11, 10, 11], [99, 1, 1]]),  # rank 123
        (5, 200, "-296/99", [[5, 1, 200], [5, 4, 200], [990, 1, 1]]),  # rank 1002
        (5, 2000, "-2996/999", [[5, 1, 2000], [5, 4, 2000], [9990, 1, 1]]),  # rank 10002
        (1000, 3, "-996", [[1000, 1, 4], [1000, 999, 3]]),  # rank 3002, 999-curve chains
    ],
)
def test_explorer_closed_forms(p, n, degree, census):
    report = explore(p, n)
    assert report["anticanonical_degree"] == degree
    assert report["census"] == census
    assert report["target_rank"] == 1
