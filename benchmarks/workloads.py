"""The benchmark's workloads: one call each, and an oracle for its output.

Every workload drives a public entry point of ``blowdown`` the way a user of
the library or of the ``blowdown`` command does:

  repro    run_repro() plus the canonical JSON of its report
  explore  explore_frobenius(5, 5) plus the canonical JSON of the exploration
  tower    load_scenario(path) + run_scenario() + report JSON on a generated
           (p, n) = (3, 16) blow-up tower with an empty contraction

The sizes keep each call within a few tenths of a second, so that the host
probes around a call track the host's speed during it (README.md, "Sandbox
limits").

The package functions are looked up through their modules at call time, so
the traced run sees the calls it wraps.  Oracles never reuse the program's
own output as the expectation: repro compares with the committed golden
report, explore with closed forms and with the canonical JSON recorded when
the benchmark was written, tower with closed-form intersection numbers.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("repro", "explore", "tower")

#: Explorer parameters of the ``explore`` workload.
EXPLORE_P, EXPLORE_N = 5, 5
EXPLORE_GOLDEN = os.path.join(BENCH_DIR, "data", "explore-p5-n5.json")

#: Tower parameters of the ``tower`` workload: rank 2 + p*n = 50.
TOWER_P, TOWER_N = 3, 16

REPRO_GOLDEN = os.path.join(
    os.path.dirname(BENCH_DIR), "src", "blowdown", "data", "keel-mckernan-p3.expected.json"
)


# -- the tower scenario ---------------------------------------------------------


def tower_curve_name(point: int, level: int) -> str:
    """Exceptional curve blown up at ``level`` (1..p) over fibre ``point``."""
    return f"E{point}_{level}"


def tower_expectations(p: int, n: int) -> list[tuple[str, str, int]]:
    """Closed-form intersection numbers on the (p, n) tower.

    The curve C of class (1, p) meets each fibre F_i of class (1, 0) in one
    point to order p; p blow-ups at the moving point separate them.  With
    e_1..e_p the exceptional classes over F_i, the tracked classes are
    C = (1, p) - sum of all e, F_i = (1, 0) - e_1 - ... - e_p,
    E_k = e_k - e_{k+1} for k < p and E_p = e_p, so

      C^2 = 2p - np = p(2 - n),  F_i^2 = -p,
      E_k^2 = -2 (k < p),  E_p^2 = -1,  E_k.E_{k+1} = 1,
      F_i.E_p = 1,  C.E_p = 1,  C.F_i = p - p = 0.
    """
    entries = [("C", "C", p * (2 - n))]
    for i in range(1, n + 1):
        fibre = f"F{i}"
        last = tower_curve_name(i, p)
        entries.append((fibre, fibre, -p))
        for k in range(1, p + 1):
            name = tower_curve_name(i, k)
            entries.append((name, name, -2 if k < p else -1))
            if k < p:
                entries.append((name, tower_curve_name(i, k + 1), 1))
        entries.append((fibre, last, 1))
        entries.append(("C", last, 1))
        entries.append(("C", fibre, 0))
    return entries


def tower_scenario(seed: int, p: int = TOWER_P, n: int = TOWER_N) -> dict:
    """Scenario JSON for the (p, n) tower; the seed only orders the table."""
    blowups = []
    for i in range(1, n + 1):
        for k in range(1, p + 1):
            incident = [{"curve": "C", "mult": 1}, {"curve": f"F{i}", "mult": 1}]
            if k > 1:
                incident.append({"curve": tower_curve_name(i, k - 1), "mult": 1})
            blowups.append({"name": tower_curve_name(i, k), "incident": incident})
    entries = [{"a": a, "b": b, "expect": value} for a, b, value in tower_expectations(p, n)]
    random.Random(seed).shuffle(entries)
    return {
        "schema": "blowdown-scenario/1",
        "name": f"bench-tower-p{p}-n{n}",
        "base": "quadric",
        "curves": [{"name": "C", "class": [1, p]}]
        + [{"name": f"F{i}", "class": [1, 0]} for i in range(1, n + 1)],
        "blowups": blowups,
        "contraction": [],
        "divisors": {},
        "checks": [{"kind": "intersection-table", "entries": entries}],
    }


def write_tower_scenario(seed: int, directory: str) -> str:
    path = os.path.join(directory, f"tower-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tower_scenario(seed), handle, indent=1, sort_keys=True)
    return path


# -- calls and oracles --------------------------------------------------------------


@dataclass
class Workload:
    """One workload: ``call()`` returns the output text, ``check(text)``
    returns None when it is correct and otherwise the reason it is not."""

    call: Callable[[], str]
    check: Callable[[str], str | None]


def make_workload(name: str, tower_path: str | None = None) -> Workload:
    """Build a workload; imports ``blowdown``, so run it after set-up."""
    from blowdown import explorer, scenario

    if name == "repro":
        with open(REPRO_GOLDEN, encoding="utf-8") as handle:
            golden = handle.read()

        def call() -> str:
            return scenario.canonical_json(scenario.run_repro().to_dict())

        def check(text: str) -> str | None:
            return None if text == golden else "report differs from the golden report"

        return Workload(call, check)

    if name == "explore":
        with open(EXPLORE_GOLDEN, encoding="utf-8") as handle:
            golden = handle.read()
        p, n = EXPLORE_P, EXPLORE_N
        degree = Fraction(2, n - 2) + 2 - p
        # n points 1/p(1,1) on the fibres, n points 1/p(1,p-1) on the
        # A_{p-1} chains, one point 1/(p(n-2))(1,1) on C; q is reported as
        # the smaller of q and its inverse mod the order.
        census = sorted([[p, 1, n], [p, min(p - 1, pow(p - 1, -1, p)), n], [p * (n - 2), 1, 1]])

        def call() -> str:
            exploration = explorer.explore_frobenius(p, n)
            return scenario.canonical_json(scenario.exploration_to_dict(exploration))

        def check(text: str) -> str | None:
            data = json.loads(text)
            if Fraction(data["anticanonical_degree"]) != degree:
                return f"degree {data['anticanonical_degree']} != {degree}"
            if sorted(data["census"]) != census:
                return f"census {data['census']} != {census}"
            return None if text == golden else "exploration differs from the recorded JSON"

        return Workload(call, check)

    if name == "tower":
        if tower_path is None:
            raise ValueError("the tower workload needs its scenario path")
        expected = {(a, b): Fraction(v) for a, b, v in tower_expectations(TOWER_P, TOWER_N)}

        def call() -> str:
            report = scenario.run_scenario(scenario.load_scenario(tower_path))
            return scenario.canonical_json(report.to_dict())

        def check(text: str) -> str | None:
            data = json.loads(text)
            if not data["passed"]:
                return f"report failed: {data['first_failure']}"
            rows = data["checks"][0]["details"]["entries"]
            got = {(r["a"], r["b"]): Fraction(r["value"]) for r in rows}
            if got != expected:
                return "intersection table differs from the closed forms"
            return None

        return Workload(call, check)

    raise ValueError(f"unknown workload {name!r}")


#: Probe seconds that define one reference-host second.  Every time metric
#: is reported as measured seconds x PROBE_REF_S / (probe seconds around the
#: measurement), so it reads as if the host ran the probe in PROBE_REF_S.
#: The host's speed changes by about 2x for minutes at a time (see
#: README.md); the raw times are printed in the table beside the metrics.
PROBE_REF_S = 0.003
#: Repeats of the probe's loop: long enough to average out the host's
#: millisecond-scale changes, short beside one call of any workload.
PROBE_ROUNDS = 5


def host_probe() -> float:
    """Seconds of fixed stdlib ``Fraction`` work, about 3 ms on a fast host.
    It never imports ``blowdown``, so its time tracks the host alone."""
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        acc = Fraction(0)
        for i in range(1, 250):
            acc += Fraction(1, i)
    return time.perf_counter() - start


def on_reference_host(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, in
    reference-host seconds."""
    return seconds * PROBE_REF_S / probe_s
