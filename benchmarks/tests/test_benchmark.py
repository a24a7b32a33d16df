"""Tests of the benchmark itself.

  python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from blowdown.scenario import parse_scenario, run_scenario  # noqa: E402
from spans import TARGETS, Target, Tracer, contraction_counts  # noqa: E402
from workloads import (  # noqa: E402
    REPRO_GOLDEN,
    TOWER_N,
    TOWER_P,
    make_workload,
    tower_curve_name,
    tower_expectations,
    tower_scenario,
)


# -- the tower generator --------------------------------------------------------


def _lattice_pairing(p: int, n: int):
    """Classes of the tower's curves as explicit vectors on the quadric
    blown up p*n times, paired with Gram (0 1; 1 0) + (-1)^(pn)."""
    rank = 2 + p * n

    def e(i: int, k: int) -> int:
        return 2 + (i - 1) * p + (k - 1)

    classes = {"C": [1, p] + [-1] * (p * n)}
    for i in range(1, n + 1):
        fibre = [1, 0] + [0] * (p * n)
        for k in range(1, p + 1):
            fibre[e(i, k)] = -1
            vec = [0] * rank
            vec[e(i, k)] = 1
            if k < p:
                vec[e(i, k + 1)] = -1
            classes[tower_curve_name(i, k)] = vec
        classes[f"F{i}"] = fibre

    def pair(a: str, b: str) -> int:
        u, v = classes[a], classes[b]
        return u[0] * v[1] + u[1] * v[0] - sum(x * y for x, y in zip(u[2:], v[2:]))

    return pair


@pytest.mark.parametrize("p,n", [(3, 40), (2, 3), (4, 5)])
def test_tower_expectations_match_the_lattice(p, n):
    pair = _lattice_pairing(p, n)
    entries = tower_expectations(p, n)
    assert len(entries) == 1 + n * (2 * p + 3)
    for a, b, value in entries:
        assert pair(a, b) == value, (a, b)
    assert ("C", "C", p * (2 - n)) in entries


def test_tower_scenario_parses_and_seed_only_orders_the_table():
    raw = tower_scenario(7)
    scenario = parse_scenario(raw)
    assert len(scenario.blowups) == TOWER_P * TOWER_N and scenario.contraction == ()
    other = tower_scenario(8)["checks"][0]["entries"]
    entries = raw["checks"][0]["entries"]
    assert entries != other
    key = lambda e: (e["a"], e["b"])  # noqa: E731
    assert sorted(entries, key=key) == sorted(other, key=key)


def test_small_tower_passes_in_the_program():
    report = run_scenario(parse_scenario(tower_scenario(1, p=4, n=5)))
    assert report.passed


# -- the traced run ---------------------------------------------------------------


def _traced_repro_call():
    workload = make_workload("repro")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_call()
        start = time.perf_counter()
        text = workload.call()
        wall_s = time.perf_counter() - start
        layers = tracer.end_call()
    finally:
        tracer.uninstall()
    return workload, tracer, text, layers, wall_s


def test_traced_repro_report_is_byte_identical():
    workload, _, traced_text, _, _ = _traced_repro_call()
    untraced_text = workload.call()
    with open(REPRO_GOLDEN, encoding="utf-8") as handle:
        golden = handle.read()
    assert traced_text == untraced_text == golden


def test_self_times_sum_to_at_most_the_wall_time():
    _, tracer, _, layers, wall_s = _traced_repro_call()
    assert not tracer.absent
    assert all(v >= 0 for v in layers["self_s"].values())
    assert 0 < sum(layers["self_s"].values()) <= wall_s
    assert layers["calls"]["scenario.build"] == 1


def test_uninstall_restores_every_target():
    from blowdown import contraction, scenario, surface

    before = (
        surface.SurfaceModel.intersect,
        contraction.invert,
        dict(scenario.CHECKS),
        "intersect" in vars(surface.SurfaceModel),
    )
    _traced_repro_call()
    after = (
        surface.SurfaceModel.intersect,
        contraction.invert,
        dict(scenario.CHECKS),
        "intersect" in vars(surface.SurfaceModel),
    )
    assert before == after


def test_missing_targets_are_reported_absent():
    missing = (
        Target("exactlin.gram_inverse", "blowdown.contraction.no_such_function"),
        Target("surface.intersect", "blowdown.surface.NoSuchClass.intersect"),
        Target("scenario.check.cone", "blowdown.scenario.CHECKS[no-such-kind]"),
        Target("exactlin.snf", "blowdown.no_such_module.smith_normal_form"),
    )
    tracer = Tracer(TARGETS + missing)
    tracer.install()
    try:
        tracer.begin_call()
        text = make_workload("repro").call()
        tracer.end_call()
    finally:
        tracer.uninstall()
    assert set(tracer.absent) == {t.path for t in missing}
    assert all(reason for reason in tracer.absent.values())
    with open(REPRO_GOLDEN, encoding="utf-8") as handle:
        assert text == handle.read()


def test_contraction_counts_of_the_reference_scenario():
    _, tracer, _, _, _ = _traced_repro_call()
    counts, absent = contraction_counts(tracer.last_contraction)
    assert not absent
    assert counts == {
        "surface.rank": 11,
        "contraction.contracted": 10,
        "contraction.blocks": 7,
        "contraction.largest_block": 2,
        "exactlin.max_coeff_bits": 2,
    }
    assert set(contraction_counts(None)[1]) == set(counts)


# -- the command ------------------------------------------------------------------


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[key]}
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "repro",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert any(line.split()[:1] == ["failed_ratio"] for line in lines)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_failures_are_counted_not_raised():
    from worker import Loop

    loop = Loop("repro", None)

    def broken() -> str:
        raise ValueError("boom")

    loop.workload.call = broken
    assert loop.call() is None
    loop.workload.call = lambda: "not the golden report"
    assert loop.call() is None
    assert (loop.attempted, loop.failed) == (2, 2)
    assert loop.errors == ["ValueError: boom", "report differs from the golden report"]


def test_each_timed_call_carries_the_probes_around_it():
    from worker import Loop

    loop = Loop("repro", None)
    seconds, probe_s = loop.call()
    assert seconds > 0 and len(loop.probe_s) == 2
    assert probe_s == (loop.probe_s[0] + loop.probe_s[1]) / 2
