"""Benchmark of the blowdown package: end-to-end and per-layer metrics.

  python3 benchmarks/run.py --workload repro|explore|tower --seed N \\
      --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src``.  Each run starts fresh interpreters one at a time (one
process and one thread do work at any moment) and calls the workload in a
closed loop: each call starts when the previous one has returned.  Every
output is checked by the workload's oracle.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print the same metrics as a table.

--trace 0 measures what a user sees (set-up, first call, warm calls, peak
memory) with nothing wrapped.  Every time sample is normalised by the host
probes taken just before and just after it (``on_reference_host`` in
workloads.py), because the shared host's speed changes by about 2x for
minutes at a time; the table prints the measured medians beside them.  --trace 1 measures the layers: it wraps the
package functions named in spans.py around alternate calls and reports
their self times and counts, the memory peaks of contraction and build, the
split of import time, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spans import CONTRACT_LAYER, TARGETS
from workloads import PROBE_REF_S, WORKLOADS, host_probe, on_reference_host, write_tower_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "benchmarks", "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_build")

#: Seconds of calls given to each fresh worker process of an end-to-end
#: run; workers follow one another until the run's time is spent, and each
#: gives one first call and at least one warm call.
SLICE_S = 1.5
#: Fresh interpreters timed for set-up in a traced run; an end-to-end run
#: times one before each worker.
SETUP_SAMPLES = 12
#: No run may take longer than this, set-up and children included.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("first_call_s", "s"),
    ("call_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

SPAN_LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS if not t.count_only))
CALL_COUNTS = (
    ("scenario.build_calls", "scenario.build"),
    ("surface.blow_up_calls", "surface.blow_up"),
    ("surface.intersect_calls", "surface.intersect"),
    ("contraction.pullback_calls", "contraction.pullback"),
    ("exactlin.solve_calls", "exactlin.solve"),
)
STRUCT_COUNTS = (
    ("surface.rank", "count"),
    ("contraction.contracted", "count"),
    ("contraction.blocks", "count"),
    ("contraction.largest_block", "count"),
    ("exactlin.max_coeff_bits", "bits"),
)
MEMORY_PEAKS = (
    ("contraction.contract_peak_kib", (CONTRACT_LAYER,)),
    ("surface.build_peak_kib", ("scenario.build", "explorer.construction")),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Run:
    """Starts the child processes of one run and keeps it within its limit."""

    def __init__(self) -> None:
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, argv: list[str]) -> subprocess.CompletedProcess:
        timeout = RUN_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("run limit reached")
        try:
            proc = subprocess.run(
                [sys.executable, *argv],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {argv[:3]} exceeded the run limit") from None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"child {argv[:3]} exited with code {proc.returncode}")
        return proc

    def import_time(self, importtime: bool = False) -> tuple[float, float, float]:
        """Seconds from process start until ``import blowdown.cli`` returns,
        (with -X importtime) the self import time of blowdown modules, and
        the mean of the host probes just before and just after."""
        flags = ["-X", "importtime"] if importtime else []
        before = host_probe()
        start = time.monotonic()
        proc = self.child([*flags, "-c", "import time, blowdown.cli; print(time.monotonic())"])
        setup = float(proc.stdout.split()[-1]) - start
        after = host_probe()
        own_us = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and fields[-1].strip().startswith("blowdown"):
                own_us += int(fields[0].split(":")[1])
        return setup, own_us / 1e6, (before + after) / 2

    def worker(self, workload: str, budget: float, mode: str, tower: str | None, seed: int) -> dict:
        argv = [WORKER, "--workload", workload, "--budget", f"{budget:.3f}", "--mode", mode]
        if tower is not None:
            argv += ["--tower", tower]
        if mode == "trace":
            argv += ["--spans", os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")]
        proc = self.child(argv)
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> str:
    """The highest of the 90th, 99th and 99.9th percentiles with at least
    ten samples beyond it (nearest rank), with the sample count."""
    n = len(samples)
    for permille in (999, 990, 900):
        rank = -(-permille * n // 1000)  # nearest rank, exact in integers
        if n - rank >= 10:
            return f"p{permille / 10:g} {sorted(samples)[rank - 1]:.6f} s (n={n})"
    return f"no tail percentile has ten samples beyond it (n={n})"


def end_to_end(run: Run, workload: str, seconds: int, tower: str | None, seed: int):
    run.import_time()  # fills the bytecode cache; users do not pay that per call
    setups: list[list[float]] = []
    workers: list[dict] = []
    round_s = 0.0
    while len(workers) < 2 or run.elapsed() + round_s <= seconds:
        # set-up samples are spread over the run, like the first calls
        start = run.elapsed()
        setup, _, probe = run.import_time()
        setups.append([setup, probe])
        workers.append(run.worker(workload, SLICE_S, "e2e", tower, seed))
        round_s = run.elapsed() - start
    firsts = [w["first"] for w in workers if w["first"] is not None]
    calls = [timed for w in workers for timed in w["calls"]]
    if not firsts or not calls:
        raise BenchError("no call succeeded: " + "; ".join(e for w in workers for e in w["errors"]))
    samples = {"setup_s": setups, "first_call_s": firsts, "call_p50_s": calls}
    metrics = {
        name: statistics.median(on_reference_host(*timed) for timed in timed_list)
        for name, timed_list in samples.items()
    }
    metrics["peak_rss_mb"] = statistics.median(w["peak_rss_kib"] for w in workers) / 1024
    raw_calls = [s for s, _ in calls]
    notes = [
        f"{name}: median of {len(timed_list)}; measured median "
        f"{statistics.median(s for s, _ in timed_list):.6f} s"
        for name, timed_list in samples.items()
    ]
    notes.append(f"warm calls, measured: {tail(raw_calls)}")
    return workers, {name: (metrics[name], unit) for name, unit in END_TO_END}, notes


def traced(run: Run, workload: str, seconds: int, tower: str | None, seed: int):
    run.import_time(importtime=True)  # fills the bytecode cache
    imports = [run.import_time(importtime=True) for _ in range(SETUP_SAMPLES)]
    w = run.worker(workload, max(seconds - run.elapsed(), 1.0), "trace", tower, seed)
    if not w["traced"] or not w["untraced"]:
        raise BenchError("no traced call succeeded: " + "; ".join(w["errors"]))
    calls = w["traced"]
    metrics: dict[str, tuple[float, str]] = {}
    notes: list[str] = []

    def exact(name: str, values: list[int], unit: str) -> None:
        if len(set(values)) > 1:
            notes.append(f"{name}: count differs between calls: {sorted(set(values))}")
        metrics[name] = (statistics.median_low(values), unit)

    layer_of = {t.path: t.layer for t in TARGETS}
    for path, reason in w["absent"].items():
        notes.append(f"{layer_of[path]}: absent: {reason}")
    for layer in SPAN_LAYERS:
        metrics[f"{layer}_s"] = (
            statistics.median(
                on_reference_host(c["self_s"].get(layer, 0.0), c["timed"][1]) for c in calls
            ),
            "s",
        )
    for name, layer in CALL_COUNTS:
        exact(name, [c["calls"].get(layer, 0) for c in calls], "count")
    for name, unit in STRUCT_COUNTS:
        reasons = {c["struct_absent"][name] for c in calls if name in c["struct_absent"]}
        if reasons:
            notes.append(f"{name}: absent: {'; '.join(sorted(reasons))}")
        exact(name, [c["struct"].get(name, 0) for c in calls], unit)
    for name, layers in MEMORY_PEAKS:
        metrics[name] = (max(w["peak_kib"].get(layer, 0.0) for layer in layers), "KiB")
    metrics["import.blowdown_s"] = (
        statistics.median(on_reference_host(b, p) for _, b, p in imports), "s"
    )
    metrics["import.other_s"] = (
        statistics.median(on_reference_host(s - b, p) for s, b, p in imports), "s"
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(on_reference_host(*c["timed"]) for c in calls)
        / statistics.median(on_reference_host(*timed) for timed in w["untraced"]),
        "ratio",
    )
    metrics["host.probe_s"] = (statistics.median(w["probe_s"]), "s")
    notes.insert(0, f"{len(calls)} traced and {len(w['untraced'])} untraced warm calls")
    return [w], metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    run = Run()
    try:
        if not os.path.isfile(os.path.join(SRC, "blowdown", "__init__.py")):
            raise BenchError(f"no blowdown package under {SRC}")
        os.makedirs(OUT_DIR, exist_ok=True)
        tower = write_tower_scenario(args.seed, OUT_DIR) if args.workload == "tower" else None
        measure = traced if args.trace else end_to_end
        workers, metrics, notes = measure(run, args.workload, args.seconds, tower, args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    probes = [s for w in workers for s in w["probe_s"]]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6f} {unit}")
    print(f"  {'failed_ratio':<40} {failed / attempted:>14.6f} ratio ({failed}/{attempted})")
    print(
        f"  host probe: median {statistics.median(probes) * 1e3:.3f} ms, {len(probes)} probes;"
        f" times are in seconds of a host whose probe takes {PROBE_REF_S * 1e3:g} ms"
    )
    for note in notes:
        print(f"  {note}")
    for error in sorted({e for w in workers for e in w["errors"]}):
        print(f"  failure: {error}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
