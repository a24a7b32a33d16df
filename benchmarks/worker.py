"""One fresh process of a benchmark run.

run.py starts this script with ``src`` on PYTHONPATH, one process at a time.
It imports ``blowdown.cli`` as the command does, makes a first call, then
calls the workload in a closed loop on one thread until its budget is spent,
and prints one JSON object with what it measured.  A host probe runs
before the first call and after every call; each timed call is reported as
[seconds, probe seconds], the probe time being the mean of the probes just
before and just after it.

  e2e    time the first call and every warm call; nothing is wrapped
  trace  alternate untraced and traced calls after the first, then make one
         traced call under tracemalloc for the memory peaks; spans go to
         the --spans file
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import tracemalloc

import blowdown.cli  # noqa: F401  (the set-up every command invocation pays)

from spans import Tracer, contraction_counts
from workloads import host_probe, make_workload


class Loop:
    """Closed-loop calls of one workload, with their oracle and host probe."""

    def __init__(self, workload_name: str, tower_path: str | None):
        self.workload = make_workload(workload_name, tower_path)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.probe_s: list[float] = [host_probe()]

    def call(self) -> list[float] | None:
        """[seconds, probe seconds] of one call, or None when it raised or
        its output is wrong.  The oracle and the probe run after the clock
        stops."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = self.workload.call()
        except Exception as exc:  # counted as a failure; the run goes on
            elapsed, reason = None, f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            reason = self.workload.check(output)
            del output
        if reason is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(reason)
            elapsed = None
        self.probe_s.append(host_probe())
        if elapsed is None:
            return None
        return [elapsed, (self.probe_s[-2] + self.probe_s[-1]) / 2]

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "probe_s": self.probe_s,
        }


def run_e2e(loop: Loop, deadline: float) -> dict:
    first = loop.call()
    warm: list[list[float]] = []
    last = first[0] if first else 0.0
    while loop.attempted < 2 or time.monotonic() + last <= deadline:
        timed = loop.call()
        if timed is not None:
            warm.append(timed)
            last = timed[0]
    out = loop.summary()
    out.update(
        first=first,
        calls=warm,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return out


def traced_call(loop: Loop, tracer: Tracer) -> dict:
    tracer.install()
    try:
        tracer.begin_call()
        timed = loop.call()
        layers = tracer.end_call()
    finally:
        tracer.uninstall()
    counts, absent = contraction_counts(tracer.last_contraction)
    tracer.last_contraction = None
    layers.update(timed=timed, struct=counts, struct_absent=absent)
    return layers


def run_trace(loop: Loop, deadline: float, spans_path: str) -> dict:
    tracer = Tracer()
    loop.call()  # the first call pays one-time costs; it is left out
    untraced: list[list[float]] = []
    traced: list[dict] = []
    pairs, last = 0, 0.0
    while pairs == 0 or time.monotonic() + last <= deadline:
        pairs += 1
        pair_start = time.monotonic()
        timed = loop.call()
        if timed is not None:
            untraced.append(timed)
        call = traced_call(loop, tracer)
        if call["timed"] is not None:
            traced.append(call)
        last = time.monotonic() - pair_start
    gc.collect()  # the peaks then do not depend on how much garbage earlier calls left
    tracer.memory = True
    tracemalloc.start()
    try:
        memory = traced_call(loop, tracer)
    finally:
        tracemalloc.stop()
        tracer.memory = False
    tracer.write(spans_path)
    out = loop.summary()
    out.update(
        untraced=untraced,
        traced=traced,
        peak_kib=memory["peak_kib"],
        absent=tracer.absent,
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of calls")
    parser.add_argument("--mode", choices=("e2e", "trace"), required=True)
    parser.add_argument("--tower", default=None, help="scenario file of the tower workload")
    parser.add_argument("--spans", default=None, help="where the trace mode writes its spans")
    args = parser.parse_args(argv)
    loop = Loop(args.workload, args.tower)
    deadline = time.monotonic() + args.budget
    if args.mode == "e2e":
        out = run_e2e(loop, deadline)
    else:
        out = run_trace(loop, deadline, args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
