"""Spans for the traced run, recorded by wrapping package functions.

The traced run replaces each wrap target, a function as bound where the
package calls it, with a wrapper that records a span: its layer name, start,
end and the span that caused it.  Spans stay in memory until the run ends.
A layer's self time is its spans' duration minus the time their child spans
cover, so the self times of one call add up to at most the call's wall time.

A target that a refactor removed or reshaped is reported as absent, with its
name and the reason, and its layer's metrics read zero; the run goes on.
The untraced calls of a run wrap nothing: ``install`` and ``uninstall``
bracket each traced call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

CHECK_KINDS = (
    "intersection-table",
    "canonical-pullback",
    "rank-one-positivity",
    "singular-points",
    "anticanonical-sections",
    "kvv-failure",
    "cone",
)


@dataclass(frozen=True)
class Target:
    """A function to wrap, named by its dotted path.

    ``blowdown.surface.SurfaceModel.intersect`` names a class attribute,
    ``blowdown.scenario.contract`` a module global, and
    ``blowdown.scenario.CHECKS[cone]`` a dictionary item.  A ``count_only``
    target counts calls and records no span, so it leaves its callers' self
    time whole.
    """

    layer: str
    path: str
    count_only: bool = False


TARGETS: tuple[Target, ...] = (
    Target("scenario.parse", "blowdown.scenario.parse_scenario"),
    Target("scenario.build", "blowdown.scenario.Scenario.build"),
    *(
        Target(f"scenario.check.{kind}", f"blowdown.scenario.CHECKS[{kind}]")
        for kind in CHECK_KINDS
    ),
    Target("scenario.report", "blowdown.scenario.Report.to_dict"),
    Target("scenario.report", "blowdown.scenario.scenario_digest"),
    Target("scenario.report", "blowdown.scenario.canonical_json"),
    Target("scenario.report", "blowdown.scenario.exploration_to_dict"),
    Target("surface.blow_up", "blowdown.surface.SurfaceModel.blow_up"),
    Target("surface.intersect", "blowdown.surface.SurfaceModel.intersect"),
    Target("contraction.contract", "blowdown.scenario.contract"),
    Target("contraction.contract", "blowdown.explorer.contract"),
    Target("contraction.classify", "blowdown.contraction.Contraction.classify_singularities"),
    Target("contraction.pullback", "blowdown.contraction.Contraction.pullback"),
    Target("contraction.class_group", "blowdown.contraction.Contraction.class_group"),
    Target("exactlin.definiteness", "blowdown.contraction.is_negative_definite"),
    Target("exactlin.gram_inverse", "blowdown.contraction.invert"),
    Target("exactlin.solve", "blowdown.exactlin.solve_linear", count_only=True),
    Target("exactlin.snf", "blowdown.contraction.smith_normal_form"),
    Target("cohomology.kvv", "blowdown.scenario.verify_kvv_failure"),
    Target("cohomology.h0_anticanonical", "blowdown.scenario.verify_h0_anticanonical_zero"),
    Target("cone.build_cone", "blowdown.scenario.build_cone"),
    Target("explorer.construction", "blowdown.explorer.frobenius_construction"),
)

#: The layer whose last result the run keeps, to count the contraction.
CONTRACT_LAYER = "contraction.contract"


def _resolve(path: str) -> tuple[Any, str, bool]:
    """(owner, key, is_item) of a target; LookupError says what is missing."""
    item = None
    if path.endswith("]"):
        path, item = path[:-1].split("[", 1)
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
            break
        except ImportError:
            continue
    else:
        raise LookupError(f"no module for {path}")
    rest = parts[cut:] if item is not None else parts[cut:-1]
    for name in rest:
        if not hasattr(owner, name):
            raise LookupError(f"{path}: {name} is missing")
        owner = getattr(owner, name)
    if item is not None:
        if not isinstance(owner, dict) or item not in owner:
            raise LookupError(f"{path}[{item}] is missing")
        return owner, item, True
    if not hasattr(owner, parts[-1]):
        raise LookupError(f"{path} is missing")
    return owner, parts[-1], False


class Tracer:
    """Wraps the targets, records spans and counts, and summarises calls."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.absent: dict[str, str] = {}  # target path -> why it was not wrapped
        self.spans: list[list] = []  # [call, id, parent, layer, start_ns, end_ns, peak_bytes]
        self.counts: Counter = Counter()
        self.last_contraction: Any = None
        self.memory = False
        self._stack: list[list] = []
        self._mem_stack: list[list[int]] = []
        self._restore: list[Callable[[], None]] = []
        self._call = -1
        self._call_start = 0

    # -- wrapping ----------------------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            try:
                owner, key, is_item = _resolve(target.path)
            except LookupError as exc:
                self.absent[target.path] = str(exc)
                continue
            raw = owner[key] if is_item else inspect.getattr_static(owner, key)
            if not callable(raw) or isinstance(raw, (staticmethod, classmethod)):
                # a plain-function wrapper would not bind like these do
                self.absent[target.path] = f"{target.path} is not a plain function"
                continue
            wrapper = self._wrap(target, raw)
            if is_item:
                owner[key] = wrapper
                restore = functools.partial(owner.__setitem__, key, raw)
            else:
                if isinstance(owner, type) and key not in vars(owner):  # inherited
                    restore = functools.partial(delattr, owner, key)
                else:
                    restore = functools.partial(setattr, owner, key, raw)
                setattr(owner, key, wrapper)
            self._restore.append(restore)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        layer = target.layer
        if target.count_only:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[layer] += 1
                return fn(*args, **kwargs)

            return counted

        keep = layer == CONTRACT_LAYER

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            record = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(record)
            if keep:
                self.last_contraction = result
            return result

        return spanned

    def _enter(self, layer: str) -> list:
        self.counts[layer] += 1
        parent = self._stack[-1][1] if self._stack else -1
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem_stack:
                self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem_stack.append([current, current])
        record = [self._call, len(self.spans), parent, layer, time.perf_counter_ns(), 0, 0]
        self.spans.append(record)
        self._stack.append(record)
        return record

    def _exit(self, record: list) -> None:
        record[5] = time.perf_counter_ns()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            base, high = self._mem_stack.pop()
            high = max(high, peak)
            tracemalloc.reset_peak()
            if self._mem_stack:
                self._mem_stack[-1][1] = max(self._mem_stack[-1][1], high)
            record[6] = high - base

    # -- calls -------------------------------------------------------------------

    def begin_call(self) -> None:
        self._call += 1
        self._call_start = len(self.spans)
        self.counts = Counter()
        self.last_contraction = None

    def end_call(self) -> dict:
        """Per-layer self seconds, span or call counts, and peak KiB of the
        call that ``begin_call`` opened."""
        spans = self.spans[self._call_start :]
        covered: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        peak_kib: dict[str, float] = {}
        for _, span_id, _, layer, start, end, peak in spans:
            self_ns[layer] += end - start - covered[span_id]
            peak_kib[layer] = max(peak_kib.get(layer, 0.0), peak / 1024)
        return {
            "self_s": {layer: ns / 1e9 for layer, ns in self_ns.items()},
            "calls": dict(self.counts),
            "peak_kib": peak_kib if self.memory else {},
        }

    def write(self, path: str) -> None:
        """All spans of the run as JSON lines:
        [call, id, parent, layer, start_ns, end_ns, peak_bytes]."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def contraction_counts(con: Any) -> tuple[dict[str, int], dict[str, str]]:
    """Size counts of a contraction, read through its public attributes:
    lattice rank, contracted curves, connected blocks of the contracted
    configuration and the largest, and the largest numerator or denominator
    bit length among the canonical pullback corrections.  Returns the counts
    and, for each count that could not be read, the reason."""
    counts: dict[str, int] = {}
    absent: dict[str, str] = {}
    if con is None:
        reason = f"no result from {CONTRACT_LAYER}"
        names = ("surface.rank", "contraction.contracted", "contraction.blocks",
                 "contraction.largest_block", "exactlin.max_coeff_bits")
        return counts, {name: reason for name in names}
    try:
        model = con.source
        counts["surface.rank"] = int(model.rank)
    except (AttributeError, TypeError) as exc:
        absent["surface.rank"] = f"contraction.source.rank: {exc}"
    try:
        names = list(con.contracted)
        counts["contraction.contracted"] = len(names)
        root = list(range(len(names)))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        for i, a in enumerate(names):
            for j in range(i + 1, len(names)):
                if con.source.intersect(a, names[j]) != 0:
                    root[find(i)] = find(j)
        sizes = Counter(find(i) for i in range(len(names)))
        counts["contraction.blocks"] = len(sizes)
        counts["contraction.largest_block"] = max(sizes.values(), default=0)
    except (AttributeError, TypeError) as exc:
        for key in ("contraction.contracted", "contraction.blocks", "contraction.largest_block"):
            absent.setdefault(key, f"contraction.contracted / source.intersect: {exc}")
    try:
        model = con.source
        canonical = con.pullback(con.pushforward(model.canonical_divisor()))
        bits = 0
        for name in con.contracted:
            c = canonical.coefficient(name)
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        counts["exactlin.max_coeff_bits"] = bits
    except (AttributeError, TypeError) as exc:
        absent["exactlin.max_coeff_bits"] = f"canonical pullback: {exc}"
    return counts, absent
