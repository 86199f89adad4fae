"""Spans and counts at citysim's layer boundaries, recorded from outside.

The tracer rebinds names that citysim's modules look up at call time to
timing wrappers; no file under src/ changes. Untraced runs wrap only the
boundaries the end-to-end metrics need (the command, engine.run, the output
writer and the pool's member list), each called a handful of times per run.
Traced runs also wrap every layer call that engine.run makes.

Spans stay in memory. A forked pool worker starts a fresh record and
appends it to a file in the spill directory after each top-level span, so
the parent process can merge member spans from its workers.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path

_clock = time.perf_counter

RUN = "engine.run"


def _count_rank(counts, args, result):
    counts["matching.rank.items"] += args[0].size + args[1].size
    counts["matching.pairs"] += len(result[0])


def _count_assign(counts, args, result):
    counts["matching.assign.cells"] += args[0].size
    counts["matching.pairs"] += len(result[0])


def _cells(key):
    def count(counts, args, result):
        counts[key] += result.size

    return count


def _count_born(counts, args, result):
    counts["demographics.born.children"] += result.shape[0]


def _count_draws(counts, args, result):
    counts["engine.noise.draws"] += getattr(result, "size", 1)


def _count_bytes(counts, args, result):
    # summary.json is left out: its "meta" block holds wall-clock values, so
    # its size may differ between runs that are otherwise byte-identical.
    sizes = (Path(p).stat().st_size for p in result if Path(p).name != "summary.json")
    counts["engine.write.bytes"] += sum(sizes)


# Names citysim.engine imports or defines, with the span each call records.
ENGINE_SPANS = {
    "rank_pair_indices": ("matching.rank", _count_rank),
    "expected_pair_weights": ("matching.weights", _cells("matching.weights.cells")),
    "grid_distances": ("matching.distance", _cells("matching.distance.cells")),
    "linear_sum_assignment": ("matching.assign", _count_assign),
    "born_batch": ("demographics.born", _count_born),
    "init_population": ("engine.init", None),
    "write_population_csv": ("engine.write.population_csv", None),
}


class _TracedGenerator:
    """A named_stream generator whose draws pass through unchanged.

    Only `normal` calls made directly inside engine.run are timed: the
    founding draws init_population makes belong to the engine.init span.
    """

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer
        self._traced_normal = tracer.wrap("engine.noise", gen.normal, _count_draws)

    def normal(self, *args, **kwargs):
        if self._tracer.innermost() == RUN:
            return self._traced_normal(*args, **kwargs)
        return self._gen.normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self, detail: bool, spill_dir: Path):
        self.detail = detail
        self.spill_dir = Path(spill_dir)
        self.owner = self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.members: list = []  # (config, log) for each engine.run of cli._run_many

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:  # first call in a forked pool worker
                self.pid = os.getpid()
                self.spans, self.stack, self.counts = [], [], Counter()
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                self.stack.pop()
                self.spans[idx][1:3] = start, end
            if count is not None:
                count(self.counts, args, result)
            if not self.stack and self.pid != self.owner:
                self._spill()
            return result

        return traced

    def _rebind(self, owner, attr, span, count=None):
        if not hasattr(owner, attr):
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self.wrap(span, getattr(owner, attr), count))

    def install(self, engine, cli) -> None:
        def keep_members(counts, args, result):
            self.members.extend(zip(args[0], result))

        self._rebind(cli, "simulate_scenario", "cli.command")
        self._rebind(cli, "compare_matching", "cli.command")
        self._rebind(cli, "_run_many", "cli.members", keep_members)
        self._rebind(cli, "run", RUN)
        self._rebind(cli, "write_run_outputs", "engine.write", _count_bytes)
        self._rebind(engine, "write_run_outputs", "engine.write", _count_bytes)
        if not self.detail:
            return
        for attr, (span, count) in ENGINE_SPANS.items():
            self._rebind(engine, attr, span, count)
        self._rebind(engine.TimeSeriesLog, "write_csv", "engine.write.log_csv")
        self._rebind(engine.TimeSeriesLog, "write_grid_csv", "engine.write.grid_csv")
        if hasattr(engine, "named_stream"):
            real = engine.named_stream
            engine.named_stream = lambda seed, name: _TracedGenerator(real(seed, name), self)
        else:
            self.absent.append("citysim.engine.named_stream")

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self.spans, self.counts = [], Counter()

    def merge_spills(self) -> None:
        """Fold the records forked workers spilled into this process's record."""
        if not self.spill_dir.is_dir():
            return
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                chunk = json.loads(line)
                base = len(self.spans)
                for name, start, end, parent in chunk["spans"]:
                    self.spans.append([name, start, end, parent + base if parent >= 0 else -1])
                self.counts.update(chunk["counts"])

    def summary(self) -> dict:
        """Busy time and call count per span name, the exact counts, and the
        time engine.run spans spent in their direct children."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
        runs = {i for i, span in enumerate(self.spans) if span[0] == RUN}
        children = sum(end - start for _, start, end, parent in self.spans if parent in runs)
        return {
            "busy": dict(busy),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "run_children_s": children,
            "absent": self.absent,
        }
