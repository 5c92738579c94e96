"""The three benchmark workloads and the closed-loop measurement around them.

Each workload prepares its inputs in ``setup`` and then yields *rounds*:
lists of batches whose mix of problems and methods is the same in every
round.  The measurement stops only at a round boundary, so a run's
throughput does not depend on where the clock ran out.  Inputs are never
repeated within a run: when a workload's rounds run out before the time
does, the run measures less time instead of replaying inputs a cache could
remember.  Every batch is what ``symchain run`` followed by ``symchain
eval`` costs: ``run_batch``, then ``write_records``, ``read_records``,
``build_report`` and ``render_report``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from symchain import corpus, evalkit, fixtures, pipeline
from symchain.corpus import MiniCorpus, Problem
from symchain.fixtures import ScriptedCorpusBackend
from symchain.gateway import (
    Backend, CachingBackend, CompletionCache, HttpBackend, ReplayBackend, ScriptedBackend,
)
from symchain.pipeline import Method, RunConfig

from . import gate
from .generators import baseline_problems, engine_cycle, merge_corpora, rename_copies
from .modelserver import ModelServer
from .tracing import Tracer


@dataclass
class Batch:
    problems: list[Problem]
    method: Method
    reference: Optional[list[bytes]] = None  # scripted-pass record digests, replay only


@dataclass
class Totals:
    """What a measured region did: only the batch pipeline is on the clock."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    records: int = 0
    correct: int = 0
    errors: int = 0
    failures: dict = field(default_factory=dict)
    rounds: list = field(default_factory=list)  # per round: (records, wall_s, cpu_s) per batch


class Workload:
    name = ""
    why = ""
    parallelism = 1
    setups = 5  # full set-ups per untraced run; setup_s is their median
    # True when state the program keeps (a cache directory) grows from round
    # to round: the best round then comes from the later half of the rounds,
    # where that state is largest, so it does not favour the early rounds
    state_grows = False
    baseline: Optional[Batch] = None  # extra problems a traced run times once

    def __init__(self, seed: int, workdir: Path, tracer: Optional[Tracer] = None):
        """``workdir`` is an empty directory the workload owns for the run."""
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.config = RunConfig(parallelism=self.parallelism)
        self.gateway: Backend = None  # the outermost backend
        self.setup_failures: dict[str, str] = {}

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def setup(self) -> None:
        raise NotImplementedError

    def load_problems(self, problems: list[Problem]) -> dict[str, Problem]:
        """Round-trip the inputs through a normalized data file, the way
        ``symchain run --data-file`` reads them; returns them by id."""
        path = self.workdir / "problems.jsonl"
        path.write_text(corpus.dump_problems(problems), encoding="utf-8")
        with self.span("corpus.load_normalized"):
            loaded = corpus.load_normalized(path)
        if loaded.errors:
            self.setup_failures["corpus"] = f"load_normalized errors: {loaded.errors[:3]}"
        return {p.id: p for p in loaded.problems}

    def rounds(self) -> Iterator[list[Batch]]:
        raise NotImplementedError

    def excluded_cpu_s(self) -> float:
        """CPU time spent by the benchmark's own stand-ins (the model server)."""
        return 0.0

    def round_failures(self, batches: list[Batch]) -> dict[str, str]:
        return {}

    def trace_gateway(self, tracer: Tracer) -> None:
        tracer.wrap_instance(self.gateway, "complete", "gateway.complete")

    def run_batch(self, batch: Batch, records_path: Path, totals: Totals) -> None:
        golds = {p.id: p.gold for p in batch.problems}
        wall, cpu = time.perf_counter(), time.process_time()
        records = pipeline.run_batch(batch.problems, batch.method, self.config, self.gateway)
        pipeline.write_records(records, records_path)
        read_back = pipeline.read_records(records_path)
        report = evalkit.build_report(read_back, golds, batch.problems, batch.method.value)
        evalkit.render_report(report, "json")
        totals.wall_s += time.perf_counter() - wall
        totals.cpu_s += time.process_time() - cpu
        totals.records += len(read_back)
        totals.correct += sum(r.final_label is golds.get(r.problem_id) for r in read_back)
        totals.errors += sum(r.error is not None or not r.stages for r in read_back)
        totals.failures.update(gate.check_batch(batch.problems, batch.method, records, read_back,
                                                report, batch.reference))


def run_round(workload: Workload, batches: list[Batch], totals: Totals) -> None:
    samples = []
    for batch in batches:
        records, wall, cpu = totals.records, totals.wall_s, totals.cpu_s
        excluded = workload.excluded_cpu_s()
        workload.run_batch(batch, workload.workdir / "records.jsonl", totals)
        totals.cpu_s -= workload.excluded_cpu_s() - excluded
        samples.append((totals.records - records, totals.wall_s - wall, totals.cpu_s - cpu))
    totals.rounds.append(samples)
    totals.failures.update(workload.round_failures(batches))


def best_round(totals: Totals, late_half: bool = False) -> tuple[int, float, float]:
    """(records, wall_s, cpu_s) of a round assembled from the fastest
    instance of each of its batches, over all rounds or, with ``late_half``,
    over the later half of them.

    Rounds are alike batch for batch, and other tenants of a shared host
    only ever slow a batch down, so the fastest instance is the least
    disturbed measure of the program's own cost (the reasoning behind
    ``timeit``'s minimum).  Batches last tens of milliseconds, short enough
    for some to escape other tenants' bursts.
    """
    rounds = totals.rounds[len(totals.rounds) // 2:] if late_half else totals.rounds
    records = wall = cpu = 0
    for samples in zip(*rounds):
        records += samples[0][0]
        wall += min(s[1] for s in samples)
        cpu += min(s[2] for s in samples)
    return records, wall, cpu


def measure(workload: Workload, seconds: float) -> Totals:
    """Run whole rounds until ``seconds`` of batch time have been measured."""
    totals = Totals()
    for batches in workload.rounds():
        run_round(workload, batches, totals)
        if totals.failures or totals.wall_s >= seconds:
            break
    return totals


# ---------------------------------------------------------------------------
# replay-scaled

ALL_METHODS = (Method.TRANSLATE_THEN_SOLVE, Method.SYMBCOT, Method.SYMBCOT_NO_VERIFIER,
               Method.COT, Method.NAIVE)


class ReplayScaled(Workload):
    name = "replay-scaled"
    setups = 2  # one set-up writes ~11k fixture files (~20 s); more would not fit the run budget
    copies = 141  # 141 x 13 = 1,833 problems, the paper's five test splits
    copies_per_round = 1
    why = (f"{copies} renamed mini-corpus copies ({copies * 13} problems) x 5 methods replayed from "
           "an on-disk cache at parallelism 1: the offline CPU path (prompts, hashing, cache loads, "
           "parsing, records, reports)")

    def setup(self) -> None:
        base = corpus.mini_corpus()
        parts = rename_copies(base, self.copies + 1, self.seed)
        by_id = self.load_problems(list(merge_corpora(parts).problems))
        self.parts = [[by_id[p.id] for p in part.problems] for part in parts]

        cache_dir = self.workdir / "fixtures"
        # the scripted pass's records, one batch per copy and method, are the
        # replay reference; only their digests are kept, so the records do
        # not add to peak_rss_mb
        digests = lambda records: (records[0].method, [gate.record_digest(r) for r in records])
        with self.span("fixtures.build_replay_fixtures"), \
                _results_of(fixtures, "run_batch", digests) as batches:
            for part in parts:
                fixtures.build_replay_fixtures(cache_dir, ALL_METHODS, self.config, corpus=part)
        self.reference: dict[tuple[int, Method], list[bytes]] = {
            (position // len(ALL_METHODS), method): batch
            for position, (method, batch) in enumerate(batches)
        }
        self.gateway = ReplayBackend(CompletionCache(cache_dir))
        # warm-up on the spare copy, which is never measured
        totals = Totals()
        for batch in self._round([0]):
            self.run_batch(batch, self.workdir / "warmup.jsonl", totals)
        self.setup_failures.update(totals.failures)

    def _round(self, indices: list[int]) -> list[Batch]:
        problems = [p for i in indices for p in self.parts[i]]
        return [Batch(problems, method, [d for i in indices for d in self.reference[(i, method)]])
                for method in ALL_METHODS]

    def rounds(self) -> Iterator[list[Batch]]:
        measured = list(range(1, self.copies + 1))
        for start in range(0, len(measured), self.copies_per_round):
            yield self._round(measured[start:start + self.copies_per_round])


# ---------------------------------------------------------------------------
# engine-heavy


class EngineHeavy(Workload):
    name = "engine-heavy"
    cycles = 200
    why = (f"{cycles} rounds x 6 translate_then_solve problems: generated KBs (20-40 rules x 10-15 "
           "constants) and 5-6 object ordering puzzles, scripted in memory; forward_chain and solve_all "
           "dominate")

    def setup(self) -> None:
        cycles = [engine_cycle(self.seed, cycle) for cycle in range(self.cycles + 1)]
        cycles.append(baseline_problems(self.seed))
        by_id = self.load_problems([g.problem for generated in cycles for g in generated])
        responses: dict[str, str] = {}
        for generated in cycles:
            responses.update(self._cache_keys(generated))
        self.gateway = ScriptedBackend(responses)
        pool = [[by_id[g.problem.id] for g in generated] for generated in cycles]
        self.baseline = Batch(pool.pop(), Method.TRANSLATE_THEN_SOLVE)
        spare = pool.pop()
        self.pool = pool
        # warm-up on the spare cycle, which is never measured
        totals = Totals()
        self.run_batch(Batch(spare, Method.TRANSLATE_THEN_SOLVE), self.workdir / "warmup.jsonl", totals)
        self.setup_failures.update(totals.failures)

    def _cache_keys(self, generated) -> dict[str, str]:
        """Request key -> translation, found by running the pipeline once
        against a backend that logs each request and answers nothing."""
        problems = tuple(g.problem for g in generated)
        empty = MiniCorpus(problems, {}, {(p.id, "translator"): "" for p in problems})
        logger = ScriptedCorpusBackend(empty)
        pipeline.run_batch(list(problems), Method.TRANSLATE_THEN_SOLVE, self.config, logger)
        translation = {g.problem.id: g.translation for g in generated}
        return {key: translation[pid] for key, pid, _ in logger.log}

    def rounds(self) -> Iterator[list[Batch]]:
        # one batch per problem keeps batches short (see best_round)
        for problems in self.pool:
            yield [Batch([p], Method.TRANSLATE_THEN_SOLVE) for p in problems]


# ---------------------------------------------------------------------------
# live-latency

LIVE_METHODS = (Method.TRANSLATE_THEN_SOLVE, Method.SYMBCOT_NO_VERIFIER, Method.SYMBCOT)
# Model calls per problem across LIVE_METHODS on one cache: translator,
# planner, solver and verifier; every other request is a cache hit.
LIVE_CALLS_PER_PROBLEM = 4


class LiveLatency(Workload):
    name = "live-latency"
    parallelism = 2
    state_grows = True  # every round adds its stores to the one cache directory
    copies = 60
    copies_per_round = 1
    median_delay_s = 0.02
    why = (f"{copies} renamed mini-corpus copies ({copies * 13} problems) x 3 methods via "
           "CachingBackend(HttpBackend) on an in-process server with seeded ~20 ms delays, parallelism 2: "
           "cache writes and model waits")

    def setup(self) -> None:
        self.parts = rename_copies(corpus.mini_corpus(), self.copies + 1, self.seed)
        self.by_id = self.load_problems(list(merge_corpora(self.parts).problems))
        self.server = ModelServer(self.parts[0], self.seed, self.median_delay_s)
        # the trampoline lets a traced half wrap server.post after set-up
        live = HttpBackend(self.config.endpoint, post=lambda *a, **k: self.server.post(*a, **k))
        self.gateway = CachingBackend(live, CompletionCache(self.workdir / "warmup-cache"))
        totals = Totals()
        warm = [self.by_id[p.id] for p in self.parts[0].problems[:2]]
        for method in LIVE_METHODS:
            self.run_batch(Batch(warm, method), self.workdir / "warmup.jsonl", totals)
        self.setup_failures.update(totals.failures)
        self.gateway.cache = CompletionCache(self.workdir / "cache")  # measured rounds start empty

    def excluded_cpu_s(self) -> float:
        return self.server.cpu_s

    def trace_gateway(self, tracer: Tracer) -> None:
        super().trace_gateway(tracer)
        # opaque: the server answers through ScriptedCorpusBackend, whose
        # cache_key calls are the stand-in's, not the program's
        tracer.wrap_instance(self.server, "post", "gateway.model", opaque=True)

    def rounds(self) -> Iterator[list[Batch]]:
        measured = list(range(1, self.copies + 1))
        for start in range(0, len(measured), self.copies_per_round):
            chunk = merge_corpora([self.parts[i] for i in measured[start:start + self.copies_per_round]])
            self.server.load(chunk)
            self._calls_before = self.server.calls
            problems = [self.by_id[p.id] for p in chunk.problems]
            yield [Batch(problems, method) for method in LIVE_METHODS]

    def round_failures(self, batches: list[Batch]) -> dict[str, str]:
        expected = LIVE_CALLS_PER_PROBLEM * len({p.id for batch in batches for p in batch.problems})
        made = self.server.calls - self._calls_before
        if made != expected:
            return {f"batch:{batches[0].problems[0].id}": f"{made} model calls in a round, expected {expected}"}
        return {}


@contextmanager
def _results_of(module, attr: str, keep: Callable) -> Iterator[list]:
    """Collect ``keep(result)`` of every call to ``module.attr`` while the
    block runs, then put the original back."""
    original = getattr(module, attr)
    results: list = []

    def collect(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(keep(result))
        return result

    setattr(module, attr, collect)
    try:
        yield results
    finally:
        setattr(module, attr, original)


WORKLOADS = {w.name: w for w in (ReplayScaled, EngineHeavy, LiveLatency)}


def make_workdir(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=root))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
