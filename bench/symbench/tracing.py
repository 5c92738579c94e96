"""Spans recorded from outside the program, by wrapping its entry points.

``Tracer.install`` replaces each traced function, wherever a symchain
module or class binds it, with a wrapper that records a span (name, start,
end, parent, problem id) and the counts the per-layer metrics need.
``Tracer.uninstall`` puts the original objects back.  Spans stay in memory
until ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

from symchain import csp, evalkit, folparse, gateway, inference, pipeline


def _problem_id(args, kwargs) -> Optional[str]:
    problem = args[0] if args else kwargs.get("problem")
    return getattr(problem, "id", None)


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or None, problem id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, problem_id: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if problem_id is None and parent is not None:
            problem_id = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, problem_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None,
             problem_arg: bool = False, opaque: bool = False) -> Callable:
        """``fn`` with a span around each call; ``after(result, args, kwargs)``
        adds counts.  A call that raises is counted as ``<name>.failures``.
        Inside an ``opaque`` span (the benchmark's own stand-ins), wrapped
        functions record nothing, so the stand-in's use of the program is
        not counted as the program's."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(self._local, "opaque", False):
                return fn(*args, **kwargs)
            pid = _problem_id(args, kwargs) if problem_arg else None
            with self.span(name, pid):
                self._local.opaque = opaque
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self.count(f"{name}.failures")
                    raise
                finally:
                    self._local.opaque = False
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None, problem_arg=False) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after, problem_arg))

    def _patch_function(self, module, attr: str, name: str, after=None, problem_arg=False) -> None:
        """Wrap a module-level function in every symchain module that binds it."""
        original = module.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("symchain") and mod.__dict__.get(attr) is original:
                self._patch(mod, attr, name, after, problem_arg)

    def _patch_method(self, cls, attr: str, name: str, after=None) -> None:
        if attr not in cls.__dict__:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._patch(cls, attr, name, after)

    def install(self) -> None:
        """Wrap the program's entry points (the outermost backend and the
        model server's ``post`` are wrapped by the workloads that own them)."""
        self.missing = []
        c = self.count
        fn, meth = self._patch_function, self._patch_method
        fn(pipeline, "render_request", "templates.render_request",
           lambda r, a, k: c("templates.prompt_chars", sum(len(m[1]) for m in r.messages)))
        meth(gateway.CompletionRequest, "cache_key", "gateway.cache_key")
        meth(gateway.CompletionCache, "load", "gateway.cache_load",
             lambda r, a, k: c("gateway.cache_hits", r is not None))
        meth(gateway.CompletionCache, "store", "gateway.cache_store")
        fn(folparse, "parse_translation_block", "folparse.parse_translation_block",
           lambda r, a, k: c("folparse.block_chars", len(a[0] if a else k["text"])))
        fn(csp, "parse_csp_block", "csp.parse_csp_block")
        fn(inference, "decide_formula", "inference.decide_formula")
        fn(inference, "forward_chain", "inference.forward_chain", _chain_counts(c))
        fn(csp, "evaluate_queries", "csp.evaluate_queries")
        fn(csp, "solve_all", "csp.solve_all", _solve_counts(c))
        fn(pipeline, "extract_label", "pipeline.extract_label")
        fn(pipeline, "run_problem", "pipeline.run_problem", problem_arg=True)
        fn(pipeline, "write_records", "pipeline.write_records")
        fn(pipeline, "read_records", "pipeline.read_records")
        fn(evalkit, "build_report", "evalkit.build_report")
        fn(evalkit, "render_report", "evalkit.render_report")

    def wrap_instance(self, obj, attr: str, name: str, opaque: bool = False) -> None:
        """Wrap a bound method on one object (restored by ``uninstall``)."""
        self._patches.append((obj, attr, obj.__dict__.get(attr, _ABSENT)))
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), opaque=opaque))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is not None:
                out[name] += (end - start) - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def median_duration(self, name: str, problem_prefix: str) -> float:
        """Median total duration of ``name`` spans on problems whose id
        starts with ``problem_prefix`` (0 when there are none)."""
        values = [end - start for n, start, end, _, pid in self.spans
                  if n == name and end is not None and pid and pid.startswith(problem_prefix)]
        return statistics.median(values) if values else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, pid in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "problem": pid}) + "\n")


class GcPauses:
    """Collections and pause time of the cyclic garbage collector while
    installed, through ``gc.callbacks``.  Collections never overlap, so the
    callback needs no lock."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = [0, 0, 0]  # per generation
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1

    @contextmanager
    def installed(self):
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)


class _Absent:
    pass


_ABSENT = _Absent()


def _chain_counts(count):
    def after(result, args, kwargs):
        count("inference.derivations", len(result.derivations))
        depth = max((d.depth for d in result.derivations), default=0)
        count("inference.rounds", depth + 1)
    return after


def _solve_counts(count):
    def after(result, args, kwargs):
        model = args[0] if args else kwargs["model"]
        space = 1
        for _, domain in model.variables:
            space *= len(domain)
        count("csp.solutions", len(result.solutions))
        count("csp.search_space", space)
    return after


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as (value, unit), from one traced region."""
    s, n, c = tracer.self_times(), tracer.calls(), tracer.counts
    loads = n["gateway.cache_load"]
    hits = c["gateway.cache_hits"]
    failures = sum(v for k, v in c.items() if k.endswith(".failures")
                   and k.startswith(("gateway.complete", "gateway.model")))
    return {
        "templates.render_calls": (n["templates.render_request"], "count"),
        "templates.render_s": (s["templates.render_request"], "s"),
        "templates.prompt_chars": (c["templates.prompt_chars"], "chars"),
        "gateway.cache_key_calls": (n["gateway.cache_key"], "count"),
        "gateway.cache_key_s": (s["gateway.cache_key"], "s"),
        "gateway.cache_load_calls": (loads, "count"),
        "gateway.cache_load_s": (s["gateway.cache_load"], "s"),
        "gateway.cache_hit_ratio": (hits / loads if loads else 0.0, "ratio"),
        "gateway.cache_store_calls": (n["gateway.cache_store"], "count"),
        "gateway.cache_store_s": (s["gateway.cache_store"], "s"),
        "gateway.model_calls": (n["gateway.model"], "count"),
        "gateway.model_wait_s": (s["gateway.model"], "s"),
        "gateway.complete_s": (s["gateway.complete"], "s"),
        "gateway.failures": (failures, "count"),
        "folparse.block_parse_calls": (n["folparse.parse_translation_block"], "count"),
        "folparse.block_parse_s": (s["folparse.parse_translation_block"], "s"),
        "folparse.block_chars": (c["folparse.block_chars"], "chars"),
        "csp.block_parse_calls": (n["csp.parse_csp_block"], "count"),
        "csp.block_parse_s": (s["csp.parse_csp_block"], "s"),
        "inference.decide_calls": (n["inference.decide_formula"], "count"),
        "inference.decide_s": (s["inference.decide_formula"], "s"),
        "inference.forward_chain_s": (s["inference.forward_chain"], "s"),
        "inference.derivations": (c["inference.derivations"], "count"),
        "inference.rounds": (c["inference.rounds"], "count"),
        "csp.evaluate_calls": (n["csp.evaluate_queries"], "count"),
        "csp.evaluate_s": (s["csp.evaluate_queries"], "s"),
        "csp.solve_all_s": (s["csp.solve_all"], "s"),
        "csp.solutions": (c["csp.solutions"], "count"),
        "csp.search_space": (c["csp.search_space"], "count"),
        "pipeline.run_problem_self_s": (s["pipeline.run_problem"], "s"),
        "pipeline.extract_label_calls": (n["pipeline.extract_label"], "count"),
        "pipeline.extract_label_s": (s["pipeline.extract_label"], "s"),
        "pipeline.write_records_s": (s["pipeline.write_records"], "s"),
        "pipeline.read_records_s": (s["pipeline.read_records"], "s"),
        "evalkit.build_report_s": (s["evalkit.build_report"], "s"),
        "evalkit.render_report_s": (s["evalkit.render_report"], "s"),
        "corpus.load_normalized_s": (s["corpus.load_normalized"], "s"),
        "fixtures.build_replay_fixtures_s": (s["fixtures.build_replay_fixtures"], "s"),
    }


def baseline_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The ROADMAP baseline cases, from a tracer that saw only them."""
    return {
        "baseline.kb_100x30_decide_s": (tracer.median_duration("inference.decide_formula", "kb-100x30-"), "s"),
        "baseline.lineup_7_loose_evaluate_s": (
            tracer.median_duration("csp.evaluate_queries", "lineup-7-loose-"), "s"),
    }
