"""Offline gateway fixtures for the packaged mini-corpus.

The scripted corpus backend answers any pipeline request by recognizing the
stage (via its instruction marker) and the problem (via its context) inside
the rendered prompt, then returning the corpus's canned response, read from
the stage's field of the problem's record in ``data/minicorpus.jsonl``.  Routing
it through a write-through cache materializes a replay fixture directory
keyed by the real request hashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from .corpus import MiniCorpus, mini_corpus
from .gateway import (
    Backend, CachingBackend, CompletionCache, CompletionRequest,
    CompletionResponse, ReplayMissError, scripted_response,
)
from .pipeline import Method, RunConfig, run_batch
from .templates import STAGE_MARKERS


class ScriptedCorpusBackend(Backend):
    """Serves the mini-corpus's canned stage responses, keyed by prompt content."""

    def __init__(self, corpus: Optional[MiniCorpus] = None,
                 overrides: Optional[dict[tuple[str, str], str]] = None):
        self.corpus = corpus or mini_corpus()
        self.overrides = dict(overrides or {})
        self.log: list[tuple[str, str, str]] = []  # (cache key, problem id, stage)

    def _identify(self, prompt: str) -> tuple[str, str]:
        stage = None
        for candidate, marker in STAGE_MARKERS.items():
            if marker in prompt:
                stage = candidate.value
                break
        if stage is None:
            raise ReplayMissError("unrecognized stage in prompt")
        # the instance context is the last thing rendered, after any demos
        problem = None
        best = -1
        for p in self.corpus.problems:
            at = prompt.rfind(p.context)
            if at > best:
                best = at
                problem = p
        if problem is None or best < 0:
            raise ReplayMissError("unrecognized problem in prompt")
        return problem.id, stage

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        prompt = "\n".join(content for _, content in request.messages)
        problem_id, stage = self._identify(prompt)
        key = (problem_id, stage)
        if key in self.overrides:
            content = self.overrides[key]
        else:
            content = self.corpus.stage_text(problem_id, stage)
        self.log.append((request.cache_key(), problem_id, stage))
        return scripted_response(request, content)


@dataclass(frozen=True)
class FixtureEntry:
    cache_key: str
    problem_id: str
    stage: str
    method: Method


def build_replay_fixtures(
    cache_dir: Union[str, Path],
    methods: Sequence[Method] = (Method.TRANSLATE_THEN_SOLVE, Method.SYMBCOT,
                                 Method.SYMBCOT_NO_VERIFIER, Method.COT, Method.NAIVE),
    config: Optional[RunConfig] = None,
    corpus: Optional[MiniCorpus] = None,
) -> list[FixtureEntry]:
    """Populate ``cache_dir`` with replay entries for the mini-corpus.

    Runs every requested method through the scripted backend behind a
    write-through cache, so the stored keys are exactly the hashes the
    pipeline will recompute on replay.  Returns a manifest mapping cache
    keys to (problem, stage, method).
    """
    corpus = corpus or mini_corpus()
    config = config or RunConfig()
    manifest: list[FixtureEntry] = []
    for method in methods:
        scripted = ScriptedCorpusBackend(corpus)
        gateway = CachingBackend(scripted, CompletionCache(cache_dir))
        run_batch(list(corpus.problems), method, config, gateway)
        for key, problem_id, stage in scripted.log:
            manifest.append(FixtureEntry(key, problem_id, stage, method))
    return manifest
