"""Orchestration of the translate / plan / solve / verify stages.

``run_problem`` executes one method over one problem and returns a full
RunRecord trace; ``run_batch`` runs many problems concurrently while keeping
input order and per-problem failure isolation.
"""

from __future__ import annotations

import functools
import json
import random
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from . import csp as cspmod
from . import inference
from .corpus import Problem
from .folparse import ParseDiagnostic, ParseError, Severity, TranslationBlock, parse_translation_block
from .gateway import Backend, CompletionRequest
from .logic import Label, LogicError
from .templates import PromptTemplate, Stage, TemplateCatalog


class Method(str, Enum):
    NAIVE = "naive"
    COT = "cot"
    SYMBCOT = "symbcot"
    SYMBCOT_NO_VERIFIER = "symbcot_no_verifier"
    TRANSLATE_THEN_SOLVE = "translate_then_solve"


# Each method's LLM stages in order: SymbCOT's chain, cut short for its
# ablations; translate_then_solve hands its translation to an engine stage.
METHOD_STAGES = {
    Method.NAIVE: (Stage.NAIVE,),
    Method.COT: (Stage.COT,),
    Method.SYMBCOT: (Stage.TRANSLATOR, Stage.PLANNER, Stage.SOLVER, Stage.VERIFIER),
    Method.SYMBCOT_NO_VERIFIER: (Stage.TRANSLATOR, Stage.PLANNER, Stage.SOLVER),
    Method.TRANSLATE_THEN_SOLVE: (Stage.TRANSLATOR,),
}

# The binding under which later templates read a stage's response.
RESPONSE_BINDINGS = {Stage.TRANSLATOR: "premises_sym", Stage.PLANNER: "plan", Stage.SOLVER: "reasoning"}


class FallbackPolicy(str, Enum):
    ABSTAIN = "abstain"
    RANDOM = "random"
    COT_BACKUP = "cot_backup"


@dataclass
class RunConfig:
    model: str = "offline-model"
    endpoint: str = "http://localhost:8000/v1/chat/completions"
    api_key_env: str = "SYMCHAIN_API_KEY"
    method: str = "translate_then_solve"
    temperature: float = 0.0
    max_tokens: int = 1024
    few_shot: int = 2
    fallback: FallbackPolicy = FallbackPolicy.ABSTAIN
    seed: int = 0
    parallelism: int = 1
    cache_dir: Optional[str] = None
    template_dir: Optional[str] = None
    demo_dir: Optional[str] = None
    dataset_paths: dict = field(default_factory=dict)
    output_path: Optional[str] = None

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "RunConfig":
        """Read a JSON config file; raises ``ValueError`` on invalid JSON or values."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("a config file holds one JSON object")
        known = {f for f in cls.__dataclass_fields__}
        config = cls(**{k: v for k, v in data.items() if k in known})
        config.fallback = FallbackPolicy(config.fallback)
        Method(config.method)  # validate early
        for name, kind, least in (("parallelism", int, 1), ("few_shot", int, 0),
                                  ("max_tokens", int, 1), ("temperature", float, 0)):
            value = getattr(config, name)
            # bool is an int subclass, so types are compared exactly; NaN fails the bound
            if type(value) not in (int, kind) or not value >= least:
                raise ValueError(f"{name} must be {'a number' if kind is float else 'an integer'} ≥ {least}")
        return config


# Field metadata: an unwritten field lives only in memory; a timing field is
# rounded to 6 places and left out by ``to_dict(include_wall_time=False)``.
UNWRITTEN = {"unwritten": True}
TIMING = {"timing": True}


# annotation text (this module postpones annotations) -> (writer of a value
# and the include_wall_time flag, reader of its JSON value); None, and any
# annotation not listed, keeps the value as it is
_CODECS = {
    "Label": (lambda value, _: value.value, Label),
    "Method": (lambda value, _: value.value, Method),
    "bool": (None, bool),
    "list[str]": (lambda value, _: list(value), list),
    "list[StageRecord]": (lambda stages, timing: [s.to_dict(timing) for s in stages],
                          lambda data: [StageRecord.from_dict(s) for s in data]),
}
_TIMING_CODEC = (lambda value, _: round(value, 6), None)


@functools.cache
def _record_fields(cls: type) -> tuple[tuple[str, Optional[Callable], Optional[Callable], bool], ...]:
    """(name, writer, reader, is timing) of each written field of ``cls``, once per class."""
    return tuple((f.name, *(_TIMING_CODEC if "timing" in f.metadata else _CODECS.get(f.type, (None, None))),
                  "timing" in f.metadata) for f in fields(cls) if "unwritten" not in f.metadata)


class _Record:
    """Written to and read from a JSON object by its dataclass fields: a
    missing key takes the field's default, and unknown keys are ignored."""

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = {}
        for name, write, _, timing in _record_fields(type(self)):
            if include_wall_time or not timing:
                value = getattr(self, name)
                out[name] = value if write is None else write(value, include_wall_time)
        return out

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_time), ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict):
        kwargs = {}
        for name, _, read, _ in _record_fields(cls):
            if name in data:
                value = data[name]
                kwargs[name] = value if read is None else read(value)
        return cls(**kwargs)


@dataclass
class StageRecord(_Record):
    stage: str
    prompt: str = ""
    response: str = ""
    label: Label = Label.UNDECIDED
    completion_tokens: int = 0
    diagnostics: list[str] = field(default_factory=list)
    artifact: object = field(default=None, metadata=UNWRITTEN)


@dataclass
class RunRecord(_Record):
    problem_id: str
    method: Method
    executed: bool
    final_label: Label
    dataset: str = ""
    stages: list[StageRecord] = field(default_factory=list)
    wall_time: float = field(default=0.0, metadata=TIMING)
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# Label extraction

_WORDS = "true|false|unknown|uncertain"

_TIER_BRACED = re.compile(r"\{\s*(" + _WORDS + r"|[A-Ea-e])\s*\}", re.IGNORECASE)
_TIER_PHRASES = [
    re.compile(r"final answer\s*(?:is|:)?\s*\(?(" + _WORDS + r"|[A-E])\b", re.IGNORECASE),
    re.compile(r"correct option is\s*:?\s*\(?([A-E])\b", re.IGNORECASE),
    re.compile(r"answer is\s*:?\s*(?:verified to be\s+)?\(?(" + _WORDS + r"|[A-E])\b", re.IGNORECASE),
    re.compile(r"verified to be\s+(" + _WORDS + r")\b", re.IGNORECASE),
    # letters stay case-sensitive so prose like "answer all..." can't match
    re.compile(r"\banswer\s+\(?([A-E])\b"),
    re.compile(r"\b(?:is|remains)\s+(" + _WORDS + r")\b", re.IGNORECASE),
]
_TIER_TRAILING_LETTER = re.compile(r"\b(?:option|answer)?\s*\(?([A-E])\)")


def extract_label(text: str, label_space: Optional[Sequence[Label]] = None) -> Label:
    """Pull the answer label out of free-form stage output.

    Scans, in order of confidence: the last brace-wrapped label, then
    "final answer" style phrases (last match wins), then option letters on
    the concluding lines.  "uncertain" aliases to Unknown.  Returns
    :data:`Label.UNDECIDED` when nothing in the allowed space matches.
    """
    space = set(label_space) if label_space is not None else None

    def admit(raw: str) -> Optional[Label]:
        label = Label.from_text(raw)
        if label is None:
            return None
        if space is not None and label not in space:
            return None
        return label

    hits = [admit(m.group(1)) for m in _TIER_BRACED.finditer(text)]
    hits = [h for h in hits if h is not None]
    if hits:
        return hits[-1]

    phrase_hits: list[tuple[int, Label]] = []
    for pattern in _TIER_PHRASES:
        for m in pattern.finditer(text):
            label = admit(m.group(1))
            if label is not None:
                phrase_hits.append((m.start(), label))
    if phrase_hits:
        return max(phrase_hits, key=lambda pair: pair[0])[1]

    tail_lines = [line for line in text.splitlines() if line.strip()][-3:]
    tail_hits = []
    for line in tail_lines:
        for m in _TIER_TRAILING_LETTER.finditer(line):
            label = admit(m.group(1))
            if label is not None:
                tail_hits.append(label)
    if tail_hits:
        return tail_hits[-1]
    return Label.UNDECIDED


def _surface_space(problem: Problem) -> list[Label]:
    """Labels acceptable in raw stage output, before letter canonicalization."""
    space = list(problem.label_space)
    for letter in problem.info.letter_map:
        label = Label(letter)
        if label not in space:
            space.append(label)
    if problem.options:
        for letter, _ in problem.options:
            label = Label(letter)
            if label not in space:
                space.append(label)
    return space


# ---------------------------------------------------------------------------
# Stage execution


def render_request(template: PromptTemplate, bindings: dict[str, str], config: RunConfig) -> CompletionRequest:
    prompt = template.render(bindings, few_shot=config.few_shot)
    return CompletionRequest(
        model=config.model,
        messages=(("user", prompt),),
        temperature=config.temperature,
        max_tokens=config.max_tokens,
    )


def run_stage(template: PromptTemplate, bindings: dict[str, str], gateway: Backend,
              config: RunConfig, label_space: Optional[Sequence[Label]] = None) -> StageRecord:
    """Render, call the model, and parse the stage's artifact.

    Parse failures land in the record's diagnostics, never raise; gateway
    errors propagate to the caller.
    """
    request = render_request(template, bindings, config)
    response = gateway.complete(request)
    record = StageRecord(
        stage=template.stage.value,
        prompt=request.messages[0][1],
        response=response.content,
        completion_tokens=response.completion_tokens,
    )
    if template.stage is Stage.TRANSLATOR:
        try:
            record.artifact, diagnostics = parse_translation(response.content, template.family.is_csp)
            record.diagnostics = [str(d) for d in diagnostics if d.severity is Severity.ERROR]
        except ParseError as err:
            record.diagnostics = [str(err.diagnostic)]
    elif template.stage in (Stage.SOLVER, Stage.VERIFIER, Stage.NAIVE, Stage.COT):
        record.label = extract_label(response.content, label_space)
    return record


Translation = Union[TranslationBlock, cspmod.CspModel, None]

NOT_EXECUTABLE = "translation not executable"
NO_KNOWLEDGE_BASE = "no knowledge base; general FOL is not auto-decided"


def parse_translation(text: str, csp: bool) -> tuple[Translation, list[ParseDiagnostic]]:
    """Parse a translation in CSP or FOL notation.

    Returns the artifact (None when a CSP model cannot be assembled) and all
    of its diagnostics; raises :class:`ParseError` when the text has no
    sections.
    """
    if csp:
        return cspmod.parse_csp_block(text)
    block = parse_translation_block(text)
    return block, block.diagnostics


@dataclass(frozen=True)
class EngineResult:
    """The symbolic engine's outcome on one translation.

    ``response`` and ``diagnostics`` are the pipeline's engine record;
    ``error`` is the engine's exception, if it raised one; ``answer`` and
    ``verdict`` are the CSP option selection and per-option verdicts.
    """

    label: Label
    executed: bool
    response: str
    diagnostics: tuple[str, ...] = ()
    error: Optional[LogicError] = None
    answer: Union[str, cspmod.Undecided, None] = None
    verdict: Optional[cspmod.QueryVerdict] = None


def solve_translation(artifact: Translation, errors: Sequence[str], question: str,
                      csp: bool) -> EngineResult:
    """Run the engine of the translation's notation.

    ``errors`` are the translation's error diagnostics; any of them makes it
    not executable.  FOL decides the query over the Facts/Rules knowledge
    base; CSP selects the option that matches the question's mode (must /
    could / cannot be true; must be true when the question names none).
    """
    if artifact is None or errors or (not csp and artifact.statement is None):
        # a CSP engine record repeats the parse errors; a FOL one only names the failure
        return EngineResult(Label.UNDECIDED, False, NOT_EXECUTABLE,
                            tuple(errors) if csp and errors else (NOT_EXECUTABLE,))
    if not csp and artifact.kb is None:
        return EngineResult(Label.UNDECIDED, False, NO_KNOWLEDGE_BASE, ("no knowledge base in translation",))
    try:
        if not csp:
            label = inference.decide_formula(artifact.kb, artifact.statement)
            return EngineResult(label, True, f"decide: {label.value}")
        verdict = cspmod.evaluate_queries(artifact)
    except LogicError as err:
        return EngineResult(Label.UNDECIDED, False, f"engine error: {err}", (str(err),), error=err)
    answer = cspmod.select_answer(verdict, cspmod.detect_question_mode(question))
    summary = ", ".join(f"{letter}:{status.value}" for letter, status in sorted(verdict.statuses.items()))
    response = f"verdicts [{summary}] over {verdict.solution_count} solutions; "
    if isinstance(answer, cspmod.Undecided):
        return EngineResult(Label.UNDECIDED, True, f"{response}{answer}", answer=answer, verdict=verdict)
    return EngineResult(Label(answer), True, f"{response}answer {answer}", answer=answer, verdict=verdict)


def _run_stages(chain: Sequence[Stage], problem: Problem, bindings: dict[str, str], gateway: Backend,
                config: RunConfig, catalog: TemplateCatalog, stages: list[StageRecord]) -> Label:
    """Run ``chain`` in order, appending each record to ``stages`` and binding
    its response for the later templates; returns the last decided label,
    canonical, or Undecided when no stage decides."""
    final = Label.UNDECIDED
    space = _surface_space(problem)
    for stage in chain:
        record = run_stage(catalog.get(stage, problem.family), bindings, gateway, config, space)
        stages.append(record)
        if stage in RESPONSE_BINDINGS:
            bindings[RESPONSE_BINDINGS[stage]] = record.response
        if record.label is not Label.UNDECIDED:
            final = problem.canonical_label(record.label)
    return final


def run_problem(problem: Problem, method: Method, config: RunConfig, gateway: Backend,
                catalog: Optional[TemplateCatalog] = None) -> RunRecord:
    """Run one problem under one method, producing a full trace.

    The method's stages run in order and the last decided label wins, so the
    verifier's label overrides the solver's.  ``executed`` reports whether
    the symbolic path (or, for LLM-final methods, answer extraction)
    succeeded; when false, the configured fallback policy decides the final
    label.  Any exception, a ``GatewayError`` or another, ends the run
    unexecuted: the record names it and keeps the stages completed before it.
    """
    start = time.perf_counter()
    stages: list[StageRecord] = []
    error: Optional[str] = None

    try:
        catalog = catalog or TemplateCatalog(config.template_dir, config.demo_dir)
        bindings = {"context": problem.context, "question": problem.question, "options": problem.options_text()}
        final = _run_stages(METHOD_STAGES[method], problem, dict(bindings), gateway, config, catalog, stages)
        executed = final is not Label.UNDECIDED
        if method is Method.TRANSLATE_THEN_SOLVE:
            translation = stages[-1]
            result = solve_translation(translation.artifact, translation.diagnostics, problem.question,
                                       problem.family.is_csp)
            stages.append(StageRecord(stage="engine", response=result.response, label=result.label,
                                      diagnostics=list(result.diagnostics)))
            final, executed = result.label, result.executed  # Undecided when unexecuted, as abstain keeps
        if not executed and config.fallback is FallbackPolicy.RANDOM:
            final = random.Random(f"{config.seed}:{problem.id}").choice(list(problem.label_space))
        elif not executed and config.fallback is FallbackPolicy.COT_BACKUP:  # off by default
            # one extra CoT stage decides, from the problem's own bindings
            final = _run_stages((Stage.COT,), problem, bindings, gateway, config, catalog, stages)
    except Exception as err:  # no exception crosses the batch
        error = f"{type(err).__name__}: {err}"
        final = Label.UNDECIDED
        executed = False

    return RunRecord(
        problem_id=problem.id,
        dataset=problem.dataset,
        method=method,
        stages=stages,
        executed=executed,
        final_label=final,
        wall_time=time.perf_counter() - start,
        error=error,
    )


def run_batch(problems: Sequence[Problem], method: Method, config: RunConfig, gateway: Backend,
              progress: Optional[Callable[[RunRecord], None]] = None) -> list[RunRecord]:
    """Run a batch on ``config.parallelism`` threads; records come back in
    input order and one problem's failure never aborts the rest."""
    workers = config.parallelism
    if workers < 1:
        raise ValueError("parallelism must be ≥ 1")
    catalog = TemplateCatalog(config.template_dir, config.demo_dir)

    def one(problem: Problem) -> RunRecord:
        record = run_problem(problem, method, config, gateway, catalog)
        if progress is not None:
            progress(record)
        return record

    if workers == 1:
        return [one(p) for p in problems]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, problems))


def write_records(records: Sequence[RunRecord], path: Union[str, Path]) -> None:
    """Write one JSON record per line to ``path``; ``"-"`` is standard output."""
    payload = "".join(r.to_json() + "\n" for r in records)
    if str(path) == "-":
        sys.stdout.write(payload)
    else:
        Path(path).write_text(payload, encoding="utf-8")


def read_records(path: Union[str, Path]) -> list[RunRecord]:
    """Read the records ``write_records`` wrote.

    A line ends only at a newline, so a response holding U+2028, U+2029 or
    U+0085 (written unescaped) stays one record.
    """
    with open(path, encoding="utf-8") as f:
        return [RunRecord.from_dict(json.loads(line.rstrip("\n"))) for line in f if line.strip()]
