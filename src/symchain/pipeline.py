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
from typing import Callable, Collection, Optional, Sequence, Union

from . import csp as cspmod
from . import inference
from .corpus import Problem, json_error_text, json_lines
from .folparse import ParseDiagnostic, Severity, TranslationBlock, parse_translation_block
from .gateway import Backend, CompletionRequest
from .logic import Label, LogicError
from .templates import RESPONSE_BINDINGS, PromptTemplate, Stage, TemplateCatalog


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
ENGINE_STAGE = "engine"  # the stage record of translate_then_solve's engine, which calls no model


class FallbackPolicy(str, Enum):
    ABSTAIN = "abstain"
    RANDOM = "random"
    COT_BACKUP = "cot_backup"


# Field metadata: an unwritten field lives only in memory; a timing field is
# rounded to 6 places and left out by ``to_dict(include_wall_time=False)``.
UNWRITTEN = {"unwritten": True}
TIMING = {"timing": True}


def _exact(what: str, *types: type) -> Callable:
    """A reader that keeps a JSON value whose type is one of ``types``, compared
    exactly (``bool`` is an ``int`` subclass), and raises ``ValueError`` on any other."""
    def read(value):
        if type(value) not in types:
            raise ValueError(f"expected {what}, found {value!r}")
        return value
    return read


def _read_bool(value) -> bool:
    if type(value) not in (bool, int) or value not in (0, 1):  # an integer 0 or 1 reads as a boolean
        raise ValueError(f"expected a boolean, found {value!r}")
    return bool(value)


def _read_strings(value) -> list[str]:
    if type(value) is not list or not all(type(item) is str for item in value):
        raise ValueError(f"expected a list of strings, found {value!r}")
    return value


def read_object(read_value: Callable) -> Callable:
    """A reader of a JSON object that reads each value with ``read_value``."""
    def read(value):
        if type(value) is not dict:
            raise ValueError(f"expected an object, found {value!r}")
        return {key: read_value(item) for key, item in value.items()}
    return read


_NUMBER = _exact("a number", int, float)

# annotation text (record modules postpone annotations) -> (writer of a value
# and the include_wall_time flag, reader of its JSON value); a None writer
# keeps the value as it is, and a reader raises ``ValueError`` on a value it
# cannot read.  ``evalkit`` adds the entries of its report types.
CODECS = {
    "Label": (lambda value, _: value.value, Label),
    "Method": (lambda value, _: value.value, Method),
    "FallbackPolicy": (lambda value, _: value.value, FallbackPolicy),
    "bool": (None, _read_bool),
    "int": (None, _exact("an integer", int)),
    "float": (None, _NUMBER),
    "str": (None, _exact("a string", str)),
    "Optional[str]": (None, _exact("a string or null", str, type(None))),
    "list[str]": (lambda value, _: list(value), _read_strings),
    "tuple[str, ...]": (lambda value, _: list(value), lambda value: tuple(_read_strings(value))),
    "dict[str, str]": (None, read_object(_exact("a string", str))),
    "dict[str, int]": (None, read_object(_exact("an integer", int))),
    "dict[str, float]": (None, read_object(_NUMBER)),
    "dict[str, dict[str, float]]": (None, read_object(read_object(_NUMBER))),
    "list[StageRecord]": (lambda stages, timing: [s.to_dict(timing) for s in stages],
                          lambda data: [StageRecord.from_dict(s) for s in _exact("a list", list)(data)]),
}
_TIMING_CODEC = (lambda value, _: round(value, 6), _NUMBER)


@functools.cache
def _record_fields(cls: type) -> tuple[tuple[str, Optional[Callable], Callable, bool], ...]:
    """(name, writer, reader, is timing) of each written field of ``cls``, once per class."""
    return tuple((f.name, *(_TIMING_CODEC if "timing" in f.metadata else CODECS[f.type]), "timing" in f.metadata)
                 for f in fields(cls) if "unwritten" not in f.metadata)


class Record:
    """Written to and read from a JSON object by its dataclass fields: a
    missing key takes the field's default, unknown keys are ignored, and a
    value that its field cannot read raises ``ValueError`` naming the field."""

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
        if not isinstance(data, dict):
            raise ValueError(f"expected a {cls.__name__} object, found {data!r}")
        kwargs = {}
        for name, _, read, _ in _record_fields(cls):
            if name in data:
                try:
                    kwargs[name] = read(data[name])
                except ValueError as err:
                    raise ValueError(f"{name}: {err}") from None
        return cls(**kwargs)


@dataclass
class StageRecord(Record):
    stage: str
    prompt: str = ""
    response: str = ""
    label: Label = Label.UNDECIDED
    completion_tokens: int = 0
    diagnostics: list[str] = field(default_factory=list)
    artifact: object = field(default=None, metadata=UNWRITTEN)


@dataclass
class RunRecord(Record):
    problem_id: str
    method: Method
    executed: bool
    final_label: Label
    dataset: str = ""
    stages: list[StageRecord] = field(default_factory=list)
    wall_time: float = field(default=0.0, metadata=TIMING)
    error: Optional[str] = None


@dataclass
class RunConfig(Record):
    model: str = "offline-model"
    endpoint: str = "http://localhost:8000/v1/chat/completions"
    api_key_env: str = "SYMCHAIN_API_KEY"
    method: Method = Method.TRANSLATE_THEN_SOLVE
    temperature: float = 0.0
    max_tokens: int = 1024
    few_shot: int = 2
    fallback: FallbackPolicy = FallbackPolicy.ABSTAIN
    seed: int = 0
    parallelism: int = 1
    cache_dir: Optional[str] = None
    template_dir: Optional[str] = None
    demo_dir: Optional[str] = None
    dataset_paths: dict[str, str] = field(default_factory=dict)
    output_path: Optional[str] = None

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "RunConfig":
        """Read a JSON config file, skipping a byte-order mark; raises
        ``ValueError`` on invalid JSON, an unknown key or a bad value."""
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        unknown = sorted(set(data) - set(cls.__dataclass_fields__)) if isinstance(data, dict) else ()
        if unknown:
            raise ValueError(f"unknown keys: {', '.join(unknown)}")
        config = cls.from_dict(data)
        for name, least in (("parallelism", 1), ("few_shot", 0), ("max_tokens", 1), ("temperature", 0)):
            if not getattr(config, name) >= least:  # NaN fails too
                raise ValueError(f"{name} must be ≥ {least}, found {getattr(config, name)!r}")
        return config


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
# (patterns, whether each of the last three non-blank lines is scanned on its own), most confident first
_TIERS = (((_TIER_BRACED,), False), (_TIER_PHRASES, False), ((_TIER_TRAILING_LETTER,), True))


def extract_label(text: str, label_space: Optional[Sequence[Label]] = None) -> Label:
    """Pull the answer label out of free-form stage output.

    Scans the tiers in order of confidence: brace-wrapped labels, then
    "final answer" style phrases, then option letters on the concluding
    lines.  The first tier with an admitted hit answers, with the hit that
    starts last (on a later line, for the concluding lines); on equal starts
    the earlier pattern wins.  "uncertain" aliases to Unknown.  Returns
    :data:`Label.UNDECIDED` when nothing in the allowed space matches.
    """
    space = set(label_space) if label_space is not None else None
    for patterns, by_line in _TIERS:
        segments = [line for line in text.splitlines() if line.strip()][-3:] if by_line else [text]
        best, best_at = None, (-1, -1)
        for line_no, segment in enumerate(segments):
            for pattern in patterns:
                for m in pattern.finditer(segment):
                    label = Label.from_text(m.group(1))
                    at = (line_no, m.start())
                    if label is not None and (space is None or label in space) and at > best_at:
                        best, best_at = label, at
        if best is not None:
            return best
    return Label.UNDECIDED


def _surface_space(problem: Problem) -> list[Label]:
    """Labels acceptable in raw stage output, before letter canonicalization."""
    return [*problem.label_space, *map(Label, problem.info.letter_map)]


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

    Every parse diagnostic, warnings included, lands in the record's
    diagnostics and none raises; gateway errors propagate to the caller.
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
        record.artifact, diagnostics = parse_translation(response.content, template.family.is_csp, label_space)
        record.diagnostics = [str(d) for d in diagnostics]
    elif template.stage in (Stage.SOLVER, Stage.VERIFIER, Stage.NAIVE, Stage.COT):
        record.label = extract_label(response.content, label_space)
    return record


Translation = Union[TranslationBlock, cspmod.CspModel, None]

NOT_EXECUTABLE = "translation not executable"
NO_KNOWLEDGE_BASE = "no knowledge base; general FOL is not auto-decided"


def parse_translation(text: str, csp: bool, options: Optional[Collection[str]] = None
                      ) -> tuple[Translation, list[ParseDiagnostic]]:
    """Parse a translation in CSP or FOL notation, deciding whether it is executable.

    Returns the artifact, None unless the translation is executable, and all
    of its diagnostics; a text with no sections has that one diagnostic.  A
    CSP query of a letter outside ``options`` (when given) is an error.
    """
    if not csp:
        block = parse_translation_block(text)
        return (block if block.executable else None), block.diagnostics
    model, diagnostics = cspmod.parse_csp_block(text, options)
    return (None if any(d.severity is Severity.ERROR for d in diagnostics) else model), diagnostics


@dataclass(frozen=True)
class EngineResult:
    """The symbolic engine's outcome on one translation.

    ``response`` is the pipeline's engine record, and names the failure when
    the translation does not run; ``answer`` and ``verdict`` are the CSP
    option selection and per-option verdicts.
    """

    label: Label
    executed: bool
    response: str
    answer: Union[str, cspmod.Undecided, None] = None
    verdict: Optional[cspmod.QueryVerdict] = None


def solve_translation(artifact: Translation, question: str) -> EngineResult:
    """Run the engine that the translation's type names.

    ``artifact`` is None when the translation is not executable.  A
    ``TranslationBlock`` decides its query over the Facts/Rules knowledge base;
    a ``CspModel`` selects the option matching the question's mode (must /
    could / cannot be true; must be true when none is named).
    """
    if artifact is None:
        return EngineResult(Label.UNDECIDED, False, NOT_EXECUTABLE)
    fol = isinstance(artifact, TranslationBlock)
    if fol and artifact.kb is None:
        return EngineResult(Label.UNDECIDED, False, NO_KNOWLEDGE_BASE)
    try:
        if fol:
            label = inference.decide_formula(artifact.kb, artifact.statement)
            return EngineResult(label, True, f"decide: {label.value}")
        verdict = cspmod.evaluate_queries(artifact)
    except LogicError as err:
        return EngineResult(Label.UNDECIDED, False, f"engine error: {err}")
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
            result = solve_translation(stages[-1].artifact, problem.question)
            stages.append(StageRecord(stage=ENGINE_STAGE, response=result.response, label=result.label))
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
    """Read the records ``write_records`` wrote, as ``corpus.json_lines`` splits lines.

    A leading byte-order mark is skipped.  A line that is not JSON, or not a
    record (not an object, a stage that is not an object, a bad or missing
    field), raises ``ValueError`` naming the file and its 1-based line number.
    """
    records = []
    with open(path, encoding="utf-8-sig") as f:
        for number, data in json_lines(f):
            if isinstance(data, json.JSONDecodeError):
                raise ValueError(f"{path}, line {number}: not JSON ({json_error_text(data)})")
            try:
                records.append(RunRecord.from_dict(data))
            except (TypeError, ValueError) as err:
                raise ValueError(f"{path}, line {number}: not a record ({err})") from None
    return records
