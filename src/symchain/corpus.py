"""Benchmark problems: dataset adapters, normalization, and the mini-corpus.

``load`` normalizes the five benchmark datasets' JSON files into Problem
records; ``mini_corpus`` reads the packaged, fully offline fixture set
(``data/minicorpus.jsonl``: one normalized problem per line, with its
canned text for every stage) whose symbolic translations the engines solve
exactly.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TextIO, Union

from .logic import Label
from .templates import Family, Stage


class CorpusError(ValueError):
    """A dataset or record fault; ``kind`` is the kind of the ``LoadError`` it becomes."""

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class LoadError:
    record_id: str
    kind: str  # "MissingField", "UnknownLabel" or "Malformed"
    detail: str
    line: Optional[int] = None  # the 1-based physical line of a JSON-lines record

    def __str__(self):
        where = "" if self.line is None else f", line {self.line}"
        return f"{self.kind}({self.record_id}){where}: {self.detail}"


@dataclass(frozen=True)
class DatasetInfo:
    name: str
    family: Family
    label_space: tuple[Label, ...]  # empty for CSP: a problem's labels are its option letters
    expected_size: Optional[int]
    third_label_surface: str = "unknown"  # how Unknown is worded in prompts

    @property
    def letter_map(self) -> dict[str, Label]:
        """The truth value each option letter names, in label-space order."""
        return dict(zip("ABC", self.label_space))


DATASETS: dict[str, DatasetInfo] = {
    "ProntoQA": DatasetInfo(
        "ProntoQA", Family.FOL_PRONTOQA,
        (Label.TRUE, Label.FALSE),
        500,
    ),
    "ProofWriter": DatasetInfo(
        "ProofWriter", Family.FOL_PROOFWRITER,
        (Label.TRUE, Label.FALSE, Label.UNKNOWN),
        600,
    ),
    "FOLIO": DatasetInfo(
        "FOLIO", Family.FOL_FOLIO,
        (Label.TRUE, Label.FALSE, Label.UNKNOWN),
        204,
        third_label_surface="uncertain",
    ),
    "LogicalDeduction": DatasetInfo(
        "LogicalDeduction", Family.CSP_LOGICALDEDUCTION,
        (),
        300,
    ),
    "ARLSAT": DatasetInfo(
        "ARLSAT", Family.CSP_ARLSAT,
        (),
        230,
    ),
}

# each dataset's name in lower case, and two spellings of the published names
_DATASET_ALIASES = {**{name.lower(): name for name in DATASETS},
                    "logical_deduction": "LogicalDeduction", "ar-lsat": "ARLSAT"}


def dataset_info(name: Optional[str]) -> DatasetInfo:
    """The dataset ``name`` names in any case or spelling; ``None`` is a missing field."""
    if name is None:
        raise CorpusError("dataset", "MissingField")
    canonical = _DATASET_ALIASES.get(name.lower()) if isinstance(name, str) else None
    if canonical is None:
        raise CorpusError(f"unknown dataset {name!r}", "Malformed")
    return DATASETS[canonical]


@dataclass(frozen=True)
class Problem:
    id: str
    dataset: str
    context: str
    question: str
    options: tuple[tuple[str, str], ...] = ()
    gold: Label = Label.UNKNOWN
    depth: Optional[int] = None

    def __post_init__(self):
        info = dataset_info(self.dataset)
        if info.family.is_csp and not self.options:
            raise CorpusError(f"{self.id}: the {info.name} dataset needs options", "MissingField")
        letters = [letter for letter, _ in self.options]
        if len(set("ABCDE").intersection(letters)) != len(letters):
            raise CorpusError(f"{self.id}: options need distinct letters A-E, got {', '.join(letters)}", "Malformed")
        if self.gold not in self.label_space:
            raise CorpusError(f"{self.id}: gold label {self.gold.value} outside the {info.name} label space",
                              "UnknownLabel")

    @property
    def info(self) -> DatasetInfo:
        return dataset_info(self.dataset)

    @property
    def family(self) -> Family:
        return self.info.family

    @property
    def label_space(self) -> tuple[Label, ...]:
        return self.info.label_space or tuple(Label(letter) for letter, _ in self.options)

    def options_text(self) -> str:
        if self.options:
            return "\n".join(f"{letter}) {text}" for letter, text in self.options)
        # synthesize the canonical truth-value options for T/F(/U) datasets
        info = self.info
        names = {
            Label.TRUE: "True",
            Label.FALSE: "False",
            Label.UNKNOWN: info.third_label_surface.capitalize(),
        }
        return "\n".join(
            f"{letter}) {names[label]}" for letter, label in info.letter_map.items()
        )

    def canonical_label(self, label: Label) -> Label:
        """Map an extracted option letter to the dataset's answer space."""
        return self.info.letter_map.get(label.value, label)

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "dataset": self.dataset,
            "context": self.context,
            "question": self.question,
            "options": [f"{letter}) {text}" for letter, text in self.options],
            "gold": self.gold.value,
        }
        if self.depth is not None:
            out["depth"] = self.depth
        return out


@dataclass
class LoadResult:
    problems: list[Problem] = field(default_factory=list)
    errors: list[LoadError] = field(default_factory=list)


_FIELD_ALIASES = {
    "id": ("id", "example_id", "qid", "ID"),
    "context": ("context", "premises", "passage"),
    "question": ("question", "conclusion"),
    "options": ("options", "choices"),
    "gold": ("gold", "answer", "label"),
    "depth": ("depth", "proof_depth"),
}

_OPTION_LINE_RE = re.compile(r"^\s*\(?([A-E])[).]\s*(.*)$")


def _pick(record: dict, name: str):
    for alias in _FIELD_ALIASES[name]:
        if alias in record and record[alias] is not None:
            return record[alias]
    return None


def _parse_options(raw) -> tuple[tuple[str, str], ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise CorpusError(f"options must be a list, got {type(raw).__name__}", "Malformed")
    if len(raw) > 5:
        raise CorpusError(f"at most 5 options (A-E), got {len(raw)}", "Malformed")
    out = []
    for i, item in enumerate(raw):
        if isinstance(item, dict):
            out.append((str(item.get("label", "ABCDE"[i])), str(item.get("text", ""))))
            continue
        m = _OPTION_LINE_RE.match(str(item))
        if m:
            out.append((m.group(1), m.group(2).strip()))
        else:
            out.append(("ABCDE"[i], str(item).strip()))
    return tuple(out)


def _parse_depth(raw) -> Optional[int]:
    if raw is None:
        return None
    try:
        depth = int(raw)
    except (TypeError, ValueError, OverflowError):
        depth = None
    if depth is None or isinstance(raw, bool) or (isinstance(raw, float) and raw != depth):
        raise CorpusError(f"depth must be an integer, got {raw!r}", "Malformed")
    return depth


def normalize_record(record: dict, info: DatasetInfo) -> Problem:
    """Map one raw dataset record onto the normalized Problem schema."""
    for required in ("id", "context", "question", "gold"):
        if _pick(record, required) is None:
            raise CorpusError(required, "MissingField")
    raw_gold = _pick(record, "gold")
    gold = Label.from_text(str(raw_gold))
    if gold is None:
        raise CorpusError(f"unreadable label {raw_gold!r}", "UnknownLabel")
    if gold.is_letter and not info.family.is_csp:
        gold = info.letter_map.get(gold.value)
        if gold is None:
            raise CorpusError(f"letter {raw_gold!r} outside the {info.name} option set", "UnknownLabel")
    options = ()  # pure T/F/U datasets carry no option texts, and theirs go unread
    if info.family.is_csp:
        options = _parse_options(_pick(record, "options"))
        if not options:
            raise CorpusError("options", "MissingField")
    depth = _parse_depth(_pick(record, "depth"))
    return Problem(
        id=str(_pick(record, "id")),
        dataset=info.name,
        context=str(_pick(record, "context")).strip(),
        question=str(_pick(record, "question")).strip(),
        options=options,
        gold=gold,
        depth=depth,
    )


def json_lines(f: Iterable[str]) -> Iterator[tuple[int, object]]:
    """The 1-based line number and the JSON value, or the decoding error, of each non-blank line.

    A line ends only where iterating ``f`` ends it: at "\n", or in a text
    file also at "\r\n" or "\r".  ``str.splitlines`` would also break at
    U+2028, U+2029 and U+0085, which JSON strings hold unescaped.
    """
    for number, line in enumerate(f, 1):
        if line.strip():
            try:
                yield number, json.loads(line.rstrip("\n"))
            except json.JSONDecodeError as err:
                yield number, err


def json_error_text(err: json.JSONDecodeError) -> str:
    """The decoder's message and column; its line number, which a load error
    or a records error names itself, is left out."""
    return f"{err.msg}: column {err.colno}"


def _load_records(path: Union[str, Path], info_of: Callable[[dict], DatasetInfo]) -> LoadResult:
    """Normalize each record of a JSON-array or JSON-lines file under ``info_of(record)``.

    A line that is not JSON, or a record that is not a JSON object, becomes
    a ``Malformed`` error named ``record-<i>``, and a record that raises a
    ``CorpusError`` an error of its kind under its id; the other records
    still load.  An error in a JSON-lines file names its physical line, and
    an array that does not decode is one error at the decoder's line.  A
    leading byte-order mark is skipped.
    """
    result = LoadResult()
    with open(path, encoding="utf-8-sig") as f:
        if _first_non_space(f) == "[":
            try:
                records = ((None, record) for record in json.load(f))
            except json.JSONDecodeError as err:  # the whole array is one record-0 error
                records = [(err.lineno, err)]
        else:
            records = json_lines(f)
        for i, (line, record) in enumerate(records):
            if not isinstance(record, dict):
                detail = (f"invalid JSON: {json_error_text(record)}" if isinstance(record, json.JSONDecodeError)
                          else f"expected a JSON object, got {type(record).__name__}")
                result.errors.append(LoadError(f"record-{i}", "Malformed", detail, line))
                continue
            rid = str(_pick(record, "id") or f"record-{i}")
            try:
                result.problems.append(normalize_record(record, info_of(record)))
            except CorpusError as err:
                result.errors.append(LoadError(rid, err.kind, str(err), line))
    return result


def _first_non_space(f: TextIO) -> str:
    """The first character of ``f`` that ``str.lstrip`` keeps ("" if none), with ``f`` rewound."""
    first = ""
    while not first and (chunk := f.read(4096)):
        first = chunk.lstrip()[:1]
    f.seek(0)
    return first


def load(dataset: str, path: Union[str, Path]) -> LoadResult:
    """Load and normalize a dataset file (a JSON array or JSON lines).

    Per-record failures become typed :class:`LoadError` entries; the
    remaining records still load.  A count differing from the published
    test-split size only warns.
    """
    info = dataset_info(dataset)
    result = _load_records(path, lambda record: info)
    count = len(result.problems) + len(result.errors)
    if info.expected_size is not None and count != info.expected_size:
        warnings.warn(
            f"{info.name}: loaded {count} records, expected {info.expected_size}",
            stacklevel=2,
        )
    return result


def dump_problems(problems: list[Problem]) -> str:
    """Serialize problems to normalized JSON lines."""
    return "\n".join(json.dumps(p.to_dict(), ensure_ascii=False, sort_keys=True) for p in problems)


def load_normalized(path: Union[str, Path]) -> LoadResult:
    """Load a file already in the normalized schema (dataset field per record)."""
    return _load_records(path, lambda record: dataset_info(record.get("dataset")))


# ---------------------------------------------------------------------------
# Packaged mini-corpus


@dataclass(frozen=True)
class MiniCorpus:
    """Hand-checked offline fixture set: problems, symbolic translations,
    and canned stage responses for replay runs."""

    problems: tuple[Problem, ...]
    translations: dict[str, str]
    stage_texts: dict[tuple[str, str], str]  # (problem id, stage name) -> text

    def problem(self, problem_id: str) -> Problem:
        for p in self.problems:
            if p.id == problem_id:
                return p
        raise CorpusError(f"no mini-corpus problem {problem_id!r}", "MissingField")

    def translation(self, problem_id: str) -> str:
        return self.translations[problem_id]

    def stage_text(self, problem_id: str, stage: str) -> str:
        return self.stage_texts[(problem_id, stage)]

    def golds(self) -> dict[str, Label]:
        return {p.id: p.gold for p in self.problems}


def mini_corpus() -> MiniCorpus:
    """The packaged mini-corpus, each record normalized like any dataset record.

    A record that fails to normalize, or lacks a stage text, raises.
    """
    ref = resources.files("symchain").joinpath("data", "minicorpus.jsonl")
    problems, translations, stage_texts = [], {}, {}
    with ref.open(encoding="utf-8") as f:
        for _, record in json_lines(f):
            if isinstance(record, json.JSONDecodeError):
                raise record
            problem = normalize_record(record, dataset_info(record["dataset"]))
            problems.append(problem)
            translations[problem.id] = record[Stage.TRANSLATOR.value]
            for stage in Stage:
                stage_texts[(problem.id, stage.value)] = record[stage.value]
    return MiniCorpus(tuple(problems), translations, stage_texts)
