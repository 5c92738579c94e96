"""Prompt templates for every pipeline stage and dataset family.

Template bodies are small enough to live here; few-shot demonstrations ship
as plain-text fixture files under ``data/demos/<family>/<stage>.txt`` and a
config may point at an override directory with the same layout.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Optional


class Stage(str, Enum):
    TRANSLATOR = "translator"
    PLANNER = "planner"
    SOLVER = "solver"
    VERIFIER = "verifier"
    NAIVE = "naive"
    COT = "cot"


class Family(str, Enum):
    FOL_PRONTOQA = "fol-prontoqa"
    FOL_PROOFWRITER = "fol-proofwriter"
    FOL_FOLIO = "fol-folio"
    CSP_LOGICALDEDUCTION = "csp-logicaldeduction"
    CSP_ARLSAT = "csp-arlsat"

    @property
    def is_csp(self) -> bool:
        return self.value.startswith("csp")


# Families sharing a symbolic notation share template bodies and demo sets.
_GROUP = {
    Family.FOL_PRONTOQA: "fol_kb",
    Family.FOL_PROOFWRITER: "fol_kb",
    Family.FOL_FOLIO: "fol_folio",
    Family.CSP_LOGICALDEDUCTION: "csp",
    Family.CSP_ARLSAT: "csp",
}

REQUIRED_PLACEHOLDERS = {
    Stage.TRANSLATOR: {"context", "question"},
    Stage.PLANNER: {"context", "question", "premises_sym"},
    Stage.SOLVER: {"context", "question", "premises_sym", "plan"},
    Stage.VERIFIER: {"context", "question", "premises_sym", "reasoning"},
    Stage.NAIVE: {"context", "question", "options"},
    Stage.COT: {"context", "question", "options"},
}

# Distinctive instruction phrases, one per stage, used by the scripted
# corpus backend to recognize which stage a rendered prompt belongs to.
STAGE_MARKERS = {
    Stage.TRANSLATOR: "Translate the problem into the symbolic form",
    Stage.PLANNER: "Derive a step-by-step plan",
    Stage.SOLVER: "Execute the plan step by step",
    Stage.VERIFIER: "Verify the translation and the solving process",
    Stage.NAIVE: "Answer directly with the best option",
    Stage.COT: "Reason step by step, then conclude",
}


_TRANSLATOR_FOL_KB = """Translate the problem into the symbolic form below.
Define every predicate, list the ground facts, write the rules, and parse
the question into a query. Use exactly these section headers: Predicates,
Facts, Rules, Query. Facts are written Pred(constant, True) or
Pred(constant, False); rules use $-prefixed variables, e.g.
Pred($x, True) ⇒ Other($x, True). A gloss may follow any line after ':::'.
For compound predicates separated by a comma, treat the comma as 'or'.

{demos}Problem:
{context}

Question:
{question}

Translation:
"""

_TRANSLATOR_FOL_FOLIO = """Translate the problem into the symbolic form below.
Parse the problem and the question into first-order logic using the grammar:
conjunction expr1 ∧ expr2, disjunction expr1 ∨ expr2, exclusive disjunction
expr1 ⊕ expr2, negation ¬expr1, implication expr1 → expr2, biconditional
expr1 ↔ expr2, universal quantification ∀x, existential quantification ∃x.
Use exactly these section headers: Predicates, Premises, Query. One formula
per line; a gloss may follow after ':::'.

{demos}Problem:
{context}

Question:
{question}

Translation:
"""

_TRANSLATOR_CSP = """Translate the problem into the symbolic form below.
Parse the problem as a constraint satisfaction problem, defining the domain,
the variables, the constraints, and one query per option. Use exactly these
section headers: Domain, Variables, Constraints, Query. Declare variables as
name ∈ {{1, 2, ..., n}}; write constraints with ==, !=, <, <=, >, >=,
AllDifferentConstraint([a, b, c]), |a - b| != k, and combinations with
and / or / not / ->. Query lines start with the option letter, e.g.
A) station_wagon == 2. A gloss may follow any line after ':::'.

{demos}Problem:
{context}

Question:
{question}

Options:
{options}

Translation:
"""

_PLANNER_FOL = """Derive a step-by-step plan that uses the premises and
first-order logic inference rules (Modus Ponens, Modus Tollens, Universal
Instantiation, and the rest) to determine the query. Start by identifying
the goal, then break the necessary inferences down step by step.

{demos}Context:
{context}

Question:
{question}

Symbolic translation:
{premises_sym}

Plan:
"""

_PLANNER_CSP = """Derive a step-by-step plan that uses the domain, the
variables, and the constraints to choose the correct option. Start by
identifying the variables and their domains, then describe how to apply
each constraint and how to evaluate the option queries.

{demos}Context:
{context}

Question:
{question}

Symbolic translation:
{premises_sym}

Plan:
"""

_SOLVER_FOL = """Execute the plan step by step. Select the relevant premises
and apply first-order logic inference rules, naming the rule used at each
step. Conclude whether the query statement is true, false, or unknown, and
finish with a line of the form: Final answer: {{true/false/unknown}}

{demos}Context:
{context}

Question:
{question}

Symbolic translation:
{premises_sym}

Plan:
{plan}

Execution:
"""

_SOLVER_CSP = """Execute the plan step by step: apply the constraints,
enumerate the possibilities that satisfy all of them, evaluate each option
query against those possibilities, and choose the single correct option.
Finish with a line of the form: Final answer: {{X}}

{demos}Context:
{context}

Question:
{question}

Symbolic translation:
{premises_sym}

Plan:
{plan}

Execution:
"""

_VERIFIER_FOL = """Verify the translation and the solving process. Check,
first, that the symbolic translation is semantically consistent with the
natural-language context (for compound predicates separated by a comma,
treat the comma as 'or'); second, that every solving step applies a valid
first-order logic inference rule using only facts from the context or
earlier steps. Refine anything invalid, then state the verified answer as:
Final answer: {{true/false/unknown}}

{demos}Context:
{context}

Question:
{question}

Symbolic translation:
{premises_sym}

Original execution:
{reasoning}

Verification:
"""

_VERIFIER_CSP = """Verify the translation and the solving process. Check the
domain direction carefully (e.g. with '1: oldest', a smaller value means
older), check each constraint against the natural language (change only the
symbolic form if they disagree), and re-solve if the proposed solution
violates any constraint. State the verified answer as:
Final answer: {{X}}

{demos}Context:
{context}

Question:
{question}

Symbolic translation:
{premises_sym}

Original execution:
{reasoning}

Verification:
"""

_NAIVE = """Answer directly with the best option. Reply with a single line
of the form: Answer: {{X}}

{demos}Context:
{context}

Question:
{question}

Options:
{options}

Answer:
"""

_COT = """Reason step by step, then conclude. Think through the problem
carefully and end with a line of the form: The correct option is: X)

{demos}Context:
{context}

Question:
{question}

Options:
{options}

Reasoning:
"""

_BODIES = {
    ("fol_kb", Stage.TRANSLATOR): _TRANSLATOR_FOL_KB,
    ("fol_folio", Stage.TRANSLATOR): _TRANSLATOR_FOL_FOLIO,
    ("csp", Stage.TRANSLATOR): _TRANSLATOR_CSP,
    ("fol_kb", Stage.PLANNER): _PLANNER_FOL,
    ("fol_folio", Stage.PLANNER): _PLANNER_FOL,
    ("csp", Stage.PLANNER): _PLANNER_CSP,
    ("fol_kb", Stage.SOLVER): _SOLVER_FOL,
    ("fol_folio", Stage.SOLVER): _SOLVER_FOL,
    ("csp", Stage.SOLVER): _SOLVER_CSP,
    ("fol_kb", Stage.VERIFIER): _VERIFIER_FOL,
    ("fol_folio", Stage.VERIFIER): _VERIFIER_FOL,
    ("csp", Stage.VERIFIER): _VERIFIER_CSP,
    ("fol_kb", Stage.NAIVE): _NAIVE,
    ("fol_folio", Stage.NAIVE): _NAIVE,
    ("csp", Stage.NAIVE): _NAIVE,
    ("fol_kb", Stage.COT): _COT,
    ("fol_folio", Stage.COT): _COT,
    ("csp", Stage.COT): _COT,
}

# a doubled brace is an escaped one (group 1 empty); a placeholder touches no other brace.
# Every branch starts with a brace, so a search skips straight to the next one.
_PLACEHOLDER_RE = re.compile(r"\{\{|\}\}|\{(?<!\{\{)([a-z_]+)\}(?!\})")

_DEMO_SPLIT_RE = re.compile(r"^=== demo\s*$", re.MULTILINE)
_DEMO_IO_RE = re.compile(r"^--- input\s*\n(?P<input>.*?)^--- output\s*\n(?P<output>.*)\Z", re.DOTALL | re.MULTILINE)


class TemplateError(Exception):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    stage: Stage
    family: Family
    text: str
    demos: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        found = set(_PLACEHOLDER_RE.findall(self.text))
        missing = REQUIRED_PLACEHOLDERS[self.stage] - found
        if missing:
            raise TemplateError(
                f"template for {self.stage.value}/{self.family.value} lacks placeholders: {sorted(missing)}"
            )
        if "demos" not in found:
            raise TemplateError(f"template for {self.stage.value}/{self.family.value} lacks the demos slot")

    def render(self, bindings: dict[str, str], few_shot: int = 2) -> str:
        demo_text = ""
        for demo_in, demo_out in self.demos[:few_shot]:
            demo_text += f"Example:\n{demo_in.rstrip()}\n\n{demo_out.rstrip()}\n\n---\n\n"
        values = dict(bindings)
        values["demos"] = demo_text
        missing = set(_PLACEHOLDER_RE.findall(self.text)) - values.keys() - {""}
        if missing:
            raise TemplateError(f"bindings missing for placeholders: {sorted(missing)}")
        # one pass over the template's own text: values are neither re-scanned nor unescaped
        return _PLACEHOLDER_RE.sub(lambda m: values[m.group(1)] if m.group(1) else m.group()[0], self.text)


def parse_demo_file(text: str) -> list[tuple[str, str]]:
    demos = []
    for chunk in _DEMO_SPLIT_RE.split(text):
        if not chunk.strip():
            continue
        m = _DEMO_IO_RE.search(chunk)
        if not m:
            raise TemplateError("demo file entry lacks '--- input' / '--- output' markers")
        demos.append((m.group("input").strip("\n"), m.group("output").strip("\n")))
    return demos


@functools.cache
def _packaged_demos(family: Family, stage: Stage) -> tuple[tuple[str, str], ...]:
    """The demos packaged for ``(family, stage)``, read and parsed once per process."""
    ref = resources.files("symchain").joinpath("data", "demos", family.value, f"{stage.value}.txt")
    if ref.is_file():
        return tuple(parse_demo_file(ref.read_text(encoding="utf-8")))
    return ()


def _load_demos(family: Family, stage: Stage, demo_dir: Optional[Path]) -> tuple[tuple[str, str], ...]:
    if demo_dir is not None:
        candidate = Path(demo_dir) / family.value / f"{stage.value}.txt"
        if candidate.exists():
            return tuple(parse_demo_file(candidate.read_text(encoding="utf-8")))
    return _packaged_demos(family, stage)


class TemplateCatalog:
    """Resolves (stage, family) to a template, with optional override dirs.

    ``template_dir`` may hold plain-text template bodies laid out as
    ``<family>/<stage>.txt``; ``demo_dir`` mirrors the packaged demo layout.
    """

    def __init__(self, template_dir: Optional[str] = None, demo_dir: Optional[str] = None):
        self.template_dir = Path(template_dir) if template_dir else None
        self.demo_dir = Path(demo_dir) if demo_dir else None
        self._cache: dict[tuple[Stage, Family], PromptTemplate] = {}

    def get(self, stage: Stage, family: Family) -> PromptTemplate:
        key = (stage, family)
        if key not in self._cache:
            text = None
            if self.template_dir is not None:
                candidate = self.template_dir / family.value / f"{stage.value}.txt"
                if candidate.exists():
                    text = candidate.read_text(encoding="utf-8")
            if text is None:
                text = _BODIES[(_GROUP[family], stage)]
            demos = _load_demos(family, stage, self.demo_dir)
            self._cache[key] = PromptTemplate(stage, family, text, demos)
        return self._cache[key]
