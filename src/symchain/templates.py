"""Prompt templates for every pipeline stage and dataset family.

Each packaged body is built from one table of instruction paragraphs and
one layout row per stage (its input sections and the heading the model
continues); few-shot demonstrations ship as plain-text fixture files under
``data/demos/<family>/<stage>.txt``, and a config may point at override
directories of bodies or demos with the same layout.
"""

from __future__ import annotations

import functools
import os
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


# Families sharing a symbolic notation share instructions: ProntoQA and
# ProofWriter translate to Facts/Rules, FOLIO to first-order formulas.
_KB = (Family.FOL_PRONTOQA, Family.FOL_PROOFWRITER)
_FOL = (*_KB, Family.FOL_FOLIO)
_CSP = (Family.CSP_LOGICALDEDUCTION, Family.CSP_ARLSAT)

# Each stage's instruction paragraph, keyed by the stage and the families
# whose prompts open with it; a brace is doubled, as everywhere in a body.
_INSTRUCTIONS = {
    (Stage.TRANSLATOR, _KB): """Translate the problem into the symbolic form below.
Define every predicate, list the ground facts, write the rules, and parse
the question into a query. Use exactly these section headers: Predicates,
Facts, Rules, Query. Facts are written Pred(constant, True) or
Pred(constant, False); rules use $-prefixed variables, e.g.
Pred($x, True) ⇒ Other($x, True). A gloss may follow any line after ':::'.
For compound predicates separated by a comma, treat the comma as 'or'.""",
    (Stage.TRANSLATOR, (Family.FOL_FOLIO,)): """Translate the problem into the symbolic form below.
Parse the problem and the question into first-order logic using the grammar:
conjunction expr1 ∧ expr2, disjunction expr1 ∨ expr2, exclusive disjunction
expr1 ⊕ expr2, negation ¬expr1, implication expr1 → expr2, biconditional
expr1 ↔ expr2, universal quantification ∀x, existential quantification ∃x.
Use exactly these section headers: Predicates, Premises, Query. One formula
per line; a gloss may follow after ':::'.""",
    (Stage.TRANSLATOR, _CSP): """Translate the problem into the symbolic form below.
Parse the problem as a constraint satisfaction problem, defining the domain,
the variables, the constraints, and one query per option. Use exactly these
section headers: Domain, Variables, Constraints, Query. Declare variables as
name ∈ {{1, 2, ..., n}}; write constraints with ==, !=, <, <=, >, >=,
AllDifferentConstraint([a, b, c]), |a - b| != k, and combinations with
and / or / not / ->. Query lines start with the option letter, e.g.
A) station_wagon == 2. A gloss may follow any line after ':::'.""",
    (Stage.PLANNER, _FOL): """Derive a step-by-step plan that uses the premises and
first-order logic inference rules (Modus Ponens, Modus Tollens, Universal
Instantiation, and the rest) to determine the query. Start by identifying
the goal, then break the necessary inferences down step by step.""",
    (Stage.PLANNER, _CSP): """Derive a step-by-step plan that uses the domain, the
variables, and the constraints to choose the correct option. Start by
identifying the variables and their domains, then describe how to apply
each constraint and how to evaluate the option queries.""",
    (Stage.SOLVER, _FOL): """Execute the plan step by step. Select the relevant premises
and apply first-order logic inference rules, naming the rule used at each
step. Conclude whether the query statement is true, false, or unknown, and
finish with a line of the form: Final answer: {{true/false/unknown}}""",
    (Stage.SOLVER, _CSP): """Execute the plan step by step: apply the constraints,
enumerate the possibilities that satisfy all of them, evaluate each option
query against those possibilities, and choose the single correct option.
Finish with a line of the form: Final answer: {{X}}""",
    (Stage.VERIFIER, _FOL): """Verify the translation and the solving process. Check,
first, that the symbolic translation is semantically consistent with the
natural-language context (for compound predicates separated by a comma,
treat the comma as 'or'); second, that every solving step applies a valid
first-order logic inference rule using only facts from the context or
earlier steps. Refine anything invalid, then state the verified answer as:
Final answer: {{true/false/unknown}}""",
    (Stage.VERIFIER, _CSP): """Verify the translation and the solving process. Check the
domain direction carefully (e.g. with '1: oldest', a smaller value means
older), check each constraint against the natural language (change only the
symbolic form if they disagree), and re-solve if the proposed solution
violates any constraint. State the verified answer as:
Final answer: {{X}}""",
    (Stage.NAIVE, tuple(Family)): """Answer directly with the best option. Reply with a single line
of the form: Answer: {{X}}""",
    (Stage.COT, tuple(Family)): """Reason step by step, then conclude. Think through the problem
carefully and end with a line of the form: The correct option is: X)""",
}

_CONTEXT = (("Context", "context"), ("Question", "question"))
_OPTIONS = ("Options", "options")
_SYMBOLIC = (*_CONTEXT, ("Symbolic translation", "premises_sym"))

# Each stage's input sections as (heading, placeholder) pairs, then the
# heading the model continues; the CSP translator also shows the options.
_LAYOUT = {
    Stage.TRANSLATOR: ((("Problem", "context"), ("Question", "question")), "Translation"),
    Stage.PLANNER: (_SYMBOLIC, "Plan"),
    Stage.SOLVER: ((*_SYMBOLIC, ("Plan", "plan")), "Execution"),
    Stage.VERIFIER: ((*_SYMBOLIC, ("Original execution", "reasoning")), "Verification"),
    Stage.NAIVE: ((*_CONTEXT, _OPTIONS), "Answer"),
    Stage.COT: ((*_CONTEXT, _OPTIONS), "Reasoning"),
}

# The placeholders a body of each stage must hold, besides the demos slot.
REQUIRED_PLACEHOLDERS = {stage: {name for _, name in sections} for stage, (sections, _) in _LAYOUT.items()}

# The placeholder under which later stages read a stage's response.
RESPONSE_BINDINGS = {Stage.TRANSLATOR: "premises_sym", Stage.PLANNER: "plan", Stage.SOLVER: "reasoning"}

# Each stage's marker, the common prefix of the first lines of its instruction
# paragraphs; the scripted corpus backend recognizes a rendered prompt's stage by it.
STAGE_MARKERS = {stage: os.path.commonprefix([text.split("\n", 1)[0] for (s, _), text in _INSTRUCTIONS.items()
                                             if s is stage]) for stage in Stage}


def _packaged_body(stage: Stage, family: Family) -> str:
    """The packaged body of ``(stage, family)``: its instructions, the demos
    slot, each input section, and the heading the model continues."""
    instructions = next(text for (s, families), text in _INSTRUCTIONS.items() if s is stage and family in families)
    sections, continued = _LAYOUT[stage]
    if stage is Stage.TRANSLATOR and family.is_csp:
        sections += (_OPTIONS,)
    inputs = "".join(f"{heading}:\n{{{name}}}\n\n" for heading, name in sections)
    return f"{instructions}\n\n{{demos}}{inputs}{continued}:\n"


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
    return tuple(parse_demo_file(ref.read_text(encoding="utf-8")))


def _override(directory: Optional[Path], stage: Stage, family: Family) -> Optional[str]:
    """The text of ``<directory>/<family>/<stage>.txt``, read past a byte-order
    mark; None when there is no directory or no such file."""
    if directory is None or not (path := directory / family.value / f"{stage.value}.txt").exists():
        return None
    return path.read_text(encoding="utf-8-sig")


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
            text = _override(self.template_dir, stage, family)
            if text is None:
                text = _packaged_body(stage, family)
            demo_text = _override(self.demo_dir, stage, family)
            demos = _packaged_demos(family, stage) if demo_text is None else tuple(parse_demo_file(demo_text))
            self._cache[key] = PromptTemplate(stage, family, text, demos)
        return self._cache[key]
