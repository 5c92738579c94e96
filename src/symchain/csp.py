"""Constraint models for ordering puzzles, with must/may query semantics.

A model assigns each variable a value from 1..n; constraints are
comparisons, all-different, adjacency exclusions, and boolean combinations
thereof.  ``solve_all`` enumerates every satisfying assignment (backtracking,
but output-equivalent to naive enumeration) and ``evaluate_queries``
classifies each answer option as must / may / cannot be true.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from .folparse import ParseDiagnostic, ParseError, TokenCursor, read_sections
from .logic import LogicError


class CspError(LogicError):
    pass


class SearchSpaceTooLargeError(CspError):
    def __init__(self, size: int, limit: int):
        super().__init__(f"search space of {size} assignments exceeds the {limit} guard")


class NoSolutionsError(CspError):
    """The model is over-constrained; query verdicts are undefined."""


# ---------------------------------------------------------------------------
# Constraint expressions

LinearTerm = Union[str, int]  # a variable name or an integer constant

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Compare:
    lhs: LinearTerm
    op: str
    rhs: LinearTerm

    def __post_init__(self):
        if self.op not in _OPS:
            raise CspError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class AbsDiffNotEqual:
    var_a: str
    var_b: str
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise CspError("absolute-difference constant must be ≥ 0")


@dataclass(frozen=True)
class AllDifferent:
    names: tuple[str, ...]


@dataclass(frozen=True)
class CImplies:
    cond: "ConstraintExpr"
    then: "ConstraintExpr"


@dataclass(frozen=True)
class CAnd:
    left: "ConstraintExpr"
    right: "ConstraintExpr"


@dataclass(frozen=True)
class COr:
    left: "ConstraintExpr"
    right: "ConstraintExpr"


@dataclass(frozen=True)
class CNot:
    body: "ConstraintExpr"


ConstraintExpr = Union[Compare, AbsDiffNotEqual, AllDifferent, CImplies, CAnd, COr, CNot]


def expr_variables(expr: ConstraintExpr) -> set[str]:
    if isinstance(expr, Compare):
        return {t for t in (expr.lhs, expr.rhs) if isinstance(t, str)}
    if isinstance(expr, AbsDiffNotEqual):
        return {expr.var_a, expr.var_b}
    if isinstance(expr, AllDifferent):
        return set(expr.names)
    if isinstance(expr, CImplies):
        return expr_variables(expr.cond) | expr_variables(expr.then)
    if isinstance(expr, (CAnd, COr)):
        return expr_variables(expr.left) | expr_variables(expr.right)
    if isinstance(expr, CNot):
        return expr_variables(expr.body)
    raise CspError(f"not a constraint expression: {expr!r}")


def eval_expr(expr: ConstraintExpr, assignment: dict[str, int]) -> bool:
    if isinstance(expr, Compare):
        lhs = assignment[expr.lhs] if isinstance(expr.lhs, str) else expr.lhs
        rhs = assignment[expr.rhs] if isinstance(expr.rhs, str) else expr.rhs
        return _OPS[expr.op](lhs, rhs)
    if isinstance(expr, AbsDiffNotEqual):
        return abs(assignment[expr.var_a] - assignment[expr.var_b]) != expr.k
    if isinstance(expr, AllDifferent):
        values = [assignment[n] for n in expr.names]
        return len(set(values)) == len(values)
    if isinstance(expr, CImplies):
        return (not eval_expr(expr.cond, assignment)) or eval_expr(expr.then, assignment)
    if isinstance(expr, CAnd):
        return eval_expr(expr.left, assignment) and eval_expr(expr.right, assignment)
    if isinstance(expr, COr):
        return eval_expr(expr.left, assignment) or eval_expr(expr.right, assignment)
    if isinstance(expr, CNot):
        return not eval_expr(expr.body, assignment)
    raise CspError(f"not a constraint expression: {expr!r}")


def print_expr(expr: ConstraintExpr) -> str:
    if isinstance(expr, Compare):
        return f"{expr.lhs} {expr.op} {expr.rhs}"
    if isinstance(expr, AbsDiffNotEqual):
        return f"|{expr.var_a} - {expr.var_b}| != {expr.k}"
    if isinstance(expr, AllDifferent):
        return f"AllDifferentConstraint([{', '.join(expr.names)}])"
    if isinstance(expr, CImplies):
        return f"({print_expr(expr.cond)}) -> ({print_expr(expr.then)})"
    if isinstance(expr, CAnd):
        return f"({print_expr(expr.left)} and {print_expr(expr.right)})"
    if isinstance(expr, COr):
        return f"({print_expr(expr.left)} or {print_expr(expr.right)})"
    if isinstance(expr, CNot):
        return f"not ({print_expr(expr.body)})"
    raise CspError(f"not a constraint expression: {expr!r}")


# ---------------------------------------------------------------------------
# Model


@dataclass
class CspModel:
    domain_size: int
    domain_gloss: tuple[str, ...] = ()
    variables: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)
    constraints: list[ConstraintExpr] = field(default_factory=list)
    queries: list[tuple[str, ConstraintExpr]] = field(default_factory=list)

    def __post_init__(self):
        if self.domain_size < 1:
            raise CspError("domain size must be ≥ 1")
        names = [n for n, _ in self.variables]
        if len(names) != len(set(names)):
            raise CspError("variable names must be unique")
        declared = set(names)
        for expr in self.constraints:
            undeclared = expr_variables(expr) - declared
            if undeclared:
                raise CspError(f"constraint references undeclared variables: {sorted(undeclared)}")
        for _, expr in self.queries:
            undeclared = expr_variables(expr) - declared
            if undeclared:
                raise CspError(f"query references undeclared variables: {sorted(undeclared)}")

    def to_text(self) -> str:
        out = ["Domain:"]
        if self.domain_gloss:
            out.extend(self.domain_gloss)
        else:
            out.append(f"1 to {self.domain_size}")
        out.append("Variables:")
        for name, domain in self.variables:
            out.append(f"{name} ∈ {{{', '.join(str(v) for v in domain)}}}")
        out.append("Constraints:")
        for expr in self.constraints:
            out.append(print_expr(expr))
        if self.queries:
            out.append("Query:")
            for letter, expr in self.queries:
                out.append(f"{letter}) {print_expr(expr)}")
        return "\n".join(out)


# ---------------------------------------------------------------------------
# Block parsing

_CSP_HEADER_RE = re.compile(
    r"^\s*(?P<name>domain|variables?|constraints?|quer(?:y|ies)(?:\s+for\s+options)?|options?)\s*:?\s*$",
    re.IGNORECASE,
)
_VAR_DECL_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:∈|in)\s*\{(?P<values>[^}]*)\}\s*$"
)
_DOMAIN_ENDPOINT_RE = re.compile(r"^(?P<num>\d+)\s*:\s*(?P<gloss>.+)$")
_DOMAIN_RANGE_RE = re.compile(r"^(?P<gloss>[^:]+):\s*(?P<lo>\d+)\s*(?:to|\.\.|–|-)\s*(?P<hi>\d+)\s*$")
_QUERY_RE = re.compile(r"^(?P<letter>[A-E])\s*[).]\s*(?P<rest>.+)$")

_CSP_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<ARROW>->|→|⇒|=>)
  | (?P<OP><=|>=|==|!=|≠|≤|≥|<|>|=)
  | (?P<INT>\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<LBRACK>\[)
  | (?P<RBRACK>\])
  | (?P<PIPE>\|)
  | (?P<MINUS>[-−])
  | (?P<COMMA>,)
    """,
    re.VERBOSE,
)

_OP_ALIASES = {"≠": "!=", "≤": "<=", "≥": ">=", "=": "=="}


def _csp_section_kind(header: str) -> str:
    h = header.lower()
    if h.startswith("domain"):
        return "domain"
    if h.startswith("variable"):
        return "variables"
    if h.startswith("constraint"):
        return "constraints"
    return "queries"


class _ExprParser(TokenCursor):
    """Precedence (tightest first): comparisons, not, and, or, ->."""

    token_re = _CSP_TOKEN_RE
    noun = "constraint"
    symbol_context = " in constraint"

    def parse(self) -> ConstraintExpr:
        expr = self._implies()
        tok = self._peek()
        if tok is not None:
            raise ParseError(tok.pos, f"unexpected trailing input {tok.text!r}")
        return expr

    def _implies(self) -> ConstraintExpr:
        left = self._or()
        if self._peek() and self._peek().kind == "ARROW":
            self._next()
            return CImplies(left, self._implies())
        return left

    def _or(self) -> ConstraintExpr:
        left = self._and()
        while self._peek() and self._peek().kind == "IDENT" and self._peek().text.lower() == "or":
            self._next()
            left = COr(left, self._and())
        return left

    def _and(self) -> ConstraintExpr:
        left = self._not()
        while self._peek() and self._peek().kind == "IDENT" and self._peek().text.lower() == "and":
            self._next()
            left = CAnd(left, self._not())
        return left

    def _not(self) -> ConstraintExpr:
        tok = self._peek()
        if tok and tok.kind == "IDENT" and tok.text.lower() == "not":
            self._next()
            return CNot(self._not())
        return self._primary()

    def _primary(self) -> ConstraintExpr:
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), "unexpected end of constraint")
        if tok.kind == "LPAREN":
            self._next()
            inner = self._implies()
            closer = self._peek()
            if closer is None or closer.kind != "RPAREN":
                raise ParseError(closer.pos if closer else len(self.text), "unbalanced parenthesis")
            self._next()
            return inner
        if tok.kind == "PIPE":
            return self._absdiff()
        if tok.kind == "IDENT" and tok.text in ("AllDifferentConstraint", "AllDifferent"):
            return self._alldifferent()
        return self._comparison()

    def _absdiff(self) -> ConstraintExpr:
        self._next()  # |
        a = self._expect("IDENT", "a variable name").text
        self._expect("MINUS", "'-'")
        b = self._expect("IDENT", "a variable name").text
        self._expect("PIPE", "'|'")
        op_tok = self._expect("OP", "a comparison operator")
        op = _OP_ALIASES.get(op_tok.text, op_tok.text)
        if op != "!=":
            raise ParseError(op_tok.pos, "absolute-difference constraints support only '!='")
        k_tok = self._expect("INT", "an integer")
        return AbsDiffNotEqual(a, b, int(k_tok.text))

    def _alldifferent(self) -> ConstraintExpr:
        self._next()  # name
        self._expect("LPAREN", "'('")
        bracketed = self._peek() and self._peek().kind == "LBRACK"
        if bracketed:
            self._next()
        names = [self._expect("IDENT", "a variable name").text]
        while self._peek() and self._peek().kind == "COMMA":
            self._next()
            names.append(self._expect("IDENT", "a variable name").text)
        if bracketed:
            self._expect("RBRACK", "']'")
        self._expect("RPAREN", "')'")
        return AllDifferent(tuple(names))

    def _comparison(self) -> ConstraintExpr:
        lhs = self._operand()
        op_tok = self._peek()
        if op_tok is None or op_tok.kind != "OP":
            raise ParseError(
                op_tok.pos if op_tok else len(self.text),
                "expected a comparison operator",
            )
        self._next()
        rhs = self._operand()
        op = _OP_ALIASES.get(op_tok.text, op_tok.text)
        return Compare(lhs, op, rhs)

    def _operand(self) -> LinearTerm:
        tok = self._next()
        if tok.kind == "INT":
            return int(tok.text)
        if tok.kind == "IDENT":
            return tok.text
        raise ParseError(tok.pos, f"expected a variable or integer, found {tok.text!r}")


def parse_constraint(text: str) -> ConstraintExpr:
    return _ExprParser(text).parse()


def _parse_with_colon_gloss(body: str) -> ConstraintExpr:
    """Parse, tolerating a trailing ``: gloss`` when ::: was not used."""
    try:
        return parse_constraint(body)
    except ParseError:
        if ":" in body:
            return parse_constraint(body.split(":", 1)[0])
        raise


def parse_csp_block(text: str) -> tuple[Optional[CspModel], list[ParseDiagnostic]]:
    """Parse a Domain / Variables / Constraints / Query block.

    Returns the model (or None when it cannot be assembled) plus per-line
    diagnostics.  An input with no recognizable sections raises
    :class:`ParseError`.
    """
    diagnostics: list[ParseDiagnostic] = []
    domain_gloss: list[str] = []
    domain_max = 0
    variables: list[tuple[str, tuple[int, ...]]] = []
    constraints: list[ConstraintExpr] = []
    queries: list[tuple[str, ConstraintExpr]] = []

    headers, lines = read_sections(text, _CSP_HEADER_RE, _csp_section_kind)
    for section, content, body, _, pos in lines:
        if section is None:
            diagnostics.append(ParseDiagnostic(pos, f"line outside any section: {content[:40]!r}"))
        elif section == "domain":
            endpoint = _DOMAIN_ENDPOINT_RE.match(body)
            ranged = _DOMAIN_RANGE_RE.match(body)
            if endpoint:
                domain_max = max(domain_max, int(endpoint.group("num")))
                domain_gloss.append(body)
            elif ranged:
                domain_max = max(domain_max, int(ranged.group("hi")))
                domain_gloss.append(body)
            else:
                diagnostics.append(ParseDiagnostic(pos, f"cannot read domain line: {body!r}"))
        elif section == "variables":
            m = _VAR_DECL_RE.match(body)
            if not m:
                diagnostics.append(ParseDiagnostic(pos, f"cannot read variable declaration: {body!r}"))
            else:
                try:
                    values = tuple(sorted(int(v.strip()) for v in m.group("values").split(",") if v.strip()))
                except ValueError:
                    diagnostics.append(ParseDiagnostic(pos, f"non-integer domain value in: {body!r}"))
                    values = ()
                if values:
                    variables.append((m.group("name"), values))
                    domain_max = max(domain_max, max(values))
        elif section == "constraints":
            try:
                constraints.append(_parse_with_colon_gloss(body))
            except ParseError as err:
                diagnostics.append(ParseDiagnostic(pos + err.position, err.message))
        else:
            qm = _QUERY_RE.match(body)
            if not qm:
                diagnostics.append(ParseDiagnostic(pos, f"query line must start with an option letter: {body!r}"))
                continue
            try:
                queries.append((qm.group("letter"), _parse_with_colon_gloss(qm.group("rest"))))
            except ParseError as err:
                diagnostics.append(ParseDiagnostic(pos + err.position, err.message))

    if not headers:
        raise ParseError(0, "no sections found")
    if "queries" not in headers:
        diagnostics.append(ParseDiagnostic(len(text), "missing Query section"))
        return None, diagnostics
    if not variables:
        diagnostics.append(ParseDiagnostic(len(text), "no variables declared"))
        return None, diagnostics

    try:
        model = CspModel(
            domain_size=domain_max or max(max(vals) for _, vals in variables),
            domain_gloss=tuple(domain_gloss),
            variables=variables,
            constraints=constraints,
            queries=queries,
        )
    except CspError as err:
        diagnostics.append(ParseDiagnostic(0, str(err)))
        return None, diagnostics
    return model, diagnostics


# ---------------------------------------------------------------------------
# Solving

SEARCH_SPACE_GUARD = 10_000_000


@dataclass(frozen=True)
class SolveResult:
    solutions: tuple[dict[str, int], ...]
    truncated: bool


def solve_all(model: CspModel, limit: Optional[int] = None) -> SolveResult:
    """All satisfying assignments, ordered as naive lexicographic enumeration.

    Backtracks over variables in declaration order, checking each constraint
    as soon as its variables are assigned, which prunes without changing the
    result set or its order.
    """
    space = math.prod(len(domain) for _, domain in model.variables) if model.variables else 0
    if space > SEARCH_SPACE_GUARD:
        raise SearchSpaceTooLargeError(space, SEARCH_SPACE_GUARD)

    names = [n for n, _ in model.variables]
    domains = [d for _, d in model.variables]
    position = {n: i for i, n in enumerate(names)}
    # constraint -> index of the last variable it mentions
    checks: list[list[ConstraintExpr]] = [[] for _ in names]
    for expr in model.constraints:
        used = expr_variables(expr)
        last = max(position[v] for v in used) if used else 0
        checks[last].append(expr)

    solutions: list[dict[str, int]] = []
    truncated = False
    assignment: dict[str, int] = {}

    def backtrack(i: int) -> bool:
        nonlocal truncated
        if i == len(names):
            solutions.append(dict(assignment))
            if limit is not None and len(solutions) >= limit:
                truncated = True
                return False
            return True
        for value in domains[i]:
            assignment[names[i]] = value
            if all(eval_expr(c, assignment) for c in checks[i]):
                if not backtrack(i + 1):
                    del assignment[names[i]]
                    return False
            del assignment[names[i]]
        return True

    if names:
        backtrack(0)
    return SolveResult(tuple(solutions), truncated)


class OptionStatus(str, Enum):
    MUST_BE_TRUE = "MustBeTrue"
    MAY_BE_TRUE = "MayBeTrue"
    CANNOT_BE_TRUE = "CannotBeTrue"


@dataclass(frozen=True)
class QueryVerdict:
    statuses: dict[str, OptionStatus]
    solution_count: int

    def must(self, letter: str) -> bool:
        return self.statuses[letter] is OptionStatus.MUST_BE_TRUE

    def may(self, letter: str) -> bool:
        # must-be-true options hold in every solution, hence in at least one
        return self.statuses[letter] in (OptionStatus.MUST_BE_TRUE, OptionStatus.MAY_BE_TRUE)

    def cannot(self, letter: str) -> bool:
        return self.statuses[letter] is OptionStatus.CANNOT_BE_TRUE


def evaluate_queries(model: CspModel) -> QueryVerdict:
    """Classify each option over the full solution set.

    Raises :class:`NoSolutionsError` on an over-constrained model so the
    pipeline can report it as an execution failure rather than an answer.
    """
    result = solve_all(model)
    if not result.solutions:
        raise NoSolutionsError("model has no solutions; verdicts are undefined")
    statuses = {}
    for letter, expr in model.queries:
        holds = [eval_expr(expr, s) for s in result.solutions]
        if all(holds):
            statuses[letter] = OptionStatus.MUST_BE_TRUE
        elif any(holds):
            statuses[letter] = OptionStatus.MAY_BE_TRUE
        else:
            statuses[letter] = OptionStatus.CANNOT_BE_TRUE
    return QueryVerdict(statuses, len(result.solutions))


class QuestionMode(str, Enum):
    MUST_BE_TRUE = "MustBeTrue"
    COULD_BE_TRUE = "CouldBeTrue"
    CANNOT_BE_TRUE = "CannotBeTrue"


def detect_question_mode(question: str) -> QuestionMode:
    low = question.lower()
    if "cannot be true" in low or "can not be true" in low or "must be false" in low:
        return QuestionMode.CANNOT_BE_TRUE
    if "must be true" in low:
        return QuestionMode.MUST_BE_TRUE
    if "could be true" in low or "can be true" in low or "may be true" in low:
        return QuestionMode.COULD_BE_TRUE
    return QuestionMode.MUST_BE_TRUE


@dataclass(frozen=True)
class Undecided:
    candidates: frozenset[str]

    def __str__(self):
        inner = ", ".join(sorted(self.candidates)) or "∅"
        return f"Undecided{{{inner}}}"


def select_answer(verdict: QueryVerdict, mode: QuestionMode) -> Union[str, Undecided]:
    """The unique option matching the question mode, else Undecided."""
    if mode is QuestionMode.MUST_BE_TRUE:
        hits = [letter for letter in verdict.statuses if verdict.must(letter)]
    elif mode is QuestionMode.COULD_BE_TRUE:
        hits = [letter for letter in verdict.statuses if verdict.may(letter)]
    else:
        hits = [letter for letter in verdict.statuses if verdict.cannot(letter)]
    if len(hits) == 1:
        return hits[0]
    return Undecided(frozenset(hits))
