"""Constraint models for ordering puzzles, with must/may query semantics.

A model assigns each variable a value from 1..n; constraints are
comparisons, all-different, adjacency exclusions, and boolean combinations
thereof.  ``solve_all`` enumerates every satisfying assignment (backtracking
that checks each constraint at its last variable and prunes top-level
all-different constraints value by value, but output-equivalent to naive
enumeration) and ``evaluate_queries`` classifies each answer option as
must / may / cannot be true.  Both compile each constraint and query once
per call (``compile_expr``) into one flat program of leaf checks joined by
their true and false exits, which one loop runs at any nesting depth.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Collection, Iterator, Optional, Union

from .folparse import NAME_START, ParseDiagnostic, ParseError, TokenCursor, read_sections
from .logic import LogicError


class CspError(LogicError):
    """A model or search fault; ``subject`` is the variable name or the
    constraint or query expression a model rejects, if it names one."""

    def __init__(self, message: str, subject: object = None):
        super().__init__(message)
        self.subject = subject


class SearchSpaceTooLargeError(CspError):
    def __init__(self, size: int, limit: int):
        super().__init__(f"search space of {size} assignments exceeds the {limit} guard")


class NoSolutionsError(CspError):
    """The model is over-constrained; query verdicts are undefined."""


# ---------------------------------------------------------------------------
# Constraint expressions

LinearTerm = Union[str, int]  # a variable name or an integer constant

_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


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
_LEAVES = (Compare, AbsDiffNotEqual, AllDifferent)


def _walk(expr: ConstraintExpr) -> Iterator[ConstraintExpr]:
    """Each node of ``expr`` in preorder, left to right, walked with a stack;
    raises ``CspError`` on a non-expression, after yielding it."""
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, CImplies):
            stack += [e.then, e.cond]
        elif isinstance(e, (CAnd, COr)):
            stack += [e.right, e.left]
        elif isinstance(e, CNot):
            stack.append(e.body)
        elif not isinstance(e, _LEAVES):
            raise CspError(f"not a constraint expression: {e!r}")


def expr_variables(expr: ConstraintExpr) -> set[str]:
    out: set[str] = set()
    for e in _walk(expr):
        if isinstance(e, Compare):
            out.update(t for t in (e.lhs, e.rhs) if isinstance(t, str))
        elif isinstance(e, AbsDiffNotEqual):
            out.update((e.var_a, e.var_b))
        elif isinstance(e, AllDifferent):
            out.update(e.names)
    return out


Check = Callable[[dict[str, int]], bool]


def _compile_leaf(e: ConstraintExpr) -> Check:
    if isinstance(e, AbsDiffNotEqual):
        a, b, k = e.var_a, e.var_b, e.k
        return lambda s: abs(s[a] - s[b]) != k
    if isinstance(e, AllDifferent):
        names, size = e.names, len(e.names)
        return lambda s: len({s[n] for n in names}) == size
    op, lhs, rhs = _OPS[e.op], e.lhs, e.rhs
    if isinstance(lhs, str):
        if isinstance(rhs, str):
            return lambda s: op(s[lhs], s[rhs])
        return lambda s: op(s[lhs], rhs)
    if isinstance(rhs, str):
        return lambda s: op(lhs, s[rhs])
    value = op(lhs, rhs)
    return lambda s: value


# the results a program step can go to in place of a next step
_TRUE, _FALSE = -1, -2


def compile_expr(expr: ConstraintExpr) -> Check:
    """A function of an assignment that returns the value of ``expr``, left
    first and short-circuiting, so a missing variable raises ``KeyError`` at
    the first leaf that reads it.  A lone leaf compiles to its leaf check;
    any other expression to a program of steps ``(leaf check, next if true,
    next if false)``, laid out with one stack: ``not`` swaps its operand's
    exits, and a binary node lays out its second operand first, then its
    first with exits to that operand's entry step or to the node's result."""
    if isinstance(expr, _LEAVES):
        return _compile_leaf(expr)
    steps: list[tuple[Check, int, int]] = []  # the entry step of each part is laid out last
    stack = [(expr, _TRUE, _FALSE, False)]  # (node, next if true, next if false, second operand laid out)
    while stack:
        e, if_true, if_false, second_laid_out = stack.pop()
        if isinstance(e, CNot):
            stack.append((e.body, if_false, if_true, False))
        elif isinstance(e, (CAnd, COr, CImplies)) and not second_laid_out:
            second = e.then if isinstance(e, CImplies) else e.right
            stack += [(e, if_true, if_false, True), (second, if_true, if_false, False)]
        elif isinstance(e, CAnd):
            stack.append((e.left, len(steps) - 1, if_false, False))
        elif isinstance(e, COr):
            stack.append((e.left, if_true, len(steps) - 1, False))
        elif isinstance(e, CImplies):
            stack.append((e.cond, len(steps) - 1, if_true, False))
        elif isinstance(e, _LEAVES):
            steps.append((_compile_leaf(e), if_true, if_false))
        else:
            raise CspError(f"not a constraint expression: {e!r}")
    entry = len(steps) - 1

    def run(s: dict[str, int]) -> bool:
        i = entry
        while i >= 0:
            check, if_true, if_false = steps[i]
            i = if_true if check(s) else if_false
        return i == _TRUE
    return run


def print_expr(expr: ConstraintExpr) -> str:
    """The text of ``expr``: a fold over the preorder of its nodes, read from
    its end, so a node's operands are the top entries of a stack."""
    texts: list[str] = []
    for e in reversed(list(_walk(expr))):
        if isinstance(e, Compare):
            text = f"{e.lhs} {e.op} {e.rhs}"
        elif isinstance(e, AbsDiffNotEqual):
            text = f"|{e.var_a} - {e.var_b}| != {e.k}"
        elif isinstance(e, AllDifferent):
            text = f"AllDifferentConstraint([{', '.join(e.names)}])"
        elif isinstance(e, CNot):
            text = f"not ({texts.pop()})"
        elif isinstance(e, CImplies):
            text = f"({texts.pop()}) -> ({texts.pop()})"
        else:
            # ``->`` binds loosest, so an implication operand keeps brackets
            first, second = (f"({texts.pop()})" if isinstance(operand, CImplies) else texts.pop()
                             for operand in (e.left, e.right))
            text = f"({first} {'and' if isinstance(e, CAnd) else 'or'} {second})"
        texts.append(text)
    return texts[0]


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
        declared: set[str] = set()
        for name, values in self.variables:
            if name in declared:
                raise CspError("variable names must be unique", name)
            declared.add(name)
            # the parser rejects values below 1 and sizes the domain to the
            # largest value, so only a model built in code fails this
            if values and not 1 <= min(values) <= max(values) <= self.domain_size:
                raise CspError(f"variable {name} has a value outside 1..{self.domain_size}", name)
        for expr in self.constraints:
            undeclared = expr_variables(expr) - declared
            if undeclared:
                raise CspError(f"constraint references undeclared variables: {sorted(undeclared)}", expr)
        letters: set[str] = set()
        for letter, expr in self.queries:
            if letter in letters:
                raise CspError(f"option {letter} is queried twice", expr)
            letters.add(letter)
            undeclared = expr_variables(expr) - declared
            if undeclared:
                raise CspError(f"query references undeclared variables: {sorted(undeclared)}", expr)

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

# each alternative names the section it opens
_CSP_HEADER_RE = re.compile(
    r"^\s*(?:(?P<domain>domain)|(?P<variables>variables?)|(?P<constraints>constraints?)"
    r"|(?P<queries>quer(?:y|ies)(?:\s+for\s+options)?|options?))\s*:?\s*$",
    re.IGNORECASE,
)
_VAR_DECL_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:∈|in)\s*\{(?P<values>[^}]*)\}\s*$"
)
# an endpoint, ``3: newest``, tried before a range, ``positions: 1 to 5`` or
# bare, ``1 to 5`` (as ``CspModel.to_text`` writes a model without domain lines)
_DOMAIN_RE = re.compile(r"^(?:(?P<num>\d+)\s*:\s*.+|(?:[^:]+:\s*)?\d+\s*(?:to|\.\.|–|-)\s*(?P<hi>\d+)\s*)$")
_QUERY_RE = re.compile(r"^(?P<letter>[A-E])\s*[).]\s*(?P<rest>.+)$")

_OP_ALIASES = {"≠": "!=", "≤": "<=", "≥": ">=", "=": "=="}
_COMPARATORS = frozenset((*_OPS, *_OP_ALIASES))
_ARROWS = ("->", "→", "⇒", "=>")
_MINUS = frozenset(("-", "−"))


def _is_var(tok: str) -> bool:
    return tok[0] in NAME_START


def _casings(word: str) -> list[str]:
    return ["".join(chars) for chars in itertools.product(*zip(word.lower(), word.upper()))]


class _ExprParser(TokenCursor):
    """The shunting-yard loop, loosest first: ``->`` (grouping to the right),
    ``or``, ``and``; then the prefix ``not``.  A leaf is a comparison,
    ``|a - b| != k`` or ``AllDifferent``.  The keywords are case-insensitive."""

    token_re = re.compile(r"\s*(->|=>|<=|>=|==|!=|\d+|[A-Za-z_][A-Za-z0-9_]*|\S)")
    symbols = frozenset((*_ARROWS, *_COMPARATORS, *_MINUS, "(", ")", "[", "]", "|", ","))
    binary = {
        **dict.fromkeys(_ARROWS, (1, CImplies, True)),
        **dict.fromkeys(_casings("or"), (2, COr, False)),
        **dict.fromkeys(_casings("and"), (3, CAnd, False)),
    }
    symbol_context = " in constraint"
    unclosed = "unbalanced parenthesis"

    @staticmethod
    def is_name(tok: str) -> bool:
        return tok[0] in NAME_START or tok.isdecimal()

    def _next(self) -> str:
        tok = self.tokens[self.i]
        if tok is None:
            raise self.error(self.i, "unexpected end of constraint")
        self.i += 1
        return tok

    def _expect(self, accepts: Callable[[str], bool], what: str) -> str:
        tok = self._next()
        if not accepts(tok):
            raise self.error(self.i - 1, f"expected {what}, found {tok!r}")
        return tok

    def _prefix(self, tok: Optional[str]) -> Optional[Callable[[ConstraintExpr], ConstraintExpr]]:
        if tok is not None and tok.lower() == "not":
            self.i += 1
            return CNot
        return None

    def _leaf(self) -> ConstraintExpr:
        tok = self.tokens[self.i]
        if tok == "|":
            return self._absdiff()
        if tok in ("AllDifferentConstraint", "AllDifferent"):
            return self._alldifferent()
        lhs = self._operand()
        op = self.tokens[self.i]
        if op not in _COMPARATORS:
            raise self.error(self.i, "expected a comparison operator")
        self.i += 1
        return Compare(lhs, _OP_ALIASES.get(op, op), self._operand())

    def _absdiff(self) -> ConstraintExpr:
        self.i += 1  # |
        a = self._expect(_is_var, "a variable name")
        self._expect(_MINUS.__contains__, "'-'")
        b = self._expect(_is_var, "a variable name")
        self._expect("|".__eq__, "'|'")
        op = self._expect(_COMPARATORS.__contains__, "a comparison operator")
        if _OP_ALIASES.get(op, op) != "!=":
            raise self.error(self.i - 1, "absolute-difference constraints support only '!='")
        k = self._expect(str.isdecimal, "an integer")
        return AbsDiffNotEqual(a, b, int(k))

    def _alldifferent(self) -> ConstraintExpr:
        self.i += 1  # name
        self._expect("(".__eq__, "'('")
        bracketed = self.tokens[self.i] == "["
        if bracketed:
            self.i += 1
        names = [self._expect(_is_var, "a variable name")]
        while self.tokens[self.i] == ",":
            self.i += 1
            names.append(self._expect(_is_var, "a variable name"))
        if bracketed:
            self._expect("]".__eq__, "']'")
        self._expect(")".__eq__, "')'")
        return AllDifferent(tuple(names))

    def _operand(self) -> LinearTerm:
        tok = self._next()
        if tok.isdecimal():
            return int(tok)
        if _is_var(tok):
            return tok
        raise self.error(self.i - 1, f"expected a variable or integer, found {tok!r}")


def parse_constraint(text: str) -> ConstraintExpr:
    return _ExprParser(text).parse()


def parse_csp_block(text: str, options: Optional[Collection[str]] = None
                    ) -> tuple[Optional[CspModel], list[ParseDiagnostic]]:
    """Parse a Domain / Variables / Constraints / Query block.

    Returns the model (or None when it cannot be assembled) plus per-line
    diagnostics; a query of a letter outside ``options`` (when given) is an
    error.  A constraint or query may end in a gloss after ``:::`` or a
    single ``:``, which no constraint contains.
    """
    headers, lines, diagnostics = read_sections(text, _CSP_HEADER_RE)
    if not headers:
        return None, diagnostics
    domain_gloss: list[str] = []
    domain_max = 0
    variables: list[tuple[str, tuple[int, ...]]] = []
    constraints: list[ConstraintExpr] = []
    queries: list[tuple[str, ConstraintExpr]] = []
    subjects: list[tuple[object, int]] = []  # each variable name and expression read, with its line's offset

    for section, body, _, pos in lines:
        if section == "domain":
            m = _DOMAIN_RE.match(body)
            if m:
                domain_max = max(domain_max, int(m.group("num") or m.group("hi")))
                domain_gloss.append(body)
            else:
                diagnostics.append(ParseDiagnostic(pos, f"cannot read domain line: {body!r}"))
        elif section == "variables":
            m = _VAR_DECL_RE.match(body)
            if not m:
                diagnostics.append(ParseDiagnostic(pos, f"cannot read variable declaration: {body!r}"))
            else:
                try:  # the distinct values; an empty domain is kept, and leaves no solution
                    values = tuple(sorted({int(v.strip()) for v in m.group("values").split(",") if v.strip()}))
                except ValueError:
                    diagnostics.append(ParseDiagnostic(pos, f"non-integer domain value in: {body!r}"))
                    continue
                if values and values[0] < 1:
                    diagnostics.append(ParseDiagnostic(pos, f"domain value below 1 in: {body!r}"))
                    continue
                variables.append((m.group("name"), values))
                subjects.append((m.group("name"), pos))
                domain_max = max((domain_max, *values))
        elif section == "constraints":
            try:
                expr = parse_constraint(body.partition(":")[0])
            except ParseError as err:
                diagnostics.append(ParseDiagnostic(pos + err.position, err.message))
                continue
            constraints.append(expr)
            subjects.append((expr, pos))
        else:
            qm = _QUERY_RE.match(body)
            if not qm:
                diagnostics.append(ParseDiagnostic(pos, f"query line must start with an option letter: {body!r}"))
                continue
            letter = qm.group("letter")
            if options is not None and letter not in options:
                diagnostics.append(ParseDiagnostic(pos, f"the problem has no option {letter}"))
                continue
            try:
                expr = parse_constraint(qm.group("rest").partition(":")[0])
            except ParseError as err:
                diagnostics.append(ParseDiagnostic(pos + qm.start("rest") + err.position, err.message))
                continue
            queries.append((letter, expr))
            subjects.append((expr, pos))

    if not variables and "queries" in headers:
        diagnostics.append(ParseDiagnostic(len(text), "no variables declared"))
        return None, diagnostics
    if not any(line.section == "queries" for line in lines):
        diagnostics.append(ParseDiagnostic(len(text), "missing Query section"))
        return None, diagnostics

    try:
        model = CspModel(
            domain_size=max(domain_max, 1),  # 1 to 1 when no Domain line or value sizes it
            domain_gloss=tuple(domain_gloss),
            variables=variables,
            constraints=constraints,
            queries=queries,
        )
    except CspError as err:
        diagnostics.append(ParseDiagnostic(_model_fault_offset(err, subjects), str(err)))
        return None, diagnostics
    return model, diagnostics


def _model_fault_offset(err: CspError, subjects: list[tuple[object, int]]) -> int:
    """The offset of the line that causes a fault ``CspModel`` raises: a
    repeated variable name at the line that repeats it, a rejected constraint
    or query (a repeated option included) at its line.  Other faults, which
    name no subject, are at offset 0."""
    if isinstance(err.subject, str):
        return [pos for subject, pos in subjects if subject == err.subject][1]
    return next((pos for subject, pos in subjects if subject is err.subject), 0)


# ---------------------------------------------------------------------------
# Solving

SEARCH_SPACE_GUARD = 10_000_000


@dataclass(frozen=True)
class SolveResult:
    solutions: tuple[dict[str, int], ...]


def solve_all(model: CspModel) -> SolveResult:
    """All satisfying assignments, ordered as naive lexicographic enumeration.

    Backtracks over variables in declaration order, checking each constraint
    as soon as its variables are assigned.  Each top-level ``AllDifferent``
    also prunes incrementally: a variable skips the values its
    earlier-declared members already hold.  The full check still runs at the
    constraint's last variable (it decides repeated names, and
    ``AllDifferent`` nested in a boolean combination prunes only there).
    Pruning cuts only subtrees without solutions, so neither the result set
    nor its order changes.
    """
    space = math.prod(len(domain) for _, domain in model.variables) if model.variables else 0
    if space > SEARCH_SPACE_GUARD:
        raise SearchSpaceTooLargeError(space, SEARCH_SPACE_GUARD)

    names = [n for n, _ in model.variables]
    domains = [d for _, d in model.variables]
    position = {n: i for i, n in enumerate(names)}
    # per variable, the compiled constraints whose last variable it is
    checks: list[list[Check]] = [[] for _ in names]
    # variable -> earlier-declared variables it must differ from
    distinct_from: list[set[str]] = [set() for _ in names]
    for expr in model.constraints:
        used = expr_variables(expr)
        last = max(position[v] for v in used) if used else 0
        checks[last].append(compile_expr(expr))
        if isinstance(expr, AllDifferent):
            for name in expr.names:
                distinct_from[position[name]].update(
                    other for other in expr.names if position[other] < position[name])

    solutions: list[dict[str, int]] = []
    assignment: dict[str, int] = {}

    # the search stack: per variable from the first to the one being
    # assigned, its values left to try and the values already taken.  Values
    # of variables past the top stay in ``assignment`` unread, as a
    # constraint is checked at its last variable.
    levels = [(iter(domains[0]), set())] if names else []
    while levels:
        i = len(levels) - 1
        values, taken = levels[i]
        for value in values:
            if value not in taken:
                assignment[names[i]] = value
                for check in checks[i]:
                    if not check(assignment):
                        break
                else:  # every check holds: keep the value
                    break
        else:
            levels.pop()  # every value tried: back to the previous variable
            continue
        if i + 1 < len(names):
            levels.append((iter(domains[i + 1]), {assignment[name] for name in distinct_from[i + 1]}))
        else:
            solutions.append(dict(assignment))
    return SolveResult(tuple(solutions))


class OptionStatus(str, Enum):
    MUST_BE_TRUE = "MustBeTrue"
    MAY_BE_TRUE = "MayBeTrue"
    CANNOT_BE_TRUE = "CannotBeTrue"


@dataclass(frozen=True)
class QueryVerdict:
    statuses: dict[str, OptionStatus]
    solution_count: int


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
        check = compile_expr(expr)
        holds = [check(s) for s in result.solutions]
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
    COULD_BE_FALSE = "CouldBeFalse"


# (phrases, mode, the mode of "each of the following <phrase> EXCEPT"), tried in order
_MODE_PHRASES = (
    (("cannot be true", "can not be true", "must be false"), QuestionMode.CANNOT_BE_TRUE,
     QuestionMode.COULD_BE_TRUE),
    (("could be false", "can be false", "may be false"), QuestionMode.COULD_BE_FALSE,
     QuestionMode.MUST_BE_TRUE),
    (("must be true",), QuestionMode.MUST_BE_TRUE, QuestionMode.COULD_BE_FALSE),
    (("could be true", "can be true", "may be true"), QuestionMode.COULD_BE_TRUE,
     QuestionMode.CANNOT_BE_TRUE),
)
_EXCEPT_RE = re.compile(r"\bexcept\b")


def detect_question_mode(question: str) -> QuestionMode:
    """The mode of the first phrase found, or its EXCEPT mode when "except"
    follows the phrase; must-be-true when no phrase is found."""
    low = question.lower()
    for phrases, mode, except_mode in _MODE_PHRASES:
        for phrase in phrases:
            at = low.find(phrase)
            if at >= 0:
                return except_mode if _EXCEPT_RE.search(low, at + len(phrase)) else mode
    return QuestionMode.MUST_BE_TRUE


@dataclass(frozen=True)
class Undecided:
    candidates: frozenset[str]

    def __str__(self):
        inner = ", ".join(sorted(self.candidates)) or "∅"
        return f"Undecided{{{inner}}}"


# the option statuses that answer each question mode; a must-be-true option
# holds in every solution, hence in at least one
_ANSWERING = {
    QuestionMode.MUST_BE_TRUE: {OptionStatus.MUST_BE_TRUE},
    QuestionMode.COULD_BE_TRUE: {OptionStatus.MUST_BE_TRUE, OptionStatus.MAY_BE_TRUE},
    QuestionMode.CANNOT_BE_TRUE: {OptionStatus.CANNOT_BE_TRUE},
    QuestionMode.COULD_BE_FALSE: {OptionStatus.MAY_BE_TRUE, OptionStatus.CANNOT_BE_TRUE},
}


def select_answer(verdict: QueryVerdict, mode: QuestionMode) -> Union[str, Undecided]:
    """The unique option whose status answers the question mode, else Undecided."""
    hits = [letter for letter, status in verdict.statuses.items() if status in _ANSWERING[mode]]
    if len(hits) == 1:
        return hits[0]
    return Undecided(frozenset(hits))
