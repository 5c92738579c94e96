"""Parser and pretty-printer for the textual FOL / knowledge-base notation.

This is the wire format between pipeline stages and the symbolic engines:
single formulas (Unicode connectives with ASCII aliases) and labeled
translation blocks (Predicates / Premises / Facts / Rules / Query sections
with optional ``::: gloss`` suffixes).  The section reader and the token
cursor are shared with the CSP block parser in :mod:`symchain.csp`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .logic import (
    And, Atom, Constant, Exists, ForAll, Formula, FunctionApp, Iff, Implies,
    KnowledgeBase, LogicError, Not, Or, Rule, SignedLiteral, Term, Variable, Xor,
)


class Severity(str, Enum):
    ERROR = "Error"
    WARNING = "Warning"


@dataclass(frozen=True)
class ParseDiagnostic:
    position: int
    message: str
    severity: Severity = Severity.ERROR

    def __str__(self):
        return f"{self.severity.value.lower()} at offset {self.position}: {self.message}"


class ParseError(LogicError):
    """Raised when an input cannot be parsed; carries a positioned diagnostic."""

    def __init__(self, position: int, message: str):
        super().__init__(f"error at offset {position}: {message}")
        self.position = position
        self.message = message

    @property
    def diagnostic(self) -> ParseDiagnostic:
        return ParseDiagnostic(self.position, self.message, Severity.ERROR)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NOT>¬|~|\bnot\b)
  | (?P<AND>∧|&)
  | (?P<OR>∨|\|)
  | (?P<XOR>⊕|\^)
  | (?P<IFF>↔|<->|⇔)
  | (?P<IMPLIES>→|⇒|->|=>)
  | (?P<FORALL>∀|\bforall\b)
  | (?P<EXISTS>∃|\bexists\b)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<SVAR>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_XYZ_VAR_RE = re.compile(r"^[xyz]\d*$")


@dataclass(slots=True)
class _Token:
    kind: str
    text: str
    pos: int


class TokenCursor:
    """A tokenized expression and a read position.

    The formula and constraint parsers subclass it with their own token
    pattern; ``noun`` names the input in end-of-input errors and
    ``symbol_context`` follows the symbol in unknown-symbol errors.
    """

    token_re: re.Pattern
    noun = "input"
    symbol_context = ""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[_Token] = []
        token_re, append = self.token_re, self.tokens.append
        pos = 0
        while pos < len(text):
            m = token_re.match(text, pos)
            if m is None:
                raise ParseError(pos, f"unknown symbol {text[pos]!r}{self.symbol_context}")
            kind = m.lastgroup
            if kind != "WS":
                append(_Token(kind, m.group(), pos))
            pos = m.end()
        self.i = 0

    def _peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), f"unexpected end of {self.noun}")
        self.i += 1
        return tok

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(tok.pos, f"expected {what}, found {tok.text!r}")
        return tok


class _FormulaParser(TokenCursor):
    """Recursive descent over the fixed precedence ¬, ∧, ∨, ⊕, →, ↔."""

    token_re = _TOKEN_RE

    def __init__(self, text: str, signature: Optional[dict[str, int]] = None):
        super().__init__(text)
        self.bound: list[str] = []
        self.signature = signature

    def parse(self) -> Formula:
        f = self._iff()
        tok = self._peek()
        if tok is not None:
            raise ParseError(tok.pos, f"unexpected trailing input {tok.text!r}")
        return f

    def _iff(self) -> Formula:
        left = self._implies()
        if self._peek() and self._peek().kind == "IFF":
            self._next()
            return Iff(left, self._iff())
        return left

    def _implies(self) -> Formula:
        left = self._xor()
        if self._peek() and self._peek().kind == "IMPLIES":
            self._next()
            return Implies(left, self._implies())
        return left

    def _xor(self) -> Formula:
        left = self._or()
        while self._peek() and self._peek().kind == "XOR":
            self._next()
            left = Xor(left, self._or())
        return left

    def _or(self) -> Formula:
        left = self._and()
        while self._peek() and self._peek().kind == "OR":
            self._next()
            left = Or(left, self._and())
        return left

    def _and(self) -> Formula:
        left = self._unary()
        while self._peek() and self._peek().kind == "AND":
            self._next()
            left = And(left, self._unary())
        return left

    def _unary(self) -> Formula:
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), "unexpected end of input, expected a formula")
        if tok.kind == "NOT":
            self._next()
            return Not(self._unary())
        if tok.kind in ("FORALL", "EXISTS"):
            self._next()
            var_tok = self._peek()
            if var_tok is None or var_tok.kind not in ("IDENT", "SVAR"):
                raise ParseError(
                    var_tok.pos if var_tok else len(self.text),
                    "dangling quantifier: expected a variable name",
                )
            self._next()
            name = var_tok.text.lstrip("$")
            self.bound.append(name)
            try:
                body = self._unary()
            finally:
                self.bound.pop()
            return (ForAll if tok.kind == "FORALL" else Exists)(name, body)
        if tok.kind == "LPAREN":
            self._next()
            inner = self._iff()
            closer = self._peek()
            if closer is None:
                raise ParseError(len(self.text), "unbalanced parenthesis")
            if closer.kind != "RPAREN":
                raise ParseError(closer.pos, f"expected ')', found {closer.text!r}")
            self._next()
            return inner
        if tok.kind == "IDENT":
            return self._atom()
        raise ParseError(tok.pos, f"unexpected {tok.text!r}, expected a formula")

    def _atom(self) -> Formula:
        name_tok = self._expect("IDENT", "a predicate name")
        args: tuple[Term, ...] = ()
        if self._peek() and self._peek().kind == "LPAREN":
            self._next()
            parts = [self._term()]
            while self._peek() and self._peek().kind == "COMMA":
                self._next()
                parts.append(self._term())
            closer = self._peek()
            if closer is None:
                raise ParseError(len(self.text), "unbalanced parenthesis")
            if closer.kind != "RPAREN":
                raise ParseError(closer.pos, f"expected ')', found {closer.text!r}")
            self._next()
            args = tuple(parts)
        if self.signature is not None:
            expected = self.signature.get(name_tok.text)
            if expected is not None and expected != len(args):
                raise ParseError(
                    name_tok.pos,
                    f"predicate {name_tok.text!r} has arity {expected}, used with {len(args)}",
                )
        return Atom(name_tok.text, args)

    def _term(self) -> Term:
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), "unexpected end of input, expected a term")
        if tok.kind == "SVAR":
            self._next()
            return Variable(tok.text.lstrip("$"))
        if tok.kind != "IDENT":
            raise ParseError(tok.pos, f"expected a term, found {tok.text!r}")
        self._next()
        if self._peek() and self._peek().kind == "LPAREN":
            self._next()
            args = [self._term()]
            while self._peek() and self._peek().kind == "COMMA":
                self._next()
                args.append(self._term())
            closer = self._peek()
            if closer is None:
                raise ParseError(len(self.text), "unbalanced parenthesis")
            if closer.kind != "RPAREN":
                raise ParseError(closer.pos, f"expected ')', found {closer.text!r}")
            self._next()
            return FunctionApp(tok.text, tuple(args))
        if tok.text in self.bound or _XYZ_VAR_RE.match(tok.text):
            return Variable(tok.text)
        return Constant(tok.text)


def parse_formula(text: str, signature: Optional[dict[str, int]] = None) -> Formula:
    """Parse one formula; raises :class:`ParseError` with a position on failure.

    Accepts Unicode connectives (∀ ∃ ∧ ∨ ⊕ ¬ → ↔) and their ASCII aliases
    (forall, exists, &, |, ^, ~ or not, ->, <->), with ⇒ read as implication.
    """
    parser = _FormulaParser(text, signature)
    tok = parser._peek()
    if tok is None:
        raise ParseError(0, "empty input, expected a formula")
    return parser.parse()


# ---------------------------------------------------------------------------
# Printer

_PREC = {Iff: 1, Implies: 2, Xor: 3, Or: 4, And: 5}
_SYMBOL = {Iff: "↔", Implies: "→", Xor: "⊕", Or: "∨", And: "∧"}
_RIGHT_ASSOC = (Implies, Iff)


def _prec(f: Formula) -> int:
    for cls, p in _PREC.items():
        if isinstance(f, cls):
            return p
    return 6  # atoms, negation, quantifiers bind tightest


def print_formula(f: Formula) -> str:
    """Canonical Unicode rendering with minimal parentheses."""
    if isinstance(f, Atom):
        if not f.args:
            return f.predicate
        return f"{f.predicate}({', '.join(str(a) for a in f.args)})"
    if isinstance(f, Not):
        inner = print_formula(f.body)
        if _prec(f.body) < 6:
            inner = f"({inner})"
        return f"¬{inner}"
    if isinstance(f, (ForAll, Exists)):
        q = "∀" if isinstance(f, ForAll) else "∃"
        inner = print_formula(f.body)
        if _prec(f.body) < 6:
            inner = f"({inner})"
        return f"{q}{f.var} {inner}"
    p = _prec(f)
    sym = _SYMBOL[type(f)]
    lp, rp = _prec(f.left), _prec(f.right)
    if type(f) in _RIGHT_ASSOC:
        left = print_formula(f.left)
        if lp <= p:
            left = f"({left})"
        right = print_formula(f.right)
        if rp < p:
            right = f"({right})"
    else:
        left = print_formula(f.left)
        if lp < p:
            left = f"({left})"
        right = print_formula(f.right)
        if rp <= p:
            right = f"({right})"
    return f"{left} {sym} {right}"


# ---------------------------------------------------------------------------
# Lowering formulas to the signed-literal fragment


def _strip_universals(f: Formula) -> Formula:
    while isinstance(f, ForAll):
        f = f.body
    return f


def formula_to_literal(f: Formula) -> Optional[SignedLiteral]:
    """Lower an atom (or its negation) to a signed literal, if possible.

    ProofWriter's polarity style ``P(args, True|False)`` is detected by a
    trailing True/False argument and folded into the literal's polarity.
    """
    polarity = True
    if isinstance(f, Not):
        polarity = False
        f = f.body
    if not isinstance(f, Atom):
        return None
    args = f.args
    if args and isinstance(args[-1], Constant) and args[-1].name in ("True", "False"):
        if args[-1].name == "False":
            polarity = not polarity
        args = args[:-1]
    return SignedLiteral(f.predicate, args, polarity)


def _conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def _disjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, Or):
        return _disjuncts(f.left) + _disjuncts(f.right)
    return [f]


def formula_to_rules(f: Formula) -> list[Rule]:
    """Lower an implication (possibly ∀-wrapped) to horn rules.

    A disjunctive antecedent splits into one rule per disjunct, matching
    the comma-as-or reading of compound predicates.
    """
    f = _strip_universals(f)
    if not isinstance(f, Implies):
        raise ParseError(0, "a rule must be an implication")
    head = formula_to_literal(_strip_universals(f.right))
    if head is None:
        raise ParseError(0, "rule head must be a single literal")
    rules = []
    for disjunct in _disjuncts(f.left):
        body = []
        for part in _conjuncts(disjunct):
            lit = formula_to_literal(part)
            if lit is None:
                raise ParseError(0, "rule body must be a conjunction of literals")
            body.append(lit)
        rules.append(Rule(tuple(body), head))
    return rules


# ---------------------------------------------------------------------------
# Translation blocks

_HEADER_RE = re.compile(
    r"^\s*(?P<name>predicates?|premises?|facts?|(?:conditional\s+)?rules?(?:\s+with\s+compound\s+predicates)?"
    r"|quer(?:y|ies)|statement|conclusion)\s*:?\s*$",
    re.IGNORECASE,
)

_BULLET_RE = re.compile(r"^\s*(?:[-*•]\s+|\d+[.)]\s+)")

_PRED_DECL_RE = re.compile(r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\((?P<args>[^)]*)\)\s*(?::::?:?|:)?\s*(?P<gloss>.*)$")


def _section_kind(header: str) -> str:
    h = header.lower()
    if h.startswith("predicate"):
        return "predicates"
    if h.startswith("premise"):
        return "premises"
    if h.startswith("fact"):
        return "facts"
    if "rule" in h:
        return "rules"
    return "statement"


def _split_gloss(line: str) -> tuple[str, str]:
    if ":::" in line:
        body, gloss = line.split(":::", 1)
        return body.strip(), gloss.strip()
    return line.strip(), ""


@dataclass
class TranslationBlock:
    """Parsed output of a translation stage in FOL / knowledge-base notation."""

    predicates: list[tuple[str, int, str]] = field(default_factory=list)
    premises: list[tuple[Formula, str]] = field(default_factory=list)
    statement: Optional[Formula] = None
    statement_gloss: str = ""
    kb: Optional[KnowledgeBase] = None
    query: Optional[SignedLiteral] = None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def executable(self) -> bool:
        if any(d.severity is Severity.ERROR for d in self.diagnostics):
            return False
        return self.statement is not None

    def to_text(self) -> str:
        """Canonical rendering of the block."""
        out = []
        if self.predicates:
            out.append("Predicates:")
            for name, arity, gloss in self.predicates:
                args = ", ".join("xyz"[i] if i < 3 else f"x{i}" for i in range(arity))
                line = f"{name}({args})"
                out.append(f"{line} ::: {gloss}" if gloss else line)
        if self.kb is not None:
            out.append("Facts:")
            for fact in sorted(self.kb.facts, key=lambda l: l.to_text("kb")):
                out.append(fact.to_text("kb"))
            if self.kb.rules:
                out.append("Rules:")
                for rule in self.kb.rules:
                    out.append(rule.to_text())
        elif self.premises:
            out.append("Premises:")
            for formula, gloss in self.premises:
                line = print_formula(formula)
                out.append(f"{line} ::: {gloss}" if gloss else line)
        if self.statement is not None:
            out.append("Query:")
            line = print_formula(self.statement)
            out.append(f"{line} ::: {self.statement_gloss}" if self.statement_gloss else line)
        return "\n".join(out)


class SectionLine(NamedTuple):
    """A non-blank, non-header line of a labeled block."""

    section: Optional[str]  # None before the first header
    text: str  # the line without its bullet and surrounding blanks
    body: str  # text before any ``:::``
    gloss: str  # text after ``:::``
    offset: int  # of the line's first non-blank character


def read_sections(text: str, header_re: re.Pattern,
                  section_of: Callable[[str], str]) -> tuple[list[str], list[SectionLine]]:
    """Split a labeled block into its header sections and content lines.

    A line loses its bullet (``-``, ``*``, ``•``, ``1.``, ``1)``) before it
    is matched against ``header_re``; ``section_of`` maps the match's
    ``name`` group to a section name.  Returns the section of every header,
    in order, and every content line.
    """
    headers: list[str] = []
    lines: list[SectionLine] = []
    section = None
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = raw.rstrip("\n")
        stripped = _BULLET_RE.sub("", line)
        m = header_re.match(stripped)
        if m:
            section = section_of(m.group("name"))
            headers.append(section)
        else:
            content = stripped.strip()
            if content:
                body, gloss = _split_gloss(content)
                lines.append(SectionLine(section, content, body, gloss,
                                         offset + (len(line) - len(line.lstrip()))))
        offset += len(raw)
    return headers, lines


def parse_translation_block(text: str) -> TranslationBlock:
    """Parse a labeled FOL translation block.

    Partial failures are recorded as per-line diagnostics rather than
    raised; a block with any error diagnostic is not executable.  A block
    with no recognizable sections at all raises :class:`ParseError`.
    """
    block = TranslationBlock()
    facts: list[SignedLiteral] = []
    rules: list[Rule] = []
    statement_lines: list[tuple[str, str, int]] = []
    saw_section = False
    saw_kb_sections = False

    _, lines = read_sections(text, _HEADER_RE, _section_kind)
    for section, _, body, gloss, offset in lines:
        if section is None:
            block.diagnostics.append(
                ParseDiagnostic(offset, f"line outside any section: {body[:40]!r}")
            )
            continue
        saw_section = True
        if section == "predicates":
            m = _PRED_DECL_RE.match(body)
            if not m:
                block.diagnostics.append(ParseDiagnostic(offset, f"cannot read predicate declaration: {body!r}"))
                continue
            args = [a for a in m.group("args").split(",") if a.strip()]
            decl_gloss = gloss or m.group("gloss").strip()
            block.predicates.append((m.group("name"), len(args), decl_gloss))
        elif section == "premises":
            try:
                block.premises.append((parse_formula(body), gloss))
            except ParseError as err:
                block.diagnostics.append(ParseDiagnostic(offset + err.position, err.message))
        elif section == "facts":
            try:
                lit = formula_to_literal(parse_formula(body))
            except ParseError as err:
                block.diagnostics.append(ParseDiagnostic(offset + err.position, err.message))
                continue
            if lit is None or not lit.is_ground:
                block.diagnostics.append(ParseDiagnostic(offset, f"fact is not a ground literal: {body!r}"))
                continue
            facts.append(lit)
        elif section == "rules":
            saw_kb_sections = True
            try:
                rules.extend(formula_to_rules(parse_formula(body)))
            except ParseError as err:
                block.diagnostics.append(ParseDiagnostic(offset + err.position, err.message))
            except LogicError as err:
                block.diagnostics.append(ParseDiagnostic(offset, str(err)))
        else:
            statement_lines.append((body, gloss, offset))
        if section == "facts":
            saw_kb_sections = True

    if not saw_section:
        raise ParseError(0, "no sections found")

    if not statement_lines:
        block.diagnostics.append(ParseDiagnostic(len(text), "missing Query/Statement section"))
    else:
        body, gloss, offset = statement_lines[0]
        for extra_body, _, extra_offset in statement_lines[1:]:
            block.diagnostics.append(
                ParseDiagnostic(extra_offset, f"extra statement line ignored: {extra_body[:40]!r}",
                                Severity.WARNING)
            )
        try:
            raw = parse_formula(body)
            lit = formula_to_literal(raw)
            if lit is not None:
                block.query = lit
                block.statement = lit.to_formula()
            else:
                block.statement = raw
            block.statement_gloss = gloss
        except ParseError as err:
            block.diagnostics.append(ParseDiagnostic(offset + err.position, err.message))

    if saw_kb_sections or facts:
        try:
            block.kb = KnowledgeBase.build(facts, rules)
        except LogicError as err:
            block.diagnostics.append(ParseDiagnostic(0, str(err)))

    # Declared arities must agree with usage.
    declared = {name: arity for name, arity, _ in block.predicates}
    used: dict[str, int] = dict(block.kb.predicate_arities) if block.kb else {}

    def record_formula_arities(f: Formula):
        if isinstance(f, Atom):
            used.setdefault(f.predicate, len(f.args))
        elif isinstance(f, Not):
            record_formula_arities(f.body)
        elif isinstance(f, (And, Or, Xor, Implies, Iff)):
            record_formula_arities(f.left)
            record_formula_arities(f.right)
        elif isinstance(f, (ForAll, Exists)):
            record_formula_arities(f.body)

    for formula, _ in block.premises:
        record_formula_arities(formula)
    for name, arity in used.items():
        if name in declared and declared[name] not in (arity, arity + 1):
            # +1 tolerates polarity-style declarations like Quiet(x, bool)
            block.diagnostics.append(
                ParseDiagnostic(0, f"predicate {name!r} declared with arity {declared[name]} but used with {arity}")
            )

    return block
