"""Parser and pretty-printer for the textual FOL / knowledge-base notation.

This is the wire format between pipeline stages and the symbolic engines:
single formulas (Unicode connectives with ASCII aliases) and labeled
translation blocks (Predicates / Premises / Facts / Rules / Query sections
with optional ``::: gloss`` suffixes).

Formulas are parsed in one pass.  :class:`TokenCursor` splits an expression
into plain string tokens with one ``findall``, looks each token's kind up in
the parser's symbol set, and finds character offsets only when it raises a
:class:`ParseError`.  Binary connectives are parsed by precedence climbing
(Pratt 1973, "Top Down Operator Precedence") over one table of
``(precedence, node, right-associative)`` entries.  The section reader and
the token cursor, climbing loop included, are shared with the CSP block
parser in :mod:`symchain.csp`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .logic import (
    BINARY_NODES, And, Atom, Constant, Exists, ForAll, Formula, FunctionApp, Iff, Implies,
    KnowledgeBase, LogicError, Not, Or, Rule, SignedLiteral, Term, Variable, Xor, operands,
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

NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


class TokenCursor:
    r"""A tokenized expression, a read position and a precedence-climbing loop.

    ``token_re`` captures one token after optional whitespace, so one
    ``findall`` splits the expression into token strings.  Its last
    alternative, ``\S``, makes any other character a one-character token;
    a token that is neither one of the parser's ``symbols`` nor a name
    (``is_name``) is an unknown symbol, reported before any syntax error.
    Offsets are found again, by ``finditer``, only for an error.

    The formula and constraint parsers subclass it with their own pattern,
    ``symbols``, ``is_name`` test, ``binary`` operator table and ``_unary``
    operand parser; ``symbol_context`` follows the symbol in unknown-symbol errors.
    """

    token_re: re.Pattern
    symbols: frozenset[str]
    # operator token: (precedence, node, right-associative)
    binary: dict[str, tuple[int, Callable, bool]]
    symbol_context = ""

    def __init__(self, text: str):
        self.text = text
        tokens = self.token_re.findall(text)
        symbols, is_name = self.symbols, self.is_name
        for i, tok in enumerate(tokens):
            if tok not in symbols and not is_name(tok):
                raise self.error(i, f"unknown symbol {tok!r}{self.symbol_context}")
        tokens.append(None)  # the end of input
        self.tokens = tokens
        self.i = 0

    def error(self, i: int, message: str) -> ParseError:
        """A :class:`ParseError` at token ``i``, or at the end of input."""
        m = next(itertools.islice(self.token_re.finditer(self.text), i, None), None)
        return ParseError(len(self.text) if m is None else m.start(1), message)

    def _binary(self, min_prec: int = 1):
        """Operands joined by ``binary`` operators of precedence ``min_prec`` or more."""
        left = self._unary()
        tokens, binary = self.tokens, self.binary
        while (op := binary.get(tokens[self.i])) is not None and op[0] >= min_prec:
            prec, node, right_assoc = op
            self.i += 1
            left = node(left, self._binary(prec if right_assoc else prec + 1))
        return left

    def parse(self):
        """The whole input as one expression.

        An expression nested deeper than the interpreter's recursion limit
        allows is a :class:`ParseError` at its first token.
        """
        try:
            expr = self._binary()
        except RecursionError:
            raise self.error(0, "expression nested too deeply") from None
        tok = self.tokens[self.i]
        if tok is not None:
            raise self.error(self.i, f"unexpected trailing input {tok!r}")
        return expr


_XYZ_VAR_RE = re.compile(r"^[xyz]\d*$")

# → and ↔ group to the right, the others to the left
_BINARY = {
    **dict.fromkeys(("↔", "<->", "⇔"), (1, Iff, True)),
    **dict.fromkeys(("→", "⇒", "->", "=>"), (2, Implies, True)),
    **dict.fromkeys(("⊕", "^"), (3, Xor, False)),
    **dict.fromkeys(("∨", "|"), (4, Or, False)),
    **dict.fromkeys(("∧", "&"), (5, And, False)),
}
_NEGATIONS = frozenset(("¬", "~", "not"))
_QUANTIFIERS = {"∀": ForAll, "forall": ForAll, "∃": Exists, "exists": Exists}
_SYMBOLS = frozenset((*_BINARY, *_NEGATIONS, *_QUANTIFIERS, "(", ")", ","))


def _is_ident(tok: Optional[str]) -> bool:
    """A predicate, constant or variable name other than a keyword."""
    return tok is not None and tok[0] in NAME_START and tok not in _SYMBOLS


class _FormulaParser(TokenCursor):
    """Precedence climbing over ``_BINARY``, after Pratt's top-down
    operator precedence; ``¬`` and quantifiers bind tightest."""

    token_re = re.compile(r"\s*(<->|->|=>|\$?[A-Za-z_][A-Za-z0-9_]*|\S)")
    symbols = _SYMBOLS
    binary = _BINARY

    def __init__(self, text: str, signature: Optional[dict[str, int]], terms: dict[str, Term]):
        super().__init__(text)
        self.bound: list[str] = []
        self.signature = signature
        self.terms = terms

    @staticmethod
    def is_name(tok: str) -> bool:
        return tok[0] in NAME_START or (tok[0] == "$" and len(tok) > 1)

    def _close(self) -> None:
        tok = self.tokens[self.i]
        if tok != ")":
            raise self.error(self.i, "unbalanced parenthesis" if tok is None
                             else f"expected ')', found {tok!r}")
        self.i += 1

    def _unary(self) -> Formula:
        tok = self.tokens[self.i]
        if tok is None:
            raise self.error(self.i, "unexpected end of input, expected a formula")
        if tok in _NEGATIONS:
            self.i += 1
            return Not(self._unary())
        quantifier = _QUANTIFIERS.get(tok)
        if quantifier is not None:
            self.i += 1
            var = self.tokens[self.i]
            if not (_is_ident(var) or var is not None and var[0] == "$"):
                raise self.error(self.i, "dangling quantifier: expected a variable name")
            self.i += 1
            name = var.lstrip("$")
            self.bound.append(name)
            try:
                body = self._unary()
            finally:
                self.bound.pop()
            return quantifier(name, body)
        if tok == "(":
            self.i += 1
            inner = self._binary()
            self._close()
            return inner
        if _is_ident(tok):
            return self._atom()
        raise self.error(self.i, f"unexpected {tok!r}, expected a formula")

    def _atom(self) -> Formula:
        start = self.i
        name = self.tokens[start]
        self.i += 1
        args: tuple[Term, ...] = ()
        if self.tokens[self.i] == "(":
            args = self._arguments()
        if self.signature is not None:
            expected = self.signature.get(name)
            if expected is not None and expected != len(args):
                raise self.error(start, f"predicate {name!r} has arity {expected}, used with {len(args)}")
        return Atom(name, args)

    def _arguments(self) -> tuple[Term, ...]:
        """``(t1, …, tn)``, from its opening parenthesis."""
        self.i += 1
        args = [self._term()]
        while self.tokens[self.i] == ",":
            self.i += 1
            args.append(self._term())
        self._close()
        return tuple(args)

    def _term(self) -> Term:
        tok = self.tokens[self.i]
        if tok is None:
            raise self.error(self.i, "unexpected end of input, expected a term")
        if tok[0] == "$":
            self.i += 1
            term = self.terms.get(tok)
            if term is None:
                term = self.terms[tok] = Variable(tok[1:])
            return term
        if not _is_ident(tok):
            raise self.error(self.i, f"expected a term, found {tok!r}")
        self.i += 1
        if self.tokens[self.i] == "(":
            return FunctionApp(tok, self._arguments())
        if tok in self.bound:
            return Variable(tok)
        term = self.terms.get(tok)
        if term is None:
            term = self.terms[tok] = Variable(tok) if _XYZ_VAR_RE.match(tok) else Constant(tok)
        return term


def parse_formula(text: str, signature: Optional[dict[str, int]] = None) -> Formula:
    """Parse one formula; raises :class:`ParseError` with a position on failure.

    Accepts Unicode connectives (∀ ∃ ∧ ∨ ⊕ ¬ → ↔) and their ASCII aliases
    (forall, exists, &, |, ^, ~ or not, ->, <->), with ⇒ read as implication.
    """
    return _parse_formula(text, signature, {})


def _parse_formula(text: str, signature: Optional[dict[str, int]], terms: dict[str, Term]) -> Formula:
    """:func:`parse_formula`, with ``terms`` mapping each constant or free
    variable token already read (``$x`` and ``x`` apart) to its one term."""
    parser = _FormulaParser(text, signature, terms)
    if parser.tokens[0] is None:
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
    if type(f) in _RIGHT_ASSOC:
        left = print_formula(f.left)
        if _prec(f.left) <= p:
            left = f"({left})"
        right = print_formula(f.right)
        if _prec(f.right) < p:
            right = f"({right})"
        return f"{left} {sym} {right}"
    # a left-associative chain prints its left spine in a loop, not by
    # recursion, so a flat chain of thousands of operands prints
    rights = []
    while type(f.left) is type(f):
        rights.append(f.right)
        f = f.left
    rights.append(f.right)
    left = print_formula(f.left)
    parts = [f"({left})" if _prec(f.left) < p else left]
    for g in reversed(rights):
        text = print_formula(g)
        parts.append(f"({text})" if _prec(g) <= p else text)
    return f" {sym} ".join(parts)


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
    for disjunct in operands(f.left, Or):
        body = []
        for part in operands(disjunct, And):
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
    offset: int  # of the first character of ``text`` in the block


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
                                         offset + len(line) - len(stripped.lstrip())))
        offset += len(raw)
    return headers, lines


def has_section_header(text: str) -> bool:
    """Whether some line of ``text`` is a FOL translation block header."""
    headers, _ = read_sections(text, _HEADER_RE, _section_kind)
    return bool(headers)


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
    terms: dict[str, Term] = {}  # one term per constant or variable token of the block

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
                block.premises.append((_parse_formula(body, None, terms), gloss))
            except ParseError as err:
                block.diagnostics.append(ParseDiagnostic(offset + err.position, err.message))
        elif section == "facts":
            try:
                lit = formula_to_literal(_parse_formula(body, None, terms))
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
                rules.extend(formula_to_rules(_parse_formula(body, None, terms)))
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
            raw = _parse_formula(body, None, terms)
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

    # a stack, not recursion, so a flat chain of thousands of conjuncts is fine;
    # atoms are visited left to right, as the first use sets the arity
    stack = [formula for formula, _ in reversed(block.premises)]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            used.setdefault(f.predicate, len(f.args))
        elif isinstance(f, (Not, ForAll, Exists)):
            stack.append(f.body)
        elif isinstance(f, BINARY_NODES):
            stack.append(f.right)
            stack.append(f.left)
    for name, arity in used.items():
        if name in declared and declared[name] not in (arity, arity + 1):
            # +1 tolerates polarity-style declarations like Quiet(x, bool)
            block.diagnostics.append(
                ParseDiagnostic(0, f"predicate {name!r} declared with arity {declared[name]} but used with {arity}")
            )

    return block
