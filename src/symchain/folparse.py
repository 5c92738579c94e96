"""Parser and pretty-printer for the textual FOL / knowledge-base notation.

This is the wire format between pipeline stages and the symbolic engines:
single formulas (Unicode connectives with ASCII aliases) and labeled
translation blocks (Predicates / Premises / Facts / Rules / Query sections
with optional ``::: gloss`` suffixes).

Formulas are parsed in one pass.  :class:`TokenCursor` splits an expression
into plain string tokens with one ``findall``, looks each token's kind up in
the parser's symbol set, and finds character offsets only when it raises a
:class:`ParseError`.  Groups, prefix operators and binary connectives are
parsed by one loop over explicit stacks (Dijkstra's shunting-yard, 1961) and
one table of ``(precedence, node, right-associative)`` entries, so no input
shape recurses.  The section reader and the token cursor, loop included, are
shared with the CSP block parser in :mod:`symchain.csp`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .logic import (
    BINARY_NODES, And, ArityMismatchError, Atom, Constant, Exists, ForAll, Formula, FunctionApp,
    Iff, Implies, InconsistencyError, KnowledgeBase, LogicError, Not, Or, Rule,
    SignedLiteral, Term, Variable, Xor, operands, subformulas,
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
        super().__init__(str(ParseDiagnostic(position, message)))
        self.position = position
        self.message = message


# ---------------------------------------------------------------------------
# Tokenizer

NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


class TokenCursor:
    r"""A tokenized expression, a read position and a shunting-yard loop.

    ``token_re`` captures one token after optional whitespace, so one
    ``findall`` splits the expression into token strings.  Its last
    alternative, ``\S``, makes any other character a one-character token;
    a token that is neither one of the parser's ``symbols`` nor a name
    (``is_name``) is an unknown symbol, reported before any syntax error.
    Offsets are found again, by ``finditer``, only for an error.

    The formula and constraint parsers subclass it with their own pattern,
    ``symbols``, ``is_name`` test, ``binary`` operator table, ``_prefix``
    operators and ``_leaf`` reader; ``symbol_context`` follows the symbol in
    unknown-symbol errors, and ``unclosed`` reports a token other than ``)``
    after an operand in an open group.
    """

    token_re: re.Pattern
    symbols: frozenset[str]
    # operator token: (precedence, node, right-associative)
    binary: dict[str, tuple[int, Callable, bool]]
    symbol_context = ""
    unclosed = "expected ')', found {!r}"

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

    def _unclosed(self, i: int) -> ParseError:
        tok = self.tokens[i]
        return self.error(i, "unbalanced parenthesis" if tok is None else self.unclosed.format(tok))

    def parse(self):
        """The whole input as one expression.

        Dijkstra's shunting-yard loop: ``pending`` holds open groups
        (``None``), prefix nodes and ``binary`` entries, innermost last, and
        ``operands`` the left operand of each pending binary entry.  A
        prefix node applies as soon as its operand is complete, a binary
        entry once its right operand is followed by a ``)``, the end of
        input or an operator that binds less tightly (or as tightly, to the
        left)."""
        tokens, binary = self.tokens, self.binary
        operands: list = []
        pending: list = []
        while True:
            tok = tokens[self.i]
            if tok == "(":
                self.i += 1
                pending.append(None)
                continue
            if (prefix := self._prefix(tok)) is not None:
                pending.append(prefix)
                continue
            expr = self._leaf()
            while True:  # expr is complete: close groups until an operator or the end
                while pending and callable(pending[-1]):
                    expr = pending.pop()(expr)
                tok = tokens[self.i]
                op = binary.get(tok)
                # apply the entries that bind tighter than op, or as tight when
                # op groups to the left; any other token applies them all
                prec = 0 if op is None else op[0] + op[2]
                while pending and (top := pending[-1]) is not None and top[0] >= prec:
                    pending.pop()
                    expr = top[1](operands.pop(), expr)
                if op is not None:
                    self.i += 1
                    operands.append(expr)
                    pending.append(op)
                    break
                if not pending:
                    if tok is not None:
                        raise self.error(self.i, f"unexpected trailing input {tok!r}")
                    return expr
                if tok != ")":
                    raise self._unclosed(self.i)
                self.i += 1
                pending.pop()


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
    """The shunting-yard loop over ``_BINARY``; ``¬`` and quantifiers are
    prefixes, which bind tightest, and a leaf is an atom."""

    token_re = re.compile(r"\s*(<->|->|=>|\$?[A-Za-z_][A-Za-z0-9_]*|\S)")
    symbols = _SYMBOLS
    binary = _BINARY

    def __init__(self, text: str, terms: dict[str, Term]):
        super().__init__(text)
        self.bound: list[str] = []
        self.terms = terms

    @staticmethod
    def is_name(tok: str) -> bool:
        return tok[0] in NAME_START or (tok[0] == "$" and len(tok) > 1)

    def _prefix(self, tok: Optional[str]) -> Optional[Callable[[Formula], Formula]]:
        """The node a ``¬`` or quantifier at ``tok`` wraps its operand in, read
        with its variable; a quantifier's variable is bound until it applies."""
        if tok in _NEGATIONS:
            self.i += 1
            return Not
        quantifier = _QUANTIFIERS.get(tok)
        if quantifier is None:
            return None
        var = self.tokens[self.i + 1]
        if not (_is_ident(var) or var is not None and var[0] == "$"):
            raise self.error(self.i + 1, "dangling quantifier: expected a variable name")
        self.i += 2
        name = var.lstrip("$")
        self.bound.append(name)

        def bind(body: Formula) -> Formula:
            self.bound.pop()
            return quantifier(name, body)
        return bind

    def _leaf(self) -> Formula:
        """An atom: a predicate name and its arguments, if any."""
        start = self.i
        name = self.tokens[start]
        if not _is_ident(name):
            raise self.error(start, "unexpected end of input, expected a formula" if name is None
                             else f"unexpected {name!r}, expected a formula")
        self.i += 1
        args = self._arguments() if self.tokens[self.i] == "(" else ()
        return Atom(name, args)

    def _arguments(self) -> tuple[Term, ...]:
        """``(t1, …, tn)``, from its opening parenthesis; each open function
        application is a frame of its name and the arguments read so far."""
        tokens, terms = self.tokens, self.terms
        frames: list[tuple[str, list[Term]]] = []
        name, args = "", []
        i = self.i + 1
        while True:
            tok = tokens[i]
            if tok is None:
                raise self.error(i, "unexpected end of input, expected a term")
            i += 1
            if tok[0] == "$":
                term = terms.get(tok)
                if term is None:
                    term = terms[tok] = Variable(tok[1:])
            elif not _is_ident(tok):
                raise self.error(i - 1, f"expected a term, found {tok!r}")
            elif tokens[i] == "(":
                frames.append((name, args))
                name, args = tok, []
                i += 1
                continue
            elif tok in self.bound:
                term = Variable(tok)
            else:
                term = terms.get(tok)
                if term is None:
                    term = terms[tok] = Variable(tok) if _XYZ_VAR_RE.match(tok) else Constant(tok)
            args.append(term)
            while (tok := tokens[i]) != ",":
                if tok != ")":
                    raise self._unclosed(i)
                i += 1
                if not frames:
                    self.i = i
                    return tuple(args)
                term = FunctionApp(name, tuple(args))
                name, args = frames.pop()
                args.append(term)
            i += 1


def parse_formula(text: str) -> Formula:
    """Parse one formula; raises :class:`ParseError` with a position on failure.

    Accepts Unicode connectives (∀ ∃ ∧ ∨ ⊕ ¬ → ↔) and their ASCII aliases
    (forall, exists, &, |, ^, ~ or not, ->, <->), with ⇒ read as implication.
    """
    return _parse_formula(text, {})


def _parse_formula(text: str, terms: dict[str, Term]) -> Formula:
    """:func:`parse_formula`, with ``terms`` mapping each constant or free
    variable token already read (``$x`` and ``x`` apart) to its one term."""
    parser = _FormulaParser(text, terms)
    if parser.tokens[0] is None:
        raise ParseError(0, "empty input, expected a formula")
    return parser.parse()


# ---------------------------------------------------------------------------
# Printer

_PREC = {Iff: 1, Implies: 2, Xor: 3, Or: 4, And: 5}  # atoms, negation, quantifiers: 6
_SYMBOL = {Iff: "↔", Implies: "→", Xor: "⊕", Or: "∨", And: "∧"}


def print_formula(f: Formula) -> str:
    """Canonical Unicode rendering with minimal parentheses.

    A fold over the preorder of ``subformulas``, read from its end: a node's
    children are the top entries of a stack of ``(text, precedence)``, so no
    formula shape recurses.  → and ↔ associate to the right, the others to
    the left, and an operand on the associative side of an equal-precedence
    node is left bare.
    """
    nodes = [g for g, _ in subformulas(f)]
    stack: list[tuple[str, int]] = []
    for g in reversed(nodes):
        if isinstance(g, Atom):
            stack.append((f"{g.predicate}({', '.join(map(str, g.args))})" if g.args else g.predicate, 6))
        elif isinstance(g, BINARY_NODES):
            p = _PREC[type(g)]
            right_assoc = isinstance(g, (Implies, Iff))
            (left, left_p), (right, right_p) = stack.pop(), stack.pop()
            if left_p < p + right_assoc:
                left = f"({left})"
            if right_p < p + (not right_assoc):
                right = f"({right})"
            stack.append((f"{left} {_SYMBOL[type(g)]} {right}", p))
        else:
            body, body_p = stack.pop()
            prefix = "¬" if isinstance(g, Not) else f"{'∀' if isinstance(g, ForAll) else '∃'}{g.var} "
            stack.append((prefix + (body if body_p == 6 else f"({body})"), 6))
    return stack[0][0]


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

# each alternative names the section it opens
_HEADER_RE = re.compile(
    r"^\s*(?:(?P<predicates>predicates?)|(?P<premises>premises?)|(?P<facts>facts?)"
    r"|(?P<rules>(?:conditional\s+)?rules?(?:\s+with\s+compound\s+predicates)?)"
    r"|(?P<statement>quer(?:y|ies)|statement|conclusion))\s*:?\s*$",
    re.IGNORECASE,
)

_BULLET_RE = re.compile(r"^\s*(?:[-*•]\s+|\d+[.)]\s+)")

# after the closing parenthesis: nothing, or a gloss after one to four colons
_PRED_DECL_RE = re.compile(r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\((?P<args>[^)]*)\)\s*(?::{1,4}\s*(?P<gloss>.*))?$")


@dataclass
class TranslationBlock:
    """Parsed output of a translation stage in FOL / knowledge-base notation."""

    predicates: list[tuple[str, int, str]] = field(default_factory=list)
    premises: list[tuple[Formula, str]] = field(default_factory=list)
    statement: Optional[Formula] = None
    statement_gloss: str = ""
    kb: Optional[KnowledgeBase] = None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def executable(self) -> bool:
        """No error diagnostic: a block without a statement always has one."""
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)

    def to_text(self) -> str:
        """Canonical rendering of the block."""
        out = []
        if self.predicates:
            out.append("Predicates:")
            for name, arity, gloss in self.predicates:
                args = ", ".join("xyz"[i] if i < 3 else f"x{i}" for i in range(arity))
                line = f"{name}({args})"
                out.append(f"{line} ::: {gloss}" if gloss else line)
        if self.premises:
            out.append("Premises:")
            for formula, gloss in self.premises:
                line = print_formula(formula)
                out.append(f"{line} ::: {gloss}" if gloss else line)
        if self.kb is not None:
            out.append("Facts:")
            for fact in self.kb.facts:
                out.append(fact.to_text("kb"))
            if self.kb.rules:
                out.append("Rules:")
                for rule in self.kb.rules:
                    out.append(rule.to_text())
        if self.statement is not None:
            out.append("Query:")
            line = print_formula(self.statement)
            out.append(f"{line} ::: {self.statement_gloss}" if self.statement_gloss else line)
        return "\n".join(out)


class SectionLine(NamedTuple):
    """A non-blank, non-header line of a labeled block."""

    section: Optional[str]  # None in a block without headers
    body: str  # the line's text before any ``:::``, without its bullet and surrounding blanks
    gloss: str  # text after ``:::``
    offset: int  # of the first character of the line's text in the block


def read_sections(text: str, header_re: re.Pattern
                  ) -> tuple[dict[str, int], list[SectionLine], list[ParseDiagnostic]]:
    """Split a labeled block into its header sections and content lines.

    A line loses its bullet (``-``, ``*``, ``•``, ``1.``, ``1)``) before it
    is matched against ``header_re``, whose named group that matched is the
    section's name.  Returns the offset of each section's first header, by
    section in the order they first appear, the content lines under a header,
    and the block's first diagnostics: an error for each line before the
    first header.  A block without headers has the one diagnostic ``no
    sections found``, and all its lines come back under no section.
    """
    headers: dict[str, int] = {}
    lines: list[SectionLine] = []
    section = None
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = raw.rstrip("\n")
        stripped = _BULLET_RE.sub("", line)
        m = header_re.match(stripped)
        start = offset + len(line) - len(stripped.lstrip())
        if m:
            section = m.lastgroup
            headers.setdefault(section, start)
        elif content := stripped.strip():
            body, _, gloss = content.partition(":::")
            lines.append(SectionLine(section, body.strip(), gloss.strip(), start))
        offset += len(raw)
    if not headers:
        return headers, lines, [ParseDiagnostic(0, "no sections found")]
    # the lines under no section all precede the first header, so they lead the list
    outside = [ParseDiagnostic(line.offset, f"line outside any section: {line.body[:40]!r}")
               for line in lines if line.section is None]
    return headers, lines[len(outside):], outside


def read_fol_sections(text: str) -> tuple[dict[str, int], list[SectionLine], list[ParseDiagnostic]]:
    """:func:`read_sections` of ``text`` under the FOL translation block headers."""
    return read_sections(text, _HEADER_RE)


# a Facts or Rules line: its offset, its section and the literals it holds, in order
_KbLine = tuple[int, str, tuple[SignedLiteral, ...]]


def _kb_fault_offset(err: LogicError, kb_lines: list[_KbLine]) -> int:
    """The offset of the line that causes a fault ``KnowledgeBase`` raises.

    An arity clash is at the first line, in block order, that uses the
    predicate with the arity the error names as used; an inconsistency at
    the first fact line of whichever polarity of the literal appears last;
    a function symbol, the only other fault a block of ground facts can
    raise, at the first line holding the literal the error names.
    """
    def first(holds: Callable[[SignedLiteral], bool], section: Optional[str] = None) -> int:
        return next(offset for offset, s, lits in kb_lines if section in (None, s) and any(map(holds, lits)))
    if isinstance(err, ArityMismatchError):
        return first(lambda lit: lit.predicate == err.name and len(lit.args) == err.seen)
    if isinstance(err, InconsistencyError):
        return max(first(err.literal.__eq__, "facts"), first(err.literal.negated().__eq__, "facts"))
    return first(err.literal.__eq__)  # a FunctionSymbolError


def parse_translation_block(text: str) -> TranslationBlock:
    """Parse a labeled FOL translation block.

    Failures are recorded as diagnostics rather than raised; a block with
    any error diagnostic is not executable.
    """
    headers, lines, diagnostics = read_fol_sections(text)
    block = TranslationBlock(diagnostics=diagnostics)
    if not headers:
        return block
    facts: list[SignedLiteral] = []
    rules: list[Rule] = []
    has_rules = False
    statement_lines: list[SectionLine] = []
    terms: dict[str, Term] = {}  # one term per constant or variable token of the block
    declared: dict[str, tuple[int, int]] = {}  # predicate -> (arity, offset) of its last declaration
    kb_lines: list[_KbLine] = []  # the Facts/Rules lines, in block order
    first_arity: dict[str, int] = {}  # predicate -> arity of its first declaration

    def parsed(body: str, offset: int, lower: Callable = lambda f: f):
        """``lower`` of the line's formula, or None once a ParseError from
        either is recorded at its offset in the block."""
        try:
            return lower(_parse_formula(body, terms))
        except ParseError as err:
            block.diagnostics.append(ParseDiagnostic(offset + err.position, err.message))
            return None

    for line in lines:
        section, body, gloss, offset = line
        if section == "predicates":
            m = _PRED_DECL_RE.match(body)
            if not m:
                block.diagnostics.append(ParseDiagnostic(offset, f"cannot read predicate declaration: {body!r}"))
                continue
            name = m.group("name")
            arity = len([a for a in m.group("args").split(",") if a.strip()])
            first = first_arity.setdefault(name, arity)
            if first != arity:
                block.diagnostics.append(ParseDiagnostic(
                    offset, f"predicate {name!r} declared again with arity {arity}, first with arity {first}"))
            block.predicates.append((name, arity, gloss or (m.group("gloss") or "").strip()))
            declared[name] = (arity, offset)
        elif section == "premises":
            if (formula := parsed(body, offset)) is not None:
                block.premises.append((formula, gloss))
        elif section == "facts":
            if (formula := parsed(body, offset)) is None:
                continue
            lit = formula_to_literal(formula)
            if lit is None or not lit.is_ground:
                block.diagnostics.append(ParseDiagnostic(offset, f"fact is not a ground literal: {body!r}"))
            else:
                facts.append(lit)
                kb_lines.append((offset, section, (lit,)))
        elif section == "rules":
            has_rules = True
            try:
                line_rules = parsed(body, offset, formula_to_rules) or ()
            except LogicError as err:
                block.diagnostics.append(ParseDiagnostic(offset, str(err)))
                continue
            rules.extend(line_rules)
            kb_lines.append((offset, section, tuple(lit for rule in line_rules for lit in (*rule.body, rule.head))))
        else:
            statement_lines.append(line)

    if not statement_lines:
        block.diagnostics.append(ParseDiagnostic(len(text), "missing Query/Statement section"))
    else:
        first, *extra = statement_lines
        for line in extra:
            block.diagnostics.append(ParseDiagnostic(
                line.offset, f"extra statement line ignored: {line.body[:40]!r}", Severity.WARNING))
        if (formula := parsed(first.body, first.offset)) is not None:
            lit = formula_to_literal(formula)
            block.statement = formula if lit is None else lit.to_formula()
            block.statement_gloss = first.gloss

    if has_rules or facts:
        try:
            block.kb = KnowledgeBase(facts, rules)
        except LogicError as err:
            block.diagnostics.append(ParseDiagnostic(_kb_fault_offset(err, kb_lines), str(err)))
    if block.kb is not None and block.premises:
        ignored = "; ".join(print_formula(formula) for formula, _ in block.premises)
        block.diagnostics.append(ParseDiagnostic(
            headers["premises"], f"premises beside Facts/Rules are not read by the engine: {ignored}",
            Severity.WARNING))
    # every atom of the statement, folded as decide_formula folds it
    folded = [] if block.statement is None else [
        formula_to_literal(f) for f, _ in subformulas(block.statement) if isinstance(f, Atom)]
    if block.kb is not None:
        arities = block.kb.predicate_arities
        lit = next((lit for lit in folded if arities.get(lit.predicate, len(lit.args)) != len(lit.args)), None)
        if lit is not None:
            block.diagnostics.append(ParseDiagnostic(statement_lines[0].offset, str(
                ArityMismatchError(lit.predicate, len(lit.args), arities[lit.predicate]))))

    # Declared arities must agree with usage.
    used: dict[str, int] = dict(block.kb.predicate_arities) if block.kb else {}

    # atoms are visited left to right, as the first use sets the arity
    for formula, _ in block.premises:
        for f, _ in subformulas(formula):
            if isinstance(f, Atom):
                used.setdefault(f.predicate, len(f.args))
    for lit in folded:
        used.setdefault(lit.predicate, len(lit.args))
    for name, arity in used.items():
        if name in declared and declared[name][0] not in (arity, arity + 1):
            # +1 tolerates polarity-style declarations like Quiet(x, bool)
            block.diagnostics.append(ParseDiagnostic(
                declared[name][1], f"predicate {name!r} declared with arity {declared[name][0]} but used with {arity}"))

    return block
