"""First-order logic terms, formulas, and the signed-literal knowledge base.

Everything here is an immutable value: terms and formulas are frozen,
slotted dataclasses, knowledge bases validate themselves on construction
and are safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional, Union


class LogicError(Exception):
    """Base class for errors raised by the logic layer."""


class ArityMismatchError(LogicError):
    def __init__(self, name: str, seen: int, expected: int):
        super().__init__(f"predicate {name!r} used with arity {seen}, expected {expected}")
        self.name = name
        self.seen = seen
        self.expected = expected


class InconsistencyError(LogicError):
    """A ground literal is asserted (or derived) with both polarities."""

    def __init__(self, literal: "SignedLiteral"):
        super().__init__(f"inconsistency: {literal.to_text()} asserted with both polarities")
        self.literal = literal


class RangeRestrictionError(LogicError):
    def __init__(self, rule: "Rule", variables: set[str]):
        names = ", ".join(sorted(variables))
        super().__init__(f"rule head uses variables not bound in the body: {names}")
        self.rule = rule
        self.variables = variables


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __post_init__(self):
        if not self.name:
            raise LogicError("variable name must be non-empty")

    def __str__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Constant:
    name: str

    def __post_init__(self):
        if not self.name:
            raise LogicError("constant name must be non-empty")

    def __str__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class FunctionApp:
    name: str
    args: tuple["Term", ...]

    def __post_init__(self):
        if not self.name:
            raise LogicError("function name must be non-empty")
        if len(self.args) < 1:
            raise LogicError(f"function {self.name!r} must have at least one argument")

    def __str__(self):
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


Term = Union[Variable, Constant, FunctionApp]


def term_variables(t: Term) -> set[str]:
    if isinstance(t, Variable):
        return {t.name}
    if isinstance(t, Constant):
        return set()
    out: set[str] = set()
    for a in t.args:
        out |= term_variables(a)
    return out


def term_is_ground(t: Term) -> bool:
    if isinstance(t, FunctionApp):
        return all(term_is_ground(a) for a in t.args)
    return isinstance(t, Constant)


def substitute_term(t: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(t, Variable):
        return mapping.get(t.name, t)
    if isinstance(t, Constant):
        return t
    return FunctionApp(t.name, tuple(substitute_term(a, mapping) for a in t.args))


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        if not self.predicate:
            raise LogicError("predicate name must be non-empty")


@dataclass(frozen=True, slots=True)
class Not:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Xor:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class ForAll:
    var: str
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    body: "Formula"


Formula = Union[Atom, Not, And, Or, Xor, Implies, Iff, ForAll, Exists]

BINARY_NODES = (And, Or, Xor, Implies, Iff)
QUANTIFIER_NODES = (ForAll, Exists)


def operands(f: Formula, connective: type) -> list[Formula]:
    """The operands of the chain of ``connective`` nodes rooted at ``f``, left to right.

    Walked with a stack, not by recursion: the parser builds a flat chain
    left-deep, and one of a few thousand operands is a valid input.
    """
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, connective):
            stack.append(g.right)
            stack.append(g.left)
        else:
            out.append(g)
    return out


def free_variables(f: Formula) -> set[str]:
    """Variables occurring in ``f`` that no enclosing quantifier binds."""

    def walk(g: Formula, bound: frozenset[str]) -> set[str]:
        if isinstance(g, Atom):
            out: set[str] = set()
            for t in g.args:
                out |= term_variables(t) - bound
            return out
        if isinstance(g, Not):
            return walk(g.body, bound)
        if isinstance(g, BINARY_NODES):
            return walk(g.left, bound) | walk(g.right, bound)
        if isinstance(g, QUANTIFIER_NODES):
            return walk(g.body, bound | {g.var})
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, frozenset())


def _all_variable_names(f: Formula) -> set[str]:
    """Every variable name appearing in ``f``, bound or free."""
    if isinstance(f, Atom):
        out: set[str] = set()
        for t in f.args:
            out |= term_variables(t)
        return out
    if isinstance(f, Not):
        return _all_variable_names(f.body)
    if isinstance(f, BINARY_NODES):
        return _all_variable_names(f.left) | _all_variable_names(f.right)
    if isinstance(f, QUANTIFIER_NODES):
        return _all_variable_names(f.body) | {f.var}
    raise TypeError(f"not a formula: {f!r}")


def fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    for i in itertools.count(1):
        candidate = f"{base}_{i}"
        if candidate not in taken:
            return candidate
    raise AssertionError("unreachable")


def substitute(f: Formula, var: str, t: Term) -> Formula:
    """Replace every free occurrence of ``var`` in ``f`` by ``t``.

    Bound occurrences are untouched.  Quantifiers that would capture a
    variable of ``t`` are renamed to a fresh name first, so capture can
    never occur.
    """
    t_vars = term_variables(t)

    def walk(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.predicate, tuple(substitute_term(a, {var: t}) for a in g.args))
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, BINARY_NODES):
            return type(g)(walk(g.left), walk(g.right))
        if isinstance(g, QUANTIFIER_NODES):
            if g.var == var:
                return g  # var is bound below here; nothing free to replace
            if g.var in t_vars and var in free_variables(g.body):
                taken = _all_variable_names(g.body) | t_vars | {var}
                renamed = fresh_name(g.var, taken)
                body = substitute(g.body, g.var, Variable(renamed))
                return type(g)(renamed, walk(body))
            return type(g)(g.var, walk(g.body))
        raise TypeError(f"not a formula: {g!r}")

    return walk(f)


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Structural equality up to consistent renaming of bound variables."""

    def walk(a: Formula, b: Formula, env_a: dict[str, int], env_b: dict[str, int], depth: int) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, Atom):
            if a.predicate != b.predicate or len(a.args) != len(b.args):
                return False
            return all(term_eq(x, y, env_a, env_b) for x, y in zip(a.args, b.args))
        if isinstance(a, Not):
            return walk(a.body, b.body, env_a, env_b, depth)
        if isinstance(a, BINARY_NODES):
            return walk(a.left, b.left, env_a, env_b, depth) and walk(a.right, b.right, env_a, env_b, depth)
        if isinstance(a, QUANTIFIER_NODES):
            ea = dict(env_a)
            eb = dict(env_b)
            ea[a.var] = depth
            eb[b.var] = depth
            return walk(a.body, b.body, ea, eb, depth + 1)
        raise TypeError(f"not a formula: {a!r}")

    def term_eq(x: Term, y: Term, env_a: dict[str, int], env_b: dict[str, int]) -> bool:
        if type(x) is not type(y):
            return False
        if isinstance(x, Variable):
            # bound variables compare by binder depth, free ones by name
            if x.name in env_a or y.name in env_b:
                return env_a.get(x.name) == env_b.get(y.name)
            return x.name == y.name
        if isinstance(x, Constant):
            return x.name == y.name
        return (
            x.name == y.name
            and len(x.args) == len(y.args)
            and all(term_eq(a, b, env_a, env_b) for a, b in zip(x.args, y.args))
        )

    return walk(f, g, {}, {}, 0)


# ---------------------------------------------------------------------------
# Signed literals, rules, knowledge bases


@dataclass(frozen=True, slots=True)
class SignedLiteral:
    """An atom tagged true or false, e.g. ``Quiet(anne, True)``.

    Facts in a knowledge base must be ground; rule bodies and heads reuse
    this type as patterns whose args may contain variables.
    """

    predicate: str
    args: tuple[Term, ...] = ()
    polarity: bool = True

    def __post_init__(self):
        if not self.predicate:
            raise LogicError("predicate name must be non-empty")

    @property
    def is_ground(self) -> bool:
        return all(term_is_ground(a) for a in self.args)

    def negated(self) -> "SignedLiteral":
        return SignedLiteral(self.predicate, self.args, not self.polarity)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= term_variables(a)
        return out

    def substitute(self, mapping: Mapping[str, Term]) -> "SignedLiteral":
        return SignedLiteral(
            self.predicate,
            tuple(substitute_term(a, mapping) for a in self.args),
            self.polarity,
        )

    def to_formula(self) -> Formula:
        atom = Atom(self.predicate, self.args)
        return atom if self.polarity else Not(atom)

    def to_text(self, style: str = "fol") -> str:
        """Render in ``fol`` style (``¬P(a)``) or ``kb`` style (``P(a, False)``)."""
        args = ", ".join(str(a) for a in self.args)
        if style == "kb":
            tail = "True" if self.polarity else "False"
            inner = f"{args}, {tail}" if args else tail
            return f"{self.predicate}({inner})"
        body = f"{self.predicate}({args})" if args else self.predicate
        return body if self.polarity else f"¬{body}"


@dataclass(frozen=True, slots=True)
class Rule:
    """A horn-style rule: conjunctive body of literal patterns, one head.

    Variables are implicitly universally quantified.  Every head variable
    must occur in the body (range restriction), so firing a rule on ground
    facts always yields a ground literal.
    """

    body: tuple[SignedLiteral, ...]
    head: SignedLiteral

    def __post_init__(self):
        if not self.body:
            raise LogicError("rule body must be non-empty")
        body_vars: set[str] = set()
        for lit in self.body:
            body_vars |= lit.variables()
        unbound = self.head.variables() - body_vars
        if unbound:
            raise RangeRestrictionError(self, unbound)

    def to_text(self) -> str:
        def pat(lit: SignedLiteral) -> str:
            args = ", ".join(f"${a}" if isinstance(a, Variable) else str(a) for a in lit.args)
            tail = "True" if lit.polarity else "False"
            inner = f"{args}, {tail}" if args else tail
            return f"{lit.predicate}({inner})"

        return " ∧ ".join(pat(b) for b in self.body) + " ⇒ " + pat(self.head)


def _literal_has_functions(lit: SignedLiteral) -> bool:
    return any(isinstance(a, FunctionApp) for a in lit.args)


def _check_literal(lit: SignedLiteral, where: str, arities: dict[str, int]) -> None:
    """Reject function symbols and an arity other than ``arities`` records (recording a new one)."""
    if _literal_has_functions(lit):
        raise LogicError(f"function symbols are not allowed in {where}: {lit.to_text()}")
    seen = len(lit.args)
    expected = arities.setdefault(lit.predicate, seen)
    if seen != expected:
        raise ArityMismatchError(lit.predicate, seen, expected)


def _check_facts(facts: Iterable[SignedLiteral], given: Mapping[str, int]) -> dict[str, int]:
    """``given`` plus the arities of ``facts``; raises the first fault in iteration order."""
    arities = dict(given)
    positives: set[tuple] = set()
    negatives: set[tuple] = set()
    for fact in facts:
        if not fact.is_ground:
            raise LogicError(f"facts must be ground: {fact.to_text()}")
        _check_literal(fact, "facts", arities)
        key = (fact.predicate, fact.args)
        (positives if fact.polarity else negatives).add(key)
        if key in positives and key in negatives:
            raise InconsistencyError(SignedLiteral(fact.predicate, fact.args, True))
    return arities


@dataclass(frozen=True)
class KnowledgeBase:
    """Ground signed facts plus horn rules over a consistent signature.

    Construction rejects a fact asserted with both polarities, non-ground
    facts, function symbols (the chaining fragment is function-free), and
    predicates used with inconsistent arities.
    """

    facts: frozenset[SignedLiteral]
    rules: tuple[Rule, ...] = ()
    predicate_arities: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        try:
            arities = _check_facts(self.facts, self.predicate_arities)
        except LogicError:
            # scan a faulty set again in text order, so that the fault it
            # names does not follow the frozenset's hash order
            _check_facts(sorted(self.facts, key=lambda f: f.to_text("kb")), self.predicate_arities)
            raise
        for rule in self.rules:
            for lit in rule.body:
                _check_literal(lit, "rule bodies", arities)
            _check_literal(rule.head, "rule heads", arities)
        object.__setattr__(self, "predicate_arities", arities)

    @classmethod
    def build(cls, facts: Iterator[SignedLiteral] | list[SignedLiteral],
              rules: Iterator[Rule] | list[Rule] = ()) -> "KnowledgeBase":
        return cls(facts=frozenset(facts), rules=tuple(rules))

    def constants(self) -> set[Constant]:
        out: set[Constant] = set()

        def scan(lit: SignedLiteral):
            for a in lit.args:
                if isinstance(a, Constant):
                    out.add(a)

        for f in self.facts:
            scan(f)
        for r in self.rules:
            for b in r.body:
                scan(b)
            scan(r.head)
        return out


# ---------------------------------------------------------------------------
# Inference rules and labels


class InferenceRule(str, Enum):
    MODUS_PONENS = "ModusPonens"
    MODUS_TOLLENS = "ModusTollens"
    UNIVERSAL_INSTANTIATION = "UniversalInstantiation"
    EXISTENTIAL_INSTANTIATION = "ExistentialInstantiation"
    AND_ELIM = "AndElim"
    AND_INTRO = "AndIntro"
    OR_INTRO = "OrIntro"
    DISJUNCTIVE_SYLLOGISM = "DisjunctiveSyllogism"
    HYPOTHETICAL_SYLLOGISM = "HypotheticalSyllogism"
    CONTRADICTION = "Contradiction"
    IFF_ELIM = "IffElim"


class Label(str, Enum):
    """Answer labels: statement truth values plus multiple-choice letters."""

    TRUE = "True"
    FALSE = "False"
    UNKNOWN = "Unknown"
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    UNDECIDED = "Undecided"

    @property
    def is_letter(self) -> bool:
        return self.value in ("A", "B", "C", "D", "E")

    @classmethod
    def from_text(cls, text: str) -> Optional["Label"]:
        t = text.strip().strip(".){}")
        low = t.lower()
        if low in ("true", "t", "yes"):
            return cls.TRUE
        if low in ("false", "f", "no"):
            return cls.FALSE
        if low in ("unknown", "uncertain", "u"):
            return cls.UNKNOWN
        if len(t) == 1 and t.upper() in "ABCDE":
            return cls(t.upper())
        return None


# Canonical ordering used by reports and metrics.
LABEL_ORDER = (
    Label.TRUE, Label.FALSE, Label.UNKNOWN,
    Label.A, Label.B, Label.C, Label.D, Label.E,
    Label.UNDECIDED,
)
