"""First-order logic terms, formulas, and the signed-literal knowledge base.

Everything here is an immutable value: terms and formulas are frozen,
slotted dataclasses, knowledge bases validate themselves on construction
and are safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union


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
    """A function applied to terms; ``str``, ``==`` and ``hash`` walk ``subterms``."""

    name: str
    args: tuple["Term", ...]

    def __post_init__(self):
        if not self.name:
            raise LogicError("function name must be non-empty")
        if len(self.args) < 1:
            raise LogicError(f"function {self.name!r} must have at least one argument")

    def __str__(self):
        return _fold_term(self, str, lambda t, args: f"{t.name}({', '.join(args)})")

    def __eq__(self, other):
        return self._shape() == other._shape() if type(other) is FunctionApp else NotImplemented

    def __hash__(self):
        return hash(self._shape())

    def _shape(self) -> tuple:
        """Type, name and arity of each node in preorder: the arities fix the tree."""
        return tuple([(type(t), t.name, len(t.args) if isinstance(t, FunctionApp) else 0)
                      for t in subterms((self,))])


Term = Union[Variable, Constant, FunctionApp]


def subterms(terms: Iterable[Term]) -> Iterator[Term]:
    """Each of ``terms`` and every argument below it, in preorder, left to
    right, walked with a stack: a term thousands of levels deep is fine."""
    for root in terms:
        stack = [root]
        while stack:
            t = stack.pop()
            yield t
            if isinstance(t, FunctionApp):
                stack += t.args[::-1]


def _fold_term(t: Term, leaf: Callable[[Term], object],
               app: Callable[[FunctionApp, list], object]) -> object:
    """``t`` folded bottom-up: ``leaf`` of a variable or constant, ``app`` of an
    application and its arguments' values, the top entries of a stack as
    the preorder of ``subterms`` is read from its end."""
    values: list = []
    for s in reversed(list(subterms((t,)))):
        values.append(app(s, [values.pop() for _ in s.args]) if isinstance(s, FunctionApp) else leaf(s))
    return values[0]


def substitute_term(t: Term, mapping: Mapping[str, Term]) -> Term:
    """``t`` with each variable that ``mapping`` names replaced, rebuilt with a stack."""
    return _fold_term(t, lambda s: mapping.get(s.name, s) if isinstance(s, Variable) else s,
                      lambda s, args: FunctionApp(s.name, tuple(args)))


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


def subformulas(f: Formula) -> Iterator[tuple[Formula, Mapping[str, int]]]:
    """Each subformula of ``f`` in preorder, left to right, with its binders:
    each variable that an enclosing quantifier binds, mapped to the depth of
    the innermost such quantifier (0 for the outermost).

    Walked with a stack, not by recursion, so a chain of thousands of
    operands is fine.  Raises ``TypeError`` on a non-formula, after yielding it.
    """
    stack: list[tuple[Formula, dict[str, int], int]] = [(f, {}, 0)]
    while stack:
        g, binders, depth = stack.pop()
        yield g, binders
        if isinstance(g, BINARY_NODES):
            stack += [(g.right, binders, depth), (g.left, binders, depth)]
        elif isinstance(g, Not):
            stack.append((g.body, binders, depth))
        elif isinstance(g, QUANTIFIER_NODES):
            stack.append((g.body, {**binders, g.var: depth}, depth + 1))
        elif not isinstance(g, Atom):
            raise TypeError(f"not a formula: {g!r}")


def free_variables(f: Formula) -> set[str]:
    """Variables occurring in ``f`` that no enclosing quantifier binds."""
    return {t.name for g, binders in subformulas(f) if isinstance(g, Atom)
            for t in subterms(g.args) if isinstance(t, Variable) and t.name not in binders}


def substitute(f: Formula, var: str, t: Term) -> Formula:
    """Replace every free occurrence of ``var`` in ``f`` by ``t``.

    Bound occurrences are untouched.  A quantifier that would capture a
    variable of ``t`` binds a new name instead, one outside every variable
    name of ``f`` and ``t``, and its old name is replaced by the new one
    below it: the replacements are carried down in one pass, so capture can
    never occur.  The tree is rebuilt with a stack, not by recursion.
    """
    t_vars = {s.name for s in subterms((t,)) if isinstance(s, Variable)}
    taken = t_vars | {var}  # names a new binder avoids; a t without variables renames none
    for g, _ in subformulas(f) if t_vars else ():
        if isinstance(g, Atom):
            taken.update(s.name for s in subterms(g.args) if isinstance(s, Variable))
        elif isinstance(g, QUANTIFIER_NODES):
            taken.add(g.var)
    suffixes = itertools.count(1)
    # (formula, replacements, None) is to rewrite, replacing each name that
    # ``replacements`` maps; (node, _, make) rebuilds the node by ``make`` from
    # its rewritten children, the last entries of ``done``
    todo: list[tuple[Formula, Mapping[str, Term], Optional[Callable[..., Formula]]]] = [(f, {var: t}, None)]
    done: list[Formula] = []
    while todo:
        g, env, make = todo.pop()
        if make is not None:
            arity = 2 if isinstance(g, BINARY_NODES) else 1
            done[-arity:] = [make(*done[-arity:])]
        elif not env:
            done.append(g)  # every name to replace is bound above here
        elif isinstance(g, Atom):
            done.append(Atom(g.predicate, tuple(substitute_term(a, env) for a in g.args)))
        elif isinstance(g, Not):
            todo += [(g, env, Not), (g.body, env, None)]
        elif isinstance(g, BINARY_NODES):
            todo += [(g, env, type(g)), (g.right, env, None), (g.left, env, None)]
        elif isinstance(g, QUANTIFIER_NODES):
            inner = {name: term for name, term in env.items() if name != g.var}
            name = g.var
            if name in t_vars and var in inner:
                name = next(n for n in (f"{g.var}_{i}" for i in suffixes) if n not in taken)
                taken.add(name)
                inner[g.var] = Variable(name)
            todo += [(g, env, functools.partial(type(g), name)), (g.body, inner, None)]
        else:
            raise TypeError(f"not a formula: {g!r}")
    return done[0]


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Structural equality up to consistent renaming of bound variables.

    The two preorder walks are compared node by node.  Each node type has a
    fixed number of children, so equal node sequences mean equal shapes.
    """
    for (a, env_a), (b, env_b) in zip(subformulas(f), subformulas(g)):
        if type(a) is not type(b):
            return False
        if not isinstance(a, Atom):
            continue
        if a.predicate != b.predicate or len(a.args) != len(b.args):
            return False
        for x, y in zip(subterms(a.args), subterms(b.args)):  # the term walks, node by node too
            if isinstance(x, Variable) and isinstance(y, Variable) and (x.name in env_a or y.name in env_b):
                if env_a.get(x.name) != env_b.get(y.name):  # bound variables compare by binder depth
                    return False
            elif type(x) is not type(y) or x.name != y.name or (
                    isinstance(x, FunctionApp) and len(x.args) != len(y.args)):
                return False
    return True


# ---------------------------------------------------------------------------
# Signed literals, rules, knowledge bases


def kb_text(predicate: str, polarity: bool, arg_texts: Sequence[str]) -> str:
    """A literal in knowledge-base notation: ``P(a, b, True)``, or ``P(False)`` without arguments."""
    tail = "True" if polarity else "False"
    return f"{predicate}({', '.join(arg_texts)}, {tail})" if arg_texts else f"{predicate}({tail})"


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
        return Variable not in map(type, subterms(self.args))

    def negated(self) -> "SignedLiteral":
        return SignedLiteral(self.predicate, self.args, not self.polarity)

    def variables(self) -> set[str]:
        return {t.name for t in subterms(self.args) if isinstance(t, Variable)}

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
        if style == "kb":
            return kb_text(self.predicate, self.polarity, [str(a) for a in self.args])
        args = ", ".join(str(a) for a in self.args)
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
            args = [f"${a}" if isinstance(a, Variable) else str(a) for a in lit.args]
            return kb_text(lit.predicate, lit.polarity, args)

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
