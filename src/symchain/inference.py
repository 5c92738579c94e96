"""Proof-step checking and forward chaining over the signed-literal fragment.

``check_step`` validates a single deduction against a named inference rule,
double-checking propositional instances by truth-table entailment.
``forward_chain`` computes the least fixpoint of horn rule application and
``decide`` answers queries with open-world three-valued semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .logic import (
    BINARY_NODES, QUANTIFIER_NODES, And, Atom, Constant, Exists, ForAll, Formula, Iff,
    Implies, InconsistencyError, InferenceRule, KnowledgeBase, Label, LogicError, Not, Or,
    Rule, SignedLiteral, Term, Variable, Xor, alpha_equal, free_variables,
)


class UnknownRuleError(LogicError):
    def __init__(self, name: str):
        super().__init__(f"unknown inference rule: {name!r}")
        self.name = name


class SchemaArityMismatchError(LogicError):
    def __init__(self, rule: InferenceRule, expected: str, got: int):
        super().__init__(f"{rule.value} takes {expected} premise(s), got {got}")
        self.rule = rule


class UnsupportedFragmentError(LogicError):
    """The query asks for reasoning outside the ground/horn fragment."""


@dataclass(frozen=True)
class StepVerdict:
    valid: bool
    rule_checked: InferenceRule
    reason: str

    def __post_init__(self):
        if not self.valid and not self.reason:
            raise LogicError("an invalid verdict must carry a reason")


# ---------------------------------------------------------------------------
# Truth tables over the propositional fragment


def _atoms_of(f: Formula) -> set[Atom]:
    if isinstance(f, Atom):
        return {f}
    if isinstance(f, Not):
        return _atoms_of(f.body)
    if isinstance(f, BINARY_NODES):
        return _atoms_of(f.left) | _atoms_of(f.right)
    raise UnsupportedFragmentError("quantifiers are outside the propositional fragment")


def is_propositional(f: Formula) -> bool:
    try:
        atoms = _atoms_of(f)
    except UnsupportedFragmentError:
        return False
    return all(not free_variables(a) for a in atoms)


def eval_formula(f: Formula, model: Mapping[Atom, bool]) -> bool:
    if isinstance(f, Atom):
        return model[f]
    if isinstance(f, Not):
        return not eval_formula(f.body, model)
    if isinstance(f, And):
        return eval_formula(f.left, model) and eval_formula(f.right, model)
    if isinstance(f, Or):
        return eval_formula(f.left, model) or eval_formula(f.right, model)
    if isinstance(f, Xor):
        return eval_formula(f.left, model) != eval_formula(f.right, model)
    if isinstance(f, Implies):
        return (not eval_formula(f.left, model)) or eval_formula(f.right, model)
    if isinstance(f, Iff):
        return eval_formula(f.left, model) == eval_formula(f.right, model)
    raise UnsupportedFragmentError("quantifiers are outside the propositional fragment")


def truth_table_entails(premises: Iterable[Formula], conclusion: Formula,
                        max_atoms: int = 12) -> tuple[bool, Optional[dict[Atom, bool]]]:
    """Check premises ⊨ conclusion by enumeration; returns (entailed, countermodel)."""
    premises = list(premises)
    atoms = sorted(
        set().union(*(_atoms_of(p) for p in premises), _atoms_of(conclusion)),
        key=lambda a: (a.predicate, tuple(str(t) for t in a.args)),
    )
    if len(atoms) > max_atoms:
        raise UnsupportedFragmentError(f"too many atoms for truth-table check: {len(atoms)}")
    for values in itertools.product((False, True), repeat=len(atoms)):
        model = dict(zip(atoms, values))
        if all(eval_formula(p, model) for p in premises) and not eval_formula(conclusion, model):
            return False, model
    return True, None


def _describe_model(model: Mapping[Atom, bool]) -> str:
    from .folparse import print_formula

    parts = [f"{print_formula(a)}={'true' if v else 'false'}" for a, v in model.items()]
    return ", ".join(sorted(parts))


# ---------------------------------------------------------------------------
# First-order matching helpers for schema checks


def _match_instance(body: Formula, var: str, candidate: Formula) -> Optional[Term]:
    """If ``candidate`` is alpha-equal to ``body[var := t]`` for some term t, return t."""
    found: list[Term] = []

    def walk(p: Formula, c: Formula, env_p: dict[str, int], env_c: dict[str, int], depth: int) -> bool:
        if type(p) is not type(c):
            return False
        if isinstance(p, Atom):
            if p.predicate != c.predicate or len(p.args) != len(c.args):
                return False
            return all(term(pa, ca, env_p, env_c) for pa, ca in zip(p.args, c.args))
        if isinstance(p, Not):
            return walk(p.body, c.body, env_p, env_c, depth)
        if isinstance(p, BINARY_NODES):
            return (walk(p.left, c.left, env_p, env_c, depth)
                    and walk(p.right, c.right, env_p, env_c, depth))
        if isinstance(p, QUANTIFIER_NODES):
            ep, ec = dict(env_p), dict(env_c)
            ep[p.var] = depth
            ec[c.var] = depth
            return walk(p.body, c.body, ep, ec, depth + 1)
        return False

    def term(pt: Term, ct: Term, env_p: dict[str, int], env_c: dict[str, int]) -> bool:
        if isinstance(pt, Variable) and pt.name == var and var not in env_p:
            # the instantiated position: all occurrences must agree
            if found:
                return terms_alpha(found[0], ct, env_p, env_c)
            found.append(ct)
            return True
        if type(pt) is not type(ct):
            return False
        if isinstance(pt, Variable):
            if pt.name in env_p or ct.name in env_c:
                return env_p.get(pt.name) == env_c.get(ct.name)
            return pt.name == ct.name
        if isinstance(pt, Constant):
            return pt.name == ct.name
        return (pt.name == ct.name and len(pt.args) == len(ct.args)
                and all(term(a, b, env_p, env_c) for a, b in zip(pt.args, ct.args)))

    def terms_alpha(a: Term, b: Term, env_p, env_c) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, (Variable, Constant)):
            return a.name == b.name
        return (a.name == b.name and len(a.args) == len(b.args)
                and all(terms_alpha(x, y, env_p, env_c) for x, y in zip(a.args, b.args)))

    if walk(body, candidate, {}, {}, 0):
        return found[0] if found else Variable(var)
    return None


_PREMISE_COUNTS = {
    InferenceRule.MODUS_PONENS: (2, 2),
    InferenceRule.MODUS_TOLLENS: (2, 2),
    InferenceRule.UNIVERSAL_INSTANTIATION: (1, 1),
    InferenceRule.EXISTENTIAL_INSTANTIATION: (1, 1),
    InferenceRule.AND_ELIM: (1, 1),
    InferenceRule.AND_INTRO: (2, 2),
    InferenceRule.OR_INTRO: (1, 1),
    InferenceRule.DISJUNCTIVE_SYLLOGISM: (2, 2),
    InferenceRule.HYPOTHETICAL_SYLLOGISM: (2, 2),
    InferenceRule.CONTRADICTION: (2, 2),
    InferenceRule.IFF_ELIM: (1, 2),
}


def _match_schema(premises: list[Formula], rule: InferenceRule, conclusion: Formula) -> tuple[bool, str]:
    """Return (matched, description-or-failure-hint) for the named schema."""
    from .folparse import print_formula

    def orders(n: int):
        return itertools.permutations(range(len(premises)), n)

    if rule is InferenceRule.MODUS_PONENS:
        for i, j in orders(2):
            cond = premises[j]
            if isinstance(cond, Implies) and alpha_equal(premises[i], cond.left) \
                    and alpha_equal(conclusion, cond.right):
                return True, f"from {print_formula(premises[i])} and the implication, infer the consequent"
        for i, j in orders(2):
            cond = premises[j]
            if isinstance(cond, Implies) and alpha_equal(premises[i], cond.right) \
                    and alpha_equal(conclusion, cond.left):
                return False, "affirming the consequent"
        return False, "premises do not fit φ, φ → ψ ⊢ ψ"

    if rule is InferenceRule.MODUS_TOLLENS:
        for i, j in orders(2):
            neg, cond = premises[i], premises[j]
            if isinstance(neg, Not) and isinstance(cond, Implies) \
                    and alpha_equal(neg.body, cond.right) \
                    and isinstance(conclusion, Not) and alpha_equal(conclusion.body, cond.left):
                return True, "from ¬ψ and φ → ψ, infer ¬φ"
        for i, j in orders(2):
            neg, cond = premises[i], premises[j]
            if isinstance(neg, Not) and isinstance(cond, Implies) \
                    and alpha_equal(neg.body, cond.left) \
                    and isinstance(conclusion, Not) and alpha_equal(conclusion.body, cond.right):
                return False, "denying the antecedent"
        return False, "premises do not fit ¬ψ, φ → ψ ⊢ ¬φ"

    if rule is InferenceRule.UNIVERSAL_INSTANTIATION:
        (p,) = premises
        if not isinstance(p, ForAll):
            return False, "premise is not universally quantified"
        if _match_instance(p.body, p.var, conclusion) is not None:
            return True, f"instantiates ∀{p.var}"
        return False, "conclusion is not an instance of the quantified body"

    if rule is InferenceRule.EXISTENTIAL_INSTANTIATION:
        (p,) = premises
        if not isinstance(p, Exists):
            return False, "premise is not existentially quantified"
        witness = _match_instance(p.body, p.var, conclusion)
        if isinstance(witness, Constant):
            return True, f"names the witness {witness.name} for ∃{p.var}"
        if witness == Variable(p.var) and p.var not in free_variables(p.body):
            # vacuous quantifier: the variable never occurs, body follows directly
            return True, f"∃{p.var} is vacuous"
        if witness is not None:
            return False, "the witness must be a constant"
        return False, "conclusion is not an instance of the quantified body"

    if rule is InferenceRule.AND_ELIM:
        (p,) = premises
        if isinstance(p, And) and (alpha_equal(conclusion, p.left) or alpha_equal(conclusion, p.right)):
            return True, "extracts one conjunct"
        return False, "conclusion is not a conjunct of the premise"

    if rule is InferenceRule.AND_INTRO:
        if isinstance(conclusion, And):
            a, b = premises
            if (alpha_equal(conclusion.left, a) and alpha_equal(conclusion.right, b)) or \
                    (alpha_equal(conclusion.left, b) and alpha_equal(conclusion.right, a)):
                return True, "joins the premises"
        return False, "conclusion is not the conjunction of the premises"

    if rule is InferenceRule.OR_INTRO:
        (p,) = premises
        if isinstance(conclusion, Or) and (alpha_equal(conclusion.left, p) or alpha_equal(conclusion.right, p)):
            return True, "weakens the premise into a disjunction"
        return False, "conclusion is not a disjunction containing the premise"

    if rule is InferenceRule.DISJUNCTIVE_SYLLOGISM:
        for i, j in orders(2):
            disj, neg = premises[i], premises[j]
            if isinstance(disj, Or) and isinstance(neg, Not):
                if alpha_equal(neg.body, disj.left) and alpha_equal(conclusion, disj.right):
                    return True, "eliminates the refuted left disjunct"
                if alpha_equal(neg.body, disj.right) and alpha_equal(conclusion, disj.left):
                    return True, "eliminates the refuted right disjunct"
        return False, "premises do not fit φ ∨ ψ, ¬φ ⊢ ψ"

    if rule is InferenceRule.HYPOTHETICAL_SYLLOGISM:
        for i, j in orders(2):
            first, second = premises[i], premises[j]
            if isinstance(first, Implies) and isinstance(second, Implies) \
                    and alpha_equal(first.right, second.left) \
                    and isinstance(conclusion, Implies) \
                    and alpha_equal(conclusion.left, first.left) \
                    and alpha_equal(conclusion.right, second.right):
                return True, "chains the implications"
        return False, "premises do not fit φ → ψ, ψ → χ ⊢ φ → χ"

    if rule is InferenceRule.CONTRADICTION:
        for i, j in orders(2):
            pos, neg = premises[i], premises[j]
            if isinstance(neg, Not) and alpha_equal(neg.body, pos):
                return True, "contradictory premises entail anything (ex falso)"
        for i, j in orders(2):
            a, b = premises[i], premises[j]
            if isinstance(a, Implies) and isinstance(b, Implies) \
                    and alpha_equal(a.left, b.left) \
                    and isinstance(b.right, Not) and alpha_equal(b.right.body, a.right) \
                    and isinstance(conclusion, Not) and alpha_equal(conclusion.body, a.left):
                return True, "the assumption implies both ψ and ¬ψ (reductio)"
        return False, "premises contain no contradictory pair"

    if rule is InferenceRule.IFF_ELIM:
        if len(premises) == 1:
            (p,) = premises
            if isinstance(p, Iff) and isinstance(conclusion, Implies):
                if (alpha_equal(conclusion.left, p.left) and alpha_equal(conclusion.right, p.right)) or \
                        (alpha_equal(conclusion.left, p.right) and alpha_equal(conclusion.right, p.left)):
                    return True, "extracts one direction of the biconditional"
            return False, "conclusion is not a direction of the biconditional"
        for i, j in orders(2):
            bic, side = premises[i], premises[j]
            if isinstance(bic, Iff):
                if alpha_equal(side, bic.left) and alpha_equal(conclusion, bic.right):
                    return True, "applies the biconditional left to right"
                if alpha_equal(side, bic.right) and alpha_equal(conclusion, bic.left):
                    return True, "applies the biconditional right to left"
        return False, "premises do not fit φ ↔ ψ with one side asserted"

    raise UnknownRuleError(rule.value)


def check_step(premises: Iterable[Formula], rule: InferenceRule | str,
               conclusion: Formula) -> StepVerdict:
    """Validate one deduction step against a named inference rule.

    The verdict is ``valid`` iff the premises and conclusion fit the rule's
    schema up to alpha-equivalence and first-order matching.  Propositional
    steps are additionally confirmed by truth-table entailment (≤ 12 atoms);
    a failed propositional step carries a countermodel sketch.
    """
    if isinstance(rule, str):
        try:
            rule = InferenceRule(rule)
        except ValueError:
            raise UnknownRuleError(rule) from None
    premises = list(premises)
    lo, hi = _PREMISE_COUNTS[rule]
    if not (lo <= len(premises) <= hi):
        expected = str(lo) if lo == hi else f"{lo}-{hi}"
        raise SchemaArityMismatchError(rule, expected, len(premises))

    matched, reason = _match_schema(premises, rule, conclusion)

    propositional = all(is_propositional(f) for f in premises) and is_propositional(conclusion)
    if propositional:
        try:
            entailed, countermodel = truth_table_entails(premises, conclusion)
        except UnsupportedFragmentError:
            entailed, countermodel = matched, None
        if matched and not entailed:
            # schema bug guard: trust the semantic check
            return StepVerdict(False, rule, f"not truth-table valid; countermodel: {_describe_model(countermodel)}")
        if not matched and countermodel is not None:
            return StepVerdict(False, rule, f"{reason}; countermodel: {_describe_model(countermodel)}")

    return StepVerdict(matched, rule, reason)


# ---------------------------------------------------------------------------
# Forward chaining


@dataclass(frozen=True)
class Derivation:
    literal: SignedLiteral
    depth: int
    via: Optional[tuple[Rule, tuple[tuple[str, Term], ...]]] = None

    def __post_init__(self):
        if (self.depth == 0) != (self.via is None):
            raise LogicError("depth 0 exactly for given facts")


@dataclass(frozen=True)
class ChainResult:
    derivations: tuple[Derivation, ...]
    truncated: bool

    def literals(self) -> set[SignedLiteral]:
        return {d.literal for d in self.derivations}

    def depth_of(self, literal: SignedLiteral) -> Optional[int]:
        for d in self.derivations:
            if d.literal == literal:
                return d.depth
        return None


def _match_literal(pattern: SignedLiteral, fact: SignedLiteral,
                   binding: dict[str, Term]) -> Optional[dict[str, Term]]:
    if pattern.predicate != fact.predicate or pattern.polarity != fact.polarity \
            or len(pattern.args) != len(fact.args):
        return None
    out = dict(binding)
    for pat, val in zip(pattern.args, fact.args):
        if isinstance(pat, Variable):
            bound = out.get(pat.name)
            if bound is None:
                out[pat.name] = val
            elif bound != val:
                return None
        elif pat != val:
            return None
    return out


def _match_body(body: tuple[SignedLiteral, ...], index: dict[tuple[str, bool], list[SignedLiteral]]):
    def rec(i: int, binding: dict[str, Term]):
        if i == len(body):
            yield binding
            return
        pattern = body[i]
        for fact in index.get((pattern.predicate, pattern.polarity), ()):
            extended = _match_literal(pattern, fact, binding)
            if extended is not None:
                yield from rec(i + 1, extended)

    yield from rec(0, {})


def forward_chain(kb: KnowledgeBase, max_depth: Optional[int] = 20) -> ChainResult:
    """Least fixpoint of rule application, with minimal derivation depths.

    Terminates because the Herbrand base of a function-free knowledge base
    is finite; stops early after ``max_depth`` rounds with the truncation
    flag set.  Raises :class:`InconsistencyError` if both polarities of a
    literal become derivable.
    """
    derivations: dict[SignedLiteral, Derivation] = {
        fact: Derivation(fact, 0) for fact in kb.facts
    }
    index: dict[tuple[str, bool], list[SignedLiteral]] = {}
    for fact in kb.facts:
        index.setdefault((fact.predicate, fact.polarity), []).append(fact)

    depth = 0
    truncated = False
    while True:
        if max_depth is not None and depth >= max_depth:
            # a further round might still fire; probe for truncation
            for rule in kb.rules:
                for binding in _match_body(rule.body, index):
                    if rule.head.substitute(binding) not in derivations:
                        truncated = True
                        break
                if truncated:
                    break
            break
        depth += 1
        fresh: list[tuple[SignedLiteral, Derivation]] = []
        for rule in kb.rules:
            for binding in _match_body(rule.body, index):
                head = rule.head.substitute(binding)
                if head in derivations:
                    continue
                via = (rule, tuple(sorted(binding.items())))
                fresh.append((head, Derivation(head, depth, via)))
        if not fresh:
            break
        for head, derivation in fresh:
            if head in derivations:
                continue
            if head.negated() in derivations:
                raise InconsistencyError(SignedLiteral(head.predicate, head.args, True))
            derivations[head] = derivation
            index.setdefault((head.predicate, head.polarity), []).append(head)

    ordered = sorted(derivations.values(), key=lambda d: (d.depth, d.literal.to_text("kb")))
    return ChainResult(tuple(ordered), truncated)


def decide(kb: KnowledgeBase, query: SignedLiteral) -> Label:
    """Open-world three-valued answer for a ground query literal."""
    if not query.is_ground:
        raise UnsupportedFragmentError(f"query must be ground: {query.to_text()}")
    derived = forward_chain(kb, max_depth=None).literals()
    if query in derived:
        return Label.TRUE
    if query.negated() in derived:
        return Label.FALSE
    return Label.UNKNOWN


def decide_formula(kb: KnowledgeBase, statement: Formula) -> Label:
    """Three-valued (Kleene) evaluation of a ground compound statement.

    Atoms take the value ``decide`` gives their literal; connectives follow
    strong Kleene semantics, so e.g. a disjunction of two refuted disjuncts
    is False, the chainer's rendering of "false by contradiction".
    """
    derived = forward_chain(kb, max_depth=None).literals()

    def value(f: Formula) -> Label:
        if isinstance(f, Atom):
            from .folparse import formula_to_literal

            lit = formula_to_literal(f)  # folds a trailing True/False argument
            if not lit.is_ground:
                raise UnsupportedFragmentError("statement must be ground")
            if lit in derived:
                return Label.TRUE
            if lit.negated() in derived:
                return Label.FALSE
            return Label.UNKNOWN
        if isinstance(f, Not):
            inner = value(f.body)
            if inner is Label.UNKNOWN:
                return inner
            return Label.FALSE if inner is Label.TRUE else Label.TRUE
        if isinstance(f, And):
            left, right = value(f.left), value(f.right)
            if Label.FALSE in (left, right):
                return Label.FALSE
            if Label.UNKNOWN in (left, right):
                return Label.UNKNOWN
            return Label.TRUE
        if isinstance(f, Or):
            left, right = value(f.left), value(f.right)
            if Label.TRUE in (left, right):
                return Label.TRUE
            if Label.UNKNOWN in (left, right):
                return Label.UNKNOWN
            return Label.FALSE
        if isinstance(f, Implies):
            return value(Or(Not(f.left), f.right))
        if isinstance(f, Iff):
            left, right = value(f.left), value(f.right)
            if Label.UNKNOWN in (left, right):
                return Label.UNKNOWN
            return Label.TRUE if left is right else Label.FALSE
        if isinstance(f, Xor):
            left, right = value(f.left), value(f.right)
            if Label.UNKNOWN in (left, right):
                return Label.UNKNOWN
            return Label.TRUE if left is not right else Label.FALSE
        raise UnsupportedFragmentError("quantified statements are not auto-decided")

    return value(statement)
