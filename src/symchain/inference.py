"""Proof-step checking and forward chaining over the signed-literal fragment.

``check_step`` validates a single deduction against a named inference rule.
The propositional rules, the two fallacies and the mismatch hints are one
table of schemas in the formula notation (``"p; p → q ⊢ q"``), parsed at
import and matched up to alpha-equivalence; truth tables confirm the
propositional steps.  The quantifier rules compare the conclusion with
``substitute``-made instances, which cannot capture a variable.  Atoms and
terms are collected, alpha-equivalence decided and the strong-Kleene value
folded over the one formula traversal, ``logic.subformulas``, and the one
term traversal, ``logic.subterms``, which use stacks, so a step over a
chain, a nesting or a term of thousands of levels is checked without
recursion.

``forward_chain`` computes the least fixpoint of horn rule application by
semi-naive evaluation.  Its core, ``_saturate``, runs the rounds over
interned ground literals ``(predicate, polarity, constant names)``, with
each rule body compiled once per call into join steps; a rule body is
joined one literal at a time in a loop.  ``forward_chain`` then
materialises the core's result as :class:`Derivation` records.
``decide`` and ``decide_formula`` chain through ``forward_chain`` and look
their literals up in the core's interned map.  They answer with open-world
three-valued semantics through one strong-Kleene evaluator, of which
``eval_formula`` is the two-valued case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .folparse import formula_to_literal, parse_formula, print_formula
from .logic import (
    BINARY_NODES, Atom, Constant, Exists, ForAll, Formula, Iff, Implies, InconsistencyError,
    InferenceRule, KnowledgeBase, Label, LogicError, Not, Or, Rule, SignedLiteral, Term, Variable,
    Xor, alpha_equal, free_variables, kb_text, substitute, subformulas, subterms,
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
# Strong-Kleene evaluation and truth tables


def _kleene(f: Formula, value_of: Callable[[Atom], Optional[bool]]) -> Optional[bool]:
    """Strong-Kleene value of ``f`` (None is unknown), atoms valued by ``value_of``.

    The atoms are valued in the preorder of ``subformulas``, left first, so
    the leftmost one's error, or a quantifier before it, is raised.  The
    preorder is then folded from its end: a node's operands are the top
    values of a stack, so no formula shape recurses.
    """
    nodes, atom_values = [], []
    for g, _ in subformulas(f):
        if isinstance(g, Atom):
            atom_values.append(value_of(g))
        elif not isinstance(g, (Not, *BINARY_NODES)):
            raise UnsupportedFragmentError("quantified statements are not auto-decided")
        nodes.append(g)
    stack: list[Optional[bool]] = []
    for g in reversed(nodes):
        if isinstance(g, Atom):
            value = atom_values.pop()
        elif isinstance(g, Not):
            value = stack.pop()
            value = None if value is None else not value
        else:
            values = [stack.pop(), stack.pop()]
            if isinstance(g, (Iff, Xor)):
                value = None if None in values else (values[0] == values[1]) != isinstance(g, Xor)
            else:
                if isinstance(g, Implies) and values[0] is not None:
                    values[0] = not values[0]  # φ → ψ is ¬φ ∨ ψ
                # a conjunction is decided by a false operand, a disjunction by a true one
                decisive = isinstance(g, (Or, Implies))
                value = decisive if decisive in values else None if None in values else not decisive
        stack.append(value)
    return stack[0]


def _atoms_of(f: Formula) -> set[Atom]:
    atoms = set()
    for g, _ in subformulas(f):
        if isinstance(g, Atom):
            atoms.add(g)
        elif not isinstance(g, (Not, *BINARY_NODES)):
            raise UnsupportedFragmentError("quantifiers are outside the propositional fragment")
    return atoms


def is_propositional(f: Formula) -> bool:
    try:
        atoms = _atoms_of(f)
    except UnsupportedFragmentError:
        return False
    return all(not free_variables(a) for a in atoms)


def eval_formula(f: Formula, model: Mapping[Atom, bool]) -> bool:
    """Two-valued evaluation under a model that values every atom of ``f``."""
    return _kleene(f, model.__getitem__)


TRUTH_TABLE_MAX_ATOMS = 12  # 4,096 rows


def truth_table_entails(premises: Iterable[Formula],
                        conclusion: Formula) -> tuple[bool, Optional[dict[Atom, bool]]]:
    """Check premises ⊨ conclusion by enumeration; returns (entailed, countermodel)."""
    premises = list(premises)
    atoms = sorted(
        set().union(*(_atoms_of(p) for p in premises), _atoms_of(conclusion)),
        key=lambda a: (a.predicate, tuple(str(t) for t in a.args)),
    )
    if len(atoms) > TRUTH_TABLE_MAX_ATOMS:
        raise UnsupportedFragmentError(f"too many atoms for truth-table check: {len(atoms)}")
    for values in itertools.product((False, True), repeat=len(atoms)):
        model = dict(zip(atoms, values))
        if all(eval_formula(p, model) for p in premises) and not eval_formula(conclusion, model):
            return False, model
    return True, None


def _describe_model(model: Mapping[Atom, bool]) -> str:
    parts = [f"{print_formula(a)}={'true' if v else 'false'}" for a, v in model.items()]
    return ", ".join(sorted(parts))


# ---------------------------------------------------------------------------
# The rule table

# (rule, premise count): (mismatch hint, schema rows).  A row is (schema,
# valid, reason), tried in order over every premise order; the letters p, q,
# r stand for any formula and ``{p}`` in a reason prints what p matched.  The
# quantifier rules have no rows: they are matched by instantiation.
_RULE_TABLE = {
    (InferenceRule.MODUS_PONENS, 2): ("premises do not fit φ, φ → ψ ⊢ ψ", [
        ("p; p → q ⊢ q", True, "from {p} and the implication, infer the consequent"),
        ("q; p → q ⊢ p", False, "affirming the consequent"),
    ]),
    (InferenceRule.MODUS_TOLLENS, 2): ("premises do not fit ¬ψ, φ → ψ ⊢ ¬φ", [
        ("¬q; p → q ⊢ ¬p", True, "from ¬ψ and φ → ψ, infer ¬φ"),
        ("¬p; p → q ⊢ ¬q", False, "denying the antecedent"),
    ]),
    (InferenceRule.UNIVERSAL_INSTANTIATION, 1): ("conclusion is not an instance of the quantified body", []),
    (InferenceRule.EXISTENTIAL_INSTANTIATION, 1): ("conclusion is not an instance of the quantified body", []),
    (InferenceRule.AND_ELIM, 1): ("conclusion is not a conjunct of the premise", [
        ("p ∧ q ⊢ p", True, "extracts one conjunct"),
        ("p ∧ q ⊢ q", True, "extracts one conjunct"),
    ]),
    (InferenceRule.AND_INTRO, 2): ("conclusion is not the conjunction of the premises", [
        ("p; q ⊢ p ∧ q", True, "joins the premises"),
    ]),
    (InferenceRule.OR_INTRO, 1): ("conclusion is not a disjunction containing the premise", [
        ("p ⊢ p ∨ q", True, "weakens the premise into a disjunction"),
        ("p ⊢ q ∨ p", True, "weakens the premise into a disjunction"),
    ]),
    (InferenceRule.DISJUNCTIVE_SYLLOGISM, 2): ("premises do not fit φ ∨ ψ, ¬φ ⊢ ψ", [
        ("p ∨ q; ¬p ⊢ q", True, "eliminates the refuted left disjunct"),
        ("p ∨ q; ¬q ⊢ p", True, "eliminates the refuted right disjunct"),
    ]),
    (InferenceRule.HYPOTHETICAL_SYLLOGISM, 2): ("premises do not fit φ → ψ, ψ → χ ⊢ φ → χ", [
        ("p → q; q → r ⊢ p → r", True, "chains the implications"),
    ]),
    (InferenceRule.CONTRADICTION, 2): ("premises contain no contradictory pair", [
        ("p; ¬p ⊢ q", True, "contradictory premises entail anything (ex falso)"),
        ("p → q; p → ¬q ⊢ ¬p", True, "the assumption implies both ψ and ¬ψ (reductio)"),
    ]),
    (InferenceRule.IFF_ELIM, 1): ("conclusion is not a direction of the biconditional", [
        ("p ↔ q ⊢ p → q", True, "extracts one direction of the biconditional"),
        ("p ↔ q ⊢ q → p", True, "extracts one direction of the biconditional"),
    ]),
    (InferenceRule.IFF_ELIM, 2): ("premises do not fit φ ↔ ψ with one side asserted", [
        ("p ↔ q; p ⊢ q", True, "applies the biconditional left to right"),
        ("p ↔ q; q ⊢ p", True, "applies the biconditional right to left"),
    ]),
}


def _parse_schema(text: str) -> tuple[Formula, ...]:
    """The schema's premises followed by its conclusion."""
    premises, conclusion = text.split("⊢")
    return tuple(parse_formula(part) for part in premises.split(";")) + (parse_formula(conclusion),)


_RULES = {key: (hint, [(_parse_schema(text), valid, reason) for text, valid, reason in rows])
          for key, (hint, rows) in _RULE_TABLE.items()}
_PREMISE_COUNTS = {rule: [n for r, n in _RULES if r is rule] for rule in InferenceRule}


def _bind(schema: Formula, f: Formula, env: dict[str, Formula]) -> bool:
    """Match ``f`` against ``schema``, binding each letter to one formula up to
    alpha-equivalence; ``env`` keeps the first formula each letter matched."""
    if isinstance(schema, Atom):
        bound = env.setdefault(schema.predicate, f)
        return bound is f or alpha_equal(bound, f)
    if type(schema) is not type(f):
        return False
    if isinstance(schema, Not):
        return _bind(schema.body, f.body, env)
    return _bind(schema.left, f.left, env) and _bind(schema.right, f.right, env)


def _terms_of(f: Formula) -> Iterator[tuple[Term, Mapping[str, int]]]:
    """Each term of ``f``'s atoms, in the preorder of ``subterms`` within the
    preorder of ``subformulas``, with its binders."""
    for g, binders in subformulas(f):
        if isinstance(g, Atom):
            for t in subterms(g.args):
                yield t, binders


def _instance_term(body: Formula, var: str, candidate: Formula) -> Optional[Term]:
    """A term t with ``candidate`` alpha-equal to ``body[var := t]``, if any.

    ``substitute`` renames a binder of ``body`` that would capture t, so a
    candidate whose t is bound inside it never matches.  When ``var`` does
    not occur free, any t will do and the variable itself is returned.
    Otherwise only one t can match: the candidate's term at the place of
    the first free occurrence of ``var``, as nothing before it changes.
    """
    at = next((i for i, (t, binders) in enumerate(_terms_of(body))
               if isinstance(t, Variable) and t.name == var and var not in binders), None)
    if at is None:
        return Variable(var) if alpha_equal(body, candidate) else None
    for t, _ in itertools.islice(_terms_of(candidate), at, at + 1):
        return t if alpha_equal(substitute(body, var, t), candidate) else None
    return None


def _match_quantifier(premise: Formula, rule: InferenceRule, conclusion: Formula,
                      hint: str) -> tuple[bool, str]:
    universal = rule is InferenceRule.UNIVERSAL_INSTANTIATION
    if not isinstance(premise, ForAll if universal else Exists):
        return False, f"premise is not {'universally' if universal else 'existentially'} quantified"
    term = _instance_term(premise.body, premise.var, conclusion)
    if term is None:
        return False, hint
    if universal:
        return True, f"instantiates ∀{premise.var}"
    if isinstance(term, Constant):
        return True, f"names the witness {term.name} for ∃{premise.var}"
    if premise.var not in free_variables(premise.body):
        # vacuous quantifier: the variable never occurs, body follows directly
        return True, f"∃{premise.var} is vacuous"
    return False, "the witness must be a constant"


def _match_schema(premises: list[Formula], rule: InferenceRule, conclusion: Formula) -> tuple[bool, str]:
    """Return (matched, description-or-failure-hint) for the named schema."""
    hint, rows = _RULES[rule, len(premises)]
    if not rows:
        return _match_quantifier(premises[0], rule, conclusion, hint)
    for schema, valid, reason in rows:
        for order in itertools.permutations(premises):
            env: dict[str, Formula] = {}
            if all(_bind(s, f, env) for s, f in zip(schema, (*order, conclusion))):
                return valid, reason.format(p=print_formula(env["p"]))
    return False, hint


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
    counts = _PREMISE_COUNTS[rule]
    if len(premises) not in counts:
        expected = str(counts[0]) if len(counts) == 1 else f"{counts[0]}-{counts[-1]}"
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


@dataclass(frozen=True, slots=True)
class Derivation:
    literal: SignedLiteral
    depth: int
    via: Optional[tuple[Rule, tuple[tuple[str, Term], ...]]] = None

    def __post_init__(self):
        if (self.depth == 0) != (self.via is None):
            raise LogicError("depth 0 exactly for given facts")


# Inside the chainer a ground literal is interned as (predicate, polarity,
# constant names), and (predicate, polarity) keys a list of fact arguments.
_Ground = tuple[str, bool, tuple[str, ...]]
_FactKey = tuple[str, bool]
# a join step: (key, fixed, repeats); see _compile
_Step = tuple[_FactKey, tuple[tuple[int, int, str], ...], tuple[tuple[int, int], ...]]
# a head: (predicate, polarity, template); see _compile
_Head = tuple[str, bool, tuple[tuple[int, str], ...]]


def _ground(literal: SignedLiteral) -> Optional[_Ground]:
    """The interned form of a literal, or None unless all its arguments are
    constants: a derived literal holds constants only, so a ground
    FunctionApp never matches, whatever its name."""
    if not all(isinstance(arg, Constant) for arg in literal.args):
        return None
    return literal.predicate, literal.polarity, tuple(arg.name for arg in literal.args)


@dataclass(frozen=True)
class ChainResult:
    """What :func:`forward_chain` derived.

    ``ground_depths`` is the fixpoint core's map from each derived literal,
    interned as ``(predicate, polarity, constant names)``, to its depth;
    ``holds`` and ``depth_of`` look literals up there.  It takes no part in
    equality, which ``derivations`` and ``truncated`` decide.
    """

    derivations: tuple[Derivation, ...]
    truncated: bool
    ground_depths: dict[_Ground, int] = field(compare=False, repr=False)

    def literals(self) -> set[SignedLiteral]:
        return {d.literal for d in self.derivations}

    def depth_of(self, literal: SignedLiteral) -> Optional[int]:
        return self.ground_depths.get(_ground(literal))

    def holds(self, literal: SignedLiteral) -> Optional[bool]:
        """True if ``literal`` was derived, False if its negation was, else None."""
        ground = _ground(literal)
        if ground is None:
            return None
        if ground in self.ground_depths:
            return True
        if (ground[0], not ground[1], ground[2]) in self.ground_depths:
            return False
        return None


def _slots(rule: Rule) -> dict[str, int]:
    """Each body variable's slot in a binding.

    A binding is the concatenation of the argument tuples of the facts the
    body literals matched, so a variable's value sits at the offset of its
    first occurrence in the body's arguments.
    """
    slots: dict[str, int] = {}
    offset = 0
    for lit in rule.body:
        for position, term in enumerate(lit.args):
            if isinstance(term, Variable):
                slots.setdefault(term.name, offset + position)
        offset += len(lit.args)
    return slots


def _compile(rule: Rule) -> tuple[tuple[_Step, ...], _Head]:
    """The rule's body as join steps and its head as a template.

    Each body literal becomes a step ``(key, fixed, repeats)``:

    * ``fixed``: ``(position, slot, name)`` of the arguments known before
      the step, a constant (slot -1) or a variable an earlier literal binds;
    * ``repeats``: ``(position, earlier position)`` of a variable repeated
      within the literal.

    The head template holds ``(slot, name)`` per argument, slot -1 for a
    constant; it is None when the head's arguments are the binding itself.
    """
    slots = _slots(rule)
    steps = []
    offset = 0
    for lit in rule.body:
        fixed, repeats = [], []
        for position, term in enumerate(lit.args):
            slot = slots[term.name] if isinstance(term, Variable) else -1
            if slot < offset:
                fixed.append((position, slot, term.name))
            elif slot < offset + position:
                repeats.append((position, slot - offset))
        steps.append(((lit.predicate, lit.polarity), tuple(fixed), tuple(repeats)))
        offset += len(lit.args)
    head = rule.head
    template = tuple((slots[t.name], t.name) if isinstance(t, Variable) else (-1, t.name)
                     for t in head.args)
    if [slot for slot, _ in template] == list(range(offset)):
        template = None  # the head's arguments are the binding itself
    return tuple(steps), (head.predicate, head.polarity, template)


def _join(steps: tuple[_Step, ...], facts_of: dict[_FactKey, list[tuple[str, ...]]],
          old: dict[_FactKey, int]) -> Iterator[tuple[str, ...]]:
    """Bindings of the body that use at least one new fact, generated lazily.

    ``facts_of[key]`` lists the facts of a key oldest first, and its first
    ``old[key]`` entries are old.  A loop walks the body depth first with a
    stack of partial bindings, so bindings come in the order of the naive
    nested-loop join over all facts, minus the all-old ones.
    """
    if len(steps) == 1 and not steps[0][1] and not steps[0][2]:
        yield from facts_of.get(steps[0][0], [])[old.get(steps[0][0], 0):]
        return
    facts = [facts_of.get(step[0], ()) for step in steps]
    splits = [old.get(step[0], 0) for step in steps]
    # new_after[i]: a literal after position i can still take a new fact
    new_after = [False] * len(steps)
    for i in range(len(steps) - 1, 0, -1):
        new_after[i - 1] = new_after[i] or splits[i] < len(facts[i])
    last = len(steps) - 1
    stack: list[tuple[int, tuple[str, ...], bool]] = [(0, (), False)]
    while stack:
        i, binding, used_new = stack.pop()
        _, fixed, repeats = steps[i]
        candidates, split = facts[i], splits[i]
        # until the first new fact (the pivot), take old facts only where
        # a later literal can still be the pivot
        start = 0 if used_new or new_after[i] else split
        wanted = [(p, binding[s] if s >= 0 else name) for p, s, name in fixed]
        children = []
        for j in range(start, len(candidates)):
            args = candidates[j]
            if wanted and any(args[p] != name for p, name in wanted):
                continue
            if repeats and any(args[p] != args[q] for p, q in repeats):
                continue
            if i == last:
                yield binding + args
            else:
                children.append((i + 1, binding + args, used_new or j >= split))
        stack.extend(reversed(children))


def _saturate(rules: tuple[Rule, ...], given: list[_Ground], max_depth: Optional[int]
              ) -> tuple[dict[_Ground, int], dict[_Ground, tuple[int, tuple[str, ...]]], bool]:
    """The fixpoint core of :func:`forward_chain`, over interned literals.

    Returns each derivable literal's minimal depth (the ``given`` facts
    first, in their order, then round by round in derivation order), the
    ``(rule position, binding)`` that first derived each literal of depth
    ≥ 1, in derivation order, and the truncation flag.  The order of
    ``given`` decides which binding a ``via`` records.  Raises what
    ``forward_chain`` raises.
    """
    compiled = [_compile(rule) for rule in rules]
    rules_of: dict[_FactKey, set[int]] = {}
    for position, (steps, _) in enumerate(compiled):
        for key, _, _ in steps:
            rules_of.setdefault(key, set()).add(position)
    depths: dict[_Ground, int] = dict.fromkeys(given, 0)
    via: dict[_Ground, tuple[int, tuple[str, ...]]] = {}
    # append-only fact lists; the first old[key] facts predate the last round
    facts_of: dict[_FactKey, list[tuple[str, ...]]] = {}
    for predicate, polarity, names in given:
        facts_of.setdefault((predicate, polarity), []).append(names)
    old: dict[_FactKey, int] = {}
    new_keys = set(facts_of)
    depth = 0
    while True:
        # the heads that bindings using a new fact derive, in naive join order
        fresh: dict[_Ground, tuple[int, tuple[str, ...]]] = {}
        for position in sorted(set().union(*(rules_of.get(key, ()) for key in new_keys))):
            steps, (predicate, polarity, template) = compiled[position]
            for binding in _join(steps, facts_of, old):
                head = (predicate, polarity, binding if template is None
                        else tuple([binding[s] if s >= 0 else name for s, name in template]))
                if head not in depths and head not in fresh:
                    fresh[head] = (position, binding)
        if not fresh:
            return depths, via, False
        if max_depth is not None and depth >= max_depth:
            return depths, via, True
        depth += 1
        clashes = [head for head in fresh
                   if (flipped := (head[0], not head[1], head[2])) in depths or flipped in fresh]
        if clashes:
            predicate, _, names = min(clashes, key=lambda g: kb_text(*g))
            raise InconsistencyError(SignedLiteral(predicate, tuple([Constant(n) for n in names])))
        for key in new_keys:  # the keys that gained facts last round
            old[key] = len(facts_of[key])
        new_keys = set()
        for head in fresh:
            depths[head] = depth
            key = head[:2]
            new_keys.add(key)
            facts_of.setdefault(key, []).append(head[2])
        via.update(fresh)


def forward_chain(kb: KnowledgeBase, max_depth: Optional[int] = 20) -> ChainResult:
    """Least fixpoint of rule application, with minimal derivation depths.

    Evaluation is semi-naive: round d joins each rule only through bindings
    that use at least one fact derived in round d-1 (the given facts count
    as round 0's), and skips the rules with no such fact in their body.  A
    join over older facts alone was already made in an earlier round, so
    the fixpoint, the depths, the ``via`` of every derivation and the
    truncation flag are those of naive evaluation.

    The rounds run in ``_saturate`` over interned literals ``(predicate,
    polarity, constant names)``, with each rule compiled once per call into
    join steps.  The given facts enter the core in ``to_text("kb")`` order,
    not in the frozenset's hash order, so ``via`` is the same in every
    process.  This function sorts the core's interned literals by depth and
    then by their ``to_text("kb")`` rendering, formatted from the interned
    form, and materialises them in that order as :class:`Derivation`\\ s:
    the knowledge base's own facts at depth 0, and one ``via`` pair tuple
    for all the derivations whose rules have the same variable slots and
    binding.  It keeps the interned depths for ``ChainResult.holds`` and
    ``depth_of``.

    Terminates because the Herbrand base of a function-free knowledge base
    is finite; stops early after ``max_depth`` rounds with the truncation
    flag set.  Raises :class:`InconsistencyError` if both polarities of a
    literal become derivable, naming the first clashing literal of that
    round in ``to_text("kb")`` order.
    """
    # no two literals share a text, so these tuples sort by their texts alone
    grounds = [_ground(fact) for fact in kb.facts]
    given = sorted(zip(itertools.starmap(kb_text, grounds), grounds, kb.facts))
    depths, via, truncated = _saturate(kb.rules, [ground for _, ground, _ in given], max_depth)
    derivations = [Derivation(fact, 0) for _, _, fact in given]
    constant = {c.name: c for c in kb.constants()}  # every name a literal or binding holds
    slots = [tuple(sorted(_slots(rule).items())) for rule in kb.rules]
    # shared by the derivations whose rules have the same slots and binding
    pairs_of: dict[tuple[tuple[tuple[str, int], ...], tuple[str, ...]], tuple[tuple[str, Term], ...]] = {}
    args_of: dict[tuple[str, ...], tuple[Constant, ...]] = {}  # shared by literals over the same names
    for depth, _, (predicate, polarity, names), (position, binding) in sorted(
            zip(map(depths.__getitem__, via), itertools.starmap(kb_text, via), via, via.values())):
        args = args_of.get(names)
        if args is None:
            args = args_of[names] = tuple([constant[name] for name in names])
        key = (slots[position], binding)
        pairs = pairs_of.get(key)
        if pairs is None:
            pairs = pairs_of[key] = tuple([(name, constant[binding[slot]]) for name, slot in slots[position]])
        derivations.append(Derivation(SignedLiteral(predicate, args, polarity), depth,
                                      (kb.rules[position], pairs)))
    return ChainResult(tuple(derivations), truncated, depths)


_LABELS = {True: Label.TRUE, False: Label.FALSE, None: Label.UNKNOWN}


def decide(kb: KnowledgeBase, query: SignedLiteral) -> Label:
    """Open-world three-valued answer for a ground query literal."""
    if not query.is_ground:
        raise UnsupportedFragmentError(f"query must be ground: {query.to_text()}")
    return _LABELS[forward_chain(kb, None).holds(query)]


def decide_formula(kb: KnowledgeBase, statement: Formula) -> Label:
    """Three-valued (Kleene) evaluation of a ground compound statement.

    Atoms take the value ``decide`` gives their literal; connectives follow
    strong Kleene semantics, so e.g. a disjunction of two refuted disjuncts
    is False, the chainer's rendering of "false by contradiction".
    """
    result = forward_chain(kb, None)

    def value_of(atom: Atom) -> Optional[bool]:
        literal = formula_to_literal(atom)  # folds a trailing True/False argument
        if not literal.is_ground:
            raise UnsupportedFragmentError("statement must be ground")
        return result.holds(literal)

    return _LABELS[_kleene(statement, value_of)]
