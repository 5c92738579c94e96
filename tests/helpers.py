"""Shared test utilities: random generators and independent oracles.

The oracles deliberately re-derive everything from scratch (truth tables by
their own evaluator, KB entailment by model enumeration over the ground
instantiation, chaining depths by naive rounds over the same ground program,
CSP solutions by naive product enumeration) so they share no code path with
the engines they check.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path
from random import Random
from typing import Sequence

import symchain

from symchain.csp import (
    AbsDiffNotEqual, AllDifferent, CAnd, CImplies, CNot, COr, Compare, CspModel,
)
from symchain.logic import (
    And, Atom, Constant, Exists, ForAll, Formula, Iff, Implies, KnowledgeBase,
    Not, Or, Rule, SignedLiteral, Variable, Xor,
)

# ---------------------------------------------------------------------------
# Runs in fresh interpreters


def run_under_hash_seeds(snippet: str, seeds: Sequence[int] = (1, 2, 3)) -> dict[int, str]:
    """The standard output of ``python -c snippet`` under each ``PYTHONHASHSEED``
    in ``seeds``, with ``symchain`` and this module importable.

    String hashing, and so the iteration order of sets of strings, differs
    between those interpreters; an output that follows such an order
    differs between seeds.
    """
    path = os.pathsep.join([str(Path(symchain.__file__).parents[1]), str(Path(__file__).parent)])
    out = {}
    for seed in seeds:
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", snippet], env=env, capture_output=True,
                              text=True, timeout=300)
        if done.returncode != 0:
            raise AssertionError(f"snippet failed under PYTHONHASHSEED={seed}:\n{done.stderr}")
        out[seed] = done.stdout
    return out


# ---------------------------------------------------------------------------
# Truth-table oracle (propositional)


def tt_atoms(f: Formula) -> set[Atom]:
    if isinstance(f, Atom):
        return {f}
    if isinstance(f, Not):
        return tt_atoms(f.body)
    return tt_atoms(f.left) | tt_atoms(f.right)


def tt_eval(f: Formula, row: dict[Atom, bool]) -> bool:
    if isinstance(f, Atom):
        return row[f]
    if isinstance(f, Not):
        return not tt_eval(f.body, row)
    if isinstance(f, And):
        return tt_eval(f.left, row) and tt_eval(f.right, row)
    if isinstance(f, Or):
        return tt_eval(f.left, row) or tt_eval(f.right, row)
    if isinstance(f, Xor):
        return tt_eval(f.left, row) != tt_eval(f.right, row)
    if isinstance(f, Implies):
        return (not tt_eval(f.left, row)) or tt_eval(f.right, row)
    if isinstance(f, Iff):
        return tt_eval(f.left, row) == tt_eval(f.right, row)
    raise AssertionError(f"not propositional: {f!r}")


def tt_entailed(premises: list[Formula], conclusion: Formula) -> bool:
    atoms = sorted(
        set().union(*(tt_atoms(p) for p in premises), tt_atoms(conclusion)),
        key=repr,
    )
    for values in itertools.product((False, True), repeat=len(atoms)):
        row = dict(zip(atoms, values))
        if all(tt_eval(p, row) for p in premises) and not tt_eval(conclusion, row):
            return False
    return True


def _term_constants(t) -> set[str]:
    if isinstance(t, Constant):
        return {t.name}
    if isinstance(t, Variable):
        return set()
    out = set()
    for a in t.args:
        out |= _term_constants(a)
    return out


def formula_constants(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        out = set()
        for a in f.args:
            out |= _term_constants(a)
        return out
    if isinstance(f, Not):
        return formula_constants(f.body)
    if isinstance(f, (ForAll, Exists)):
        return formula_constants(f.body)
    return formula_constants(f.left) | formula_constants(f.right)


def expand_quantifiers(f: Formula, domain: list[str]) -> Formula:
    """Ground a formula over an explicit finite domain (∀ as ∧, ∃ as ∨)."""
    from symchain.logic import substitute

    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(expand_quantifiers(f.body, domain))
    if isinstance(f, (And, Or, Xor, Implies, Iff)):
        return type(f)(expand_quantifiers(f.left, domain),
                       expand_quantifiers(f.right, domain))
    joiner = And if isinstance(f, ForAll) else Or
    parts = [expand_quantifiers(substitute(f.body, f.var, Constant(c)), domain)
             for c in domain]
    out = parts[0]
    for part in parts[1:]:
        out = joiner(out, part)
    return out


def finite_domain_entailed(premises: list[Formula], conclusion: Formula) -> bool:
    """Entailment over the expansion domain: mentioned constants plus two
    fresh ones (a countermodel here refutes general entailment)."""
    domain = set()
    for g in list(premises) + [conclusion]:
        domain |= formula_constants(g)
    domain = sorted(domain) + ["fresh1", "fresh2"]
    return tt_entailed([expand_quantifiers(p, domain) for p in premises],
                       expand_quantifiers(conclusion, domain))


# ---------------------------------------------------------------------------
# Knowledge-base entailment oracle: enumerate models of the ground program


def ground_rules(kb: KnowledgeBase) -> list[tuple[tuple[SignedLiteral, ...], SignedLiteral]]:
    constants = sorted(kb.constants(), key=lambda c: c.name) or [Constant("c0")]
    out = []
    for rule in kb.rules:
        variables = sorted(set().union(*(lit.variables() for lit in rule.body)))
        for combo in itertools.product(constants, repeat=len(variables)):
            mapping = dict(zip(variables, combo))
            body = tuple(lit.substitute(mapping) for lit in rule.body)
            head = rule.head.substitute(mapping)
            out.append((body, head))
    return out


def enumerate_entailed(kb: KnowledgeBase, max_atoms: int = 12) -> set[SignedLiteral] | None:
    """Literals true in every model of the ground instantiation.

    A model gives each ground atom one of the statuses true / false /
    unknown and must contain all facts and be closed under every ground
    rule.  Returns None when the KB has no model at all (inconsistent).
    """
    grounded = ground_rules(kb)
    atoms: set[tuple[str, tuple]] = set()
    for fact in kb.facts:
        atoms.add((fact.predicate, fact.args))
    for body, head in grounded:
        for lit in body:
            atoms.add((lit.predicate, lit.args))
        atoms.add((head.predicate, head.args))
    atom_list = sorted(atoms, key=repr)
    assert len(atom_list) <= max_atoms, f"oracle domain too large: {len(atom_list)}"
    index = {atom: i for i, atom in enumerate(atom_list)}

    fact_states = {}
    for fact in kb.facts:
        fact_states[index[(fact.predicate, fact.args)]] = fact.polarity

    rule_masks = []
    for body, head in grounded:
        body_req = [(index[(l.predicate, l.args)], l.polarity) for l in body]
        head_req = (index[(head.predicate, head.args)], head.polarity)
        rule_masks.append((body_req, head_req))

    entailed: set[SignedLiteral] | None = None
    found_model = False
    for states in itertools.product((True, False, None), repeat=len(atom_list)):
        ok = all(states[i] == want for i, want in fact_states.items())
        if ok:
            for body_req, (hi, hp) in rule_masks:
                if all(states[i] == want for i, want in body_req) and states[hi] != hp:
                    ok = False
                    break
        if not ok:
            continue
        found_model = True
        model_lits = {
            SignedLiteral(pred, args, states[i])
            for (pred, args), i in index.items()
            if states[i] is not None
        }
        entailed = model_lits if entailed is None else (entailed & model_lits)
        if not entailed:
            # intersection can only shrink; still need to confirm a model exists
            break
    if not found_model:
        return None
    return entailed or set()


def random_kb(rng: Random, max_ground_atoms: int = 9) -> KnowledgeBase | None:
    """A small random signed-literal KB whose ground atom count stays
    enumerable; returns None when the draw had contradictory facts."""
    n_consts = rng.randint(1, 3)
    n_preds = rng.randint(2, 3)
    while n_preds * n_consts > max_ground_atoms:
        n_preds -= 1
    constants = [Constant(c) for c in ["a", "b", "c"][:n_consts]]
    predicates = ["P", "Q", "R"][:n_preds]

    def random_ground() -> SignedLiteral:
        return SignedLiteral(rng.choice(predicates), (rng.choice(constants),), rng.random() < 0.7)

    facts = set()
    for _ in range(rng.randint(1, 3)):
        facts.add(random_ground())

    rules = []
    for _ in range(rng.randint(1, 8)):
        body_len = rng.randint(1, 2)
        var = Variable("x")
        body = []
        for _ in range(body_len):
            arg = var if rng.random() < 0.8 else rng.choice(constants)
            body.append(SignedLiteral(rng.choice(predicates), (arg,), rng.random() < 0.8))
        head_arg = var if any(var in lit.args for lit in body) else rng.choice(constants)
        head = SignedLiteral(rng.choice(predicates), (head_arg,), rng.random() < 0.8)
        rules.append(Rule(tuple(body), head))

    try:
        return KnowledgeBase(facts, rules)
    except Exception:
        return None


def random_horn_kb(rng: Random) -> KnowledgeBase:
    """A random KB for chaining over unary and binary predicates and up to
    three constants.  Bodies have one to three literals, negative ones
    included, and mostly reuse the (predicate, polarity) of facts and of
    earlier heads, so that rules chain.  Two variables over binary
    predicates give repeated variables (``R($x, $x)``), and constants also
    appear inside rules."""
    constants = [Constant(c) for c in ["a", "b", "c"][:rng.randint(1, 3)]]
    arity = {"P": 1, "Q": 1, "T": 1, "U": 1, "V": 1, "R": 2, "S": 2}

    def literal(predicate: str, polarity: bool, variables: list[str]) -> SignedLiteral:
        args = tuple(
            Variable(rng.choice(variables)) if variables and rng.random() < 0.8 else rng.choice(constants)
            for _ in range(arity[predicate])
        )
        return SignedLiteral(predicate, args, polarity)

    facts = {}
    for _ in range(rng.randint(2, 10)):
        fact = literal(rng.choice(sorted(arity)), rng.random() < 0.8, [])
        facts[(fact.predicate, fact.args)] = fact  # one polarity per atom
    given = sorted({(f.predicate, f.polarity) for f in facts.values()})
    heads: list[tuple[str, bool]] = []
    rules = []
    for _ in range(rng.randint(2, 10)):
        body = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if heads and roll < 0.5:
                predicate, polarity = rng.choice(heads)
            elif roll < 0.9:
                predicate, polarity = rng.choice(given)
            else:
                predicate, polarity = rng.choice(sorted(arity)), rng.random() < 0.7
            body.append(literal(predicate, polarity, ["x", "y"]))
        bound = sorted(set().union(*(lit.variables() for lit in body)))
        head = literal(rng.choice(sorted(arity)), rng.random() < 0.8, bound)
        rules.append(Rule(tuple(body), head))
        heads.append((head.predicate, head.polarity))
    rng.shuffle(rules)
    return KnowledgeBase(facts.values(), rules)


def random_long_body_kb(rng: Random) -> KnowledgeBase:
    """A random KB whose rule bodies have four to eight literals.

    P, Q, R and S hold given facts only; T, U and W are derived.  A body
    literal takes the variables x, y and z (repeated within a binary
    literal too) or a constant.  The first rule's body uses given-only
    predicates, so something derives; in about a third of the others every
    body literal but the last does, so after the first round only their
    last literal can take a new fact."""
    constants = [Constant(c) for c in ["a", "b", "c"][:rng.randint(1, 3)]]
    arity = {"P": 1, "Q": 1, "R": 2, "S": 2, "T": 1, "U": 1, "W": 2}
    given_only, derived = ["P", "Q", "R", "S"], ["T", "U", "W"]

    def literal(predicate: str, polarity: bool, variables: list[str]) -> SignedLiteral:
        args = tuple(
            Variable(rng.choice(variables)) if variables and rng.random() < 0.8 else rng.choice(constants)
            for _ in range(arity[predicate])
        )
        return SignedLiteral(predicate, args, polarity)

    facts = [SignedLiteral(predicate, args, rng.random() < 0.9)
             for predicate in given_only
             for args in itertools.product(constants, repeat=arity[predicate]) if rng.random() < 0.85]
    rules = []
    for position in range(rng.randint(2, 6)):
        length = rng.randint(4, 8)
        shape = "seed" if position == 0 else rng.choice(["pivot-last", "mixed", "mixed"])
        body = []
        for i in range(length):
            if shape == "seed" or (shape == "pivot-last" and i < length - 1):
                predicate = rng.choice(given_only)
            elif shape == "pivot-last" or rng.random() < 0.25:
                predicate = rng.choice(derived)
            else:
                predicate = rng.choice(given_only)
            body.append(literal(predicate, rng.random() < 0.95, ["x", "y", "z"]))
        bound = sorted(set().union(*(lit.variables() for lit in body)))
        rules.append(Rule(tuple(body), literal(rng.choice(derived), rng.random() < 0.9, bound)))
    rng.shuffle(rules)
    return KnowledgeBase(facts, rules)


def naive_fixpoint(kb: KnowledgeBase, max_depth: int | None = None
                   ) -> tuple[dict[SignedLiteral, int], bool] | None:
    """Naive bottom-up evaluation of the ground program.

    Round d fires every ground rule whose body holds after round d-1 and
    adds its head at depth d.  Returns each literal's minimal depth and
    whether a round past ``max_depth`` would still add a literal, or None
    when a round derives both polarities of a literal.
    """
    known = {fact: 0 for fact in kb.facts}
    grounded = ground_rules(kb)
    depth = 0
    while True:
        new = {head for body, head in grounded
               if head not in known and all(lit in known for lit in body)}
        if max_depth is not None and depth >= max_depth:
            return known, bool(new)
        if not new:
            return known, False
        depth += 1
        for head in new:
            known[head] = depth
        if any(lit.negated() in known for lit in new):
            return None


def naive_vias(kb: KnowledgeBase, max_depth: int | None = None
               ) -> dict[SignedLiteral, tuple[Rule, tuple]] | None:
    """The ``via`` of each derived literal under naive nested-loop joins.

    Facts are kept in insertion order: the given facts in
    ``to_text("kb")`` order, then each round's literals in the order they were first derived.
    Round d tries the rules in order and, per rule, every binding of the
    body by nested loops over the facts known after round d-1; a literal's
    via is the first rule and binding (sorted by variable) that derived it.
    Returns None when a round derives both polarities of a literal.
    """
    facts = sorted(kb.facts, key=lambda fact: fact.to_text("kb"))
    vias: dict[SignedLiteral, tuple[Rule, tuple]] = {}

    def bindings(body, known, binding):
        if not body:
            yield binding
            return
        pattern = body[0]
        for fact in known:
            if (fact.predicate, fact.polarity) != (pattern.predicate, pattern.polarity):
                continue
            extended = dict(binding)
            if all(extended.setdefault(p.name, v) == v if isinstance(p, Variable) else p == v
                   for p, v in zip(pattern.args, fact.args)):
                yield from bindings(body[1:], known, extended)

    for _ in itertools.count() if max_depth is None else range(max_depth):
        known, fresh = list(facts), {}
        for rule in kb.rules:
            for binding in bindings(rule.body, known, {}):
                head = rule.head.substitute(binding)
                if head not in vias and head not in kb.facts and head not in fresh:
                    fresh[head] = (rule, tuple(sorted(binding.items())))
        if not fresh:
            break
        if any(head.negated() in kb.facts or head.negated() in vias or head.negated() in fresh
               for head in fresh):
            return None
        facts.extend(fresh)
        vias.update(fresh)
    return vias


# ---------------------------------------------------------------------------
# CSP oracle: naive full enumeration with an independent evaluator


def oracle_eval(expr, assignment: dict[str, int]) -> bool:
    if isinstance(expr, Compare):
        lhs = assignment[expr.lhs] if isinstance(expr.lhs, str) else expr.lhs
        rhs = assignment[expr.rhs] if isinstance(expr.rhs, str) else expr.rhs
        return {
            "==": lhs == rhs, "!=": lhs != rhs, "<": lhs < rhs,
            "<=": lhs <= rhs, ">": lhs > rhs, ">=": lhs >= rhs,
        }[expr.op]
    if isinstance(expr, AbsDiffNotEqual):
        return abs(assignment[expr.var_a] - assignment[expr.var_b]) != expr.k
    if isinstance(expr, AllDifferent):
        vals = [assignment[n] for n in expr.names]
        return len(vals) == len(set(vals))
    if isinstance(expr, CImplies):
        return (not oracle_eval(expr.cond, assignment)) or oracle_eval(expr.then, assignment)
    if isinstance(expr, CAnd):
        return oracle_eval(expr.left, assignment) and oracle_eval(expr.right, assignment)
    if isinstance(expr, COr):
        return oracle_eval(expr.left, assignment) or oracle_eval(expr.right, assignment)
    if isinstance(expr, CNot):
        return not oracle_eval(expr.body, assignment)
    raise AssertionError(f"unknown expr {expr!r}")


def oracle_solutions(model: CspModel) -> list[dict[str, int]]:
    names = [n for n, _ in model.variables]
    domains = [d for _, d in model.variables]
    out = []
    for combo in itertools.product(*domains):
        assignment = dict(zip(names, combo))
        if all(oracle_eval(c, assignment) for c in model.constraints):
            out.append(assignment)
    return out


def random_csp_model(rng: Random) -> CspModel:
    n_vars = rng.randint(2, 5)
    domain = rng.randint(2, 5)
    names = [f"v{i}" for i in range(n_vars)]
    variables = [(n, tuple(range(1, domain + 1))) for n in names]

    def random_operand():
        return rng.choice(names) if rng.random() < 0.7 else rng.randint(1, domain)

    def random_atom():
        kind = rng.random()
        if kind < 0.55:
            op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
            return Compare(random_operand(), op, random_operand())
        if kind < 0.7 and n_vars >= 2:
            a, b = rng.sample(names, 2)
            return AbsDiffNotEqual(a, b, rng.randint(0, domain - 1))
        size = rng.randint(2, n_vars)
        return AllDifferent(tuple(rng.sample(names, size)))

    def random_expr(depth: int):
        if depth == 0 or rng.random() < 0.6:
            return random_atom()
        kind = rng.randrange(4)
        if kind == 0:
            return CAnd(random_expr(depth - 1), random_expr(depth - 1))
        if kind == 1:
            return COr(random_expr(depth - 1), random_expr(depth - 1))
        if kind == 2:
            return CNot(random_expr(depth - 1))
        return CImplies(random_expr(depth - 1), random_expr(depth - 1))

    constraints = [random_expr(rng.randint(0, 2)) for _ in range(rng.randint(1, 8))]
    queries = [("A", random_atom()), ("B", random_atom())]
    return CspModel(domain_size=domain, variables=variables,
                    constraints=constraints, queries=queries)


CSP_NAMES = ("a", "b", "c")
CSP_OPERATORS = ["==", "!=", "<", "<=", ">", ">="]


def random_constraint(rng: Random, depth: int, names=CSP_NAMES):
    """Every node kind; a comparison may have two integer operands, and an
    ``AllDifferent`` may repeat a name."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            def operand():
                return rng.choice(names) if rng.random() < 0.6 else rng.randint(1, 3)
            return Compare(operand(), rng.choice(CSP_OPERATORS), operand())
        if kind == 1:
            return AbsDiffNotEqual(rng.choice(names), rng.choice(names), rng.randint(0, 2))
        return AllDifferent(tuple(rng.choice(names) for _ in range(rng.randint(1, 4))))
    node = rng.choice([CAnd, COr, CImplies, CNot])
    if node is CNot:
        return CNot(random_constraint(rng, depth - 1, names))
    return node(random_constraint(rng, depth - 1, names), random_constraint(rng, depth - 1, names))


def random_chain(rng: Random, levels: int):
    """``levels`` boolean nodes, each around the last on a random side."""
    e = random_constraint(rng, 0)
    for _ in range(levels):
        node = rng.choice([CAnd, COr, CImplies, CNot])
        if node is CNot:
            e = CNot(e)
        else:
            leaf = random_constraint(rng, 0)
            e = node(e, leaf) if rng.random() < 0.5 else node(leaf, e)
    return e


def partial_assignments():
    """Every assignment of 1..3 to every subset of CSP_NAMES, the empty one included."""
    for kept in itertools.product((False, True), repeat=len(CSP_NAMES)):
        kept_names = [n for n, keep in zip(CSP_NAMES, kept) if keep]
        for values in itertools.product((1, 2, 3), repeat=len(kept_names)):
            yield dict(zip(kept_names, values))


# ---------------------------------------------------------------------------
# Random formula generator (round-trip and property tests)


PREDICATES = [("P", 1), ("Q", 1), ("R", 2), ("S", 0), ("Tall", 1), ("Likes", 2)]
CONSTANTS = ["a", "ben", "anne", "cow"]
BOUND_NAMES = ["x", "y", "z", "u", "w", "x1"]
FREE_VARS = ["x", "y", "z"]


def random_term(rng: Random, scope: list[str], allow_free: bool) -> object:
    roll = rng.random()
    if scope and roll < 0.5:
        return Variable(rng.choice(scope))
    if allow_free and roll < 0.6:
        return Variable(rng.choice(FREE_VARS))
    return Constant(rng.choice(CONSTANTS))


def random_atom_formula(rng: Random, scope: list[str], allow_free: bool) -> Atom:
    name, arity = rng.choice(PREDICATES)
    args = tuple(random_term(rng, scope, allow_free) for _ in range(arity))
    return Atom(name, args)


def random_formula(rng: Random, depth: int = 4, scope: list[str] | None = None,
                   allow_free: bool = False, allow_quantifiers: bool = True) -> Formula:
    scope = scope or []
    if depth == 0 or rng.random() < 0.25:
        return random_atom_formula(rng, scope, allow_free)
    roll = rng.randrange(8 if allow_quantifiers else 6)
    if roll == 0:
        return Not(random_formula(rng, depth - 1, scope, allow_free, allow_quantifiers))
    if roll in (1, 2, 3, 4, 5):
        cls = [And, Or, Xor, Implies, Iff][roll - 1]
        return cls(
            random_formula(rng, depth - 1, scope, allow_free, allow_quantifiers),
            random_formula(rng, depth - 1, scope, allow_free, allow_quantifiers),
        )
    var = rng.choice(BOUND_NAMES)
    body = random_formula(rng, depth - 1, scope + [var], allow_free, allow_quantifiers)
    return (ForAll if roll == 6 else Exists)(var, body)


def random_propositional(rng: Random, depth: int = 3, n_atoms: int = 4) -> Formula:
    atoms = [Atom(name) for name in ["A", "B", "C", "D"][:n_atoms]]

    def build(d: int) -> Formula:
        if d == 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        roll = rng.randrange(6)
        if roll == 0:
            return Not(build(d - 1))
        cls = [And, Or, Xor, Implies, Iff][roll - 1]
        return cls(build(d - 1), build(d - 1))

    return build(depth)
