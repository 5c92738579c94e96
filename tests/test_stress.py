"""The formula, term and constraint entry points, the block parsers and the
CSP search on long, deep and wide shapes.

Every case must return the expected result within a time bound, so that a
walk that recurses once per node fails with ``RecursionError`` and a
quadratic one fails on time.  Results are compared with ``alpha_equal`` and
``print_formula``: the dataclass-generated ``==`` of a long chain recurses.
"""

import time

import pytest

from symchain.corpus import mini_corpus
from symchain.csp import (
    CAnd, CImplies, CNot, Compare, CspModel, OptionStatus, compile_expr, evaluate_queries,
    expr_variables, parse_constraint, parse_csp_block, print_expr, solve_all,
)
from symchain.fixtures import ScriptedCorpusBackend
from symchain.folparse import parse_formula, parse_translation_block, print_formula
from symchain.inference import check_step, decide_formula, eval_formula, is_propositional, truth_table_entails
from symchain.logic import (
    And, Atom, Constant, Exists, ForAll, FunctionApp, Iff, Implies, InferenceRule, Label, Not, Or,
    SignedLiteral, Variable, Xor, alpha_equal, free_variables, substitute,
)
from symchain.pipeline import Method, RunConfig, run_batch

SIZE = 1500  # operands of a binary shape, levels of ¬
TIME_BOUND_S = 1.0

P_A = Atom("P", (Constant("a"),))
Q = Atom("Q")
# name: (connective, symbol, the side the shape nests on); a flat ∧, ∨ or ⊕
# chain nests left, as the parser builds it; all are built with the constructors
BINARY = {
    "and": (And, "∧", "left"), "or": (Or, "∨", "left"), "xor": (Xor, "⊕", "left"),
    "parens": (And, "∧", "right"), "implies": (Implies, "→", "right"), "iff": (Iff, "↔", "right"),
    "implies_left": (Implies, "→", "left"),
}


def shape(name: str, leaf: Atom):
    f = leaf
    if name == "not":
        for _ in range(SIZE):
            f = Not(f)
        return f
    node, _, side = BINARY[name]
    for _ in range(SIZE - 1):
        f = node(f, leaf) if side == "left" else node(leaf, f)
    return f


def printed(name: str) -> str:
    """``print_formula`` of the shape over P(a)."""
    if name == "not":
        return "¬" * SIZE + "P(a)"
    node, symbol, side = BINARY[name]
    if (side == "right") == (node in (Implies, Iff)):  # nested on the side it associates to
        return f" {symbol} ".join(["P(a)"] * SIZE)
    inner = f"P(a) {symbol} P(a)"
    if side == "left":  # ((P(a) → P(a)) → P(a)) → … → P(a)
        return "(" * (SIZE - 2) + inner + f") {symbol} P(a)" * (SIZE - 2)
    return f"P(a) {symbol} (" * (SIZE - 2) + inner + ")" * (SIZE - 2)  # P(a) ∧ (… ∧ (P(a) ∧ P(a)))


# function: (shape name, the shape over P(a), over P(x), over P(y)) → whether the result is right
CASES = {
    "free_variables": lambda s, fa, fx, fy: free_variables(fx) == {"x"} and not free_variables(fa),
    "substitute": lambda s, fa, fx, fy: print_formula(substitute(fx, "x", Constant("a"))) == printed(s),
    "alpha_equal": lambda s, fa, fx, fy: (
        alpha_equal(ForAll("x", fx), ForAll("y", fy)) and not alpha_equal(fx, fy)),
    "is_propositional": lambda s, fa, fx, fy: is_propositional(fa) and not is_propositional(fx),
    "truth_table_entails": lambda s, fa, fx, fy: truth_table_entails([fa], fa) == (True, None),
    "check_step AndElim": lambda s, fa, fx, fy: (
        check_step([fa], InferenceRule.AND_ELIM, P_A).valid == (s in ("and", "parens"))),
    "check_step ModusPonens": lambda s, fa, fx, fy: (
        check_step([fa, Implies(fa, Q)], InferenceRule.MODUS_PONENS, Q).valid),
    "check_step ModusPonens to the shape": lambda s, fa, fx, fy: (
        check_step([P_A, Implies(P_A, fa)], InferenceRule.MODUS_PONENS, fa).valid),
    "check_step UniversalInstantiation": lambda s, fa, fx, fy: (
        check_step([ForAll("x", fx)], InferenceRule.UNIVERSAL_INSTANTIATION, fa).valid),
    "print_formula": lambda s, fa, fx, fy: print_formula(fa) == printed(s),
    "parse_formula of print_formula": lambda s, fa, fx, fy: alpha_equal(parse_formula(print_formula(fx)), fx),
    # an even count of true operands for ⊕; an even count of ¬
    "eval_formula": lambda s, fa, fx, fy: eval_formula(fa, {P_A: True}) == (s != "xor"),
}


@pytest.mark.parametrize("function", list(CASES))
@pytest.mark.parametrize("name", [*BINARY, "not"])
def test_formula_entry_point_on_shape(name, function):
    fa, fx, fy = (shape(name, Atom("P", (t,))) for t in (Constant("a"), Variable("x"), Variable("y")))
    started = time.perf_counter()
    ok = CASES[function](name, fa, fx, fy)
    elapsed = time.perf_counter() - started
    assert ok
    assert elapsed < TIME_BOUND_S, f"{function} on {name} took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# Terms: f(f(…f(leaf)…)), SIZE applications deep, built with the constructors


def deep_term(leaf, depth=SIZE):
    t = leaf
    for _ in range(depth):
        t = FunctionApp("f", (t,))
    return t


def term_text(leaf_name: str) -> str:
    return "f(" * SIZE + leaf_name + ")" * SIZE


X, A = Variable("x"), Constant("a")
UI = InferenceRule.UNIVERSAL_INSTANTIATION
# function: (the leaf, the term over it, P of the term) → whether the result is right
TERM_CASES = {
    "free_variables": lambda leaf, t, p: free_variables(p) == ({"x"} if leaf == X else set()),
    "substitute": lambda leaf, t, p: (
        print_formula(substitute(p, "x", Constant("b"))) == f"P({term_text('b' if leaf == X else 'a')})"),
    "alpha_equal": lambda leaf, t, p: (
        alpha_equal(ForAll("x", p), ForAll("y", substitute(p, "x", Variable("y"))))
        and not alpha_equal(p, Atom("P", (deep_term(Constant("b")),)))),
    "print_formula": lambda leaf, t, p: print_formula(p) == f"P({term_text(leaf.name)})",
    "parse_formula of print_formula": lambda leaf, t, p: alpha_equal(parse_formula(print_formula(p)), p),
    "is_propositional": lambda leaf, t, p: is_propositional(p) == (leaf == A),
    "truth_table_entails": lambda leaf, t, p: truth_table_entails([p], p) == (True, None),
    "check_step UniversalInstantiation": lambda leaf, t, p: (
        check_step([ForAll("x", p)], UI, Atom("P", (deep_term(A),))).valid
        and not check_step([ForAll("x", p)], UI, Atom("P", (deep_term(A, SIZE - 1),))).valid),
    "check_step ModusPonens": lambda leaf, t, p: (
        check_step([p, Implies(p, Q)], InferenceRule.MODUS_PONENS, Q).valid),
    "SignedLiteral.is_ground": lambda leaf, t, p: SignedLiteral("P", (t,)).is_ground == (leaf == A),
    "SignedLiteral.variables": lambda leaf, t, p: (
        SignedLiteral("P", (t,)).variables() == ({"x"} if leaf == X else set())),
    "repr": lambda leaf, t, p: repr(p) == (
        "Atom(predicate='P', args=(" + "FunctionApp(name='f', args=(" * SIZE + repr(leaf) + ",))" * (SIZE + 1)),
    "== and hash": lambda leaf, t, p: (
        t == deep_term(leaf) and hash(t) == hash(deep_term(leaf))
        and t != deep_term(Constant("b")) and t != deep_term(leaf, SIZE - 1)),
}


@pytest.mark.parametrize("function", list(TERM_CASES))
@pytest.mark.parametrize("leaf", [X, A], ids=["over_x", "over_a"])
def test_term_entry_point_on_deep_term(leaf, function):
    t = deep_term(leaf)
    started = time.perf_counter()
    ok = TERM_CASES[function](leaf, t, Atom("P", (t,)))
    elapsed = time.perf_counter() - started
    assert ok
    assert elapsed < TIME_BOUND_S, f"{function} over {leaf} took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# Capturing binders: SIZE quantifiers of one name nested over P(x, name);
# substituting y for x renames every binder of y, so y is the one free
# variable of the result

BINDERS = {
    "forall": lambda i, name, body: ForAll(name, body),
    "forall_exists": lambda i, name, body: (ForAll if i % 2 else Exists)(name, body),
    "forall_not": lambda i, name, body: ForAll(name, Not(body)),
}


def nested_binders(shape_name: str, name: str, first: str):
    f = Atom("P", (Variable(first), Variable(name)))
    for i in range(SIZE):
        f = BINDERS[shape_name](i, name, f)
    return f


@pytest.mark.parametrize("shape_name", list(BINDERS))
def test_substitute_renames_nested_capturing_binders(shape_name):
    f = nested_binders(shape_name, "y", "x")
    started = time.perf_counter()
    result = substitute(f, "x", Variable("y"))
    ok = free_variables(result) == {"y"} and alpha_equal(result, nested_binders(shape_name, "z", "y"))
    elapsed = time.perf_counter() - started
    assert ok
    assert elapsed < TIME_BOUND_S, f"substitute on {shape_name} took {elapsed:.2f} s"


@pytest.mark.parametrize("names", ["repeated", "distinct"])
def test_nested_binders_round_trip(names):
    f = Atom("P", (Variable("v0"),))
    for i in range(SIZE):
        f = ForAll("v0" if names == "repeated" else f"v{i}", f)
    started = time.perf_counter()
    ok = alpha_equal(parse_formula(print_formula(f)), f)
    elapsed = time.perf_counter() - started
    assert ok
    assert elapsed < TIME_BOUND_S, f"round trip of {names} binders took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# Constraint expressions, built with the constructors; T holds and F fails
# under ASSIGNMENT

T, F = Compare("x", "==", 1), Compare("y", "!=", 1)
ASSIGNMENT = {"x": 1, "y": 1}


def one_assignment_model(constraints, queries=()) -> CspModel:
    """x, y ∈ {1}: ASSIGNMENT is the only assignment."""
    return CspModel(1, variables=[("x", (1,)), ("y", (1,))], constraints=list(constraints),
                    queries=list(queries))


# name: (innermost operand, levels, one level around e, variables, value, text);
# the -> nested in its condition alternates between false and true from the
# innermost level, so SIZE - 1 levels of it are false
CONSTRAINT_SHAPES = {
    "not": (F, SIZE, CNot, {"y"}, False, "not (" * SIZE + "y != 1" + ")" * SIZE),
    "implies_cond": (T, SIZE - 1, lambda e: CImplies(e, F), {"x", "y"}, False,
                     "(" * (SIZE - 1) + "x == 1" + ") -> (y != 1)" * (SIZE - 1)),
    "implies_then": (F, SIZE - 1, lambda e: CImplies(T, e), {"x", "y"}, False,
                     "(x == 1) -> (" * (SIZE - 1) + "y != 1" + ")" * (SIZE - 1)),
    "and_right": (F, SIZE - 1, lambda e: CAnd(T, e), {"x", "y"}, False,
                  "(x == 1 and " * (SIZE - 1) + "y != 1" + ")" * (SIZE - 1)),
}
CONSTRAINT_CASES = {
    "expr_variables": lambda e, variables, value, text: expr_variables(e) == variables,
    "eval_expr": lambda e, variables, value, text: compile_expr(e)(ASSIGNMENT) is value,
    "print_expr": lambda e, variables, value, text: print_expr(e) == text,
    # the generated == of a deep expression recurses, so the printed forms are compared
    "parse_constraint of print_expr": lambda e, variables, value, text: (
        print_expr(parse_constraint(print_expr(e))) == print_expr(e)),
    # the shape as the model's only constraint, then as its only query
    "solve_all": lambda e, variables, value, text: (
        solve_all(one_assignment_model([e])).solutions == ((ASSIGNMENT,) if value else ())),
    "evaluate_queries": lambda e, variables, value, text: evaluate_queries(
        one_assignment_model([], [("A", e)])).statuses == {
            "A": OptionStatus.MUST_BE_TRUE if value else OptionStatus.CANNOT_BE_TRUE},
}


@pytest.mark.parametrize("function", list(CONSTRAINT_CASES))
@pytest.mark.parametrize("name", list(CONSTRAINT_SHAPES))
def test_constraint_entry_point_on_shape(name, function):
    e, levels, wrap, *expected = CONSTRAINT_SHAPES[name]
    for _ in range(levels):
        e = wrap(e)
    started = time.perf_counter()
    ok = CONSTRAINT_CASES[function](e, *expected)
    elapsed = time.perf_counter() - started
    assert ok
    assert elapsed < TIME_BOUND_S, f"{function} on {name} took {elapsed:.2f} s"


def test_constraint_in_nested_parentheses_parses():
    started = time.perf_counter()
    ok = print_expr(parse_constraint("(" * SIZE + "x == 1" + ")" * SIZE)) == "x == 1"
    elapsed = time.perf_counter() - started
    assert ok
    assert elapsed < TIME_BOUND_S, f"parse_constraint took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# A CSP block of SIZE single-value variables: one solution, one level of
# search per variable

WIDE_BLOCK = "\n".join([
    "Domain:", "1: first", "Variables:", *(f"v{i} ∈ {{1}}" for i in range(SIZE)),
    "Constraints:", "v0 == 1", f"v{SIZE - 1} == v0",
    "Query:", "A) v0 == 1", "B) v0 == 2", f"C) v{SIZE - 1} != 1",
])


def test_wide_csp_block_is_evaluated():
    model, diagnostics = parse_csp_block(WIDE_BLOCK)
    assert not diagnostics and len(model.variables) == SIZE
    started = time.perf_counter()
    verdict = evaluate_queries(model)
    elapsed = time.perf_counter() - started
    assert verdict.solution_count == 1
    assert verdict.statuses == {"A": OptionStatus.MUST_BE_TRUE, "B": OptionStatus.CANNOT_BE_TRUE,
                                "C": OptionStatus.CANNOT_BE_TRUE}
    assert elapsed < TIME_BOUND_S, f"evaluate_queries took {elapsed:.2f} s"


def test_wide_csp_block_keeps_its_stages_through_run_batch():
    corpus = mini_corpus()
    problem = corpus.problem("logicaldeduction-antique-cars")
    backend = ScriptedCorpusBackend(corpus, overrides={(problem.id, "translator"): WIDE_BLOCK})
    started = time.perf_counter()
    (record,) = run_batch([problem], Method.TRANSLATE_THEN_SOLVE, RunConfig(), backend)
    elapsed = time.perf_counter() - started
    assert record.error is None
    assert [s.stage for s in record.stages] == ["translator", "engine"]
    assert record.executed and record.final_label is Label.A
    assert elapsed < TIME_BOUND_S, f"run_batch took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# The block parsers on wide blocks, each block then decided or evaluated

ARITY = 1000  # arguments of a wide atom


def arguments(prefix: str) -> str:
    return ", ".join(f"{prefix}{i}" for i in range(ARITY))


# name: (block, whether the parsed block has the shape's size)
TRANSLATION_BLOCKS = {
    "atoms_of_1000_arguments": (
        f"Facts:\nP({arguments('a')}, True)\nRules:\nP({arguments('$x')}, True) ⇒ Q($x{ARITY - 1}, True)\n"
        f"Query:\nQ(a{ARITY - 1}, True)\n",
        lambda block: len(block.kb.rules[0].body[0].args) == ARITY),
    "facts": (
        "Facts:\n" + "".join(f"P(a{i}, True)\n" for i in range(SIZE)) + "Rules:\nP($x, True) ⇒ Q($x, True)\n"
        f"Query:\nQ(a{SIZE - 1}, True)\n",
        lambda block: len(block.kb.facts) == SIZE),
    "rule_body": (
        "Facts:\n" + "".join(f"P{i}(a, True)\n" for i in range(SIZE)) + "Rules:\n"
        + " ∧ ".join(f"P{i}($x, True)" for i in range(SIZE)) + " ⇒ Q($x, True)\nQuery:\nQ(a, True)\n",
        lambda block: len(block.kb.rules[0].body) == SIZE),
}


@pytest.mark.parametrize("name", list(TRANSLATION_BLOCKS))
def test_translation_block_on_wide_shape(name):
    text, sized = TRANSLATION_BLOCKS[name]
    started = time.perf_counter()
    block = parse_translation_block(text)
    ok = block.diagnostics == [] and sized(block) and decide_formula(block.kb, block.statement) is Label.TRUE
    elapsed = time.perf_counter() - started
    assert ok
    assert elapsed < TIME_BOUND_S, f"parse_translation_block on {name} took {elapsed:.2f} s"


# name: (block, variables, constraints, the verdict of each query)
CSP_BLOCKS = {
    "variables": (WIDE_BLOCK, SIZE, 2, {"A": OptionStatus.MUST_BE_TRUE, "B": OptionStatus.CANNOT_BE_TRUE,
                                        "C": OptionStatus.CANNOT_BE_TRUE}),
    "constraints": (
        "\n".join(["Domain:", "positions: 1 to 3", "Variables:", "x ∈ {1, 2, 3}", "y ∈ {1, 2, 3}", "Constraints:",
                   *(f"y > x ::: constraint {i}" for i in range(SIZE)), "Query:", "A) x == 1", "B) y == 1",
                   "C) y > x"]),
        2, SIZE, {"A": OptionStatus.MAY_BE_TRUE, "B": OptionStatus.CANNOT_BE_TRUE, "C": OptionStatus.MUST_BE_TRUE}),
}


@pytest.mark.parametrize("name", list(CSP_BLOCKS))
def test_csp_block_on_wide_shape(name):
    text, variables, constraints, statuses = CSP_BLOCKS[name]
    started = time.perf_counter()
    model, diagnostics = parse_csp_block(text)
    ok = (not diagnostics and (len(model.variables), len(model.constraints)) == (variables, constraints)
          and evaluate_queries(model).statuses == statuses)
    elapsed = time.perf_counter() - started
    assert ok
    assert elapsed < TIME_BOUND_S, f"parse_csp_block on {name} took {elapsed:.2f} s"
