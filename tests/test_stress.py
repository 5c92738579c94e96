"""The formula entry points on long and deep shapes.

Every case must return the expected result within a time bound, so that a
walk that recurses once per node fails with ``RecursionError`` and a
quadratic one fails on time.  Results are compared with ``alpha_equal`` and
``print_formula``: the dataclass-generated ``==`` of a long chain recurses.
"""

import time

import pytest

from symchain.folparse import print_formula
from symchain.inference import check_step, eval_formula, is_propositional, truth_table_entails
from symchain.logic import (
    And, Atom, Constant, ForAll, Iff, Implies, InferenceRule, Not, Or, Variable, Xor,
    alpha_equal, free_variables, substitute,
)

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
