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
    And, Atom, Constant, ForAll, Implies, InferenceRule, Not, Or, Variable, Xor,
    alpha_equal, free_variables, substitute,
)

CHAIN = 1500  # operands of a flat chain, built left-deep as the parser builds it
NEST = 400  # levels of ¬, and of parentheses around a right operand
TIME_BOUND_S = 1.0

P_A = Atom("P", (Constant("a"),))
Q = Atom("Q")
CHAINS = {"and": (And, "∧"), "or": (Or, "∨"), "xor": (Xor, "⊕")}


def shape(name: str, leaf: Atom):
    f = leaf
    if name in CHAINS:
        for _ in range(CHAIN - 1):
            f = CHAINS[name][0](f, leaf)
    elif name == "not":
        for _ in range(NEST):
            f = Not(f)
    else:  # "parens": P ∧ (P ∧ (… ∧ (P ∧ P)))
        for _ in range(NEST):
            f = And(leaf, f)
    return f


def printed(name: str) -> str:
    """``print_formula`` of the shape over P(a)."""
    if name in CHAINS:
        return f" {CHAINS[name][1]} ".join(["P(a)"] * CHAIN)
    if name == "not":
        return "¬" * NEST + "P(a)"
    return "P(a) ∧ (" * (NEST - 1) + "P(a) ∧ P(a)" + ")" * (NEST - 1)


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
    "check_step UniversalInstantiation": lambda s, fa, fx, fy: (
        check_step([ForAll("x", fx)], InferenceRule.UNIVERSAL_INSTANTIATION, fa).valid),
    "print_formula": lambda s, fa, fx, fy: print_formula(fa) == printed(s),
    # an even count of true operands for ⊕; an even count of ¬
    "eval_formula": lambda s, fa, fx, fy: eval_formula(fa, {P_A: True}) == (s != "xor"),
}


@pytest.mark.parametrize("function", list(CASES))
@pytest.mark.parametrize("name", [*CHAINS, "not", "parens"])
def test_formula_entry_point_on_shape(name, function):
    fa, fx, fy = (shape(name, Atom("P", (t,))) for t in (Constant("a"), Variable("x"), Variable("y")))
    started = time.perf_counter()
    ok = CASES[function](name, fa, fx, fy)
    elapsed = time.perf_counter() - started
    assert ok
    assert elapsed < TIME_BOUND_S, f"{function} on {name} took {elapsed:.2f} s"
