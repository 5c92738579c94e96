import copy
import dataclasses
import pickle
import random
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from symchain.logic import (
    And, ArityMismatchError, Atom, Constant, Exists, ForAll, FunctionApp, Iff,
    Implies, InconsistencyError, KnowledgeBase, Label, LogicError, Not, Or,
    RangeRestrictionError, Rule, SignedLiteral, Variable, Xor, alpha_equal,
    free_variables, substitute,
)

import helpers


def atom(pred, *names):
    return Atom(pred, tuple(Variable(n) if n in ("x", "y", "z") else Constant(n) for n in names))


class TestFreeVariables:
    def test_fully_bound(self):
        assert free_variables(ForAll("x", atom("P", "x"))) == set()

    def test_free_atom(self):
        assert free_variables(atom("P", "x")) == {"x"}

    def test_mixed_scopes(self):
        # only the antecedent occurrence is free; the quantifier shadows x in its body
        f = Implies(atom("P", "x"), ForAll("x", atom("Q", "x")))
        assert free_variables(f) == {"x"}

    def test_function_args(self):
        f = Atom("P", (FunctionApp("f", (Variable("x"), Constant("a"))),))
        assert free_variables(f) == {"x"}


class TestSubstitute:
    def test_simple(self):
        got = substitute(atom("Yellow", "x"), "x", Constant("ben"))
        assert got == atom("Yellow", "ben")

    def test_bound_untouched(self):
        f = ForAll("x", atom("P", "x"))
        assert substitute(f, "x", Constant("a")) == f

    def test_capture_avoided(self):
        # substituting f(y) under ∃y must rename the binder, never capture
        f = Exists("y", Atom("R", (Variable("x"), Variable("y"))))
        got = substitute(f, "x", FunctionApp("f", (Variable("y"),)))
        assert isinstance(got, Exists)
        assert got.var != "y"
        assert free_variables(got) == {"y"}

    def test_var_no_longer_free(self):
        rng = random.Random(7)
        for _ in range(200):
            f = helpers.random_formula(rng, depth=4, allow_free=True)
            fv = free_variables(f)
            if not fv:
                continue
            var = sorted(fv)[0]
            got = substitute(f, var, Constant("ben"))
            assert var not in free_variables(got)


class TestAlphaEqual:
    def test_renamed_bound(self):
        f = ForAll("x", Implies(atom("P", "x"), atom("Q", "x")))
        g = ForAll("y", Implies(atom("P", "y"), atom("Q", "y")))
        assert alpha_equal(f, g)

    def test_free_names_matter(self):
        assert not alpha_equal(atom("P", "x"), atom("P", "y"))

    def test_structure_matters(self):
        assert not alpha_equal(And(atom("P", "a"), atom("Q", "a")),
                               Or(atom("P", "a"), atom("Q", "a")))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_rename_is_alpha_equal(self, seed):
        rng = random.Random(seed)
        f = helpers.random_formula(rng, depth=4)

        fresh = iter(f"r{i}" for i in range(100))

        def rename(g):
            if isinstance(g, Atom):
                return g
            if isinstance(g, Not):
                return Not(rename(g.body))
            if isinstance(g, (And, Or, Xor, Implies, Iff)):
                return type(g)(rename(g.left), rename(g.right))
            new = next(fresh)
            body = substitute(g.body, g.var, Variable(new))
            return type(g)(new, rename(body))

        assert alpha_equal(f, rename(f))


class TestSignedLiteralsAndRules:
    def test_polarity_and_negation(self):
        lit = SignedLiteral("Quiet", (Constant("anne"),), True)
        assert lit.negated().polarity is False
        assert lit.to_text("kb") == "Quiet(anne, True)"
        assert lit.negated().to_text() == "¬Quiet(anne)"

    def test_ground_check(self):
        assert SignedLiteral("P", (Constant("a"),)).is_ground
        assert not SignedLiteral("P", (Variable("x"),)).is_ground

    def test_range_restriction(self):
        with pytest.raises(RangeRestrictionError):
            Rule((SignedLiteral("P", (Variable("x"),)),),
                 SignedLiteral("Q", (Variable("y"),)))

    def test_empty_body_rejected(self):
        with pytest.raises(LogicError):
            Rule((), SignedLiteral("Q", (Constant("a"),)))

    def test_rule_text(self):
        rule = Rule(
            (SignedLiteral("Jompus", (Variable("x"),)),),
            SignedLiteral("Fruity", (Variable("x"),)),
        )
        assert rule.to_text() == "Jompus($x, True) ⇒ Fruity($x, True)"


_P, _Q = Atom("P", (Constant("a"),)), Atom("Q")
VALUES = [
    Variable("x"), Constant("a"), FunctionApp("f", (Constant("a"), Variable("x"))), _P, Not(_P),
    And(_P, _Q), Or(_P, _Q), Xor(_P, _Q), Implies(_P, _Q), Iff(_P, _Q),
    ForAll("x", Atom("P", (Variable("x"),))), Exists("x", Atom("P", (Variable("x"),))),
    SignedLiteral("P", (Constant("a"),), False),
    Rule((SignedLiteral("P", (Variable("x"),)),), SignedLiteral("Q", (Variable("x"),))),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_values_are_slotted_frozen_and_round_trip(value):
    assert not hasattr(value, "__dict__")
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), dataclasses.replace(value)):
        assert copied == value and hash(copied) == hash(value) and repr(copied) == repr(value)
    name = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(value, name))


def test_replace_still_validates():
    with pytest.raises(LogicError):
        dataclasses.replace(Constant("a"), name="")
    with pytest.raises(RangeRestrictionError):
        dataclasses.replace(VALUES[-1], head=SignedLiteral("Q", (Variable("y"),)))


class TestKnowledgeBase:
    def test_contradictory_facts_rejected(self):
        with pytest.raises(InconsistencyError) as exc:
            KnowledgeBase.build([
                SignedLiteral("P", (Constant("a"),), True),
                SignedLiteral("P", (Constant("a"),), False),
            ])
        assert "P(a" in str(exc.value)

    def test_clash_names_the_first_clashing_fact_in_text_order(self):
        # kb.facts is a frozenset: the clash it meets first follows string
        # hashing, the one it names must not
        messages = helpers.run_under_hash_seeds(textwrap.dedent("""
            from symchain.logic import Constant, KnowledgeBase, LogicError, SignedLiteral
            facts = [SignedLiteral(p, (Constant(c),), polarity)
                     for p, c in (("R", "c"), ("Q", "b"), ("P", "a")) for polarity in (True, False)]
            try:
                KnowledgeBase.build(facts + [SignedLiteral("S", (Constant("d"),))])
            except LogicError as err:
                print(err)
        """), seeds=range(1, 7))
        assert set(messages.values()) == {"inconsistency: P(a) asserted with both polarities\n"}

    def test_mixed_faults_name_the_first_in_text_order(self):
        # a clash and an arity fault: which one the hash-order scan meets
        # first follows string hashing, the one raised must not
        messages = helpers.run_under_hash_seeds(textwrap.dedent("""
            from symchain.logic import Constant, KnowledgeBase, LogicError, SignedLiteral
            a, b = Constant("a"), Constant("b")
            clash = [SignedLiteral("P", (a,), True), SignedLiteral("P", (a,), False)]
            for other in ("Q", "A"):  # used with arities 1 and 2, after or before P in text
                try:
                    KnowledgeBase.build(clash + [SignedLiteral(other, (a,)), SignedLiteral(other, (a, b))])
                except LogicError as err:
                    print(type(err).__name__, err)
        """), seeds=range(1, 7))
        assert set(messages.values()) == {
            "InconsistencyError inconsistency: P(a) asserted with both polarities\n"
            "ArityMismatchError predicate 'A' used with arity 2, expected 1\n"}

    def test_non_ground_fact_rejected(self):
        with pytest.raises(LogicError):
            KnowledgeBase.build([SignedLiteral("P", (Variable("x"),))])

    def test_arity_consistency(self):
        with pytest.raises(ArityMismatchError):
            KnowledgeBase.build([
                SignedLiteral("P", (Constant("a"),)),
                SignedLiteral("P", (Constant("a"), Constant("b"))),
            ])

    def test_arity_map_built(self):
        kb = KnowledgeBase.build(
            [SignedLiteral("Likes", (Constant("a"), Constant("b")))],
            [Rule((SignedLiteral("Likes", (Variable("x"), Constant("b"))),),
                  SignedLiteral("Popular", (Variable("x"),)))],
        )
        assert kb.predicate_arities == {"Likes": 2, "Popular": 1}

    def test_function_symbols_rejected(self):
        with pytest.raises(LogicError):
            KnowledgeBase.build([
                SignedLiteral("P", (FunctionApp("f", (Constant("a"),)),))
            ])


class TestLabel:
    @pytest.mark.parametrize("text,expected", [
        ("true", Label.TRUE),
        ("False", Label.FALSE),
        ("UNKNOWN", Label.UNKNOWN),
        ("uncertain", Label.UNKNOWN),
        ("b", Label.B),
        ("E", Label.E),
        ("maybe", None),
    ])
    def test_from_text(self, text, expected):
        assert Label.from_text(text) == expected
