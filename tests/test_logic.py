import copy
import dataclasses
import itertools
import pickle
import random
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from symchain.logic import (
    And, ArityMismatchError, Atom, Constant, Exists, ForAll, FunctionApp, Iff,
    Implies, InconsistencyError, KnowledgeBase, Label, LogicError, Not, Or,
    RangeRestrictionError, Rule, SignedLiteral, Variable, Xor, alpha_equal,
    free_variables, kb_text, subformulas, substitute,
)

import helpers


def atom(pred, *names):
    return Atom(pred, tuple(Variable(n) if n in ("x", "y", "z") else Constant(n) for n in names))


class TestSubformulas:
    def test_preorder_left_to_right_with_binders(self):
        p, q, r = atom("P", "x"), atom("Q", "y"), atom("R", "x")
        f = And(ForAll("x", Or(p, Exists("y", q))), Not(r))
        got = [(g, dict(binders)) for g, binders in subformulas(f)]
        assert got == [
            (f, {}), (f.left, {}), (f.left.body, {"x": 0}), (p, {"x": 0}),
            (f.left.body.right, {"x": 0}), (q, {"x": 0, "y": 1}), (f.right, {}), (r, {}),
        ]

    def test_a_shadowing_binder_keeps_its_own_depth(self):
        f = ForAll("x", ForAll("x", ForAll("y", Atom("P", (Variable("x"), Variable("y"))))))
        *_, (leaf, binders) = subformulas(f)
        assert dict(binders) == {"x": 1, "y": 2}

    def test_non_formula_raises_type_error(self):
        with pytest.raises(TypeError, match="not a formula"):
            list(subformulas(And(atom("P", "a"), "Q(a)")))


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

    def test_shadowed_binders_compare_by_depth(self):
        def xy(a, b):
            return Atom("P", (Variable(a), Variable(b)))

        f = ForAll("x", ForAll("x", ForAll("y", xy("x", "y"))))
        assert alpha_equal(f, ForAll("x", ForAll("z", ForAll("y", xy("z", "y")))))
        assert not alpha_equal(f, ForAll("x", ForAll("z", ForAll("y", xy("x", "y")))))

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

    def test_kb_text_is_the_one_knowledge_base_rendering(self):
        assert kb_text("R", True, ["a", "b"]) == "R(a, b, True)"
        assert kb_text("Z", False, []) == "Z(False)"
        assert SignedLiteral("Z", (), False).to_text("kb") == "Z(False)"
        rule = Rule((SignedLiteral("R", (Variable("x"), Constant("b")), False), SignedLiteral("Z", ())),
                    SignedLiteral("Q", (Variable("x"),)))
        assert rule.to_text() == "R($x, b, False) ∧ Z(True) ⇒ Q($x, True)"


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


def test_function_app_repr_reads_as_the_generated_one():
    # one argument keeps the 1-tuple's comma; more do not add one
    assert repr(VALUES[2]) == "FunctionApp(name='f', args=(Constant(name='a'), Variable(name='x')))"
    assert repr(FunctionApp("g", (VALUES[2],))) == f"FunctionApp(name='g', args=({VALUES[2]!r},))"


def test_replace_still_validates():
    with pytest.raises(LogicError):
        dataclasses.replace(Constant("a"), name="")
    with pytest.raises(RangeRestrictionError):
        dataclasses.replace(VALUES[-1], head=SignedLiteral("Q", (Variable("y"),)))


class TestKnowledgeBase:
    def test_contradictory_facts_rejected(self):
        with pytest.raises(InconsistencyError) as exc:
            KnowledgeBase([
                SignedLiteral("P", (Constant("a"),), True),
                SignedLiteral("P", (Constant("a"),), False),
            ])
        assert "P(a" in str(exc.value)

    def test_clash_names_the_first_clashing_fact_in_text_order(self):
        # the facts are given out of text order, and the clash named must
        # not follow string hashing
        messages = helpers.run_under_hash_seeds(textwrap.dedent("""
            from symchain.logic import Constant, KnowledgeBase, LogicError, SignedLiteral
            facts = [SignedLiteral(p, (Constant(c),), polarity)
                     for p, c in (("R", "c"), ("Q", "b"), ("P", "a")) for polarity in (True, False)]
            try:
                KnowledgeBase(facts + [SignedLiteral("S", (Constant("d"),))])
            except LogicError as err:
                print(err)
        """), seeds=range(1, 7))
        assert set(messages.values()) == {"inconsistency: P(a) asserted with both polarities\n"}

    def test_mixed_faults_name_the_first_in_text_order(self):
        # a clash and an arity fault: the one raised must be the first in
        # text order, under every string hashing
        messages = helpers.run_under_hash_seeds(textwrap.dedent("""
            from symchain.logic import Constant, KnowledgeBase, LogicError, SignedLiteral
            a, b = Constant("a"), Constant("b")
            clash = [SignedLiteral("P", (a,), True), SignedLiteral("P", (a,), False)]
            for other in ("Q", "A"):  # used with arities 1 and 2, after or before P in text
                try:
                    KnowledgeBase(clash + [SignedLiteral(other, (a,)), SignedLiteral(other, (a, b))])
                except LogicError as err:
                    print(type(err).__name__, err)
        """), seeds=range(1, 7))
        assert set(messages.values()) == {
            "InconsistencyError inconsistency: P(a) asserted with both polarities\n"
            "ArityMismatchError predicate 'A' used with arity 2, expected 1\n"}

    def test_build_keeps_distinct_facts_in_text_order(self):
        a, b = Constant("a"), Constant("b")
        facts = [SignedLiteral("Q", (b,)), SignedLiteral("P", (a, b)), SignedLiteral("P", (b, a), False),
                 SignedLiteral("Q", (a,))]
        in_text_order = tuple(sorted(facts, key=lambda fact: fact.to_text("kb")))
        for order in itertools.permutations(facts):
            assert KnowledgeBase(order).facts == in_text_order
            assert KnowledgeBase(iter([*order, order[-1]])).facts == in_text_order

    def test_rules_of_any_iterable_are_kept_as_a_tuple_in_order(self):
        fact = SignedLiteral("P", (Constant("a"),))
        rules = [Rule((SignedLiteral(p, (Variable("x"),)),), SignedLiteral(q, (Variable("x"),)))
                 for p, q in (("P", "Q"), ("Q", "R"), ("P", "R"))]
        for given in (rules, iter(rules), tuple(rules)):
            assert KnowledgeBase([fact], given).rules == tuple(rules)

    def test_arities_are_not_an_init_parameter(self):
        with pytest.raises(TypeError):
            KnowledgeBase(facts=(), predicate_arities={"P": 1})

    def test_non_ground_fact_rejected(self):
        with pytest.raises(LogicError):
            KnowledgeBase([SignedLiteral("P", (Variable("x"),))])

    def test_arity_consistency(self):
        with pytest.raises(ArityMismatchError):
            KnowledgeBase([
                SignedLiteral("P", (Constant("a"),)),
                SignedLiteral("P", (Constant("a"), Constant("b"))),
            ])

    def test_function_symbols_rejected(self):
        with pytest.raises(LogicError):
            KnowledgeBase([
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
