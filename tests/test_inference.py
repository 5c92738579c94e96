import copy
import dataclasses
import pickle
import random
import textwrap

import pytest

from symchain import inference
from symchain.folparse import parse_formula, parse_translation_block
from symchain.inference import (
    SchemaArityMismatchError, UnknownRuleError, UnsupportedFragmentError,
    check_step, decide, decide_formula, forward_chain, truth_table_entails,
)
from symchain.logic import (
    And, Constant, FunctionApp, Iff, Implies, InconsistencyError, InferenceRule,
    KnowledgeBase, Label, LogicError, Not, Or, Rule, SignedLiteral, Variable,
)

import helpers


def lit(pred, *names, polarity=True):
    return SignedLiteral(pred, tuple(Constant(n) for n in names), polarity)


def f(text):
    return parse_formula(text)


class TestCheckStep:
    def test_modus_ponens_valid(self):
        verdict = check_step(
            [f("Quiet(anne)"), f("Quiet(anne) → Red(anne)")],
            InferenceRule.MODUS_PONENS,
            f("Red(anne)"),
        )
        assert verdict.valid

    def test_modus_tollens_valid(self):
        verdict = check_step([f("¬B"), f("A → B")], InferenceRule.MODUS_TOLLENS, f("¬A"))
        assert verdict.valid

    def test_affirming_the_consequent(self):
        verdict = check_step([f("B"), f("A → B")], InferenceRule.MODUS_PONENS, f("A"))
        assert not verdict.valid
        assert "affirming the consequent" in verdict.reason
        assert "A=false" in verdict.reason and "B=true" in verdict.reason

    def test_denying_the_antecedent(self):
        verdict = check_step([f("¬A"), f("A → B")], InferenceRule.MODUS_TOLLENS, f("¬B"))
        assert not verdict.valid
        assert "denying the antecedent" in verdict.reason

    def test_universal_instantiation(self):
        verdict = check_step(
            [f("∀x (P(x) → Q(x))")],
            InferenceRule.UNIVERSAL_INSTANTIATION,
            f("P(a) → Q(a)"),
        )
        assert verdict.valid

    def test_universal_instantiation_mixed_terms_rejected(self):
        verdict = check_step(
            [f("∀x (P(x) → Q(x))")],
            InferenceRule.UNIVERSAL_INSTANTIATION,
            f("P(a) → Q(ben)"),
        )
        assert not verdict.valid

    def test_universal_instantiation_rejects_captured_instance(self):
        # "everyone loves someone" does not prove "someone loves themselves"
        premise = [f("∀x ∃y R(x, y)")]
        captured = check_step(premise, InferenceRule.UNIVERSAL_INSTANTIATION, f("∃y R(y, y)"))
        assert not captured.valid
        assert captured.reason == "conclusion is not an instance of the quantified body"
        assert check_step(premise, InferenceRule.UNIVERSAL_INSTANTIATION, f("∃z R(y, z)")).valid

    def test_existential_instantiation(self):
        verdict = check_step(
            [f("∃x (Bird(x) ∧ Hawk(x))")],
            InferenceRule.EXISTENTIAL_INSTANTIATION,
            f("Bird(h) ∧ Hawk(h)"),
        )
        assert verdict.valid

    def test_schema_arity_mismatch(self):
        with pytest.raises(SchemaArityMismatchError):
            check_step([f("A")], InferenceRule.MODUS_PONENS, f("B"))

    def test_unknown_rule(self):
        with pytest.raises(UnknownRuleError):
            check_step([f("A")], "AbductiveLeap", f("B"))

    def test_rule_name_as_string(self):
        verdict = check_step([f("A"), f("A → B")], "ModusPonens", f("B"))
        assert verdict.valid

    def test_and_elim_and_intro(self):
        assert check_step([f("A ∧ B")], InferenceRule.AND_ELIM, f("B")).valid
        assert check_step([f("A"), f("B")], InferenceRule.AND_INTRO, f("B ∧ A")).valid

    def test_or_intro(self):
        assert check_step([f("A")], InferenceRule.OR_INTRO, f("A ∨ C")).valid
        assert not check_step([f("A")], InferenceRule.OR_INTRO, f("B ∨ C")).valid

    def test_disjunctive_syllogism(self):
        assert check_step([f("A ∨ B"), f("¬A")], InferenceRule.DISJUNCTIVE_SYLLOGISM, f("B")).valid

    def test_hypothetical_syllogism(self):
        assert check_step(
            [f("A → B"), f("B → C")], InferenceRule.HYPOTHETICAL_SYLLOGISM, f("A → C")
        ).valid

    def test_contradiction_ex_falso(self):
        assert check_step([f("A"), f("¬A")], InferenceRule.CONTRADICTION, f("B")).valid

    def test_contradiction_reductio(self):
        assert check_step(
            [f("S → A"), f("S → ¬A")], InferenceRule.CONTRADICTION, f("¬S")
        ).valid

    def test_iff_elim(self):
        assert check_step([f("A ↔ B")], InferenceRule.IFF_ELIM, f("B → A")).valid
        assert check_step([f("A ↔ B"), f("A")], InferenceRule.IFF_ELIM, f("B")).valid

    def test_alpha_equivalent_premises(self):
        verdict = check_step(
            [f("∀x P(x)"), f("∀y P(y) → ∃z Q(z)")],
            InferenceRule.MODUS_PONENS,
            f("∃x Q(x)"),
        )
        assert verdict.valid

    def test_invalid_has_reason(self):
        verdict = check_step([f("A"), f("B → C")], InferenceRule.MODUS_PONENS, f("C"))
        assert not verdict.valid
        assert verdict.reason


# (rule, premises, conclusion, valid, reason): per rule a valid step and a
# mismatch (with its countermodel when one exists), plus both fallacies
STEP_REASONS = [
    ("ModusPonens", ["A", "A → B"], "B", True, "from A and the implication, infer the consequent"),
    ("ModusPonens", ["∀y P(y) → Q(a)", "∀x P(x)"], "Q(a)", True,
     "from ∀x P(x) and the implication, infer the consequent"),
    ("ModusPonens", ["A", "B → C"], "C", False,
     "premises do not fit φ, φ → ψ ⊢ ψ; countermodel: A=true, B=false, C=false"),
    ("ModusPonens", ["B", "A → B"], "A", False, "affirming the consequent; countermodel: A=false, B=true"),
    ("ModusTollens", ["¬B", "A → B"], "¬A", True, "from ¬ψ and φ → ψ, infer ¬φ"),
    ("ModusTollens", ["¬B", "A → C"], "¬A", False,
     "premises do not fit ¬ψ, φ → ψ ⊢ ¬φ; countermodel: A=true, B=false, C=true"),
    ("ModusTollens", ["¬A", "A → B"], "¬B", False, "denying the antecedent; countermodel: A=false, B=true"),
    ("UniversalInstantiation", ["∀x (P(x) → Q(x))"], "P(a) → Q(a)", True, "instantiates ∀x"),
    ("UniversalInstantiation", ["∀x (P(x) → Q(x))"], "P(a) → Q(b)", False,
     "conclusion is not an instance of the quantified body"),
    ("UniversalInstantiation", ["P(a)"], "P(a)", False, "premise is not universally quantified"),
    ("ExistentialInstantiation", ["∃x (Bird(x) ∧ Hawk(x))"], "Bird(h) ∧ Hawk(h)", True, "names the witness h for ∃x"),
    ("ExistentialInstantiation", ["∃x A"], "A", True, "∃x is vacuous"),
    ("ExistentialInstantiation", ["∃x P(x)"], "P(f(a))", False, "the witness must be a constant"),
    ("ExistentialInstantiation", ["∃x P(x)"], "Q(a)", False, "conclusion is not an instance of the quantified body"),
    ("ExistentialInstantiation", ["∀x P(x)"], "P(a)", False, "premise is not existentially quantified"),
    ("AndElim", ["A ∧ B"], "B", True, "extracts one conjunct"),
    ("AndElim", ["A ∧ B"], "C", False,
     "conclusion is not a conjunct of the premise; countermodel: A=true, B=true, C=false"),
    ("AndIntro", ["A", "B"], "B ∧ A", True, "joins the premises"),
    ("AndIntro", ["A", "B"], "A ∨ B", False, "conclusion is not the conjunction of the premises"),
    ("OrIntro", ["A"], "C ∨ A", True, "weakens the premise into a disjunction"),
    ("OrIntro", ["A"], "B ∨ C", False,
     "conclusion is not a disjunction containing the premise; countermodel: A=true, B=false, C=false"),
    ("DisjunctiveSyllogism", ["A ∨ B", "¬A"], "B", True, "eliminates the refuted left disjunct"),
    ("DisjunctiveSyllogism", ["¬B", "A ∨ B"], "A", True, "eliminates the refuted right disjunct"),
    ("DisjunctiveSyllogism", ["A ∨ B", "¬A"], "A", False,
     "premises do not fit φ ∨ ψ, ¬φ ⊢ ψ; countermodel: A=false, B=true"),
    ("HypotheticalSyllogism", ["B → C", "A → B"], "A → C", True, "chains the implications"),
    ("HypotheticalSyllogism", ["A → B", "B → C"], "C → A", False,
     "premises do not fit φ → ψ, ψ → χ ⊢ φ → χ; countermodel: A=false, B=false, C=true"),
    ("Contradiction", ["¬A", "A"], "B", True, "contradictory premises entail anything (ex falso)"),
    ("Contradiction", ["S → A", "S → ¬A"], "¬S", True, "the assumption implies both ψ and ¬ψ (reductio)"),
    ("Contradiction", ["A", "B"], "C", False,
     "premises contain no contradictory pair; countermodel: A=true, B=true, C=false"),
    ("IffElim", ["A ↔ B"], "B → A", True, "extracts one direction of the biconditional"),
    ("IffElim", ["A ↔ B"], "A ∧ B", False,
     "conclusion is not a direction of the biconditional; countermodel: A=false, B=false"),
    ("IffElim", ["A ↔ B", "A"], "B", True, "applies the biconditional left to right"),
    ("IffElim", ["B", "A ↔ B"], "A", True, "applies the biconditional right to left"),
    ("IffElim", ["A ↔ B", "C"], "B", False,
     "premises do not fit φ ↔ ψ with one side asserted; countermodel: A=false, B=false, C=true"),
]


@pytest.mark.parametrize("rule, premises, conclusion, valid, reason", STEP_REASONS)
def test_step_reasons(rule, premises, conclusion, valid, reason):
    verdict = check_step([f(p) for p in premises], rule, f(conclusion))
    assert (verdict.valid, verdict.reason) == (valid, reason)


def mutate_to_invalid(rng, premises, conclusion):
    """Replace the conclusion with one the premises do not entail."""
    for _ in range(200):
        candidate = helpers.random_propositional(rng, depth=2)
        if not helpers.tt_entailed(premises, candidate):
            return candidate
    return None


def make_valid_instance(rng, rule):
    a = helpers.random_propositional(rng, depth=1)
    b = helpers.random_propositional(rng, depth=1)
    c = helpers.random_propositional(rng, depth=1)
    if rule is InferenceRule.MODUS_PONENS:
        return [a, Implies(a, b)], b
    if rule is InferenceRule.MODUS_TOLLENS:
        return [Not(b), Implies(a, b)], Not(a)
    if rule is InferenceRule.AND_ELIM:
        return [And(a, b)], rng.choice([a, b])
    if rule is InferenceRule.AND_INTRO:
        return [a, b], And(a, b)
    if rule is InferenceRule.OR_INTRO:
        return [a], Or(a, b) if rng.random() < 0.5 else Or(b, a)
    if rule is InferenceRule.DISJUNCTIVE_SYLLOGISM:
        return [Or(a, b), Not(a)], b
    if rule is InferenceRule.HYPOTHETICAL_SYLLOGISM:
        return [Implies(a, b), Implies(b, c)], Implies(a, c)
    if rule is InferenceRule.CONTRADICTION:
        if rng.random() < 0.5:
            return [a, Not(a)], c
        return [Implies(c, a), Implies(c, Not(a))], Not(c)
    if rule is InferenceRule.IFF_ELIM:
        if rng.random() < 0.5:
            return [Iff(a, b)], Implies(a, b)
        return [Iff(a, b), a], b
    raise AssertionError(rule)


PROPOSITIONAL_RULES = [
    r for r in InferenceRule
    if r not in (InferenceRule.UNIVERSAL_INSTANTIATION, InferenceRule.EXISTENTIAL_INSTANTIATION)
]


class TestTruthTableAgreement:
    def test_valid_instances_accepted(self):
        rng = random.Random(11)
        for _ in range(60):
            rule = rng.choice(PROPOSITIONAL_RULES)
            premises, conclusion = make_valid_instance(rng, rule)
            verdict = check_step(premises, rule, conclusion)
            assert verdict.valid, (rule, premises, conclusion, verdict.reason)
            assert helpers.tt_entailed(premises, conclusion)

    def test_mutated_instances_rejected(self):
        rng = random.Random(12)
        rejected = 0
        for _ in range(60):
            rule = rng.choice(PROPOSITIONAL_RULES)
            premises, conclusion = make_valid_instance(rng, rule)
            bad = mutate_to_invalid(rng, premises, conclusion)
            if bad is None:
                continue  # contradictory premises entail everything
            verdict = check_step(premises, rule, bad)
            assert not verdict.valid, (rule, premises, bad)
            rejected += 1
        assert rejected >= 40

    def test_entailment_oracle_agreement(self):
        entailed, counter = truth_table_entails([f("A"), f("A → B")], f("B"))
        assert entailed and counter is None
        entailed, counter = truth_table_entails([f("B"), f("A → B")], f("A"))
        assert not entailed and counter is not None


def kb_from(facts, rules=()):
    return KnowledgeBase.build(facts, rules)


def rule(body_specs, head_spec):
    def mk(spec):
        pred, arg, pol = spec
        term = Variable(arg) if arg == "x" else Constant(arg)
        return SignedLiteral(pred, (term,), pol)

    return Rule(tuple(mk(s) for s in body_specs), mk(head_spec))


class TestForwardChain:
    def test_prontoqa_max_depth_five(self):
        block = parse_translation_block(_max_translation())
        result = forward_chain(block.kb)
        assert not result.truncated
        target = lit("Sour", "max", polarity=False)
        assert target in result.literals()
        assert result.depth_of(target) == 5

    def test_empty_kb(self):
        result = forward_chain(kb_from([]))
        assert result.literals() == set()

    def test_facts_only(self):
        facts = [lit("P", "a"), lit("Q", "b", polarity=False)]
        result = forward_chain(kb_from(facts))
        assert result.literals() == set(facts)
        assert all(d.depth == 0 for d in result.derivations)

    def test_idempotent_rule_terminates(self):
        kb = kb_from([lit("P", "a")], [rule([("P", "x", True)], ("P", "x", True))])
        result = forward_chain(kb)
        assert not result.truncated
        assert result.literals() == {lit("P", "a")}

    def test_max_depth_truncation(self):
        facts = [lit("P", "a")]
        rules = [
            rule([("P", "x", True)], ("Q", "x", True)),
            rule([("Q", "x", True)], ("R", "x", True)),
        ]
        result = forward_chain(kb_from(facts, rules), max_depth=1)
        assert result.truncated
        assert lit("Q", "a") in result.literals()
        assert lit("R", "a") not in result.literals()

    def test_derived_inconsistency_raises(self):
        kb = kb_from(
            [lit("P", "a"), lit("Q", "a", polarity=False)],
            [rule([("P", "x", True)], ("Q", "x", True))],
        )
        with pytest.raises(InconsistencyError):
            forward_chain(kb)

    def test_negative_body_requires_explicit_negation(self):
        # polarity-false body literals match only derived negatives, never absence
        rules = [rule([("P", "x", False)], ("Q", "x", True))]
        silent = forward_chain(kb_from([lit("R", "a")], rules))
        assert lit("Q", "a") not in silent.literals()
        explicit = forward_chain(kb_from([lit("P", "a", polarity=False)], rules))
        assert lit("Q", "a") in explicit.literals()

    def test_monotonicity(self):
        rng = random.Random(31)
        for _ in range(40):
            kb = helpers.random_kb(rng)
            if kb is None:
                continue
            try:
                base = forward_chain(kb, max_depth=None).literals()
            except InconsistencyError:
                continue
            extra = lit("P", "a") if lit("P", "a", polarity=False) not in base else lit("Q", "a")
            if extra.negated() in base:
                continue
            try:
                grown = forward_chain(
                    KnowledgeBase.build(set(kb.facts) | {extra}, kb.rules), max_depth=None
                ).literals()
            except InconsistencyError:
                continue
            assert base <= grown

    def test_soundness_against_model_enumeration(self):
        rng = random.Random(32)
        checked = 0
        while checked < 50:
            kb = helpers.random_kb(rng)
            if kb is None:
                continue
            entailed = helpers.enumerate_entailed(kb)
            try:
                derived = forward_chain(kb, max_depth=None).literals()
            except InconsistencyError:
                assert entailed is None
                checked += 1
                continue
            assert entailed is not None
            assert derived == entailed
            checked += 1

    def test_two_clashes_in_one_round_name_the_first_in_kb_order(self):
        # round 1 derives R(a) before Q(a) (rule order), and both clash
        kb = kb_from(
            [lit("P", "a"), lit("Q", "a", polarity=False), lit("R", "a", polarity=False)],
            [rule([("P", "x", True)], ("R", "x", True)),
             rule([("P", "x", True)], ("Q", "x", True))],
        )
        with pytest.raises(InconsistencyError) as exc:
            forward_chain(kb)
        assert exc.value.literal == lit("Q", "a")

    def test_derivations_sort_by_kb_text_not_tuple_order(self):
        # "P(a, True)" sorts before "P(a1, False)" although False < True and
        # "a" < "a1": the order is that of the kb-style text, not of the
        # (predicate, polarity, names) tuple
        x = Variable("x")
        rules = [Rule((SignedLiteral("P", (x,)),), SignedLiteral("R", (x,))),
                 Rule((SignedLiteral("P", (x,), False),), SignedLiteral("R", (x,), False)),
                 Rule((SignedLiteral("Pa", (x,)),), SignedLiteral("Z")),
                 Rule((SignedLiteral("Z"),), SignedLiteral("Y", (), False))]
        facts = [lit("P", "a_b", polarity=False), lit("Pa", "a1"), lit("P", "a1", polarity=False),
                 lit("Pa", "a", polarity=False), lit("P", "a")]
        result = forward_chain(kb_from(facts, rules))
        texts = [(d.depth, d.literal.to_text("kb")) for d in result.derivations]
        assert texts == sorted(texts)
        assert texts == [
            (0, "P(a, True)"), (0, "P(a1, False)"), (0, "P(a_b, False)"),
            (0, "Pa(a, False)"), (0, "Pa(a1, True)"),
            (1, "R(a, True)"), (1, "R(a1, False)"), (1, "R(a_b, False)"), (1, "Z(True)"),
            (2, "Y(False)"),
        ]
        tuples = [(d.depth, d.literal.predicate, d.literal.polarity,
                   tuple(a.name for a in d.literal.args)) for d in result.derivations]
        assert tuples != sorted(tuples)

    def test_depth_of_is_a_lookup_that_keeps_equality(self):
        block = parse_translation_block(_max_translation())
        result = forward_chain(block.kb)
        for d in result.derivations:
            assert result.depth_of(d.literal) == d.depth
        assert result.depth_of(lit("Nowhere", "max")) is None
        assert result == forward_chain(block.kb)
        assert hash(result) == hash(forward_chain(block.kb))

    @pytest.mark.parametrize("max_depth", [None, 1, 2, 3])
    def test_matches_naive_fixpoint(self, max_depth):
        rng = random.Random(34)
        checked = inconsistent = 0
        for _ in range(300):
            kb = helpers.random_horn_kb(rng)
            want = helpers.naive_fixpoint(kb, max_depth)
            try:
                result = forward_chain(kb, max_depth=max_depth)
            except InconsistencyError:
                assert want is None
                inconsistent += 1
                continue
            assert want is not None
            depths, truncated = want
            assert [(d.literal, d.depth) for d in result.derivations] == sorted(
                depths.items(), key=lambda item: (item[1], item[0].to_text("kb")))
            assert result.truncated is truncated
            checked += 1
        assert checked > 150 and inconsistent > 0

    @pytest.mark.parametrize("max_depth", [None, 1, 2])
    def test_via_is_the_first_naive_binding(self, max_depth):
        rng = random.Random(37)
        checked = 0
        for _ in range(300):
            kb = helpers.random_horn_kb(rng)
            want = helpers.naive_vias(kb, max_depth)
            try:
                result = forward_chain(kb, max_depth=max_depth)
            except InconsistencyError:
                assert want is None
                continue
            assert {d.literal: d.via for d in result.derivations if d.depth} == want
            checked += 1
        assert checked > 150

    def test_via_is_the_same_under_every_hash_seed(self):
        # kb.facts is a frozenset, whose order follows string hashing; the
        # chainer must not let that order pick the binding a via records
        digests = helpers.run_under_hash_seeds(textwrap.dedent("""
            import hashlib, random
            import helpers
            from symchain.inference import forward_chain
            from symchain.logic import InconsistencyError
            rng = random.Random(41)
            digest = hashlib.sha256()
            for _ in range(300):
                kb = helpers.random_horn_kb(rng)
                try:
                    digest.update(repr(forward_chain(kb, None)).encode())
                except InconsistencyError as err:
                    digest.update(str(err).encode())
            print(digest.hexdigest())
        """))
        assert len(set(digests.values())) == 1, digests

    def test_results_and_derivations_round_trip(self):
        x = Variable("x")
        kb = kb_from([lit("P", "a"), lit("P", "b")],
                     [Rule((SignedLiteral("P", (x,)),), SignedLiteral("Q", (x,), False))])
        result = forward_chain(kb)
        assert len(result.derivations) == 4 and not hasattr(result.derivations[-1], "__dict__")
        for value in (result, *result.derivations):
            for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), dataclasses.replace(value)):
                assert copied == value and repr(copied) == repr(value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                value.depth = 3
        copied = pickle.loads(pickle.dumps(result))
        assert copied.holds(lit("Q", "a")) is result.holds(lit("Q", "a")) is False
        with pytest.raises(LogicError):
            dataclasses.replace(result.derivations[-1], via=None)

    def test_bound_argument_joins_keep_naive_depths_via_and_order(self):
        # Q walks a chain n0 → … → n5 through Link facts that also hold a
        # two-level star of 12 unrelated edges, so the second body literal
        # of each rule joins on a bound argument among mostly unrelated
        # facts.  Fork(u0) has 36 bindings in one round; its via
        # is the first of them in naive join order.
        chain = [f"n{i}" for i in range(6)]
        parent = dict(zip(chain[1:], chain))
        parent.update({f"u{k}": "u0" for k in range(1, 7)})
        parent.update({f"w{k}": f"u{k % 3 + 1}" for k in range(6)})
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        rules = [
            Rule((SignedLiteral("Q", (x,)), SignedLiteral("Link", (x, y))), SignedLiteral("Q", (y,))),
            Rule((SignedLiteral("Link", (x, y)), SignedLiteral("Link", (y, z))), SignedLiteral("Far", (x, z))),
            Rule((SignedLiteral("Q", (y,)), SignedLiteral("Far", (x, y))), SignedLiteral("Reached", (x,))),
            Rule((SignedLiteral("Far", (x, z)), SignedLiteral("Link", (x, y))), SignedLiteral("Fork", (x,))),
        ]
        kb = kb_from([lit("Q", "n0")] + [lit("Link", p, c) for c, p in parent.items()], rules)
        for max_depth in (None, 1, 2):
            result = forward_chain(kb, max_depth=max_depth)
            depths, truncated = helpers.naive_fixpoint(kb, max_depth)
            assert [(d.literal, d.depth) for d in result.derivations] == sorted(
                depths.items(), key=lambda item: (item[1], item[0].to_text("kb")))
            assert result.truncated is truncated is (max_depth is not None)
            vias = {d.literal: d.via for d in result.derivations if d.depth}
            assert vias == helpers.naive_vias(kb, max_depth)
        assert result.depth_of(lit("Fork", "u0")) == 2
        assert result.depth_of(lit("Reached", "n0")) is None
        assert forward_chain(kb, max_depth=None).depth_of(lit("Reached", "n3")) == 6


def _expected_label(derived, query):
    if query in derived:
        return Label.TRUE
    return Label.FALSE if query.negated() in derived else Label.UNKNOWN


def _assert_decides_as_chained(kb, queries):
    derived = forward_chain(kb, max_depth=None).literals()
    for query in queries:
        want = _expected_label(derived, query)
        assert decide(kb, query) is want, query
        assert decide_formula(kb, query.to_formula()) is want, query


class TestDecideOnTheFixpointCore:
    """``decide`` and ``decide_formula`` look literals up in the chainer's
    interned map; they must answer as a lookup in ``forward_chain``'s
    literals would."""

    def test_random_kbs_agree_with_forward_chain(self):
        rng = random.Random(36)
        arity = {"P": 1, "Q": 1, "T": 1, "U": 1, "V": 1, "R": 2, "S": 2}
        checked = inconsistent = 0
        for _ in range(300):
            kb = helpers.random_horn_kb(rng)
            queries = []
            for _ in range(6):
                predicate = rng.choice(sorted(arity))
                names = [rng.choice("abcd") for _ in range(arity[predicate])]
                queries.append(lit(predicate, *names, polarity=rng.random() < 0.6))
            try:
                forward_chain(kb, max_depth=None)
            except InconsistencyError as err:
                for decider, query in ((decide, queries[0]), (decide_formula, queries[0].to_formula())):
                    with pytest.raises(InconsistencyError) as exc:
                        decider(kb, query)
                    assert str(exc.value) == str(err)
                    assert exc.value.literal == err.literal
                inconsistent += 1
                continue
            _assert_decides_as_chained(kb, queries)
            checked += 1
        assert checked > 150 and inconsistent > 0

    def test_constant_in_body_pattern(self):
        x = Variable("x")
        rules = [Rule((SignedLiteral("R", (x, Constant("b"))),), SignedLiteral("Q", (x,))),
                 Rule((SignedLiteral("S", (Constant("a"), x)), SignedLiteral("Q", (x,))),
                      SignedLiteral("T", (x,), False))]
        kb = kb_from([lit("R", "a", "b"), lit("R", "c", "a"), lit("S", "a", "a"), lit("S", "c", "a")], rules)
        _assert_decides_as_chained(kb, [lit("Q", "a"), lit("Q", "c"), lit("T", "a"), lit("T", "c")])
        assert decide(kb, lit("Q", "a")) is Label.TRUE
        assert decide(kb, lit("Q", "c")) is Label.UNKNOWN
        assert decide(kb, lit("T", "a")) is Label.FALSE

    def test_repeated_variable(self):
        x = Variable("x")
        kb = kb_from([lit("R", "a", "a"), lit("R", "a", "b"), lit("R", "b", "c")],
                     [Rule((SignedLiteral("R", (x, x)),), SignedLiteral("Q", (x,)))])
        _assert_decides_as_chained(kb, [lit("Q", "a"), lit("Q", "b"), lit("Q", "c")])
        assert decide(kb, lit("Q", "a")) is Label.TRUE
        assert decide(kb, lit("Q", "b")) is Label.UNKNOWN

    def test_zero_arity_literals(self):
        x = Variable("x")
        rules = [Rule((SignedLiteral("Rain"),), SignedLiteral("Cloudy")),
                 Rule((SignedLiteral("Cloudy"), SignedLiteral("Out", (x,))), SignedLiteral("Wet", (x,))),
                 Rule((SignedLiteral("Wet", (x,)),), SignedLiteral("Dry", (), False))]
        kb = kb_from([lit("Rain"), lit("Out", "a")], rules)
        _assert_decides_as_chained(kb, [lit("Cloudy"), lit("Wet", "a"), lit("Dry"), lit("Sunny")])
        assert decide(kb, lit("Dry")) is Label.FALSE
        assert decide_formula(kb, parse_formula("Cloudy ∧ Wet(a)")) is Label.TRUE

    def test_decide_goes_through_forward_chain(self, monkeypatch):
        # one engine path: what forward_chain reports (and a tracer wrapping
        # it sees) is what decided the query
        calls = []
        chain = inference.forward_chain

        def counted(kb, max_depth=20):
            calls.append(max_depth)
            return chain(kb, max_depth)

        monkeypatch.setattr(inference, "forward_chain", counted)
        kb = kb_from([lit("P", "a")], [rule([("P", "x", True)], ("Q", "x", True))])
        assert decide(kb, lit("Q", "a")) is Label.TRUE
        assert decide_formula(kb, parse_formula("Q(a) ∧ ¬P(b)")) is Label.UNKNOWN
        assert calls == [None, None]

    def test_function_argument_named_like_a_constant_is_unknown(self):
        kb = kb_from([lit("P", "a"), lit("R", "a", "a", polarity=False)])
        nested = FunctionApp("a", (Constant("a"),))
        for query in (SignedLiteral("P", (nested,)), SignedLiteral("P", (nested,), False),
                      SignedLiteral("R", (nested, Constant("a")), False)):
            assert decide(kb, query) is Label.UNKNOWN
            assert decide_formula(kb, query.to_formula()) is Label.UNKNOWN
        assert decide(kb, lit("P", "a")) is Label.TRUE


class TestDecide:
    def test_anne_unknown(self):
        block = parse_translation_block(_anne_translation())
        assert decide(block.kb, lit("White", "anne")) is Label.UNKNOWN

    def test_tiger_not_young_false(self):
        block = parse_translation_block(_tiger_translation())
        assert decide(block.kb, SignedLiteral("Young", (Constant("tiger"),), False)) is Label.FALSE

    def test_max_sour_false(self):
        block = parse_translation_block(_max_translation())
        assert decide(block.kb, lit("Sour", "max")) is Label.FALSE

    def test_empty_kb_unknown(self):
        assert decide(kb_from([]), lit("P", "a")) is Label.UNKNOWN

    def test_non_ground_query_rejected(self):
        with pytest.raises(UnsupportedFragmentError):
            decide(kb_from([]), SignedLiteral("P", (Variable("x"),)))

    def test_order_independence(self):
        rng = random.Random(33)
        for _ in range(25):
            kb = helpers.random_kb(rng)
            if kb is None:
                continue
            query = lit("P", "a")
            try:
                want = decide(kb, query)
            except InconsistencyError:
                continue
            for _ in range(3):
                shuffled = list(kb.rules)
                rng.shuffle(shuffled)
                again = KnowledgeBase.build(kb.facts, shuffled)
                assert decide(again, query) is want

    def test_kleene_disjunction_false(self):
        kb = kb_from([lit("Yellow", "ben", polarity=False), lit("Ugly", "ben", polarity=False)])
        statement = parse_formula("Yellow(ben) ∨ Ugly(ben)")
        assert decide_formula(kb, statement) is Label.FALSE

    def test_kleene_implication(self):
        kb = kb_from([lit("Bird", "h"), lit("Lands", "h", polarity=False)])
        assert decide_formula(kb, parse_formula("Bird(h) → Lands(h)")) is Label.FALSE
        assert decide_formula(kb, parse_formula("Lands(h) → Bird(h)")) is Label.TRUE

    def test_kleene_unknown_propagates(self):
        kb = kb_from([lit("P", "a")])
        assert decide_formula(kb, parse_formula("P(a) ∧ Q(a)")) is Label.UNKNOWN
        assert decide_formula(kb, parse_formula("P(a) ∨ Q(a)")) is Label.TRUE

    def test_quantified_statement_rejected(self):
        with pytest.raises(UnsupportedFragmentError):
            decide_formula(kb_from([]), parse_formula("∀x P(x)"))

    @pytest.mark.parametrize("op,tail,want", [
        ("∧", "", Label.TRUE), ("∧", " ∧ Q(a)", Label.UNKNOWN), ("∧", " ∧ ¬P(a)", Label.FALSE),
        ("∨", "", Label.TRUE), ("∨", " ∨ Q(a)", Label.TRUE),
        ("⊕", "", Label.FALSE), ("⊕", " ⊕ P(a)", Label.TRUE), ("⊕", " ⊕ Q(a)", Label.UNKNOWN),
    ])
    def test_flat_chain_of_thousands(self, op, tail, want):
        # 1,500 true operands: an even count for ⊕
        statement = parse_formula(f" {op} ".join(["P(a)"] * 1500) + tail)
        assert decide_formula(kb_from([lit("P", "a")]), statement) is want

    def test_flat_chain_raises_its_leftmost_error(self):
        statement = parse_formula(" ∧ ".join(["P(a)"] * 1500) + " ∧ P(x) ∧ ∀x P(x)")
        with pytest.raises(UnsupportedFragmentError, match="statement must be ground"):
            decide_formula(kb_from([lit("P", "a")]), statement)


def _max_translation():
    from symchain.corpus import mini_corpus

    return mini_corpus().translation("prontoqa-max-sour")


def _anne_translation():
    from symchain.corpus import mini_corpus

    return mini_corpus().translation("proofwriter-anne-white")


def _tiger_translation():
    from symchain.corpus import mini_corpus

    return mini_corpus().translation("proofwriter-tiger-young")
