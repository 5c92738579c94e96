import random

import pytest
from hypothesis import given, settings, strategies as st

from symchain.folparse import (
    ParseDiagnostic, ParseError, Severity, formula_to_literal, formula_to_rules, parse_formula,
    parse_translation_block, print_formula,
)
from symchain.logic import (
    And, Atom, Constant, Exists, ForAll, Implies, Not, Or, SignedLiteral,
    Variable, Xor, alpha_equal,
)

import helpers


def v(name):
    return Variable(name)


def c(name):
    return Constant(name)


class TestParseFormula:
    def test_simpsons_universal(self):
        got = parse_formula("∀x (Yellow(x) → Simpsons(x))")
        want = ForAll("x", Implies(Atom("Yellow", (v("x"),)), Atom("Simpsons", (v("x"),))))
        assert got == want

    def test_ben_disjunction(self):
        got = parse_formula("(Yellow(ben) ∨ Ugly(ben))")
        want = Or(Atom("Yellow", (c("ben"),)), Atom("Ugly", (c("ben"),)))
        assert got == want

    def test_ascii_aliases_match_unicode(self):
        assert parse_formula("forall x (P(x) -> Q(x))") == parse_formula("∀x (P(x) → Q(x))")

    def test_unbalanced_paren_positioned(self):
        text = "∀x (P(x)"
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert exc.value.position == len(text)
        assert "parenthesis" in exc.value.message or "end of input" in exc.value.message

    def test_unknown_symbol(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("P(a) @ Q(b)")
        assert exc.value.position == 5

    def test_dangling_quantifier(self):
        with pytest.raises(ParseError):
            parse_formula("∀")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_formula("   ")

    def test_double_arrow_is_implication(self):
        assert parse_formula("P(a) ⇒ Q(a)") == parse_formula("P(a) → Q(a)")

    def test_dollar_variables(self):
        got = parse_formula("Young($x, True)")
        assert got == Atom("Young", (v("x"), c("True")))

    def test_xyz_are_variables_constants_elsewhere(self):
        got = parse_formula("R(x, ben)")
        assert got == Atom("R", (v("x"), c("ben")))

    def test_quantifier_binds_nonstandard_name(self):
        got = parse_formula("∀anne P(anne)")
        assert got == ForAll("anne", Atom("P", (v("anne"),)))

    def test_function_terms(self):
        got = parse_formula("Q(f(a, x))")
        assert got.args[0].name == "f"
        assert got.args[0].args == (c("a"), v("x"))

    def test_precedence(self):
        got = parse_formula("P(a) ∧ Q(a) ∨ S ⊕ P(b) → Q(b) ↔ S")
        # ¬, ∧, ∨, ⊕ bind tighter than →, which binds tighter than ↔
        assert isinstance(got, type(parse_formula("A ↔ B")))
        assert isinstance(got.left, Implies)
        assert isinstance(got.left.left, Xor)

    def test_right_associativity(self):
        got = parse_formula("A -> B -> C")
        assert got == Implies(Atom("A"), Implies(Atom("B"), Atom("C")))

    def test_quantifier_binds_tight(self):
        got = parse_formula("∀x P(x) ∧ Q(a)")
        assert isinstance(got, And)
        assert isinstance(got.left, ForAll)

    def test_signature_arity_check(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("P(a, b)", signature={"P": 1})
        assert "arity" in exc.value.message


ALIAS_TABLE = [
    ("∀x P(x)", "forall x P(x)"),
    ("∃x P(x)", "exists x P(x)"),
    ("P(a) ∧ Q(a)", "P(a) & Q(a)"),
    ("P(a) ∨ Q(a)", "P(a) | Q(a)"),
    ("P(a) ⊕ Q(a)", "P(a) ^ Q(a)"),
    ("¬P(a)", "~P(a)"),
    ("¬P(a)", "not P(a)"),
    ("P(a) → Q(a)", "P(a) -> Q(a)"),
    ("P(a) → Q(a)", "P(a) ⇒ Q(a)"),
    ("P(a) ↔ Q(a)", "P(a) <-> Q(a)"),
]


@pytest.mark.parametrize("unicode_form,ascii_form", ALIAS_TABLE)
def test_alias_closure(unicode_form, ascii_form):
    assert parse_formula(unicode_form) == parse_formula(ascii_form)


class TestPrintFormula:
    def test_canonical_universal(self):
        f = ForAll("x", Implies(Atom("P", (v("x"),)), Atom("Q", (v("x"),))))
        assert print_formula(f) == "∀x (P(x) → Q(x))"

    def test_xor_rendering(self):
        f = Xor(Atom("A", (c("c"),)), Atom("B", (c("c"),)))
        assert print_formula(f) == "A(c) ⊕ B(c)"

    def test_double_negation_not_simplified(self):
        f = Not(Not(Atom("P", (c("a"),))))
        assert print_formula(f) == "¬¬P(a)"

    def test_minimal_parens(self):
        f = And(Or(Atom("A"), Atom("B")), Atom("C"))
        assert print_formula(f) == "(A ∨ B) ∧ C"
        g = Implies(Atom("A"), Implies(Atom("B"), Atom("C")))
        assert print_formula(g) == "A → B → C"
        h = Implies(Implies(Atom("A"), Atom("B")), Atom("C"))
        assert print_formula(h) == "(A → B) → C"

    def test_left_assoc_chains(self):
        f = And(And(Atom("A"), Atom("B")), Atom("C"))
        assert print_formula(f) == "A ∧ B ∧ C"
        g = And(Atom("A"), And(Atom("B"), Atom("C")))
        assert print_formula(g) == "A ∧ (B ∧ C)"

    def test_quantifier_atom_body_unparenthesized(self):
        f = Exists("x", Atom("Turtle", (v("x"),)))
        assert print_formula(f) == "∃x Turtle(x)"


class TestRoundTrip:
    def test_seeded_volume(self):
        rng = random.Random(20240601)
        for _ in range(300):
            f = helpers.random_formula(rng, depth=5)
            assert alpha_equal(parse_formula(print_formula(f)), f)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hypothesis_round_trip(self, seed):
        f = helpers.random_formula(random.Random(seed), depth=6)
        assert alpha_equal(parse_formula(print_formula(f)), f)


class TestLowering:
    def test_polarity_style(self):
        lit = formula_to_literal(parse_formula("Quiet(Anne, True)"))
        assert lit == SignedLiteral("Quiet", (c("Anne"),), True)
        lit = formula_to_literal(parse_formula("Shy(Alex, False)"))
        assert lit == SignedLiteral("Shy", (c("Alex"),), False)

    def test_negation_style(self):
        lit = formula_to_literal(parse_formula("¬Lands(hawk)"))
        assert lit == SignedLiteral("Lands", (c("hawk"),), False)

    def test_non_literal(self):
        assert formula_to_literal(parse_formula("P(a) ∧ Q(a)")) is None

    def test_rule_lowering(self):
        rules = formula_to_rules(parse_formula("Jompus($x, True) ⇒ Fruity($x, True)"))
        assert len(rules) == 1
        assert rules[0].body == (SignedLiteral("Jompus", (v("x"),)),)
        assert rules[0].head == SignedLiteral("Fruity", (v("x"),))

    def test_universal_wrapper_stripped(self):
        rules = formula_to_rules(parse_formula("∀x (P(x) → Q(x))"))
        assert rules[0].head.predicate == "Q"

    def test_disjunctive_body_splits(self):
        rules = formula_to_rules(
            parse_formula("Young($x, True) ∨ Green($x, True) ⇒ Rough($x, True)")
        )
        assert len(rules) == 2
        assert {r.body[0].predicate for r in rules} == {"Young", "Green"}
        assert all(r.head.predicate == "Rough" for r in rules)

    def test_conjunctive_body(self):
        rules = formula_to_rules(
            parse_formula("Furry($x, True) ∧ Quiet($x, True) ⇒ White($x, True)")
        )
        assert len(rules) == 1
        assert len(rules[0].body) == 2


PRONTOQA_BLOCK = """Predicates:
Jompus(x) ::: Is x a jompus?
Fruity(x) ::: Is x fruity?
Shy(x) ::: Is x shy?
Facts:
Tumpus(alex, True) ::: Alex is a tumpus.
Rules:
Jompus($x, True) ⇒ Fruity($x, True) ::: Each jompus is fruity.
Query:
Shy(alex, False) ::: Alex is not shy.
"""


class TestTranslationBlock:
    def test_prontoqa_block(self):
        block = parse_translation_block(PRONTOQA_BLOCK)
        assert not block.diagnostics
        assert block.executable
        assert block.kb is not None
        assert SignedLiteral("Tumpus", (c("alex"),), True) in block.kb.facts
        assert len(block.kb.rules) == 1
        assert block.query == SignedLiteral("Shy", (c("alex"),), False)
        assert [p[0] for p in block.predicates] == ["Jompus", "Fruity", "Shy"]

    def test_single_bad_line_marks_non_executable(self):
        bad = PRONTOQA_BLOCK.replace(
            "Jompus($x, True) ⇒ Fruity($x, True) ::: Each jompus is fruity.",
            "Jompus($x, True ⇒ Fruity($x, True) ::: truncated parenthesis",
        )
        block = parse_translation_block(bad)
        assert len([d for d in block.diagnostics if d.severity is Severity.ERROR]) == 1
        assert not block.executable

    def test_empty_input_raises(self):
        with pytest.raises(ParseError) as exc:
            parse_translation_block("just some prose\n")
        assert "no sections" in exc.value.message

    def test_missing_statement_diagnosed(self):
        block = parse_translation_block("Facts:\nP(a, True)\n")
        assert not block.executable
        assert any("Query" in d.message or "Statement" in d.message for d in block.diagnostics)

    def test_folio_style_premises(self):
        text = """Premises:
∀x (ChoralConductor(x) → Musician(x)) ::: Any choral conductor is a musician.
∃x (Musician(x) ∧ Love(x, music)) ::: Some musicians love music.
Query:
Love(miroslav, music) ::: Miroslav loved music.
"""
        block = parse_translation_block(text)
        assert not block.diagnostics
        assert block.kb is None
        assert len(block.premises) == 2
        assert block.statement == Atom("Love", (c("miroslav"), c("music")))

    def test_glosses_preserved(self):
        block = parse_translation_block(PRONTOQA_BLOCK)
        assert block.statement_gloss == "Alex is not shy."

    def test_contradictory_facts_diagnosed(self):
        text = "Facts:\nP(a, True)\nP(a, False)\nQuery:\nP(a, True)\n"
        block = parse_translation_block(text)
        assert not block.executable
        assert any("inconsistency" in d.message for d in block.diagnostics)

    def test_diagnostic_positions_inside_input(self):
        bad_inputs = [
            "Facts:\nP(a, True\nQuery:\nP(a, True)\n",
            "Rules:\n⇒ Q(a)\nQuery:\nP(a)\n",
            "Query:\nP(a) ∧\n",
        ]
        for text in bad_inputs:
            block = parse_translation_block(text)
            errors = [d for d in block.diagnostics if d.severity is Severity.ERROR]
            assert errors
            for d in errors:
                assert 0 <= d.position <= len(text)

    def test_round_trip_canonical_text(self):
        block = parse_translation_block(PRONTOQA_BLOCK)
        again = parse_translation_block(block.to_text())
        assert again.executable
        assert again.kb.facts == block.kb.facts
        assert again.query == block.query

    @pytest.mark.parametrize("text,gloss,diagnostics", [
        ("- Facts:\n- P(a, True) ::: a is p\n- Rules:\n- P($x, True) ⇒ Q($x, True)\n"
         "- Query:\n- Q(a, True) ::: a is q\n", "a is q", []),
        ("1. Facts:\n1. P(a, True)\n2) Rules:\n1) P($x, True) ⇒ Q($x, True) ::: p implies q\n"
         "3. Query:\n1. Q(a, True)\n", "", []),
        ("Fact:\nP(a, True)\nConditional rules:\nP($x, True) => Q($x, True)\nQueries:\n"
         "Q(a, True) ::: a is q\n", "a is q", []),
        ("stray\n  stray line ::: note\nFacts:\nP(a, True)\nRules:\nP($x, True) ⇒ Q($x, True)\n"
         "Query:\nQ(a, True)\n", "",
         [ParseDiagnostic(0, "line outside any section: 'stray'"),
          ParseDiagnostic(8, "line outside any section: 'stray line'")]),
    ], ids=["bullets", "numbers", "header-aliases", "outside-lines"])
    def test_section_reader_layouts(self, text, gloss, diagnostics):
        block = parse_translation_block(text)
        assert block.diagnostics == diagnostics
        assert block.kb is not None and len(block.kb.rules) == 1
        assert SignedLiteral("P", (c("a"),), True) in block.kb.facts
        assert block.query == SignedLiteral("Q", (c("a"),), True)
        assert block.statement_gloss == gloss

    @pytest.mark.parametrize("text", [
        "Facts:\nQuery:\n",
        "- Predicates:\n\n1. Rules:\n2) Conclusion:\n",
    ], ids=["plain", "bulleted"])
    def test_header_only_block_raises(self, text):
        with pytest.raises(ParseError, match="no sections found"):
            parse_translation_block(text)
