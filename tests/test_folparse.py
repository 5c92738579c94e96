import random
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from symchain.folparse import (
    ParseDiagnostic, ParseError, Severity, formula_to_literal, formula_to_rules, parse_formula,
    parse_translation_block, print_formula,
)
from symchain.inference import decide_formula
from symchain.logic import (
    And, Atom, Constant, Exists, ForAll, Implies, Label, Not, Or, SignedLiteral,
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

    def test_quantifier_scope_ends_at_its_operand(self):
        got = parse_formula("∀w P(w) ∧ Q(w)")
        assert got == And(ForAll("w", Atom("P", (v("w"),))), Atom("Q", (c("w"),)))
        got = parse_formula("∀w (P(w) ∧ Q(w))")
        assert got == ForAll("w", And(Atom("P", (v("w"),)), Atom("Q", (v("w"),))))


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


# (input, (message, offset)); pinned across tokenizer rewrites
DIAGNOSTIC_TABLE = [
    ("notä", ("unknown symbol 'ä'", 3)),
    ("1not", ("unknown symbol '1'", 0)),
    ("$", ("unknown symbol '$'", 0)),
    ("$1", ("unknown symbol '$'", 0)),
    ("P($)", ("unknown symbol '$'", 2)),
    ("P(a) <- Q(a)", ("unknown symbol '<'", 5)),
    ("P(a) = Q(a)", ("unknown symbol '='", 5)),
    ("P(a) - Q(a)", ("unknown symbol '-'", 5)),
    ("P(a)\u200b∧ Q(a)", ("unknown symbol '\\u200b'", 4)),
    (") @", ("unknown symbol '@'", 2)),
    ("P(a) ∧ Q(b) @ (", ("unknown symbol '@'", 12)),
    ("", ("empty input, expected a formula", 0)),
    ("   ", ("empty input, expected a formula", 0)),
    ("∀", ("dangling quantifier: expected a variable name", 1)),
    ("∀ (P(x))", ("dangling quantifier: expected a variable name", 2)),
    ("∀x ∀", ("dangling quantifier: expected a variable name", 4)),
    ("∀x", ("unexpected end of input, expected a formula", 2)),
    ("¬", ("unexpected end of input, expected a formula", 1)),
    ("P(a) ∧", ("unexpected end of input, expected a formula", 6)),
    ("P(a) → → Q(a)", ("unexpected '→', expected a formula", 7)),
    ("P(a) ⇒ <-> Q", ("unexpected '<->', expected a formula", 7)),
    ("(P(a)", ("unbalanced parenthesis", 5)),
    ("P(a", ("unbalanced parenthesis", 3)),
    ("P(f(a)", ("unbalanced parenthesis", 6)),
    ("P(a,)", ("expected a term, found ')'", 4)),
    ("P(a) Q(b)", ("unexpected trailing input 'Q'", 5)),
    ("P(a)) ", ("unexpected trailing input ')'", 4)),
    ("(P)(Q)", ("unexpected trailing input '('", 3)),
    ("x ∀", ("unexpected trailing input '∀'", 2)),
    ("(P(a)))", ("unexpected trailing input ')'", 6)),
    ("(P(a) Q(a)", ("expected ')', found 'Q'", 6)),
    ("¬)", ("unexpected ')', expected a formula", 1)),
    ("P(f(a) b)", ("expected ')', found 'b'", 7)),
    ("P(f(g(a))", ("unbalanced parenthesis", 9)),
    ("P(", ("unexpected end of input, expected a term", 2)),
]


@pytest.mark.parametrize("text,diagnostic", DIAGNOSTIC_TABLE)
def test_diagnostic_table(text, diagnostic):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert (exc.value.message, exc.value.position) == diagnostic


def test_non_breaking_space_is_whitespace():
    assert parse_formula("P(a)\u00a0∧\u00a0Q(a)") == parse_formula("P(a) ∧ Q(a)")


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

    @pytest.mark.parametrize("op", ["∧", "∨", "⊕"])
    def test_flat_chain_of_thousands(self, op):
        text = f" {op} ".join(f"P(c{i})" for i in range(1500))
        assert print_formula(parse_formula(text)) == text
        nested = f"(A {op} B) {op} {text} {op} (C {op} D)"
        assert print_formula(parse_formula(nested)) == f"A {op} B {op} {text} {op} (C {op} D)"

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
        assert formula_to_literal(block.statement) == SignedLiteral("Shy", (c("alex"),), False)
        assert [p[0] for p in block.predicates] == ["Jompus", "Fruity", "Shy"]

    def test_single_bad_line_marks_non_executable(self):
        bad = PRONTOQA_BLOCK.replace(
            "Jompus($x, True) ⇒ Fruity($x, True) ::: Each jompus is fruity.",
            "Jompus($x, True ⇒ Fruity($x, True) ::: truncated parenthesis",
        )
        block = parse_translation_block(bad)
        assert len([d for d in block.diagnostics if d.severity is Severity.ERROR]) == 1
        assert not block.executable

    @pytest.mark.parametrize("text", ["just some prose\n", "", "- P(a)\nQ(b) ::: gloss\n"],
                             ids=["prose", "empty", "formula-lines"])
    def test_text_without_headers_is_one_diagnostic(self, text):
        block = parse_translation_block(text)
        assert block.diagnostics == [ParseDiagnostic(0, "no sections found")]
        assert (block.predicates, block.premises, block.statement, block.kb) == ([], [], None, None)

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

    def test_bulleted_line_offsets_count_from_its_body(self):
        text = "Facts:\nP(a, True)\nQuery:\n  * P(a, True ::: broken"
        block = parse_translation_block(text)
        body = text.index("P(a, True :::")
        assert block.diagnostics == [ParseDiagnostic(body + len("P(a, True"), "unbalanced parenthesis")]

    def test_unreadable_predicate_declaration(self):
        block = parse_translation_block("Predicates:\nP(x) ::: x is p\nnot a declaration\nFacts:\n"
                                        "P(a, True)\nQuery:\nP(a, True)\n")
        assert block.diagnostics == [ParseDiagnostic(28, "cannot read predicate declaration: 'not a declaration'")]
        assert block.predicates == [("P", 1, "x is p")]

    def test_only_a_colon_gloss_may_follow_a_declaration(self):
        text = ("Predicates:\nP(x) garbage here\nJompus($x, True) ⇒ Fruity($x, True) ::: Each jompus is fruity.\n"
                "Q(x): x is q\nR(x) :: x is r\nS(x)\nFacts:\nQ(a, True)\nQuery:\nQ(a, True)\n")
        block = parse_translation_block(text)
        assert block.diagnostics == [
            ParseDiagnostic(text.index("P(x)"), "cannot read predicate declaration: 'P(x) garbage here'"),
            ParseDiagnostic(text.index("Jompus"),
                            "cannot read predicate declaration: 'Jompus($x, True) ⇒ Fruity($x, True)'"),
        ]
        assert block.predicates == [("Q", 1, "x is q"), ("R", 1, "x is r"), ("S", 1, "")]

    def test_arity_diagnostic_points_at_the_declaration_in_force(self):
        # the later of two declarations sets the arity, so it is the one reported
        text = "Predicates:\nP(x)\nP(x, y, z, w)\nFacts:\nP(a, True)\nQuery:\nP(a, True)\n"
        at = text.index("P(x, y, z, w)")
        assert parse_translation_block(text).diagnostics == [
            ParseDiagnostic(at, "predicate 'P' declared again with arity 4, first with arity 1"),
            ParseDiagnostic(at, "predicate 'P' declared with arity 4 but used with 1")]

    @pytest.mark.parametrize("text,arity", [
        ("Predicates:\nQ(x)\nFacts:\nP(a, True)\nQuery:\nQ(a, b, True)", 2),
        ("Predicates:\nQ(x)\nPremises:\nP(a)\nQuery:\nP(a) ∧ ¬Q(a, b)", 2),
        ("Predicates:\nQ(x)\nFacts:\nP(a, True)\nQuery:\nQ(b, False)", None),
    ], ids=["polarity-statement", "compound-statement", "folded-arity-agrees"])
    def test_statement_atoms_are_checked_against_the_declarations(self, text, arity):
        # folded as decide_formula folds them: Q(a, b, True) uses Q with 2 arguments
        expected = [] if arity is None else [
            ParseDiagnostic(text.index("Q(x)"), f"predicate 'Q' declared with arity 1 but used with {arity}")]
        assert parse_translation_block(text).diagnostics == expected

    def test_predicate_declared_again_with_another_arity(self):
        text = "Predicates:\nP(x)\nP(x, y)\nFacts:\nP(a, True)\nQuery:\nP(a, True)\n"
        block = parse_translation_block(text)
        assert block.diagnostics == [ParseDiagnostic(
            text.index("P(x, y)"), "predicate 'P' declared again with arity 2, first with arity 1")]
        assert not block.executable
        # a repeat with the same arity stays silent
        again = parse_translation_block(text.replace("P(x, y)", "P(y) ::: y is p"))
        assert again.diagnostics == []
        assert again.predicates == [("P", 1, ""), ("P", 1, "y is p")]

    def test_query_arity_mismatch_points_at_the_statement(self):
        text = "Facts:\nP(a, True)\nQuery:\nP(a, b, True)\n"
        block = parse_translation_block(text)
        assert block.diagnostics == [ParseDiagnostic(25, "predicate 'P' used with arity 2, expected 1")]
        assert not block.executable

    def test_every_statement_atom_is_checked_against_the_knowledge_base(self):
        text = "Facts:\nP(a, True)\nQuery:\nP(a, b, True) ∨ P(a, True)\n"
        block = parse_translation_block(text)
        assert block.diagnostics == [ParseDiagnostic(25, "predicate 'P' used with arity 2, expected 1")]
        assert not block.executable
        # the first mismatch in the statement's preorder; a predicate the knowledge base lacks is none
        text = "Facts:\nP(a, True)\nQ(a, b, True)\nQuery:\n¬(R(a) ∧ P(a, True)) → Q(a, True) ∨ P(a, b)\n"
        assert parse_translation_block(text).diagnostics == [
            ParseDiagnostic(39, "predicate 'Q' used with arity 1, expected 2")]

    def test_knowledge_base_arity_mismatch_points_at_the_first_line_using_that_arity(self):
        text = "Facts:\nP(a, b, True)\nP(a, True)\nQuery:\nP(a, True)"
        assert parse_translation_block(text).diagnostics == [
            ParseDiagnostic(7, "predicate 'P' used with arity 2, expected 1")]
        # a rule line is found in block order too: facts are checked first, so P's arity is 2 here
        text = "Facts:\nQ(a, True)\nRules:\nQ($x, True) ⇒ P($x, $x, True)\nP($x, True) ⇒ R($x, True)\nQuery:\nR(a)"
        assert parse_translation_block(text).diagnostics == [
            ParseDiagnostic(text.index("P($x, True)"), "predicate 'P' used with arity 1, expected 2")]

    def test_inconsistent_facts_point_at_the_line_where_the_second_polarity_appears(self):
        text = "Facts:\nP(a, True)\nP(a, False)\nQuery:\nP(a, True)"
        assert parse_translation_block(text).diagnostics == [
            ParseDiagnostic(18, "inconsistency: P(a) asserted with both polarities")]
        # a rule line holding the literal asserts nothing; a repeated fact keeps its first line
        text = "Rules:\nP(a, True) ⇒ Q(a, True)\nFacts:\nP(a, False)\nP(a, True)\nP(a, False)\nQuery:\nQ(a)"
        assert parse_translation_block(text).diagnostics == [
            ParseDiagnostic(text.index("P(a, True)\nP"), "inconsistency: P(a) asserted with both polarities")]

    def test_function_symbol_points_at_the_line_holding_it(self):
        text = "Facts:\nP(f(a), True)\nQuery:\nP(f(a), True)"
        assert parse_translation_block(text).diagnostics == [
            ParseDiagnostic(7, "function symbols are not allowed in facts: P(f(a))")]
        text = "Facts:\nP(a, True)\nRules:\nP($x, True) ⇒ Q($x, True)\nQ($x, True) ⇒ R(g($x), True)\nQuery:\nQ(a)"
        assert parse_translation_block(text).diagnostics == [
            ParseDiagnostic(text.index("Q($x, True) ⇒ R"), "function symbols are not allowed in rule heads: R(g(x))")]

    def test_round_trip_canonical_text(self):
        block = parse_translation_block(PRONTOQA_BLOCK)
        again = parse_translation_block(block.to_text())
        assert again.executable
        assert again.kb.facts == block.kb.facts
        assert formula_to_literal(again.statement) == formula_to_literal(block.statement)

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
        ("Predicate:\nP(x, bool) ::: x is p\nFacts:\nP(a, True)\nRules with compound predicates:\n"
         "P($x, True) ⇒ Q($x, True)\nConclusion:\nQ(a, True)\n", "", []),
        ("Facts:\nP(a, True)\nConditional rules with compound predicates:\nP($x, True) ⇒ Q($x, True)\n"
         "Statement:\nQ(a, True)\n", "", []),
        ("Facts:\nP(a, True)\nRules:\nP($x, True) ⇒ Q($x, True)\nQuery:\nQ(a, True) ::: a is q\nQ(b, True)\n",
         "a is q", [ParseDiagnostic(80, "extra statement line ignored: 'Q(b, True)'", Severity.WARNING)]),
        ("Facts:\nP(a, True)\nP($x, True)\nP(a, True) ∧ P(b, True)\nRules:\nP($x, True) ⇒ Q($x, True)\n"
         "Query:\nQ(a, True)\n", "",
         [ParseDiagnostic(18, "fact is not a ground literal: 'P($x, True)'"),
          ParseDiagnostic(30, "fact is not a ground literal: 'P(a, True) ∧ P(b, True)'")]),
        ("Facts:\nP(a, True)\nRules:\nP($x, True) ⇒ Q($x, True)\nP(a, True) ∧ Q(a, True)\n"
         "P($x, True) ⇒ Q($y, True)\nP($x, True) ⇒ Q($x, True) ∧ R($x, True)\n"
         "(P($x, True) → R($x)) ⇒ Q($x, True)\nQuery:\nQ(a, True)\n", "",
         [ParseDiagnostic(51, "a rule must be an implication"),
          ParseDiagnostic(75, "rule head uses variables not bound in the body: y"),
          ParseDiagnostic(101, "rule head must be a single literal"),
          ParseDiagnostic(141, "rule body must be a conjunction of literals")]),
    ], ids=["bullets", "numbers", "header-aliases", "outside-lines", "compound-rules-conclusion",
            "conditional-compound-rules-statement", "extra-statement-line", "non-ground-facts", "non-horn-rules"])
    def test_section_reader_layouts(self, text, gloss, diagnostics):
        block = parse_translation_block(text)
        assert block.diagnostics == diagnostics
        assert block.kb is not None and len(block.kb.rules) == 1
        assert SignedLiteral("P", (c("a"),), True) in block.kb.facts
        assert formula_to_literal(block.statement) == SignedLiteral("Q", (c("a"),), True)
        assert block.statement_gloss == gloss

    @pytest.mark.parametrize("text,diagnostics", [
        # a line after the Query section, the extra statement line, then the statement's error
        ("Facts:\nP(a, True)\nRules:\nP($x, True) ⇒ Q($x, True)\nQuery:\nQ(a, True\nQ(b, True)\nFacts:\nP(b\n",
         [ParseDiagnostic(89, "unbalanced parenthesis"),
          ParseDiagnostic(68, "extra statement line ignored: 'Q(b, True)'", Severity.WARNING),
          ParseDiagnostic(67, "unbalanced parenthesis")]),
        ("Premise:\nP(a)\nPremises:\nP(a\nQuery:\nP(a)\nP(b\n",
         [ParseDiagnostic(27, "unbalanced parenthesis"),
          ParseDiagnostic(40, "extra statement line ignored: 'P(b'", Severity.WARNING)]),
    ], ids=["broken-statement", "broken-premise"])
    def test_diagnostic_order(self, text, diagnostics):
        assert parse_translation_block(text).diagnostics == diagnostics

    @pytest.mark.parametrize("text", [
        "Facts:\nQuery:\n",
        "- Predicates:\n\n1. Rules:\n2) Conclusion:\n",
    ], ids=["plain", "bulleted"])
    def test_header_only_block_misses_its_statement(self, text):
        assert parse_translation_block(text).diagnostics == [
            ParseDiagnostic(len(text), "missing Query/Statement section")]

    def test_deep_nesting_is_a_diagnostic(self):
        # deeper than the interpreter's recursion limit once allowed: the rule parses
        rule = "(" * 600 + "P($x, True) ⇒ Q($x, True)" + ")" * 600
        text = f"Facts:\nP(a, True)\nRules:\n{rule}\nQuery:\nQ(a, True)\n"
        block = parse_translation_block(text)
        assert block.diagnostics == []
        assert formula_to_literal(block.statement) == SignedLiteral("Q", (c("a"),), True)
        assert decide_formula(block.kb, block.statement) is Label.TRUE

    def test_flat_chains_of_thousands_parse(self):
        # TokenCursor builds such chains iteratively, and so must every walk over them
        body = " ∧ ".join(["P($x, True)"] * 1500)
        block = parse_translation_block(f"Facts:\nP(a, True)\nRules:\n{body} ⇒ Q($x, True)\nQuery:\nQ(a, True)\n")
        assert block.diagnostics == []
        (rule,) = block.kb.rules
        assert len(rule.body) == 1500 and rule.head == SignedLiteral("Q", (v("x"),), True)
        disjuncts = " ∨ ".join(f"P{i}($x, True)" for i in range(1500))
        block = parse_translation_block(f"Rules:\n{disjuncts} ⇒ Q($x, True)\nQuery:\nQ(a, True)\n")
        assert block.diagnostics == [] and len(block.kb.rules) == 1500
        premise = " ∧ ".join(["P(a)"] * 1500) + " ∧ P(a, b)"
        block = parse_translation_block(f"Predicates:\nP(x, y, z)\nPremises:\n{premise}\nQuery:\nP(a)\n")
        # the first use sets P's arity: the chain was walked left to right
        assert [d.message for d in block.diagnostics] == [
            "predicate 'P' declared with arity 3 but used with 1"]

    def test_arity_diagnostics_come_in_text_order_under_every_hash_seed(self):
        messages = helpers.run_under_hash_seeds(textwrap.dedent("""
            from symchain.folparse import parse_translation_block
            block = parse_translation_block(
                "Predicates:\\nAlpha(x)\\nBeta(x)\\nGamma(x)\\n"
                "Facts:\\nGamma(c, a, b, True)\\nAlpha(a, b, c, True)\\nBeta(b, c, a, True)\\n"
                "Query:\\nAlpha(a, b, c, True)\\n")
            for d in block.diagnostics:
                print(d)
        """), seeds=range(1, 7))
        assert set(messages.values()) == {"".join(
            f"error at offset {offset}: predicate {name!r} declared with arity 1 but used with 3\n"
            for name, offset in (("Alpha", 12), ("Beta", 21), ("Gamma", 29)))}

    def test_mini_corpus_blocks_repr_the_same_under_every_hash_seed(self):
        reprs = helpers.run_under_hash_seeds(textwrap.dedent("""
            from symchain.corpus import mini_corpus
            from symchain.folparse import parse_translation_block
            corpus = mini_corpus()
            for p in corpus.problems:
                if not p.family.is_csp:
                    print(repr(parse_translation_block(corpus.translation(p.id))))
        """), seeds=range(1, 7))
        assert len(set(reprs.values())) == 1

    def test_block_shares_one_term_per_token(self):
        block = parse_translation_block(
            "Facts:\nP(a, True)\nR(a, b, True)\nRules:\nP($x, True) ∧ R($x, $y, True) ⇒ Q($y, True)\n"
            "R($x, a, True) ⇒ P($x, True)\nQuery:\nQ(b, True)\n")
        assert not block.diagnostics
        facts = {fact.predicate: fact for fact in block.kb.facts}
        first, second = block.kb.rules
        assert facts["P"].args[0] is facts["R"].args[0] is second.body[0].args[1]
        assert facts["R"].args[1] is formula_to_literal(block.statement).args[0]
        assert first.body[0].args[0] is first.body[1].args[0] is second.body[0].args[0]
        assert first.body[1].args[1] is first.head.args[0]
        # ``$a`` stays a variable beside the constant ``a``
        block = parse_translation_block("Facts:\nP(a, True)\nRules:\nP($a, True) ⇒ Q($a, True)\n"
                                        "Query:\nQ(a, True)\n")
        (rule,) = block.kb.rules
        assert rule.body[0].args == (v("a"),) and formula_to_literal(block.statement).args == (c("a"),)


IGNORED = "premises beside Facts/Rules are not read by the engine: "


class TestPremisesBesideAKnowledgeBase:
    TEXT = "Facts:\nDog(rex, True)\nPremises:\nAnimal(rex)\nQuery:\nAnimal(rex, True)\n"

    def test_premises_are_printed_and_named_in_a_warning_at_their_header(self):
        block = parse_translation_block(self.TEXT)
        assert block.diagnostics == [
            ParseDiagnostic(self.TEXT.index("Premises:"), IGNORED + "Animal(rex)", Severity.WARNING)]
        assert block.executable
        assert block.to_text() == "Premises:\nAnimal(rex)\nFacts:\nDog(rex, True)\nQuery:\nAnimal(rex)"

    def test_printed_block_parses_back_to_the_same_sections(self):
        block = parse_translation_block(self.TEXT)
        again = parse_translation_block(block.to_text())
        assert (again.premises, again.kb, again.statement) == (block.premises, block.kb, block.statement)

    def test_warning_is_at_the_first_header_and_names_every_premise(self):
        text = ("Rules:\nP($x, True) ⇒ Q($x, True)\n- Premises:\n∀x (P(x) → R(x)) ::: gloss\n"
                "Query:\nQ(a, True)\nPremises:\nR(a) ∧ S(a)\n")
        block = parse_translation_block(text)
        assert block.diagnostics == [ParseDiagnostic(
            text.index("Premises:"), IGNORED + "∀x (P(x) → R(x)); R(a) ∧ S(a)", Severity.WARNING)]
        assert "Premises:\n∀x (P(x) → R(x)) ::: gloss\nR(a) ∧ S(a)\nFacts:\nRules:\n" in block.to_text()

    def test_premises_without_a_knowledge_base_give_no_warning(self):
        block = parse_translation_block("Premises:\nAnimal(rex)\nQuery:\nAnimal(rex)\n")
        assert block.diagnostics == [] and block.kb is None
