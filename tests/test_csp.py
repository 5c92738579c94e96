import itertools
import random

import pytest

from symchain.csp import (
    AbsDiffNotEqual, AllDifferent, CAnd, CImplies, CNot, COr, Compare,
    CspModel, NoSolutionsError, OptionStatus, QuestionMode,
    SearchSpaceTooLargeError, Undecided, detect_question_mode,
    evaluate_queries, parse_constraint, parse_csp_block, select_answer,
    solve_all,
)
from symchain.folparse import ParseDiagnostic, ParseError

import helpers

CAR_BLOCK = """Domain:
1: oldest
3: newest
Variables:
station_wagon ∈ {1, 2, 3}
convertible ∈ {1, 2, 3}
minivan ∈ {1, 2, 3}
Constraints:
station_wagon == 1 ::: The station wagon is the oldest.
minivan > convertible ::: The minivan is newer than the convertible.
AllDifferentConstraint([station_wagon, convertible, minivan]) ::: All vehicles have different values.
Query:
A) station_wagon == 2 ::: The station wagon is the second-newest.
B) convertible == 2 ::: The convertible is the second-newest.
C) minivan == 2 ::: The minivan is the second-newest.
"""


class TestParseCspBlock:
    def test_car_block(self):
        model, diagnostics = parse_csp_block(CAR_BLOCK)
        assert not diagnostics
        assert model.domain_size == 3
        assert [n for n, _ in model.variables] == ["station_wagon", "convertible", "minivan"]
        assert Compare("station_wagon", "==", 1) in model.constraints
        assert Compare("minivan", ">", "convertible") in model.constraints
        assert AllDifferent(("station_wagon", "convertible", "minivan")) in model.constraints
        assert [letter for letter, _ in model.queries] == ["A", "B", "C"]

    def test_absdiff(self):
        expr = parse_constraint("|nita - trisha| != 1")
        assert expr == AbsDiffNotEqual("nita", "trisha", 1)
        expr = parse_constraint("|nita − trisha| ≠ 1")
        assert expr == AbsDiffNotEqual("nita", "trisha", 1)

    def test_boolean_combinators(self):
        expr = parse_constraint("a == 1 and b == 2 or not c == 3")
        assert isinstance(expr, COr)
        assert isinstance(expr.left, CAnd)
        assert isinstance(expr.right, CNot)
        expr = parse_constraint("thursday == 1 -> friday == 2")
        assert isinstance(expr, CImplies)

    def test_missing_query_section(self):
        text = CAR_BLOCK.split("Query:")[0]
        model, diagnostics = parse_csp_block(text)
        assert model is None
        assert any("Query" in d.message for d in diagnostics)

    def test_undeclared_variable(self):
        text = CAR_BLOCK.replace("station_wagon == 1", "steamroller == 1")
        model, diagnostics = parse_csp_block(text)
        assert model is None
        assert any("undeclared" in d.message for d in diagnostics)

    def test_bad_constraint_line_diagnosed(self):
        text = CAR_BLOCK.replace("minivan > convertible", "minivan >> convertible")
        model, diagnostics = parse_csp_block(text)
        assert diagnostics
        assert all(0 <= d.position <= len(text) for d in diagnostics)

    def test_no_sections_raises(self):
        with pytest.raises(ParseError):
            parse_csp_block("nothing structured here")

    def test_unicode_membership(self):
        model, diagnostics = parse_csp_block(
            "Domain:\n1: low\n2: high\nVariables:\nv in {1, 2}\nConstraints:\nv == 1\nQuery:\nA) v == 1\n"
        )
        assert not diagnostics
        assert model.variables == [("v", (1, 2))]

    def test_round_trip_via_to_text(self):
        model, _ = parse_csp_block(CAR_BLOCK)
        again, diagnostics = parse_csp_block(model.to_text())
        assert not diagnostics
        assert again.constraints == model.constraints
        assert again.queries == model.queries

    @pytest.mark.parametrize("text,diagnostics", [
        ("- Domain:\n- 1: low ::: the low end\n- 2: high\n- Variables:\n- v ∈ {1, 2}\n"
         "- Constraints:\n- v == 1 ::: v is low\n- Query:\n- A) v == 1\n", []),
        ("1. Domain:\n1. 1: low\n2. 2: high\n2) Variables:\n1) v ∈ {1, 2}\n3. Constraints:\n"
         "1. v == 1\n4. Query:\n1. A) v == 1 ::: v is low\n", []),
        ("stray\n  more ::: note\nDomain:\n1: low\nVariables:\nv ∈ {1, 2}\nConstraints:\n"
         "v == 1\nQuery:\nA) v == 1\n",
         [ParseDiagnostic(0, "line outside any section: 'stray'"),
          ParseDiagnostic(8, "line outside any section: 'more ::: note'")]),
        ("Domain:\n1: low\nVariables:\nv ∈ {1, 2}\nConstraints:\nv >> 1\nQuery:\nA) v == 1\n",
         [ParseDiagnostic(53, "expected a variable or integer, found '>'")]),
        ("Domain:\nVariables:\nConstraints:\n", [ParseDiagnostic(32, "missing Query section")]),
        ("- Domain:\n- Query:\n", [ParseDiagnostic(19, "no variables declared")]),
    ], ids=["bullets", "numbers", "outside-lines", "bad-constraint", "no-query", "no-variables"])
    def test_section_reader_layouts(self, text, diagnostics):
        model, got = parse_csp_block(text)
        assert got == diagnostics
        if model is not None:
            assert model.variables == [("v", (1, 2))]
            assert model.queries == [("A", Compare("v", "==", 1))]


class TestSolveAll:
    def test_car_unique_solution(self):
        model, _ = parse_csp_block(CAR_BLOCK)
        # oracle: hand enumeration of all 27 assignments
        expected = []
        for sw, conv, mini in itertools.product((1, 2, 3), repeat=3):
            if sw == 1 and mini > conv and len({sw, conv, mini}) == 3:
                expected.append({"station_wagon": sw, "convertible": conv, "minivan": mini})
        assert expected == [{"station_wagon": 1, "convertible": 2, "minivan": 3}]
        assert list(solve_all(model).solutions) == expected

    def test_unsatisfiable(self):
        model = CspModel(
            domain_size=3,
            variables=[("x", (1, 2, 3))],
            constraints=[Compare("x", "==", 1), Compare("x", "==", 2)],
            queries=[("A", Compare("x", "==", 1))],
        )
        assert solve_all(model).solutions == ()

    def test_limit_truncates(self):
        model = CspModel(domain_size=3, variables=[("x", (1, 2, 3)), ("y", (1, 2, 3))],
                         constraints=[], queries=[])
        result = solve_all(model, limit=4)
        assert result.truncated
        assert len(result.solutions) == 4

    def test_lexicographic_order(self):
        model = CspModel(domain_size=2, variables=[("x", (1, 2)), ("y", (1, 2))],
                         constraints=[], queries=[])
        got = [(s["x"], s["y"]) for s in solve_all(model).solutions]
        assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_search_space_guard(self):
        model = CspModel(
            domain_size=10,
            variables=[(f"v{i}", tuple(range(1, 11))) for i in range(8)],
            constraints=[],
            queries=[],
        )
        with pytest.raises(SearchSpaceTooLargeError):
            solve_all(model)

    def test_matches_oracle_on_random_models(self):
        rng = random.Random(41)
        for _ in range(60):
            model = helpers.random_csp_model(rng)
            got = [tuple(sorted(s.items())) for s in solve_all(model).solutions]
            want = [tuple(sorted(s.items())) for s in helpers.oracle_solutions(model)]
            assert got == want

    def test_constraint_order_permutation_invariant(self):
        rng = random.Random(42)
        for _ in range(20):
            model = helpers.random_csp_model(rng)
            base = solve_all(model).solutions
            shuffled = list(model.constraints)
            rng.shuffle(shuffled)
            permuted = CspModel(model.domain_size, model.domain_gloss, model.variables,
                                shuffled, model.queries)
            assert solve_all(permuted).solutions == base


class TestEvaluateQueries:
    def test_car_verdicts(self):
        model, _ = parse_csp_block(CAR_BLOCK)
        verdict = evaluate_queries(model)
        assert verdict.solution_count == 1
        assert verdict.statuses["B"] is OptionStatus.MUST_BE_TRUE
        assert verdict.statuses["A"] is OptionStatus.CANNOT_BE_TRUE
        assert verdict.statuses["C"] is OptionStatus.CANNOT_BE_TRUE

    def test_tautological_query_must_hold(self):
        model = CspModel(
            domain_size=2,
            variables=[("x", (1, 2))],
            constraints=[],
            queries=[("A", Compare("x", "==", "x"))],
        )
        assert evaluate_queries(model).statuses["A"] is OptionStatus.MUST_BE_TRUE

    def test_no_solutions_distinct_error(self):
        model = CspModel(
            domain_size=2,
            variables=[("x", (1, 2))],
            constraints=[Compare("x", "==", 1), Compare("x", "==", 2)],
            queries=[("A", Compare("x", "==", 1))],
        )
        with pytest.raises(NoSolutionsError):
            evaluate_queries(model)

    def test_must_implies_may_and_disjointness(self):
        rng = random.Random(43)
        for _ in range(40):
            model = helpers.random_csp_model(rng)
            try:
                verdict = evaluate_queries(model)
            except NoSolutionsError:
                continue
            for letter in verdict.statuses:
                if verdict.must(letter):
                    assert verdict.may(letter)
                    assert not verdict.cannot(letter)

    def test_verdicts_match_oracle(self):
        rng = random.Random(44)
        for _ in range(40):
            model = helpers.random_csp_model(rng)
            solutions = helpers.oracle_solutions(model)
            if not solutions:
                with pytest.raises(NoSolutionsError):
                    evaluate_queries(model)
                continue
            verdict = evaluate_queries(model)
            for letter, expr in model.queries:
                holds = [helpers.oracle_eval(expr, s) for s in solutions]
                if all(holds):
                    assert verdict.statuses[letter] is OptionStatus.MUST_BE_TRUE
                elif any(holds):
                    assert verdict.statuses[letter] is OptionStatus.MAY_BE_TRUE
                else:
                    assert verdict.statuses[letter] is OptionStatus.CANNOT_BE_TRUE


class TestSelectAnswer:
    def test_car_must_mode(self):
        model, _ = parse_csp_block(CAR_BLOCK)
        assert select_answer(evaluate_queries(model), QuestionMode.MUST_BE_TRUE) == "B"

    def test_all_may_gives_empty_undecided(self):
        verdict = evaluate_queries(CspModel(
            domain_size=2,
            variables=[("x", (1, 2))],
            constraints=[],
            queries=[("A", Compare("x", "==", 1)), ("B", Compare("x", "==", 2))],
        ))
        got = select_answer(verdict, QuestionMode.MUST_BE_TRUE)
        assert got == Undecided(frozenset())

    def test_two_cannot_gives_both(self):
        verdict = evaluate_queries(CspModel(
            domain_size=2,
            variables=[("x", (1, 2))],
            constraints=[Compare("x", "==", 1)],
            queries=[("A", Compare("x", "==", 2)), ("B", Compare("x", ">", 1))],
        ))
        got = select_answer(verdict, QuestionMode.CANNOT_BE_TRUE)
        assert got == Undecided(frozenset({"A", "B"}))

    def test_could_be_true_mode(self):
        verdict = evaluate_queries(CspModel(
            domain_size=2,
            variables=[("x", (1, 2))],
            constraints=[],
            queries=[("A", Compare("x", "==", 1)), ("B", Compare("x", "==", 3))],
        ))
        assert select_answer(verdict, QuestionMode.COULD_BE_TRUE) == "A"


class TestQuestionMode:
    @pytest.mark.parametrize("question,mode", [
        ("which one of the following must be true?", QuestionMode.MUST_BE_TRUE),
        ("Which one of the following CANNOT be true?", QuestionMode.CANNOT_BE_TRUE),
        ("which one could be true?", QuestionMode.COULD_BE_TRUE),
        ("Which of the following is true?", QuestionMode.MUST_BE_TRUE),
    ])
    def test_detection(self, question, mode):
        assert detect_question_mode(question) is mode


class TestBirdsModel:
    def test_unique_order_and_answer(self):
        from symchain.corpus import mini_corpus

        text = mini_corpus().translation("logicaldeduction-branch-birds")
        model, diagnostics = parse_csp_block(text)
        assert not diagnostics
        solutions = solve_all(model).solutions
        assert len(solutions) == 1
        assert solutions[0] == {"owl": 1, "robin": 2, "raven": 3, "falcon": 4, "quail": 5}
        assert select_answer(evaluate_queries(model), QuestionMode.MUST_BE_TRUE) == "A"
