import dataclasses
import itertools
import random

import pytest

from symchain.csp import (
    AbsDiffNotEqual, AllDifferent, CAnd, CImplies, CNot, COr, Compare,
    CspError, CspModel, NoSolutionsError, OptionStatus, QuestionMode,
    SearchSpaceTooLargeError, Undecided, compile_expr, detect_question_mode,
    evaluate_queries, expr_variables, parse_constraint, parse_csp_block,
    print_expr, select_answer, solve_all,
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

    def test_arrows_group_to_the_right(self):
        expr = parse_constraint("a == 1 -> b == 1 -> c == 1")
        assert print_expr(expr) == "(a == 1) -> ((b == 1) -> (c == 1))"
        # grouped to the left, the false antecedent a == 1 would not decide it
        assert compile_expr(expr)({"a": 0, "b": 0, "c": 0}) is True

    def test_single_colon_gloss_reads_as_the_triple_colon_form(self):
        text = CAR_BLOCK.replace(" ::: ", " : ")
        model, diagnostics = parse_csp_block(text)
        assert diagnostics == [] and model is not None
        assert (model, diagnostics) == parse_csp_block(CAR_BLOCK)

    def test_line_malformed_before_its_colon_gloss_keeps_its_diagnostic(self):
        text = CAR_BLOCK.replace("minivan > convertible :::", "minivan >> convertible :").replace(
            "A) station_wagon == 2 :::", "A) station_wagon == : 2")
        _, diagnostics = parse_csp_block(text)
        assert diagnostics == [
            ParseDiagnostic(text.index(">> convertible") + 1, "expected a variable or integer, found '>'"),
            ParseDiagnostic(text.index(": 2"), "unexpected end of constraint"),
        ]

    def test_missing_query_section(self):
        text = CAR_BLOCK.split("Query:")[0]
        model, diagnostics = parse_csp_block(text)
        assert model is None
        assert any("Query" in d.message for d in diagnostics)

    def test_empty_query_section_is_missing(self):
        text = "Variables:\na ∈ {1, 2}\nQuery:\n"
        assert parse_csp_block(text) == (None, [ParseDiagnostic(len(text), "missing Query section")])

    def test_undeclared_variable(self):
        text = CAR_BLOCK.replace("station_wagon == 1", "steamroller == 1")
        model, diagnostics = parse_csp_block(text)
        assert model is None
        assert any("undeclared" in d.message for d in diagnostics)

    @pytest.mark.parametrize("text,line,message", [
        ("Variables:\na in {1, 2}\nConstraints:\nb == 1\nQuery:\nA) a == 1\n", "b == 1",
         "constraint references undeclared variables: ['b']"),
        ("Variables:\na in {1, 2}\nConstraints:\nb == 1 -> a == 2\nb == 1\nQuery:\nA) a == 1\n",
         "b == 1 -> a == 2", "constraint references undeclared variables: ['b']"),
        ("Variables:\na in {1, 2}\nConstraints:\nQuery:\nA) a == 1\nB) c == 2 ::: gloss\n", "B) c == 2",
         "query references undeclared variables: ['c']"),
        ("Variables:\na in {1, 2}\nb in {1}\na in {2}\nb in {2}\nConstraints:\nQuery:\nA) a == 1\n", "a in {2}",
         "variable names must be unique"),
    ], ids=["constraint", "first-of-two-constraints", "query", "repeated-name"])
    def test_model_fault_at_its_line(self, text, line, message):
        assert parse_csp_block(text) == (None, [ParseDiagnostic(text.index(line), message)])

    def test_bad_constraint_line_diagnosed(self):
        text = CAR_BLOCK.replace("minivan > convertible", "minivan >> convertible")
        model, diagnostics = parse_csp_block(text)
        assert diagnostics
        assert all(0 <= d.position <= len(text) for d in diagnostics)

    @pytest.mark.parametrize("text", ["nothing structured here", "", "A) a == 1\n"],
                             ids=["prose", "empty", "query-line"])
    def test_no_sections_is_one_diagnostic(self, text):
        assert parse_csp_block(text) == (None, [ParseDiagnostic(0, "no sections found")])

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

    def test_canonical_form_without_domain_lines_parses_back(self):
        model, diagnostics = parse_csp_block("Variables:\na ∈ {1, 2}\nConstraints:\na != 2\nQuery:\nA) a == 1\n")
        assert not diagnostics and model.domain_gloss == ()
        again, diagnostics = parse_csp_block(model.to_text())
        assert not diagnostics
        assert (again.domain_size, again.variables, again.constraints, again.queries) == \
            (model.domain_size, model.variables, model.constraints, model.queries)
        assert again.to_text() == model.to_text()

    @pytest.mark.parametrize("text,diagnostics", [
        ("- Domain:\n- 1: low ::: the low end\n- 2: high\n- Variables:\n- v ∈ {1, 2}\n"
         "- Constraints:\n- v == 1 ::: v is low\n- Query:\n- A) v == 1\n", []),
        ("1. Domain:\n1. 1: low\n2. 2: high\n2) Variables:\n1) v ∈ {1, 2}\n3. Constraints:\n"
         "1. v == 1\n4. Query:\n1. A) v == 1 ::: v is low\n", []),
        ("stray\n  more ::: note\nDomain:\n1: low\nVariables:\nv ∈ {1, 2}\nConstraints:\n"
         "v == 1\nQuery:\nA) v == 1\n",
         [ParseDiagnostic(0, "line outside any section: 'stray'"),
          ParseDiagnostic(8, "line outside any section: 'more'")]),
        ("Domain:\n1: low\nVariables:\nv ∈ {1, 2}\nConstraints:\nv >> 1\nQuery:\nA) v == 1\n",
         [ParseDiagnostic(53, "expected a variable or integer, found '>'")]),
        # the offset counts from the bulleted line's body: "(v == 1" spans 54-61
        ("Domain:\n1: low\nVariables:\nv ∈ {1, 2}\nConstraints:\n  * (v == 1 ::: broken\n"
         "Query:\nA) v == 1\n", [ParseDiagnostic(61, "unbalanced parenthesis")]),
        ("Domain:\nVariables:\nConstraints:\n", [ParseDiagnostic(32, "missing Query section")]),
        ("- Domain:\n- Query:\n", [ParseDiagnostic(19, "no variables declared")]),
        ("Domain:\nlow end: 1 to 2\nVariable:\nv ∈ {1, 2}\nConstraint:\nv == 1\nQueries for options:\n"
         "A) v == 1\n", []),
        ("Domain:\n1: low\nVariables:\nv ∈ {1, 2}\nConstraints:\nv == 1\nOptions:\nA) v == 1\n", []),
        ("Domain:\n1: low\nVariables:\nv ∈ {1, 2}\nConstraints:\nv == 1\nOption:\nA) v == 1\n", []),
        # offsets count from the start of the block, past the option letter: the first "?" is at 80
        ("Domain:\n1: low\nVariables:\nv ∈ {1, 2}\nConstraints:\nv == 1\nQuery:\nA) v == 1\nB)  v ?? 1\n",
         [ParseDiagnostic(80, "unknown symbol '?' in constraint")]),
        ("Domain:\n1: low\nVariables:\nv ∈ {1, 2}\nConstraints:\nv == 1\nQuery:\nA) v == 1\n  - C. (v == 1\n",
         [ParseDiagnostic(88, "unbalanced parenthesis")]),
    ], ids=["bullets", "numbers", "outside-lines", "bad-constraint", "bulleted-bad-constraint", "no-query", "no-variables",
            "header-aliases", "options-header", "option-header", "bad-query", "bulleted-bad-query"])
    def test_section_reader_layouts(self, text, diagnostics):
        model, got = parse_csp_block(text)
        assert got == diagnostics
        if model is not None:
            assert model.variables == [("v", (1, 2))]
            assert model.queries == [("A", Compare("v", "==", 1))]

    def test_option_queried_twice(self):
        text = "Variables:\na ∈ {1, 2}\nConstraints:\na == 1\nQuery:\nA) a == 1\nA) a == 2\nB) a == 2\n"
        model, diagnostics = parse_csp_block(text)
        assert diagnostics == [ParseDiagnostic(text.index("A) a == 2"), "option A is queried twice")]
        assert model is None  # the model refuses it, as it refuses a repeated variable name

    def test_only_the_first_repeated_option_is_reported_after_the_line_diagnostics(self):
        text = "Variables:\na ∈ {1, 2}\nConstraints:\nQuery:\nA) a == 1\nB) a == 1\nA) a == 2\nB) a == 2\nC a\n"
        assert parse_csp_block(text) == (None, [
            ParseDiagnostic(text.index("C a"), "query line must start with an option letter: 'C a'"),
            ParseDiagnostic(text.index("A) a == 2"), "option A is queried twice"),
        ])

    def test_model_refuses_an_option_queried_twice(self):
        repeat = Compare("a", "==", 2)
        with pytest.raises(CspError, match="^option A is queried twice$") as info:
            CspModel(domain_size=2, variables=[("a", (1, 2))], constraints=[Compare("a", "==", 1)],
                     queries=[("A", Compare("a", "==", 1)), ("A", repeat), ("B", Compare("a", "==", 2))])
        assert info.value.subject is repeat

    @pytest.mark.parametrize("line,diagnostic", [
        ("a = 1,2", ParseDiagnostic(11, "cannot read variable declaration: 'a = 1,2'")),
        ("a ∈ {1, x}", ParseDiagnostic(11, "non-integer domain value in: 'a ∈ {1, x}'")),
        # values start at 1
        ("a ∈ {0, 1}", ParseDiagnostic(11, "domain value below 1 in: 'a ∈ {0, 1}'")),
        ("a ∈ {0}", ParseDiagnostic(11, "domain value below 1 in: 'a ∈ {0}'")),
        ("a ∈ {-2, 3}", ParseDiagnostic(11, "domain value below 1 in: 'a ∈ {-2, 3}'")),
    ], ids=["variable-declaration", "domain-value", "value-below-one", "only-value-below-one", "negative-value"])
    def test_unreadable_variable_line(self, line, diagnostic):
        text = f"Variables:\n{line}\nv ∈ {{1, 2}}\nConstraints:\nQuery:\nA) v == 1\n"
        model, diagnostics = parse_csp_block(text)
        assert diagnostics == [diagnostic]
        assert model.variables == [("v", (1, 2))]

    def test_query_line_without_an_option_letter(self):
        model, diagnostics = parse_csp_block("Variables:\nv ∈ {1, 2}\nConstraints:\nQuery:\nA) v == 1\nv == 2\n")
        assert diagnostics == [ParseDiagnostic(52, "query line must start with an option letter: 'v == 2'")]
        assert model.queries == [("A", Compare("v", "==", 1))]

    def test_a_variable_with_an_empty_domain_is_kept(self):
        text = "Variables:\na in {1, 2, 3}\nb in {}\nConstraints:\na == 1\nQuery:\nA) a == 1\nB) a == 2\n"
        model, diagnostics = parse_csp_block(text)
        assert diagnostics == []
        assert model == CspModel(domain_size=3, variables=[("a", (1, 2, 3)), ("b", ())],
                                 constraints=[Compare("a", "==", 1)],
                                 queries=[("A", Compare("a", "==", 1)), ("B", Compare("a", "==", 2))])
        assert "b ∈ {}" in model.to_text().splitlines()
        assert parse_csp_block(model.to_text()) == (dataclasses.replace(model, domain_gloss=("1 to 3",)), [])
        with pytest.raises(NoSolutionsError):
            evaluate_queries(model)

    def test_a_block_whose_every_domain_is_empty_reads_as_a_model(self):
        # with no value and no Domain line to size it, the domain is 1 to 1
        model, diagnostics = parse_csp_block("Variables:\nb in {}\nConstraints:\nQuery:\nA) b == 1\n")
        assert diagnostics == []
        assert model == CspModel(domain_size=1, variables=[("b", ())], queries=[("A", Compare("b", "==", 1))])
        assert parse_csp_block(model.to_text()) == (dataclasses.replace(model, domain_gloss=("1 to 1",)), [])
        with pytest.raises(NoSolutionsError):
            evaluate_queries(model)

    def test_a_repeated_domain_value_is_read_once(self):
        model, diagnostics = parse_csp_block("Variables:\na in {2, 1, 2}\nConstraints:\nQuery:\nA) a == 2\n")
        assert diagnostics == []
        assert model.variables == [("a", (1, 2))]
        assert solve_all(model).solutions == ({"a": 1}, {"a": 2})
        assert evaluate_queries(model).solution_count == 2

    @pytest.mark.parametrize("domain,size,gloss,diagnostics", [
        ("1: low\n3: high\n", 3, ("1: low", "3: high"), []),
        ("positions: 1 to 5\n", 5, ("positions: 1 to 5",), []),
        ("slots: 1..4\nslots: 1 – 3\nslots: 2-3\n", 4, ("slots: 1..4", "slots: 1 – 3", "slots: 2-3"), []),
        # an endpoint line, though its gloss reads as a range: the variables set the size
        ("1: 1 to 5\n", 2, ("1: 1 to 5",), []),
        ("", 2, (), []),
        ("low to high\n", 2, (), [ParseDiagnostic(8, "cannot read domain line: 'low to high'")]),
        ("1 to 5\n", 5, ("1 to 5",), []),
        ("1..3\n2 - 4\n", 4, ("1..3", "2 - 4"), []),
    ], ids=["endpoints", "range-to", "ranges-dots-dashes", "endpoint-before-range", "no-domain-lines", "unreadable",
            "bare-range", "bare-ranges-dots-dash"])
    def test_domain_line_forms(self, domain, size, gloss, diagnostics):
        model, got = parse_csp_block(f"Domain:\n{domain}Variables:\nv ∈ {{1, 2}}\nConstraints:\nQuery:\nA) v == 1\n")
        assert got == diagnostics
        assert (model.domain_size, model.domain_gloss) == (size, gloss)

    @pytest.mark.parametrize("domain,values", [("", "0"), ("0: none\n", "-1, 0")], ids=["zero", "negative"])
    def test_non_positive_domain_is_a_diagnostic(self, domain, values):
        """The declaration is refused at its line, which leaves no variable."""
        text = f"Domain:\n{domain}Variables:\nv ∈ {{{values}}}\nConstraints:\nQuery:\nA) v == 0\n"
        assert parse_csp_block(text) == (None, [
            ParseDiagnostic(text.index("v ∈"), f"domain value below 1 in: 'v ∈ {{{values}}}'"),
            ParseDiagnostic(len(text), "no variables declared"),
        ])


# (constraint, (message, offset)); pinned across tokenizer rewrites
CONSTRAINT_DIAGNOSTICS = [
    ("a ! b", ("unknown symbol '!' in constraint", 2)),
    ("a @ b", ("unknown symbol '@' in constraint", 2)),
    ("3 = a ä", ("unknown symbol 'ä' in constraint", 6)),
    ("", ("unexpected end of constraint", 0)),
    ("a == ", ("unexpected end of constraint", 5)),
    ("a ≠", ("unexpected end of constraint", 3)),
    ("not", ("unexpected end of constraint", 3)),
    ("a < b -> ", ("unexpected end of constraint", 9)),
    ("a = b and", ("unexpected end of constraint", 9)),
    ("a", ("expected a comparison operator", 1)),
    ("a − b", ("expected a comparison operator", 2)),
    ("a - b", ("expected a comparison operator", 2)),
    ("a <> b", ("expected a variable or integer, found '>'", 3)),
    ("(a < b", ("unbalanced parenthesis", 6)),
    ("a < b c", ("unexpected trailing input 'c'", 6)),
    ("a < b)", ("unexpected trailing input ')'", 5)),
    ("|a - b| < 1", ("absolute-difference constraints support only '!='", 8)),
    ("|a − b| ≤ 1", ("absolute-difference constraints support only '!='", 8)),
    ("|a b| != 1", ("expected '-', found 'b'", 3)),
    ("|a - b| != x", ("expected an integer, found 'x'", 11)),
    ("AllDifferent([a, b)", ("expected ']', found ')'", 18)),
    ("AllDifferent(a b)", ("expected ')', found 'b'", 15)),
    ("(a < b c", ("unbalanced parenthesis", 7)),
    ("not (a == 1", ("unbalanced parenthesis", 11)),
    ("not )", ("expected a variable or integer, found ')'", 4)),
]


@pytest.mark.parametrize("text,diagnostic", CONSTRAINT_DIAGNOSTICS)
def test_constraint_diagnostic_table(text, diagnostic):
    with pytest.raises(ParseError) as exc:
        parse_constraint(text)
    assert (exc.value.message, exc.value.position) == diagnostic


def test_deeply_nested_constraint_is_a_diagnostic():
    constraint = "(" * 600 + "v == 1" + ")" * 600
    text = f"Domain:\n1: low\n2: high\nVariables:\nv ∈ {{1, 2}}\nConstraints:\n{constraint}\nQuery:\nA) v == 1\n"
    model, diagnostics = parse_csp_block(text)
    assert diagnostics == []
    assert model.constraints == [Compare("v", "==", 1)] and model.queries == [("A", Compare("v", "==", 1))]


@pytest.mark.parametrize("text,expr", [
    ("a ≤ b", Compare("a", "<=", "b")),
    ("a ≠ b", Compare("a", "!=", "b")),
    ("a ≥ ١٢", Compare("a", ">=", 12)),
    ("|a − b| ≠ 1", AbsDiffNotEqual("a", "b", 1)),
    ("AllDifferent([a, b])", AllDifferent(("a", "b"))),
])
def test_constraint_symbol_aliases(text, expr):
    assert parse_constraint(text) == expr


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

    @pytest.mark.parametrize("constraints", [
        [AllDifferent(("c", "a")), Compare("b", "<", "d")],
        [AllDifferent(("a", "b", "a"))],
        [CNot(AllDifferent(("a", "b", "c")))],
        [COr(AllDifferent(("a", "b", "c", "d")), Compare("a", "==", "b")), AllDifferent(("d", "b"))],
        [AllDifferent(("a", "b", "c")), AllDifferent(("c", "d")), CNot(Compare("d", "==", 1))],
    ], ids=["partial", "repeated-name", "negated", "under-or", "overlapping"])
    def test_alldifferent_pruning_matches_unpruned_reference(self, constraints):
        # unsorted and uneven domains: the order is declaration then domain order
        model = CspModel(domain_size=3, variables=[
            ("a", (1, 2, 3)), ("b", (3, 1, 2)), ("c", (2, 3)), ("d", (1, 2, 3))],
            constraints=constraints, queries=[])
        assert list(solve_all(model).solutions) == helpers.oracle_solutions(model)

    def test_alldifferent_pruning_matches_reference_on_random_models(self):
        rng = random.Random(43)
        for _ in range(60):
            model = helpers.random_csp_model(rng)
            names = [n for n, _ in model.variables]
            extra = AllDifferent(tuple(rng.choice(names) for _ in range(rng.randint(2, len(names)))))
            model.constraints.insert(rng.randint(0, len(model.constraints)), extra)
            assert list(solve_all(model).solutions) == helpers.oracle_solutions(model)

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

    # whether an option fits each mode, from the truth of its query in every solution
    ORACLE_FITS = {
        QuestionMode.MUST_BE_TRUE: all,
        QuestionMode.COULD_BE_TRUE: any,
        QuestionMode.CANNOT_BE_TRUE: lambda holds: not any(holds),
        QuestionMode.COULD_BE_FALSE: lambda holds: not all(holds),
    }

    def test_every_mode_matches_the_oracle(self):
        rng = random.Random(43)
        checked = set()
        for _ in range(60):
            model = helpers.random_csp_model(rng)
            solutions = helpers.oracle_solutions(model)
            if not solutions:
                continue
            verdict = evaluate_queries(model)
            for mode, fits in self.ORACLE_FITS.items():
                fitting = [letter for letter, expr in model.queries
                           if fits([helpers.oracle_eval(expr, s) for s in solutions])]
                expected = fitting[0] if len(fitting) == 1 else Undecided(frozenset(fitting))
                assert select_answer(verdict, mode) == expected, (mode, model)
                checked.add((mode, isinstance(expected, str)))
        assert len(checked) == 8  # each mode gave both a unique option and Undecided


class TestQuestionMode:
    @pytest.mark.parametrize("question,mode", [
        ("which one of the following must be true?", QuestionMode.MUST_BE_TRUE),
        ("Which one of the following CANNOT be true?", QuestionMode.CANNOT_BE_TRUE),
        ("which one could be true?", QuestionMode.COULD_BE_TRUE),
        ("Which of the following is true?", QuestionMode.MUST_BE_TRUE),
        ("If every student except Kim attends, which must be true?", QuestionMode.MUST_BE_TRUE),
    ])
    def test_detection(self, question, mode):
        assert detect_question_mode(question) is mode

    # x is 1 and y is free: A and E must be true, B and C may be, D cannot be
    EXCEPT_QUERIES = [
        ("A", Compare("x", "==", 1)), ("B", Compare("y", "==", 1)),
        ("C", Compare("y", "==", 2)), ("D", Compare("x", "==", 2)),
        ("E", Compare("x", "!=", 2)),
    ]

    @pytest.mark.parametrize("question,letters,answer", [
        ("Each of the following could be true EXCEPT:", "ABCD", "D"),
        ("Each of the following must be true EXCEPT:", "ABE", "B"),
        ("If x is 1, which one of the following could be false?", "ABE", "B"),
    ])
    def test_except_and_could_be_false_forms(self, question, letters, answer):
        verdict = evaluate_queries(CspModel(
            domain_size=2,
            variables=[("x", (1, 2)), ("y", (1, 2))],
            constraints=[Compare("x", "==", 1)],
            queries=[q for q in self.EXCEPT_QUERIES if q[0] in letters],
        ))
        assert select_answer(verdict, detect_question_mode(question)) == answer


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


def _nested_print(expr) -> str:
    """``print_expr`` by plain recursion: every ``and``/``or`` parenthesised."""
    if isinstance(expr, (CAnd, COr)):
        word = "and" if isinstance(expr, CAnd) else "or"
        return f"({_nested_print(expr.left)} {word} {_nested_print(expr.right)})"
    if isinstance(expr, CNot):
        return f"not ({_nested_print(expr.body)})"
    if isinstance(expr, CImplies):
        return f"({_nested_print(expr.cond)}) -> ({_nested_print(expr.then)})"
    return print_expr(expr)


def _leaves(expr) -> list:
    if isinstance(expr, (CAnd, COr)):
        return _leaves(expr.left) + _leaves(expr.right)
    if isinstance(expr, CNot):
        return _leaves(expr.body)
    return [expr]


class TestLongChains:
    """A flat ``and``/``or`` chain of thousands of terms parses, evaluates
    and prints within the recursion limit."""

    CHAIN = 1500

    def block(self, constraint: str) -> str:
        return ("Domain:\n1: low\n3: high\nVariables:\na ∈ {1, 2, 3}\nb ∈ {1, 2, 3}\n"
                f"Constraints:\n{constraint}\nQuery:\nA) a == 1\nB) b == 3\n")

    def test_long_and_chain_parses_and_solves(self):
        model, diagnostics = parse_csp_block(self.block(" and ".join(["a != 3"] * self.CHAIN)))
        assert diagnostics == []
        (constraint,) = model.constraints
        assert expr_variables(constraint) == {"a"}
        assert [s["a"] for s in solve_all(model).solutions] == [1, 1, 1, 2, 2, 2]
        assert evaluate_queries(model).statuses == {
            "A": OptionStatus.MAY_BE_TRUE, "B": OptionStatus.MAY_BE_TRUE}

    def test_long_or_chain_parses_and_solves(self):
        terms = ["a == 3"] * self.CHAIN + ["b == 1"]
        model, diagnostics = parse_csp_block(self.block(" or ".join(terms)))
        assert diagnostics == []
        assert expr_variables(model.constraints[0]) == {"a", "b"}
        assert len(solve_all(model).solutions) == 5

    def test_evaluation_short_circuits_left_first(self):
        falsy = parse_constraint(" and ".join(["a != 3"] * self.CHAIN + ["a == 3", "missing == 1"]))
        assert compile_expr(falsy)({"a": 1}) is False
        with pytest.raises(KeyError):
            compile_expr(parse_constraint(" and ".join(["missing == 1"] + ["a != 3"] * self.CHAIN)))(
                {"a": 1})
        truthy = parse_constraint(" or ".join(["a == 3"] * self.CHAIN + ["a == 1", "missing == 1"]))
        assert compile_expr(truthy)({"a": 1}) is True
        with pytest.raises(KeyError):
            compile_expr(truthy)({"a": 2})

    def test_long_chain_prints_fully_parenthesised(self):
        expr = parse_constraint(" and ".join(["a != 3"] * self.CHAIN))
        assert print_expr(expr) == "(" * (self.CHAIN - 1) + "a != 3" + " and a != 3)" * (self.CHAIN - 1)

    @pytest.mark.parametrize("text,printed", [
        ("a == 1 and b == 2", "(a == 1 and b == 2)"),
        ("a == 1 and b == 2 or c == 3 and d == 4 or e == 5",
         "(((a == 1 and b == 2) or (c == 3 and d == 4)) or e == 5)"),
        ("a == 1 and (b == 2 or c == 3) and not d == 4",
         "((a == 1 and (b == 2 or c == 3)) and not (d == 4))"),
        ("a == 1 -> b == 2 and c == 3 or d == 4",
         "(a == 1) -> (((b == 2 and c == 3) or d == 4))"),
    ])
    def test_mixed_chains_print(self, text, printed):
        assert print_expr(parse_constraint(text)) == printed

    def test_random_chains_match_recursive_oracles(self):
        rng = random.Random(45)
        names = ["a", "b", "c"]

        def expr(depth):
            if depth == 0 or rng.random() < 0.3:
                return Compare(rng.choice(names), rng.choice(["==", "!=", "<"]), rng.randint(1, 3))
            if rng.random() < 0.2:
                return CNot(expr(depth - 1))
            node = rng.choice([CAnd, COr])
            out = expr(depth - 1)
            for _ in range(rng.randint(1, 5)):
                out = node(out, expr(depth - 1)) if rng.random() < 0.8 else node(expr(depth - 1), out)
            return out

        for _ in range(300):
            e = expr(3)
            assert print_expr(e) == _nested_print(e)
            assert expr_variables(e) == {leaf.lhs for leaf in _leaves(e)}
            for values in itertools.product((1, 2, 3), repeat=3):
                assignment = dict(zip(names, values))
                assert compile_expr(e)(assignment) is helpers.oracle_eval(e, assignment)


# ---------------------------------------------------------------------------
# Compiled constraints against the oracle

def outcome(evaluate, assignment):
    """The value (with its type) or the key of the ``KeyError`` raised."""
    try:
        value = evaluate(assignment)
    except KeyError as err:
        return "KeyError", err.args
    return type(value), value


def assert_compiled_matches_reference(e):
    """The compiled check gives the oracle's value, or raises its ``KeyError``,
    under every partial assignment."""
    check = compile_expr(e)
    for assignment in helpers.partial_assignments():
        want = outcome(lambda a: helpers.oracle_eval(e, a), assignment)
        assert outcome(check, assignment) == want, (print_expr(e), assignment)


class TestCompiledConstraints:
    def test_random_constraints_match_eval_expr_and_the_oracle(self):
        rng = random.Random(46)
        for _ in range(400):
            assert_compiled_matches_reference(helpers.random_constraint(rng, 4))

    @pytest.mark.parametrize("levels", [63, 64, 65, 192, 400])
    def test_chains_around_the_compile_depth_match_eval_expr(self, levels):
        rng = random.Random(47 + levels)
        for _ in range(20):
            assert_compiled_matches_reference(helpers.random_chain(rng, levels))

    def test_solver_matches_the_oracle_on_random_models(self):
        for seed in range(80):
            rng = random.Random(seed)
            model = helpers.random_csp_model(rng)
            names = tuple(n for n, _ in model.variables)
            model.queries += [(letter, helpers.random_constraint(rng, 3, names)) for letter in "CDE"]
            want = helpers.oracle_solutions(model)
            assert list(solve_all(model).solutions) == want
            if not want:
                with pytest.raises(NoSolutionsError):
                    evaluate_queries(model)
                continue
            verdict = evaluate_queries(model)
            assert verdict.solution_count == len(want)
            for letter, expr in model.queries:
                holds = [helpers.oracle_eval(expr, s) for s in want]
                assert verdict.statuses[letter] is (
                    OptionStatus.MUST_BE_TRUE if all(holds) else
                    OptionStatus.MAY_BE_TRUE if any(holds) else OptionStatus.CANNOT_BE_TRUE)


def _verdict(model: CspModel):
    try:
        return evaluate_queries(model).statuses
    except CspError as err:
        return type(err).__name__


class TestPrintedConstraintsParseBack:
    @pytest.mark.parametrize("text,printed", [
        ("b == 1 and (a == 2 -> b == 2)", "(b == 1 and ((a == 2) -> (b == 2)))"),
        ("(a == 1 -> b == 1) or c == 1", "(((a == 1) -> (b == 1)) or c == 1)"),
        ("(a == 1 -> b == 1) and (b == 1 -> c == 1)",
         "(((a == 1) -> (b == 1)) and ((b == 1) -> (c == 1)))"),
        ("not (a == 1 -> b == 1) or c == 1", "(not ((a == 1) -> (b == 1)) or c == 1)"),
        ("a == 1 and b == 1 -> c == 1", "((a == 1 and b == 1)) -> (c == 1)"),
    ], ids=["and-right", "or-left", "both", "under-not", "top-level"])
    def test_implication_operand_keeps_its_brackets(self, text, printed):
        expr = parse_constraint(text)
        assert print_expr(expr) == printed
        assert parse_constraint(printed) == expr

    def test_printed_model_keeps_its_verdict(self):
        # b == 1 and (a == 2 -> b == 2) forces b = 1, so a != 2
        model = CspModel(2, variables=[("a", (1, 2)), ("b", (1, 2))],
                         constraints=[parse_constraint("b == 1 and (a == 2 -> b == 2)")],
                         queries=[("A", parse_constraint("a == 1")), ("B", parse_constraint("a == 2"))])
        back, diagnostics = parse_csp_block(model.to_text())
        assert diagnostics == []
        assert back.constraints == model.constraints
        assert _verdict(back) == _verdict(model) == {
            "A": OptionStatus.MUST_BE_TRUE, "B": OptionStatus.CANNOT_BE_TRUE}

    def test_random_models_survive_the_round_trip(self):
        # field by field, printing is a fixed point, and the verdict or the error type is kept
        rng = random.Random(2000)
        failed = []
        for index in range(2000):
            model = helpers.random_csp_model(rng)
            text = model.to_text()
            back, diagnostics = parse_csp_block(text)
            # a model without domain lines prints its size, which reads back as its one domain line
            read_back = dataclasses.replace(model, domain_gloss=(f"1 to {model.domain_size}",))
            if diagnostics or back != read_back or back.to_text() != text:
                failed.append(index)
            elif _verdict(back) != _verdict(model):
                failed.append(index)
        assert failed == []


class TestModelValues:
    @pytest.mark.parametrize("domain_size,values", [
        (1, (0, 1)), (1, (1, 2)), (3, (-1,)), (2, (1, 2, 3)),
    ], ids=["zero", "above", "negative", "above-after-in-range"])
    def test_value_outside_the_domain_is_rejected(self, domain_size, values):
        with pytest.raises(CspError, match=f"outside 1..{domain_size}") as caught:
            CspModel(domain_size=domain_size, variables=[("b", (1,)), ("a", values)],
                     constraints=[], queries=[("A", Compare("a", "==", 1))])
        assert caught.value.subject == "a"

    def test_values_within_the_domain_are_accepted(self):
        model = CspModel(domain_size=3, variables=[("a", (3, 1)), ("b", (2,))], queries=[])
        assert len(solve_all(model).solutions) == 2

    def test_parser_sizes_the_domain_to_the_largest_value(self):
        model, diagnostics = parse_csp_block(
            "Domain:\n1 to 2\nVariables:\na ∈ {1, 3}\nConstraints:\nQuery:\nA) a == 3\n")
        assert diagnostics == []
        assert (model.domain_size, model.variables) == (3, [("a", (1, 3))])
