import json

import pytest

from symchain.corpus import mini_corpus
from symchain.fixtures import ScriptedCorpusBackend, build_replay_fixtures
from symchain.folparse import parse_translation_block
from symchain.gateway import CompletionCache, ReplayBackend
from symchain.inference import decide_formula
from symchain.logic import Label
from symchain.pipeline import (
    FallbackPolicy, Method, RunConfig, RunRecord,
    extract_label, read_records, run_batch, run_problem, write_records,
)
from symchain import templates
from symchain.templates import Family, Stage, TemplateCatalog, parse_demo_file


@pytest.fixture(scope="module")
def corpus():
    return mini_corpus()


@pytest.fixture()
def config():
    return RunConfig()


class TestExtractLabel:
    @pytest.mark.parametrize("text,expected", [
        ("Thus, the solving process is logically valid. The answer is verified to be false.", Label.FALSE),
        ("The correct option is: B)", Label.B),
        ("no conclusion here", Label.UNDECIDED),
        ("Final answer: {false}", Label.FALSE),
        ("Final answer: {A}", Label.A),
        ("blah {true} blah later {unknown}", Label.UNKNOWN),
        ("the answer A should remain unchanged", Label.A),
        ('The conclusion that "White(Anne, True)" remains unknown is consistent.', Label.UNKNOWN),
        ("we can conclude that (Yellow(ben) ∨ Ugly(ben)) is false by contradiction.", Label.FALSE),
        ("Therefore, the final answer is C.", Label.C),
        ("it is uncertain", Label.UNKNOWN),
    ])
    def test_cases(self, text, expected):
        assert extract_label(text) is expected

    def test_last_match_wins_within_tier(self):
        text = "Final answer: {true}. Wait, revising. Final answer: {false}"
        assert extract_label(text) is Label.FALSE

    def test_label_space_filters(self):
        assert extract_label("Final answer: {D}", [Label.TRUE, Label.FALSE]) is Label.UNDECIDED
        assert extract_label("Final answer: {D}", [Label.C, Label.D]) is Label.D

    def test_braces_beat_phrases(self):
        text = "the answer is true ... Final answer: {false}"
        assert extract_label(text) is Label.FALSE


class TestRunProblem:
    def test_translate_then_solve_car(self, corpus, config):
        problem = corpus.problem("logicaldeduction-antique-cars")
        record = run_problem(problem, Method.TRANSLATE_THEN_SOLVE, config,
                             ScriptedCorpusBackend(corpus))
        assert record.executed
        assert record.final_label is Label.B
        assert [s.stage for s in record.stages] == ["translator", "engine"]

    def test_corrupted_translation_abstains(self, corpus, config):
        problem = corpus.problem("logicaldeduction-antique-cars")
        broken = corpus.translation(problem.id).replace(
            "minivan > convertible", "minivan >>> convertible"
        )
        backend = ScriptedCorpusBackend(corpus, overrides={(problem.id, "translator"): broken})
        record = run_problem(problem, Method.TRANSLATE_THEN_SOLVE, config, backend)
        assert not record.executed
        assert record.final_label is Label.UNDECIDED

    def test_fallback_random_is_seeded(self, corpus, corpus_config=None):
        problem = corpus.problem("logicaldeduction-antique-cars")
        broken = corpus.translation(problem.id).replace("Query:", "Nonsense:")
        labels = set()
        for _ in range(3):
            cfg = RunConfig(fallback=FallbackPolicy.RANDOM, seed=99)
            backend = ScriptedCorpusBackend(corpus, overrides={(problem.id, "translator"): broken})
            record = run_problem(problem, Method.TRANSLATE_THEN_SOLVE, cfg, backend)
            assert not record.executed
            labels.add(record.final_label)
        assert len(labels) == 1
        assert labels.pop() in problem.label_space

    def test_fallback_cot_backup(self, corpus, config):
        problem = corpus.problem("logicaldeduction-antique-cars")
        broken = "Domain:\n1: x\n"
        cfg = RunConfig(fallback=FallbackPolicy.COT_BACKUP)
        backend = ScriptedCorpusBackend(corpus, overrides={(problem.id, "translator"): broken})
        record = run_problem(problem, Method.TRANSLATE_THEN_SOLVE, cfg, backend)
        assert not record.executed
        assert record.final_label is Label.B  # recovered by the extra CoT stage
        assert record.stages[-1].stage == "cot"

    def test_lockers_symbcot_four_stages_label_a(self, corpus, config):
        problem = corpus.problem("arlsat-lockers")
        record = run_problem(problem, Method.SYMBCOT, config, ScriptedCorpusBackend(corpus))
        assert [s.stage for s in record.stages] == ["translator", "planner", "solver", "verifier"]
        assert record.final_label is Label.A
        assert record.executed

    def test_stage_counts_per_method(self, corpus, config):
        problem = corpus.problem("prontoqa-max-sour")
        counts = {Method.NAIVE: 1, Method.COT: 1, Method.SYMBCOT: 4,
                  Method.SYMBCOT_NO_VERIFIER: 3, Method.TRANSLATE_THEN_SOLVE: 2}
        for method, count in counts.items():
            record = run_problem(problem, method, config, ScriptedCorpusBackend(corpus))
            assert len(record.stages) == count, method

    def test_verifier_override(self, corpus, config):
        problem = corpus.problem("prontoqa-max-sour")
        backend = ScriptedCorpusBackend(
            corpus, overrides={(problem.id, "verifier"): "Revised. Final answer: {true}"}
        )
        record = run_problem(problem, Method.SYMBCOT, config, backend)
        solver = [s for s in record.stages if s.stage == "solver"][0]
        assert solver.label is Label.FALSE
        assert record.final_label is Label.TRUE  # verifier wins

    def test_verifier_undecided_keeps_solver(self, corpus, config):
        problem = corpus.problem("prontoqa-max-sour")
        backend = ScriptedCorpusBackend(
            corpus, overrides={(problem.id, "verifier"): "all steps check out, nothing more to say"}
        )
        record = run_problem(problem, Method.SYMBCOT, config, backend)
        assert record.final_label is Label.FALSE  # solver's label retained

    def test_letter_canonicalization_for_fol(self, corpus, config):
        problem = corpus.problem("prontoqa-max-sour")
        record = run_problem(problem, Method.COT, config, ScriptedCorpusBackend(corpus))
        # the CoT fixture answers "B)"; ProntoQA maps B to False
        assert record.final_label is Label.FALSE

    def test_prontoqa_statement_polarity(self, corpus, config):
        # "Alex is not shy" is True because the negative literal is derivable
        problem = corpus.problem("prontoqa-alex-shy")
        record = run_problem(problem, Method.TRANSLATE_THEN_SOLVE, config,
                             ScriptedCorpusBackend(corpus))
        assert record.final_label is Label.TRUE


class TestRunStage:
    def test_translator_parses_fol_premises(self, config):
        # a FOLIO-style response carries its universal formulas through
        from symchain.folparse import parse_formula
        from symchain.gateway import ScriptedBackend
        from symchain.logic import alpha_equal
        from symchain.pipeline import run_stage

        response = """Premises:
∀x (Yellow(x) → Simpsons(x)) ::: If a cartoon character is yellow, it is from the Simpsons.
∀x (Simpsons(x) → Loved(x)) ::: If a character is from the Simpsons, it is loved by children.
Query:
Yellow(ben) ∨ Ugly(ben) ::: Ben is ugly or yellow.
"""
        catalog = TemplateCatalog()
        template = catalog.get(Stage.TRANSLATOR, Family.FOL_FOLIO)
        record = run_stage(template, {
            "context": "If a cartoon character is yellow...", "question": "Ben is ugly or yellow.",
            "options": "",
        }, ScriptedBackend([response]), config)
        assert not record.diagnostics
        block = record.artifact
        want = parse_formula("∀x (Yellow(x) → Simpsons(x))")
        assert any(alpha_equal(formula, want) for formula, _ in block.premises)

    def test_parse_failure_recorded_not_raised(self, config):
        from symchain.gateway import ScriptedBackend
        from symchain.pipeline import run_stage

        catalog = TemplateCatalog()
        template = catalog.get(Stage.TRANSLATOR, Family.FOL_PRONTOQA)
        record = run_stage(template, {"context": "c", "question": "q", "options": ""},
                           ScriptedBackend(["no structure at all"]), config)
        assert record.diagnostics
        assert record.artifact is None

    def test_solver_label_extraction_contract(self, config):
        from symchain.gateway import ScriptedBackend
        from symchain.pipeline import run_stage

        catalog = TemplateCatalog()
        template = catalog.get(Stage.SOLVER, Family.FOL_PRONTOQA)
        record = run_stage(template, {
            "context": "c", "question": "q", "options": "",
            "premises_sym": "s", "plan": "p",
        }, ScriptedBackend(["Final answer: {false}"]), config)
        assert record.label is Label.FALSE


class TestRunBatch:
    def test_order_preserved_with_parallelism(self, corpus):
        problems = list(corpus.problems)[:3]
        records = run_batch(problems, Method.TRANSLATE_THEN_SOLVE, RunConfig(parallelism=2),
                            ScriptedCorpusBackend(corpus))
        assert [r.problem_id for r in records] == [p.id for p in problems]

    def test_one_failure_does_not_abort(self, corpus, config, tmp_path):
        # replay cache missing one problem's fixtures: that record errors, rest succeed
        manifest = build_replay_fixtures(tmp_path, methods=(Method.TRANSLATE_THEN_SOLVE,),
                                         config=config, corpus=corpus)
        cache = CompletionCache(tmp_path)
        victim = corpus.problems[0].id
        for entry in manifest:
            if entry.problem_id == victim:
                cache.remove(entry.cache_key)
        records = run_batch(list(corpus.problems), Method.TRANSLATE_THEN_SOLVE, config,
                            ReplayBackend(tmp_path))
        by_id = {r.problem_id: r for r in records}
        assert by_id[victim].error and "ReplayMiss" in by_id[victim].error
        others = [r for r in records if r.problem_id != victim]
        assert all(r.error is None for r in others)
        assert all(r.executed for r in others)

    def test_cache_determinism(self, corpus, config, tmp_path):
        build_replay_fixtures(tmp_path, methods=(Method.SYMBCOT,), config=config, corpus=corpus)
        backend = ReplayBackend(tmp_path)
        first = run_batch(list(corpus.problems), Method.SYMBCOT, config, backend)
        second = run_batch(list(corpus.problems), Method.SYMBCOT, config, backend)
        a = [r.to_json(include_wall_time=False) for r in first]
        b = [r.to_json(include_wall_time=False) for r in second]
        assert a == b

    def test_progress_hook(self, corpus, config):
        seen = []
        run_batch(list(corpus.problems)[:4], Method.NAIVE, config,
                  ScriptedCorpusBackend(corpus), progress=lambda r: seen.append(r.problem_id))
        assert sorted(seen) == sorted(p.id for p in corpus.problems[:4])


    def test_a_stage_raising_keeps_the_stages_before_it(self, corpus, config):
        class PlannerRaises(ScriptedCorpusBackend):
            def complete(self, request):
                if templates.STAGE_MARKERS[Stage.PLANNER] in request.messages[0][1]:
                    raise ValueError("planner backend broke")
                return super().complete(request)

        problem = corpus.problem("arlsat-lockers")
        (record,) = run_batch([problem], Method.SYMBCOT, config, PlannerRaises(corpus))
        assert [s.stage for s in record.stages] == ["translator"]
        assert record.stages[0].response == corpus.stage_text(problem.id, "translator")
        assert record.error == "ValueError: planner backend broke"
        assert not record.executed and record.final_label is Label.UNDECIDED
        assert record.wall_time > 0

    def test_deeply_nested_translation_keeps_its_stages(self, corpus, config):
        problem = corpus.problem("proofwriter-anne-white")
        rule = "(" * 600 + "P($x, True) ⇒ Q($x, True)" + ")" * 600
        translation = f"Facts:\nP(anne, True)\nRules:\n{rule}\nQuery:\nQ(anne, True)\n"
        backend = ScriptedCorpusBackend(corpus, overrides={(problem.id, "translator"): translation})
        (record,) = run_batch([problem], Method.TRANSLATE_THEN_SOLVE, config, backend)
        assert record.error is None
        assert [s.stage for s in record.stages] == ["translator", "engine"]
        offset = translation.index(rule)
        assert record.stages[0].diagnostics == [f"error at offset {offset}: expression nested too deeply"]
        assert record.final_label is Label.UNDECIDED

    def test_flat_chain_query_keeps_its_stages(self, corpus, config):
        problem = corpus.problem("proofwriter-anne-white")
        query = " ∧ ".join(["P(anne, True)"] * 1500)
        translation = f"Facts:\nP(anne, True)\nQuery:\n{query}\n"
        backend = ScriptedCorpusBackend(corpus, overrides={(problem.id, "translator"): translation})
        (record,) = run_batch([problem], Method.TRANSLATE_THEN_SOLVE, config, backend)
        assert record.error is None
        assert [s.stage for s in record.stages] == ["translator", "engine"]
        assert record.final_label is Label.TRUE

    def test_long_rule_body_keeps_its_stages(self, corpus, config):
        problem = corpus.problem("proofwriter-anne-white")
        body = " ∧ ".join(["Big($x, True)", "Kind($x, True)"] * 750)
        translation = (f"Facts:\nBig(anne, True)\nKind(anne, True)\nRules:\n{body} ⇒ White($x, True)\n"
                       "Query:\nWhite(anne, True)\n")
        backend = ScriptedCorpusBackend(corpus, overrides={(problem.id, "translator"): translation})
        (record,) = run_batch([problem], Method.TRANSLATE_THEN_SOLVE, config, backend)
        assert record.error is None
        assert [s.stage for s in record.stages] == ["translator", "engine"]
        assert record.executed and record.final_label is Label.TRUE
        block = parse_translation_block(translation)
        assert len(block.kb.rules[0].body) == 1500
        assert decide_formula(block.kb, block.statement) is Label.TRUE

    def test_long_csp_chain_keeps_its_stages(self, corpus, config):
        problem = corpus.problem("logicaldeduction-antique-cars")
        chain = " and ".join(["station_wagon != 3"] * 1500)
        translation = corpus.translation(problem.id).replace("Query:", f"{chain}\nQuery:")
        backend = ScriptedCorpusBackend(corpus, overrides={(problem.id, "translator"): translation})
        (record,) = run_batch([problem], Method.TRANSLATE_THEN_SOLVE, config, backend)
        assert record.error is None
        assert [s.stage for s in record.stages] == ["translator", "engine"]
        assert record.executed and record.final_label is Label.B

    def test_packaged_demos_are_parsed_once_per_process(self, corpus, config, monkeypatch):
        parsed = []

        def counting(text):
            parsed.append(text)
            return parse_demo_file(text)

        monkeypatch.setattr(templates, "parse_demo_file", counting)
        templates._packaged_demos.cache_clear()
        try:
            problem = corpus.problem("proofwriter-anne-white")
            for _ in range(2):
                (record,) = run_batch([problem], Method.TRANSLATE_THEN_SOLVE, config,
                                      ScriptedCorpusBackend(corpus))
                assert record.executed
        finally:
            templates._packaged_demos.cache_clear()
        assert len(parsed) == 1

    def test_demo_dir_edits_reach_the_next_batch(self, corpus, tmp_path):
        prompts = []

        class Recording(ScriptedCorpusBackend):
            def complete(self, request):
                prompts.append("\n".join(content for _, content in request.messages))
                return super().complete(request)

        problem = corpus.problem("proofwriter-anne-white")
        demo_file = tmp_path / problem.family.value / "translator.txt"
        demo_file.parent.mkdir()
        config = RunConfig(demo_dir=str(tmp_path))
        for marker in ("first-demo-input", "second-demo-input"):
            demo_file.write_text(f"=== demo\n--- input\n{marker}\n--- output\nFacts:\n", encoding="utf-8")
            run_batch([problem], Method.TRANSLATE_THEN_SOLVE, config, Recording(corpus))
        assert len(prompts) == 2
        assert "first-demo-input" in prompts[0] and "second-demo-input" not in prompts[0]
        assert "second-demo-input" in prompts[1] and "first-demo-input" not in prompts[1]


class TestRecordsIO:
    def test_jsonl_round_trip(self, corpus, config, tmp_path):
        records = run_batch(list(corpus.problems)[:3], Method.TRANSLATE_THEN_SOLVE, config,
                            ScriptedCorpusBackend(corpus))
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        loaded = read_records(path)
        assert [r.problem_id for r in loaded] == [r.problem_id for r in records]
        assert [r.final_label for r in loaded] == [r.final_label for r in records]
        assert all(isinstance(json.loads(line), dict)
                   for line in path.read_text().splitlines())

    def test_response_holding_line_separators_round_trips(self, corpus, config, tmp_path):
        # to_json writes U+2028, U+2029 and U+0085 unescaped; only "\n" ends a record
        problem = corpus.problem("prontoqa-max-sour")
        response = "Max is sour.\u2028So the answer is\u2029{False}.\x85"
        backend = ScriptedCorpusBackend(corpus, overrides={(problem.id, "naive"): response})
        records = run_batch([problem, corpus.problems[1]], Method.NAIVE, config, backend)
        assert records[0].stages[0].response == response
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        loaded = read_records(path)
        assert [r.to_json() for r in loaded] == [r.to_json() for r in records]

    def test_record_dict_shape(self, corpus, config):
        record = run_problem(corpus.problem("prontoqa-max-sour"), Method.SYMBCOT, config,
                             ScriptedCorpusBackend(corpus))
        data = record.to_dict()
        assert set(data) == {"problem_id", "dataset", "method", "stages", "executed",
                             "final_label", "error", "wall_time"}
        assert all({"stage", "prompt", "response", "label",
                    "completion_tokens", "diagnostics"} == set(s) for s in data["stages"])

    def test_old_record_reads_with_defaults(self):
        record = RunRecord.from_dict({
            "problem_id": "p1", "method": "naive", "executed": 1, "final_label": "True",
            "stages": [{"stage": "naive", "tokens": 7}], "retired_field": "ignored",
        })
        assert (record.dataset, record.wall_time, record.error) == ("", 0.0, None)
        assert (record.method, record.executed, record.final_label) == (Method.NAIVE, True, Label.TRUE)
        [stage] = record.stages
        assert (stage.stage, stage.prompt, stage.response) == ("naive", "", "")
        assert (stage.label, stage.completion_tokens, stage.diagnostics) == (Label.UNDECIDED, 0, [])
        assert stage.artifact is None
        stage.artifact = object()
        assert "artifact" not in stage.to_dict()
        assert "artifact" not in json.loads(record.to_json())["stages"][0]


class TestTemplates:
    def test_catalog_covers_all_pairs(self):
        catalog = TemplateCatalog()
        for family in Family:
            for stage in Stage:
                template = catalog.get(stage, family)
                assert template.demos, (family, stage)

    def test_few_shot_cap(self):
        catalog = TemplateCatalog()
        template = catalog.get(Stage.TRANSLATOR, Family.FOL_PRONTOQA)
        bindings = {"context": "ctx", "question": "q", "options": ""}
        zero = template.render(bindings, few_shot=0)
        one = template.render(bindings, few_shot=1)
        two = template.render(bindings, few_shot=2)
        assert zero.count("Example:") == 0
        assert one.count("Example:") == 1
        assert two.count("Example:") == 2

    def test_render_fills_placeholders(self):
        catalog = TemplateCatalog()
        template = catalog.get(Stage.SOLVER, Family.FOL_PROOFWRITER)
        prompt = template.render({
            "context": "CTX", "question": "QQ", "options": "",
            "premises_sym": "SYM", "plan": "PLAN",
        })
        for piece in ("CTX", "QQ", "SYM", "PLAN"):
            assert piece in prompt
        assert "{context}" not in prompt
        # escaped braces render literally for the answer-format instruction
        assert "{true/false/unknown}" in prompt

    def test_render_keeps_substituted_braces_verbatim(self):
        template = TemplateCatalog().get(Stage.SOLVER, Family.FOL_PROOFWRITER)
        context = "Sets like {{a}} and }} stay"
        prompt = template.render({
            "context": context, "question": "{{QQ}}", "options": "",
            "premises_sym": "{SYM}}", "plan": "{{{plan}}}",
        })
        for piece in (context, "{{QQ}}", "{SYM}}", "{{{plan}}}", "{true/false/unknown}"):
            assert piece in prompt
