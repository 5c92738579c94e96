import json
import time
import warnings

import pytest
from click.testing import CliRunner

from symchain.cli import main
from symchain.corpus import dump_problems, mini_corpus
from symchain.fixtures import ScriptedCorpusBackend, build_replay_fixtures
from symchain.gateway import CompletionCache, CompletionRequest, CompletionResponse
from symchain.logic import Label
from symchain.pipeline import (
    NOT_EXECUTABLE, FallbackPolicy, Method, RunConfig, RunRecord, parse_translation, run_batch, run_problem, write_records,
)
from test_golden import _mutated_blocks


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def corpus():
    return mini_corpus()


SIMPSONS_BLOCK = """Premises:
∀x (Yellow(x) → Simpsons(x)) ::: If a cartoon character is yellow, it is from the Simpsons.
∀x (Simpsons(x) → Loved(x)) ::: If a character is from the Simpsons, it is loved by children.
Query:
Yellow(ben) ∨ Ugly(ben) ::: Ben is ugly or yellow.
"""


class TestParse:
    def test_clean_block_exit_zero(self, runner, tmp_path):
        path = tmp_path / "block.txt"
        path.write_text(SIMPSONS_BLOCK, encoding="utf-8")
        result = runner.invoke(main, ["parse", str(path), "--format", "fol"])
        assert result.exit_code == 0, result.output
        assert "∀x (Yellow(x) → Simpsons(x))" in result.output

    def test_malformed_exit_one_with_position(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Query:\nP(a ∧\n", encoding="utf-8")
        result = runner.invoke(main, ["parse", str(path), "--format", "fol"])
        assert result.exit_code == 1
        assert "offset" in result.output or "offset" in (result.stderr or "")

    @pytest.mark.parametrize("command", ["parse", "solve"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_source_that_cannot_be_read_is_a_usage_error(self, runner, tmp_path, command, kind):
        source = tmp_path / "missing.txt"
        if kind == "directory":
            source.mkdir()
        result = runner.invoke(main, [command, str(source)])
        assert result.exit_code == 2, result.output
        assert "'[SOURCE]'" in result.stderr and str(source) in result.stderr

    def test_unknown_flag_exit_two(self, runner):
        result = runner.invoke(main, ["parse", "--no-such-flag"])
        assert result.exit_code == 2

    def test_csp_block(self, runner, tmp_path, corpus):
        path = tmp_path / "car.txt"
        path.write_text(corpus.translation("logicaldeduction-antique-cars"), encoding="utf-8")
        result = runner.invoke(main, ["parse", str(path), "--format", "csp"])
        assert result.exit_code == 0, result.output
        assert "station_wagon == 1" in result.output

    @pytest.mark.parametrize("command", ["parse", "solve"])
    def test_csp_canonical_form_reads_back(self, runner, command):
        first = runner.invoke(main, ["parse", "-", "--format", "csp"],
                              input="Variables:\na ∈ {1, 2}\nConstraints:\na != 2\nQuery:\nA) a == 1\n")
        assert first.exit_code == 0, first.output
        flag = "--format" if command == "parse" else "--engine"
        again = runner.invoke(main, [command, "-", flag, "csp"], input=first.output)
        assert again.exit_code == 0, again.output
        assert again.output == (first.output if command == "parse" else "A (MustBeTrue)\n")

    @pytest.mark.parametrize("values", ["0, 1", "0"])
    def test_csp_value_below_one_is_an_error_at_its_line(self, runner, values):
        result = runner.invoke(main, ["parse", "-", "--format", "csp"],
                               input=f"Variables:\na in {{{values}}}\nConstraints:\nQuery:\nA) a == 0")
        assert result.exit_code == 1
        assert result.output.startswith(f"error at offset 11: domain value below 1 in: 'a in {{{values}}}'\n")

    def test_bare_formula_lines(self, runner):
        result = runner.invoke(main, ["parse", "-", "--format", "fol"],
                               input="forall x (P(x) -> Q(x))\n")
        assert result.exit_code == 0
        assert "∀x (P(x) → Q(x))" in result.output

    def test_bare_formula_offsets_count_from_the_start_of_the_input(self, runner):
        """As in a block: the second line's error is at 13 bare and at 13 + 10
        under a ``Premises:`` header."""
        lines = "P(a)\n  Q(b) & ::: gloss\n"
        error = "error at offset {}: unexpected end of input, expected a formula\n"
        bare = runner.invoke(main, ["parse", "-", "--format", "fol"], input=lines)
        assert (bare.exit_code, bare.stdout, bare.stderr) == (1, "P(a)\n", error.format(13))
        block = runner.invoke(main, ["parse", "-", "--format", "fol"], input=f"Premises:\n{lines}Query:\nP(a)\n")
        assert (block.exit_code, block.stderr) == (1, error.format(23))

    def test_premises_beside_facts_are_printed_with_a_warning(self, runner):
        text = "Facts:\nDog(rex, True)\nPremises:\nAnimal(rex)\nQuery:\nAnimal(rex, True)\n"
        result = runner.invoke(main, ["parse", "-", "--format", "fol"], input=text)
        assert (result.exit_code, result.stdout) == (
            0, "Premises:\nAnimal(rex)\nFacts:\nDog(rex, True)\nQuery:\nAnimal(rex)\n")
        assert result.stderr == (
            "warning at offset 22: premises beside Facts/Rules are not read by the engine: Animal(rex)\n")

    def test_bare_formula_lines_lose_their_bullets(self, runner):
        result = runner.invoke(main, ["parse", "-", "--format", "fol"], input="- P(a)\n2. Q(b) ::: gloss\n")
        assert (result.exit_code, result.stdout, result.stderr) == (0, "P(a)\nQ(b)\n", "")

    def test_header_only_block_is_not_read_as_formulas(self, runner):
        result = runner.invoke(main, ["parse", "-", "--format", "fol"], input="Facts:\nQuery:\n")
        assert result.exit_code == 1
        assert result.stderr == "error at offset 14: missing Query/Statement section\n"

    @pytest.mark.parametrize("text", [
        "Premises:\nP(a)\nP(a, b)\nQuery:\nP(a)",
        "Facts:\nP(a, True)\nPremises:\nP(a, b)\nQuery:\nP(a, True)",
        "Premises:\nP(a)\nQuery:\nP(a, b)",
    ], ids=["premise-premise", "fact-premise", "premise-statement"])
    def test_a_predicate_of_two_arities_exit_one(self, runner, text):
        result = runner.invoke(main, ["parse", "-", "--format", "fol"], input=text)
        assert (result.exit_code, result.stdout, result.stderr) == (
            1, "", f"error at offset {text.index('P(a, b)')}: predicate 'P' used with arity 2, expected 1\n")

    def test_header_aliases_parse_as_block(self, runner):
        block = ("Conditional rules:\nP($x, True) => Q($x, True)\nFact:\nP(a, True)\n"
                 "Queries:\nQ(a, True)\n")
        result = runner.invoke(main, ["parse", "-", "--format", "fol"], input=block)
        assert result.exit_code == 0, result.output
        assert result.stdout == "Facts:\nP(a, True)\nRules:\nP($x, True) ⇒ Q($x, True)\nQuery:\nQ(a)\n"
        solved = runner.invoke(main, ["solve", "-", "--engine", "fol"], input=block)
        assert (solved.exit_code, solved.stdout) == (0, "True\n")


class TestSolve:
    def test_car_csp_answer(self, runner, tmp_path, corpus):
        path = tmp_path / "car.txt"
        path.write_text(corpus.translation("logicaldeduction-antique-cars"), encoding="utf-8")
        result = runner.invoke(main, ["solve", str(path), "--engine", "csp"])
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "B (MustBeTrue)"

    @pytest.mark.parametrize("problem_id", ["logicaldeduction-antique-cars", "logicaldeduction-branch-birds",
                                            "arlsat-lockers", "arlsat-company-tours"])
    def test_csp_answer_follows_the_question(self, runner, corpus, problem_id):
        """Given its problem's question, `symchain solve` prints the letter a
        translate_then_solve run records, a CANNOT-be-true question too."""
        problem = corpus.problem(problem_id)
        record = run_problem(problem, Method.TRANSLATE_THEN_SOLVE, RunConfig(), ScriptedCorpusBackend(corpus))
        result = runner.invoke(main, ["solve", "-", "--engine", "csp", "--question", problem.question],
                               input=corpus.translation(problem_id))
        assert result.exit_code == 0, result.output
        assert result.stdout.split(" ", 1)[0] == record.final_label.value == problem.gold.value

    def test_anne_fol_unknown(self, runner, tmp_path, corpus):
        path = tmp_path / "anne.txt"
        path.write_text(corpus.translation("proofwriter-anne-white"), encoding="utf-8")
        result = runner.invoke(main, ["solve", str(path), "--engine", "fol"])
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "Unknown"

    def test_translation_with_a_byte_order_mark(self, runner, tmp_path, corpus):
        path = tmp_path / "anne.txt"
        path.write_text(corpus.translation("proofwriter-anne-white"), encoding="utf-8-sig")
        result = runner.invoke(main, ["solve", str(path), "--engine", "fol"])
        assert (result.exit_code, result.stdout) == (0, "Unknown\n")

    def test_stdin_with_a_byte_order_mark(self, runner, corpus):
        text = "\ufeff" + corpus.translation("proofwriter-anne-white")
        result = runner.invoke(main, ["solve", "-", "--engine", "fol"], input=text)
        assert (result.exit_code, result.stdout) == (0, "Unknown\n")

    def test_inconsistent_kb_exit_one(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Facts:\nP(a, True)\nRules:\nP($x, True) ⇒ Q($x, True)\n"
                        "P($x, True) ⇒ Q($x, False)\nQuery:\nQ(a, True)\n", encoding="utf-8")
        result = runner.invoke(main, ["solve", str(path), "--engine", "fol"])
        assert result.exit_code == 1
        assert "inconsistency" in result.output + (result.stderr or "")

    @pytest.mark.parametrize("text,engine,stderr", [
        ("Premises:\nP(a)\nConclusion:\nQ(a ∧\n", "fol",
         "error at offset 31: expected ')', found '∧'\ntranslation not executable\n"),
        ("Variables:\na ∈ {1, x}\nConstraints:\nQuery:\nA) a == 1\n", "csp",
         "error at offset 11: non-integer domain value in: 'a ∈ {1, x}'\n"
         "error at offset 52: no variables declared\ntranslation not executable\n"),
        ("Premises:\n∀x (P(x) → Q(x))\nConclusion:\nQ(a)\n", "fol",
         "no knowledge base; general FOL is not auto-decided\n"),
        ("Facts:\nP(a, True)\nRules:\nP($x, True) ⇒ Q($x, True)\nQuery:\n∀x Q(x, True)\n", "fol",
         "engine error: quantified statements are not auto-decided\n"),
        ("P(a)\n", "fol", "error at offset 0: no sections found\ntranslation not executable\n"),
        ("Facts:\nP(a, True)\nQuery:\nP(a, b, True)\n", "fol",
         "error at offset 25: predicate 'P' used with arity 2, expected 1\ntranslation not executable\n"),
    ], ids=["fol-not-executable", "csp-not-executable", "no-knowledge-base", "unsupported-query",
            "no-section-header", "query-arity"])
    def test_unsolvable_translation_exit_one(self, runner, text, engine, stderr):
        result = runner.invoke(main, ["solve", "-", "--engine", engine], input=text)
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", stderr)

    def test_csp_variable_with_an_empty_domain_has_no_solutions(self, runner):
        text = "Variables:\na in {1, 2, 3}\nb in {}\nConstraints:\na == 1\nQuery:\nA) a == 1\nB) a == 2\n"
        parsed = runner.invoke(main, ["parse", "-", "--format", "csp"], input=text)
        assert parsed.exit_code == 0, parsed.output
        assert "b ∈ {}" in parsed.stdout.splitlines()
        again = runner.invoke(main, ["parse", "-", "--format", "csp"], input=parsed.stdout)
        assert (again.exit_code, again.stdout) == (0, parsed.stdout)
        solved = runner.invoke(main, ["solve", "-", "--engine", "csp"], input=text)
        assert (solved.exit_code, solved.stdout, solved.stderr) == (
            1, "", "engine error: model has no solutions; verdicts are undefined\n")

    @pytest.mark.parametrize("domain", ["", "Domain:\n1 to 3\n"], ids=["no-domain-line", "domain-line"])
    def test_csp_block_whose_every_domain_is_empty_has_no_solutions(self, runner, domain):
        text = domain + "Variables:\nb in {}\nConstraints:\nQuery:\nA) b == 1\n"
        parsed = runner.invoke(main, ["parse", "-", "--format", "csp"], input=text)
        assert (parsed.exit_code, parsed.stderr) == (0, "")
        again = runner.invoke(main, ["parse", "-", "--format", "csp"], input=parsed.stdout)
        assert (again.exit_code, again.stdout) == (0, parsed.stdout)
        solved = runner.invoke(main, ["solve", "-", "--engine", "csp"], input=text)
        assert (solved.exit_code, solved.stdout, solved.stderr) == (
            1, "", "engine error: model has no solutions; verdicts are undefined\n")

    def test_statement_atom_of_another_arity_exit_one(self, runner):
        # an atom of a compound statement, not only a one-literal statement
        text = "Facts:\nP(a, True)\nQuery:\nP(a, b, True) ∨ P(a, True)\n"
        error = "error at offset 25: predicate 'P' used with arity 2, expected 1\n"
        solved = runner.invoke(main, ["solve", "-", "--engine", "fol"], input=text)
        assert (solved.exit_code, solved.stdout, solved.stderr) == (1, "", error + "translation not executable\n")
        parsed = runner.invoke(main, ["parse", "-", "--format", "fol"], input=text)
        assert (parsed.exit_code, parsed.stderr) == (1, error)

    def test_csp_undecided_answer_exit_one(self, runner):
        result = runner.invoke(main, ["solve", "-", "--engine", "csp"],
                               input="Variables:\na ∈ {1}\nConstraints:\nQuery:\nA) a == 1\nB) a >= 1\n")
        assert (result.exit_code, result.stdout) == (1, "Undecided{A, B}\n")

    def test_csp_without_solutions_exit_one(self, runner):
        block = ("Domain:\n1: low\n2: high\nVariables:\nv ∈ {1, 2}\nConstraints:\nv == 3\n"
                 "Query:\nA) v == 1\n")
        result = runner.invoke(main, ["solve", "-", "--engine", "csp"], input=block)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "engine error: model has no solutions; verdicts are undefined\n"


@pytest.mark.parametrize("csp", [False, True], ids=["fol-block", "csp-block"])
def test_parse_solve_and_the_pipeline_agree_on_every_golden_block(runner, corpus, csp):
    """On each golden block input, all four or none of: `symchain parse` exits 1,
    ``parse_translation`` gives no artifact, `symchain solve` ends with the
    not-executable line, and a translate_then_solve run records the engine
    response ``NOT_EXECUTABLE``.  On each executable input, `symchain solve`
    of the text `symchain parse` printed answers the problem's question as
    it answers the input: the same output and exit code."""
    flag = "csp" if csp else "fol"
    seen, disagreements, reparsed = set(), [], 0
    for problem_id, name, text in _mutated_blocks(corpus, csp):
        problem = corpus.problem(problem_id)
        solve = ["solve", "-", "--engine", flag, "--question", problem.question]
        parsed = runner.invoke(main, ["parse", "-", "--format", flag], input=text)
        solved = runner.invoke(main, solve, input=text)
        backend = ScriptedCorpusBackend(corpus, overrides={(problem_id, "translator"): text})
        record = run_problem(problem, Method.TRANSLATE_THEN_SOLVE, RunConfig(), backend)
        verdicts = {parsed.exit_code == 1, parse_translation(text, csp)[0] is None,
                    solved.stderr.endswith(NOT_EXECUTABLE + "\n"), record.stages[-1].response == NOT_EXECUTABLE}
        seen |= verdicts
        if len(verdicts) != 1:
            disagreements.append((problem_id, name))
        if parsed.exit_code == 0:
            again = runner.invoke(main, solve, input=parsed.stdout)
            reparsed += 1
            if (again.exit_code, again.stdout) != (solved.exit_code, solved.stdout):
                disagreements.append((problem_id, name, "solve of parse's output"))
    assert disagreements == []
    assert seen == {True, False}  # both kinds of input occur
    assert reparsed > 0


class TestRunEvalReport:
    def test_replay_run_all_gold(self, runner, tmp_path, corpus):
        out = tmp_path / "records.jsonl"
        result = runner.invoke(main, [
            "run", "--method", "translate_then_solve", "--dataset", "minicorpus",
            "--replay", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) >= 12
        golds = corpus.golds()
        assert all(r["final_label"] == golds[r["problem_id"]].value for r in lines)
        assert all(r["executed"] for r in lines)

    def test_replay_dir_run(self, runner, tmp_path, corpus):
        fixtures = tmp_path / "fixtures"
        build_replay_fixtures(fixtures, methods=(Method.SYMBCOT,), config=RunConfig(),
                              corpus=corpus)
        out = tmp_path / "records.jsonl"
        result = runner.invoke(main, [
            "run", "--method", "symbcot", "--dataset", "minicorpus",
            "--replay", str(fixtures), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        golds = corpus.golds()
        assert all(r["final_label"] == golds[r["problem_id"]].value for r in lines)

    def test_replay_missing_fixture_nonzero(self, runner, tmp_path, corpus):
        fixtures = tmp_path / "fixtures"
        manifest = build_replay_fixtures(fixtures, methods=(Method.TRANSLATE_THEN_SOLVE,),
                                         config=RunConfig(), corpus=corpus)
        cache = CompletionCache(fixtures)
        cache.remove(manifest[0].cache_key)
        result = runner.invoke(main, [
            "run", "--method", "translate_then_solve", "--dataset", "minicorpus",
            "--replay", str(fixtures), "--out", str(tmp_path / "r.jsonl"),
        ])
        assert result.exit_code == 1
        assert "ReplayMiss" in result.output + (result.stderr or "")

    def test_run_reports_a_replay_miss_beside_the_other_errors(self, runner, tmp_path, monkeypatch):
        import symchain.cli as cli_mod

        def batch(problems, method, config, gateway):
            return [RunRecord(p.id, method, False, Label.UNDECIDED, error=error) for p, error in zip(problems, (
                "ReplayMissError: no cached completion for key 0f", None, "UnicodeDecodeError: invalid start byte"))]
        monkeypatch.setattr(cli_mod, "run_batch", batch)
        result = runner.invoke(main, [
            "run", "--method", "cot", "--replay", "--limit", "3", "--out", str(tmp_path / "r.jsonl"),
        ])
        ids = [p.id for p in mini_corpus().problems[:3]]
        assert result.exit_code == 1
        assert result.stderr == (f"error: {ids[0]}: ReplayMissError: no cached completion for key 0f\n"
                                 f"error: {ids[2]}: UnicodeDecodeError: invalid start byte\n")
        assert len((tmp_path / "r.jsonl").read_text().splitlines()) == 3

    def test_run_flags_reach_the_config(self, runner, tmp_path, monkeypatch):
        import symchain.cli as cli_mod

        seen = []
        monkeypatch.setattr(cli_mod, "run_batch", lambda problems, method, config, gateway: seen.append(config) or [])
        result = runner.invoke(main, [
            "run", "--method", "cot", "--replay", "--parallelism", "3", "--seed", "7", "--fallback", "random",
            "--out", str(tmp_path / "r.jsonl"),
        ])
        assert result.exit_code == 0, result.output
        [config] = seen
        assert (config.parallelism, config.seed, config.fallback) == (3, 7, FallbackPolicy.RANDOM)

    def test_run_without_out_writes_the_records_to_stdout(self, runner, corpus):
        result = runner.invoke(main, ["run", "--method", "cot", "--replay", "--limit", "2"])
        assert result.exit_code == 0, result.output
        ids = [json.loads(line)["problem_id"] for line in result.stdout.splitlines()]
        assert ids == [p.id for p in corpus.problems[:2]]

    def test_run_dataset_without_a_data_file_is_a_usage_error(self, runner, tmp_path):
        out = tmp_path / "r.jsonl"
        result = runner.invoke(main, ["run", "--method", "cot", "--dataset", "proofwriter", "--out", str(out)])
        assert result.exit_code == 2
        assert "no data file known for dataset 'proofwriter'; pass --data-file" in result.stderr
        assert not out.exists()

    def test_run_unknown_dataset_is_a_usage_error(self, runner, tmp_path):
        data = tmp_path / "pw.json"
        data.write_text(json.dumps([{"id": "1", "context": "c", "question": "q", "answer": "true"}]))
        out = tmp_path / "r.jsonl"
        result = runner.invoke(main, ["run", "--method", "cot", "--dataset", "NoSuch", "--data-file", str(data),
                                      "--replay", str(tmp_path / "cache"), "--out", str(out)])
        assert result.exit_code == 2
        assert "unknown dataset 'NoSuch'" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_run_config_data_file_that_cannot_be_read_is_a_usage_error(self, runner, tmp_path, kind):
        data = tmp_path / "pw.json"
        if kind == "directory":
            data.mkdir()
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dataset_paths": {"ProofWriter": str(data)}}))
        out = tmp_path / "r.jsonl"
        result = runner.invoke(main, ["run", "--method", "cot", "--dataset", "ProofWriter", "--config", str(config),
                                      "--replay", str(tmp_path / "cache"), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "dataset_paths['ProofWriter']" in result.stderr and str(data) in result.stderr
        assert not out.exists()

    def test_run_data_file_that_is_a_directory_is_a_usage_error(self, runner, tmp_path):
        out = tmp_path / "r.jsonl"
        result = runner.invoke(main, ["run", "--method", "cot", "--dataset", "ProofWriter", "--data-file",
                                      str(tmp_path), "--replay", str(tmp_path / "cache"), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "'--data-file'" in result.stderr and "is a directory" in result.stderr
        assert not out.exists()

    def test_run_prints_the_error_of_an_array_that_does_not_decode(self, runner, tmp_path):
        data = tmp_path / "pw.json"
        data.write_text("[" + json.dumps({"id": "1", "context": "c", "question": "q", "answer": "true"}) + ",\n")
        out = tmp_path / "r.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the file is smaller than the published split
            result = runner.invoke(main, ["run", "--method", "cot", "--dataset", "proofwriter", "--data-file", str(data),
                                          "--replay", str(tmp_path / "cache"), "--out", str(out)])
        assert (result.exit_code, result.stderr) == (
            0, "Malformed(record-0), line 2: invalid JSON: Expecting value: column 1\n")
        assert out.read_text() == ""

    def test_replay_without_a_directory_is_for_the_mini_corpus_only(self, runner, tmp_path):
        data = tmp_path / "pw.json"
        data.write_text(json.dumps([{"id": "1", "context": "c", "question": "q", "answer": "true"}]))
        out = tmp_path / "r.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the file is smaller than the published split
            result = runner.invoke(main, ["run", "--method", "cot", "--dataset", "proofwriter",
                                          "--data-file", str(data), "--replay", "--out", str(out)])
        assert result.exit_code == 2
        assert "--replay without a directory works only for the mini-corpus" in result.stderr
        assert not out.exists()

    def test_limit(self, runner, tmp_path):
        out = tmp_path / "records.jsonl"
        result = runner.invoke(main, [
            "run", "--method", "cot", "--dataset", "minicorpus", "--replay",
            "--limit", "3", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 3

    def test_negative_limit_is_a_usage_error(self, runner, tmp_path):
        out = tmp_path / "records.jsonl"
        result = runner.invoke(main, [
            "run", "--method", "cot", "--dataset", "minicorpus", "--replay",
            "--limit", "-1", "--out", str(out),
        ])
        assert result.exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_parallelism_below_one_is_a_usage_error(self, runner, tmp_path, value):
        out = tmp_path / "records.jsonl"
        result = runner.invoke(main, [
            "run", "--method", "cot", "--dataset", "minicorpus", "--replay",
            "--parallelism", value, "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "--parallelism" in result.output
        assert not out.exists()

    def test_eval_and_report(self, runner, tmp_path):
        records = tmp_path / "records.jsonl"
        report = tmp_path / "report.json"
        runner.invoke(main, [
            "run", "--method", "translate_then_solve", "--dataset", "minicorpus",
            "--replay", "--out", str(records),
        ])
        result = runner.invoke(main, [
            "eval", str(records), "--gold", "minicorpus", "--format", "json",
            "--out", str(report),
        ])
        assert result.exit_code == 0, result.output
        data = json.loads(report.read_text())
        assert all(d["accuracy"] == 1.0 for d in data["datasets"].values())
        merged = runner.invoke(main, ["report", str(report)])
        assert merged.exit_code == 0
        assert "100.00" in merged.output
        table = tmp_path / "table.md"
        written = runner.invoke(main, ["report", str(report), "--out", str(table)])
        assert (written.exit_code, written.stdout) == (0, "")
        assert table.read_text(encoding="utf-8") == merged.stdout

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_report_prints_the_eval_markdown(self, runner, tmp_path, method):
        records = tmp_path / "records.jsonl"
        runner.invoke(main, ["run", "--method", method, "--replay", "--out", str(records)])
        report = tmp_path / "report.json"
        runner.invoke(main, ["eval", str(records), "--format", "json", "--out", str(report)])
        markdown = runner.invoke(main, ["eval", str(records), "--format", "markdown"])
        merged = runner.invoke(main, ["report", str(report)])
        assert (merged.exit_code, merged.stdout) == (0, markdown.stdout)

    @pytest.mark.parametrize("text,found", [
        ("{", "not a report (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
        ('{"datasets": {"x": {"count": "3"}}}', "not a report (datasets: count: expected an integer, found '3')"),
        ('{"datasets": {"x": {"accuracy": "1"}}}', "not a report (datasets: accuracy: expected a number, found '1')"),
        ('{"datasets": {"x": []}}', "not a report (datasets: expected a DatasetReport object, found [])"),
        ("[]", "not a report (expected a EvalReport object, found [])"),
        ('{"datasets": []}', "not a report (datasets: expected an object, found [])"),
        ('{"method": 5}', "not a report (method: expected a string, found 5)"),
        ('{"datasets": {"x": {"macro": []}}}', "not a report (datasets: macro: expected an object, found [])"),
        ('{"datasets": {"x": {"per_label": {"True": 3}}}}',
         "not a report (datasets: per_label: expected an object, found 3)"),
        ('{"datasets": {"x": {"per_label": {"True": {"f1": "1"}}}}}',
         "not a report (datasets: per_label: expected a number, found '1')"),
        ('{"datasets": {"x": {"confusion": {"True->True": 1.5}}}}',
         "not a report (datasets: confusion: expected an integer, found 1.5)"),
        ('{"faithfulness": []}', "not a report (faithfulness: expected a FaithfulnessTally object, found [])"),
        ('{"faithfulness": {"counts": {"faithful": "1"}}}',
         "not a report (faithfulness: counts: expected an integer, found '1')"),
        ('{"faithfulness": {"even_splits": "p1"}}',
         "not a report (faithfulness: even_splits: expected a list of strings, found 'p1')"),
    ], ids=["not-json", "count-string", "accuracy-string", "dataset-not-object", "array", "datasets-array",
            "method-integer", "macro-array", "label-scores-not-object", "label-score-string", "confusion-float",
            "faithfulness-array", "verdict-count-string", "even-splits-string"])
    def test_report_file_not_a_report_exit_one(self, runner, tmp_path, text, found):
        report = tmp_path / "report.json"
        report.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["report", str(report)])
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", f"{report}: {found}\n")

    @pytest.mark.parametrize("text,found", [
        ('{"faithfulness": {}}', "- faithful: 0\n- unfaithful: 0\n- false: 0\n"),
        ('{"faithfulness": {"counts": {}, "even_splits": []}}', "- faithful: 0\n- unfaithful: 0\n- false: 0\n"),
        ('{"faithfulness": {"counts": {"false": 2}}}', "- faithful: 0\n- unfaithful: 0\n- false: 2\n"),
        ('{"faithfulness": null}', "# Evaluation report\n"),
        ('{"datasets": {"x": {"per_label": {"True": {}}}}}', "| True | 0.00 | 0.00 | 0.00 |\n"),
        ('{"datasets": {"x": {"per_label": {"True": {"recall": 0.5}}}}}', "| True | 0.00 | 50.00 | 0.00 |\n"),
    ], ids=["faithfulness-empty", "counts-empty", "one-count", "faithfulness-null", "label-scores-empty",
            "label-score-missing"])
    def test_report_reads_missing_scores_and_counts_as_zero(self, runner, tmp_path, text, found):
        report = tmp_path / "report.json"
        report.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["report", str(report)])
        assert (result.exit_code, result.stderr) == (0, "")
        assert found in result.stdout

    def test_report_with_a_byte_order_mark(self, runner, tmp_path, corpus):
        records = tmp_path / "records.jsonl"
        write_records(run_batch(list(corpus.problems), Method.NAIVE, RunConfig(), ScriptedCorpusBackend(corpus)),
                      records)
        evaluated = runner.invoke(main, ["eval", str(records), "--gold", "minicorpus", "--format", "json"])
        report = tmp_path / "report.json"
        report.write_text(evaluated.stdout, encoding="utf-8-sig")
        merged = runner.invoke(main, ["report", str(report)])
        assert merged.exit_code == 0, merged.output
        assert "100.00" in merged.stdout

    def test_eval_reads_a_response_holding_line_separators(self, runner, tmp_path, corpus):
        problem = corpus.problem("prontoqa-max-sour")
        backend = ScriptedCorpusBackend(corpus, overrides={
            (problem.id, "naive"): "Max is sour.\u2028The answer is {False}."})
        records = tmp_path / "records.jsonl"
        write_records(run_batch(list(corpus.problems), Method.NAIVE, RunConfig(), backend), records)
        assert "\u2028" in records.read_text(encoding="utf-8")
        result = runner.invoke(main, ["eval", str(records), "--gold", "minicorpus", "--format", "json"])
        assert result.exit_code == 0, result.output
        datasets = json.loads(result.output)["datasets"]
        assert sum(d["count"] for d in datasets.values()) == len(corpus.problems)
        assert datasets["ProntoQA"]["accuracy"] == 1.0

    def test_eval_records_with_a_byte_order_mark(self, runner, tmp_path, corpus):
        records = tmp_path / "records.jsonl"
        write_records(run_batch(list(corpus.problems), Method.NAIVE, RunConfig(), ScriptedCorpusBackend(corpus)),
                      records)
        plain = runner.invoke(main, ["eval", str(records), "--gold", "minicorpus", "--format", "json"])
        records.write_text(records.read_text(encoding="utf-8"), encoding="utf-8-sig")
        result = runner.invoke(main, ["eval", str(records), "--gold", "minicorpus", "--format", "json"])
        assert (result.exit_code, result.stdout) == (0, plain.stdout)

    def test_eval_prints_the_gold_file_load_errors(self, runner, tmp_path, corpus):
        problems = list(corpus.problems)[:3]
        lines = [json.loads(line) for line in dump_problems(problems).splitlines()]
        lines[1]["verdict"] = lines[1].pop("gold")
        gold = tmp_path / "gold.jsonl"
        gold.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        records = tmp_path / "records.jsonl"
        write_records(run_batch(problems, Method.NAIVE, RunConfig(), ScriptedCorpusBackend(corpus)), records)
        result = runner.invoke(main, ["eval", str(records), "--gold", str(gold)])
        assert (result.exit_code, result.stderr) == (1, "MissingField(prontoqa-max-sour), line 2: gold\n"
                                                        "records without gold labels: prontoqa-max-sour\n")

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_eval_gold_file_that_cannot_be_read_is_a_usage_error(self, runner, tmp_path, corpus, kind):
        gold = tmp_path / "missing.json"
        if kind == "directory":
            gold.mkdir()
        records = tmp_path / "records.jsonl"
        write_records(run_batch(list(corpus.problems)[:2], Method.NAIVE, RunConfig(), ScriptedCorpusBackend(corpus)),
                      records)
        result = runner.invoke(main, ["eval", str(records), "--gold", str(gold)])
        assert result.exit_code == 2, result.output
        assert "'--gold'" in result.stderr and str(gold) in result.stderr

    def test_eval_prints_the_error_of_a_gold_array_that_does_not_decode(self, runner, tmp_path, corpus):
        problems = list(corpus.problems)[:2]
        gold = tmp_path / "gold.json"
        gold.write_text("[" + dump_problems(problems).splitlines()[0] + ",\n", encoding="utf-8")
        records = tmp_path / "records.jsonl"
        write_records(run_batch(problems, Method.NAIVE, RunConfig(), ScriptedCorpusBackend(corpus)), records)
        result = runner.invoke(main, ["eval", str(records), "--gold", str(gold)])
        assert result.exit_code == 1
        assert result.stderr.startswith("Malformed(record-0), line 2: invalid JSON: Expecting value: column 1\n"
                                        "records without gold labels: ")

    def test_eval_records_line_not_json_exit_one(self, runner, tmp_path, corpus):
        records = tmp_path / "records.jsonl"
        write_records(run_batch(list(corpus.problems)[:2], Method.NAIVE, RunConfig(), ScriptedCorpusBackend(corpus)),
                      records)
        records.write_text(records.read_text(encoding="utf-8") + "\n{not json\n", encoding="utf-8")
        result = runner.invoke(main, ["eval", str(records), "--gold", "minicorpus", "--format", "json"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith(f"{records}, line 4: not JSON")

    @pytest.mark.parametrize("edit,found", [
        (lambda record: [1, 2], "expected a RunRecord object, found [1, 2]"),
        (lambda record: {**record, "stages": [7]}, "stages: expected a StageRecord object, found 7"),
        (lambda record: {**record, "final_label": "bogus"}, "final_label: 'bogus' is not a valid Label"),
    ], ids=["array", "stage-not-an-object", "bad-label"])
    def test_eval_records_line_not_a_record_exit_one(self, runner, tmp_path, corpus, edit, found):
        records = tmp_path / "records.jsonl"
        write_records(run_batch(list(corpus.problems)[:2], Method.NAIVE, RunConfig(), ScriptedCorpusBackend(corpus)),
                      records)
        first, second = records.read_text(encoding="utf-8").splitlines()
        records.write_text(f"{first}\n{json.dumps(edit(json.loads(second)))}\n", encoding="utf-8")
        result = runner.invoke(main, ["eval", str(records), "--gold", "minicorpus", "--format", "json"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"{records}, line 2: not a record ({found})\n"

    def test_eval_id_mismatch_exit_one(self, runner, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({
            "problem_id": "nobody", "dataset": "FOLIO", "method": "cot",
            "stages": [], "executed": True, "final_label": "True", "error": None,
        }) + "\n")
        result = runner.invoke(main, ["eval", str(records), "--gold", "minicorpus"])
        assert result.exit_code == 1

    def test_run_idempotent_given_fixtures(self, runner, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        for out in (out1, out2):
            result = runner.invoke(main, [
                "run", "--method", "symbcot", "--dataset", "minicorpus",
                "--replay", "--out", str(out),
            ])
            assert result.exit_code == 0
        strip = lambda text: [
            {k: v for k, v in json.loads(line).items() if k != "wall_time"}
            for line in text.splitlines()
        ]
        assert strip(out1.read_text()) == strip(out2.read_text())


class TestLiveSideEffects:
    def test_live_run_populates_cache(self, runner, tmp_path, monkeypatch, corpus):
        # stand in for the network: the CLI's live path must still write
        # one cache file per completed request
        import symchain.cli as cli_mod
        from symchain.fixtures import ScriptedCorpusBackend

        monkeypatch.setattr(cli_mod, "HttpBackend",
                            lambda endpoint, key: ScriptedCorpusBackend(corpus))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cache_dir": str(tmp_path / "cache")}))
        result = runner.invoke(main, [
            "run", "--method", "cot", "--dataset", "minicorpus", "--limit", "5",
            "--config", str(config), "--out", str(tmp_path / "r.jsonl"),
        ])
        assert result.exit_code == 0, result.output
        assert len((tmp_path / "r.jsonl").read_text().splitlines()) == 5
        cache_files = list((tmp_path / "cache").glob("*.json"))
        assert len(cache_files) == 5


class TestConfigAndAnnotations:
    def test_config_file_supplies_method_flags_override(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "method": "cot",
            "output_path": str(tmp_path / "from-config.jsonl"),
        }))
        result = runner.invoke(main, [
            "run", "--dataset", "minicorpus", "--replay", "--config", str(config),
            "--limit", "2",
        ])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "from-config.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["method"] == "cot" for line in lines)

        override = runner.invoke(main, [
            "run", "--method", "naive", "--dataset", "minicorpus", "--replay",
            "--config", str(config), "--limit", "1",
            "--out", str(tmp_path / "override.jsonl"),
        ])
        assert override.exit_code == 0, override.output
        record = json.loads((tmp_path / "override.jsonl").read_text().splitlines()[0])
        assert record["method"] == "naive"

    @pytest.mark.parametrize("text", [
        '{"parallelism": 0}',
        '{"parallelism": "2"}',
        '{"method": "bogus"}',
        '{"fallback": "bogus"}',
        '{"method": "cot",',
        '["cot"]',
        '{"few_shot": -1}',
        '{"few_shot": "2"}',
        '{"few_shot": true}',
        '{"max_tokens": 0}',
        '{"max_tokens": 1.5}',
        '{"temperature": -1}',
        '{"temperature": "0.2"}',
        '{"temperature": false}',
        '{"temperature": NaN}',
        '{"paralellism": 4}',
        '{"cache_dir": 5}',
        '{"template_dir": ["a"]}',
        '{"model": null}',
        '{"dataset_paths": ["minicorpus.json"]}',
        '{"dataset_paths": {"minicorpus": 5}}',
        '{"seed": "x"}',
        '{"seed": 1.5}',
        '{"seed": true}',
    ], ids=["parallelism-zero", "parallelism-string", "unknown-method", "unknown-fallback", "invalid-json",
            "not-an-object", "few-shot-negative", "few-shot-string", "few-shot-bool", "max-tokens-zero",
            "max-tokens-float", "temperature-negative", "temperature-string", "temperature-bool",
            "temperature-nan", "misspelled-key", "cache-dir-integer", "template-dir-list", "model-null",
            "dataset-paths-list", "dataset-path-integer", "seed-string", "seed-float", "seed-bool"])
    def test_invalid_config_file_is_a_usage_error(self, runner, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "records.jsonl"
        result = runner.invoke(main, [
            "run", "--method", "cot", "--dataset", "minicorpus", "--replay",
            "--config", str(config), "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert "invalid config file" in result.output
        assert not out.exists()

    def test_least_generation_settings_are_accepted(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"few_shot": 0, "max_tokens": 1, "temperature": 0}')
        settings = RunConfig.from_file(config)
        assert (settings.few_shot, settings.max_tokens, settings.temperature) == (0, 1, 0)

    def test_config_file_with_a_byte_order_mark(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"few_shot": 1, "method": "cot"}', encoding="utf-8-sig")
        settings = RunConfig.from_file(config)
        assert (settings.few_shot, settings.method) == (1, "cot")

    def test_eval_with_annotations(self, runner, tmp_path):
        records = tmp_path / "records.jsonl"
        runner.invoke(main, [
            "run", "--method", "translate_then_solve", "--dataset", "minicorpus",
            "--replay", "--out", str(records),
        ])
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(
            "problem_id,annotator_id,verdict\n"
            "prontoqa-max-sour,a0,faithful\n"
            "prontoqa-max-sour,a1,faithful\n"
            "prontoqa-max-sour,a2,unfaithful\n"
        )
        result = runner.invoke(main, [
            "eval", str(records), "--gold", "minicorpus", "--format", "json",
            "--annotations", str(annotations),
        ])
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        assert data["faithfulness"]["counts"]["faithful"] == 1

    @pytest.mark.parametrize("text,found", [
        ("problem_id,annotator,verdict\nprontoqa-max-sour,a0,faithful\n", "no annotator_id column"),
        ("", "no annotator_id, problem_id, verdict column"),
        ("problem_id,annotator_id,verdict\nprontoqa-max-sour,a0,maybe\n",
         "unknown faithfulness verdict 'maybe' for prontoqa-max-sour"),
        ("problem_id,annotator_id,verdict\nprontoqa-max-sour,a0\n",
         "unknown faithfulness verdict '' for prontoqa-max-sour"),
    ], ids=["missing-column", "empty", "unknown-verdict", "missing-verdict"])
    def test_eval_with_a_bad_annotations_file_exit_one(self, runner, tmp_path, text, found):
        records = tmp_path / "records.jsonl"
        runner.invoke(main, ["run", "--method", "cot", "--replay", "--limit", "2", "--out", str(records)])
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["eval", str(records), "--annotations", str(annotations)])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == f"{annotations}: not an annotations file ({found})\n"


class TestCache:
    def test_ls_and_gc(self, runner, tmp_path):
        fixtures = tmp_path / "cache"
        build_replay_fixtures(fixtures, methods=(Method.NAIVE,), config=RunConfig())
        listing = runner.invoke(main, ["cache", "ls", "--dir", str(fixtures)])
        assert listing.exit_code == 0
        assert len(listing.output.splitlines()) == 13
        wiped = runner.invoke(main, ["cache", "gc", "--dir", str(fixtures), "--all"])
        assert wiped.exit_code == 0
        assert "removed 13" in wiped.output
        relisting = runner.invoke(main, ["cache", "ls", "--dir", str(fixtures)])
        assert relisting.output.strip() == ""

    @pytest.mark.parametrize("text", ["not json", "[1]", '{"request": [1]}', "\udcff"],
                             ids=["not-json", "array", "request-array", "not-utf-8"])
    def test_unreadable_entry_lists_as_unknown_and_collects_as_undated(self, runner, tmp_path, text):
        cache = CompletionCache(tmp_path)
        key = cache.store(CompletionRequest(model="m", messages=(("user", "q"),)), CompletionResponse(content="a"))
        cache.path_for("bad").write_bytes(text.encode("utf-8", "surrogateescape"))
        listing = runner.invoke(main, ["cache", "ls", "--dir", str(tmp_path)])
        assert listing.exit_code == 0, listing.output
        lines = listing.output.splitlines()
        assert len(lines) == 2 and "bad  ?  ?" in lines
        assert any(line.startswith(f"{key}  m  20") for line in lines)
        collected = runner.invoke(main, ["cache", "gc", "--dir", str(tmp_path), "--older-than", "1"])
        assert (collected.exit_code, collected.output) == (0, "removed 1 entries\n")
        assert cache.keys() == [key]

    @pytest.mark.parametrize("days", ["-1", "nan", "-inf"])
    def test_gc_refuses_a_day_count_below_zero_or_nan(self, runner, tmp_path, days):
        cache = CompletionCache(tmp_path)
        key = cache.store(CompletionRequest(model="m", messages=(("user", "q"),)), CompletionResponse(content="a"))
        result = runner.invoke(main, ["cache", "gc", "--dir", str(tmp_path), "--older-than", days])
        assert result.exit_code == 2
        assert "Invalid value for '--older-than'" in result.stderr
        assert cache.keys() == [key]

    def test_gc_requires_selector(self, runner, tmp_path):
        result = runner.invoke(main, ["cache", "gc", "--dir", str(tmp_path)])
        assert result.exit_code == 2

    def test_gc_reads_timestamps_as_utc(self, runner, tmp_path, monkeypatch):
        # an entry stamped 2 h ago (UTC) is older than 1 h in any local zone
        cache = CompletionCache(tmp_path)
        key = cache.store(CompletionRequest(model="m", messages=(("user", "q"),)),
                          CompletionResponse(content="a"))
        entry = cache.entry(key)
        entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(time.time() - 7200))
        cache.path_for(key).write_text(json.dumps(entry), encoding="utf-8")
        monkeypatch.setenv("TZ", "EST5")
        time.tzset()
        try:
            result = runner.invoke(main, ["cache", "gc", "--dir", str(tmp_path),
                                          "--older-than", "0.0417"])
        finally:
            monkeypatch.undo()
            time.tzset()
        assert result.exit_code == 0
        assert result.output == "removed 1 entries\n"
        assert cache.keys() == []
