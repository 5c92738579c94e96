import json
import time

import pytest
from click.testing import CliRunner

from symchain.cli import main
from symchain.corpus import mini_corpus
from symchain.fixtures import build_replay_fixtures
from symchain.gateway import CompletionCache, CompletionRequest, CompletionResponse
from symchain.pipeline import Method, RunConfig


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

    def test_unknown_flag_exit_two(self, runner):
        result = runner.invoke(main, ["parse", "--no-such-flag"])
        assert result.exit_code == 2

    def test_csp_block(self, runner, tmp_path, corpus):
        path = tmp_path / "car.txt"
        path.write_text(corpus.translation("logicaldeduction-antique-cars"), encoding="utf-8")
        result = runner.invoke(main, ["parse", str(path), "--format", "csp"])
        assert result.exit_code == 0, result.output
        assert "station_wagon == 1" in result.output

    def test_bare_formula_lines(self, runner):
        result = runner.invoke(main, ["parse", "-", "--format", "fol"],
                               input="forall x (P(x) -> Q(x))\n")
        assert result.exit_code == 0
        assert "∀x (P(x) → Q(x))" in result.output

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

    def test_anne_fol_unknown(self, runner, tmp_path, corpus):
        path = tmp_path / "anne.txt"
        path.write_text(corpus.translation("proofwriter-anne-white"), encoding="utf-8")
        result = runner.invoke(main, ["solve", str(path), "--engine", "fol"])
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "Unknown"

    def test_inconsistent_kb_exit_one(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Facts:\nP(a, True)\nRules:\nP($x, True) ⇒ Q($x, True)\n"
                        "P($x, True) ⇒ Q($x, False)\nQuery:\nQ(a, True)\n", encoding="utf-8")
        result = runner.invoke(main, ["solve", str(path), "--engine", "fol"])
        assert result.exit_code == 1
        assert "inconsistency" in result.output + (result.stderr or "")

    def test_csp_without_solutions_exit_one(self, runner):
        block = ("Domain:\n1: low\n2: high\nVariables:\nv ∈ {1, 2}\nConstraints:\nv == 3\n"
                 "Query:\nA) v == 1\n")
        result = runner.invoke(main, ["solve", "-", "--engine", "csp"], input=block)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "model has no solutions; verdicts are undefined\n"


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

    def test_limit(self, runner, tmp_path):
        out = tmp_path / "records.jsonl"
        result = runner.invoke(main, [
            "run", "--method", "cot", "--dataset", "minicorpus", "--replay",
            "--limit", "3", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 3

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
