import dataclasses
import itertools
import json
from collections import Counter

import pytest

from symchain import csp as cspmod
from symchain.corpus import (
    CorpusError, Problem, dataset_info, dump_problems, load, load_normalized,
    mini_corpus,
)
from symchain.folparse import Severity, parse_translation_block
from symchain.inference import decide_formula
from symchain.logic import Label


@pytest.fixture(scope="module")
def corpus():
    return mini_corpus()


class TestMiniCorpus:
    def test_at_least_twelve_items(self, corpus):
        assert len(corpus.problems) >= 12

    def test_required_items_and_golds(self, corpus):
        expected = {
            "folio-hawk-lands": Label.FALSE,
            "prontoqa-max-sour": Label.FALSE,
            "proofwriter-tiger-young": Label.FALSE,
            "proofwriter-anne-white": Label.UNKNOWN,
            "folio-blake-portland": Label.TRUE,
            "logicaldeduction-antique-cars": Label.B,
            "logicaldeduction-branch-birds": Label.A,
            "arlsat-lockers": Label.A,
            "arlsat-company-tours": Label.C,
            "folio-ben-yellow": Label.FALSE,
        }
        golds = corpus.golds()
        for problem_id, gold in expected.items():
            assert golds[problem_id] is gold

    def test_every_fol_translation_parses_clean(self, corpus):
        for p in corpus.problems:
            if p.family.is_csp:
                continue
            block = parse_translation_block(corpus.translation(p.id))
            errors = [d for d in block.diagnostics if d.severity is Severity.ERROR]
            assert not errors, (p.id, [str(d) for d in errors])
            assert block.executable
            assert block.kb is not None

    def test_fol_items_solve_to_gold(self, corpus):
        for p in corpus.problems:
            if p.family.is_csp:
                continue
            block = parse_translation_block(corpus.translation(p.id))
            assert decide_formula(block.kb, block.statement) is p.gold, p.id

    def test_csp_items_solve_to_gold(self, corpus):
        for p in corpus.problems:
            if not p.family.is_csp:
                continue
            model, diagnostics = cspmod.parse_csp_block(corpus.translation(p.id))
            assert not diagnostics, (p.id, [str(d) for d in diagnostics])
            verdict = cspmod.evaluate_queries(model)
            answer = cspmod.select_answer(verdict, cspmod.detect_question_mode(p.question))
            assert answer == p.gold.value, p.id

    def test_stage_texts_complete(self, corpus):
        for p in corpus.problems:
            for stage in ("translator", "planner", "solver", "verifier", "cot", "naive"):
                assert corpus.stage_text(p.id, stage).strip()

    def test_depth_only_on_proofwriter(self, corpus):
        for p in corpus.problems:
            if p.depth is not None:
                assert p.dataset == "ProofWriter"


def _lockers_brute_force():
    """Independent oracle: assign 7 children to 5 lockers by direct loops,
    checking every puzzle condition in plain Python."""
    solutions = []
    for positions in itertools.product(range(1, 6), repeat=7):
        fred, juan, marc, paul, nita, rachel, trisha = positions
        boys = [fred, juan, marc, paul]
        girls = [nita, rachel, trisha]
        if fred != 3:
            continue
        if len(set(boys)) != 4 or len(set(girls)) != 3:
            continue  # a shared locker pairs one boy with one girl
        if rachel in boys:
            continue  # Rachel shares with no one
        if juan not in girls:
            continue  # Juan must share, necessarily with a girl
        if abs(nita - trisha) == 1:
            continue
        counts = Counter(positions)
        if set(counts) != {1, 2, 3, 4, 5} or any(v > 2 for v in counts.values()):
            continue  # one or two children per locker, every locker used
        if set(girls) != {1, 2, 3}:
            continue  # question condition: a girl in each of lockers 1-3
        solutions.append(dict(zip(
            ("fred", "juan", "marc", "paul", "nita", "rachel", "trisha"), positions
        )))
    return solutions


def _tours_brute_force():
    """Independent oracle for the weekly tour schedule (1=Ops 2=Prod 3=Sales)."""
    solutions = []
    for days in itertools.product((1, 2, 3), repeat=5):
        mon, tue, wed, thu, fri = days
        if not all(d in days for d in (1, 2, 3)):
            continue
        if mon == 1 or wed == 2:
            continue
        sales = [i for i, d in enumerate(days) if d == 3]
        if len(sales) != 2 or sales[1] - sales[0] != 1:
            continue
        if thu == 1 and fri != 2:
            continue
        solutions.append(days)
    return solutions


class TestCspItemOracles:
    def test_lockers_encoding_matches_brute_force(self, corpus):
        oracle = _lockers_brute_force()
        assert len(oracle) == 4
        assert all(s["juan"] == 1 for s in oracle)          # A must be true
        assert all(s["paul"] != s["trisha"] for s in oracle)  # E cannot be true
        assert any(s["nita"] == 3 for s in oracle) and not all(s["nita"] == 3 for s in oracle)

        model, diagnostics = cspmod.parse_csp_block(corpus.translation("arlsat-lockers"))
        assert not diagnostics
        engine = [dict(sorted(s.items())) for s in cspmod.solve_all(model).solutions]
        assert sorted(engine, key=str) == sorted((dict(sorted(s.items())) for s in oracle), key=str)
        verdict = cspmod.evaluate_queries(model)
        assert cspmod.select_answer(verdict, cspmod.QuestionMode.MUST_BE_TRUE) == "A"

    def test_tours_encoding_matches_brute_force(self, corpus):
        oracle = _tours_brute_force()
        assert oracle  # satisfiable
        # C (Tuesday division == Thursday division) holds in no schedule
        assert all(s[1] != s[3] for s in oracle)
        # every other option holds somewhere
        assert any(s[0] == s[1] for s in oracle)
        assert any(s[0] == s[4] for s in oracle)
        assert any(s[2] == s[4] for s in oracle)
        assert any(s[3] == s[4] for s in oracle)

        model, diagnostics = cspmod.parse_csp_block(corpus.translation("arlsat-company-tours"))
        assert not diagnostics
        engine = {tuple(s[d] for d in ("monday", "tuesday", "wednesday", "thursday", "friday"))
                  for s in cspmod.solve_all(model).solutions}
        assert engine == set(oracle)
        verdict = cspmod.evaluate_queries(model)
        assert cspmod.select_answer(verdict, cspmod.QuestionMode.CANNOT_BE_TRUE) == "C"


class TestProblem:
    def test_gold_outside_space_rejected(self):
        with pytest.raises(CorpusError):
            Problem(id="x", dataset="ProntoQA", context="c", question="q", gold=Label.C)

    def test_options_define_csp_space(self):
        p = Problem(id="x", dataset="LogicalDeduction", context="c", question="q",
                    options=(("A", "one"), ("B", "two"), ("C", "three")), gold=Label.B)
        assert p.label_space == (Label.A, Label.B, Label.C)

    def test_options_text_synthesized_for_tfu(self):
        p = Problem(id="x", dataset="FOLIO", context="c", question="q", gold=Label.TRUE)
        assert p.options_text() == "A) True\nB) False\nC) Uncertain"

    def test_letter_canonicalization(self):
        p = Problem(id="x", dataset="ProofWriter", context="c", question="q", gold=Label.TRUE)
        assert p.canonical_label(Label.C) is Label.UNKNOWN
        assert p.canonical_label(Label.TRUE) is Label.TRUE


def _write(tmp_path, name, records):
    path = tmp_path / name
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


class TestLoad:
    def test_loads_and_warns_on_size(self, tmp_path):
        records = [
            {"id": "1", "context": "ctx", "question": "q", "answer": "A",
             "options": ["A) x", "B) y", "C) z"]},
            {"id": "2", "context": "ctx", "question": "q", "answer": "C",
             "options": ["A) x", "B) y", "C) z"]},
        ]
        path = _write(tmp_path, "ld.json", records)
        with pytest.warns(UserWarning, match="expected 300"):
            result = load("LogicalDeduction", path)
        assert len(result.problems) == 2
        assert not result.errors
        assert result.problems[0].gold is Label.A

    def test_fol_letter_gold_mapped(self, tmp_path):
        records = [{"id": "1", "context": "c", "question": "q", "answer": "B"}]
        path = _write(tmp_path, "pw.json", records)
        with pytest.warns(UserWarning):
            result = load("ProofWriter", path)
        assert result.problems[0].gold is Label.FALSE
        assert result.problems[0].options == ()

    def test_missing_gold_collected_others_load(self, tmp_path):
        records = [
            {"id": "ok", "context": "c", "question": "q", "answer": "true"},
            {"id": "broken", "context": "c", "question": "q"},
        ]
        path = _write(tmp_path, "pw.json", records)
        with pytest.warns(UserWarning):
            result = load("ProofWriter", path)
        assert [p.id for p in result.problems] == ["ok"]
        assert len(result.errors) == 1
        assert result.errors[0].kind == "MissingField"
        assert result.errors[0].record_id == "broken"

    def test_unknown_label_collected(self, tmp_path):
        records = [{"id": "1", "context": "c", "question": "q", "answer": "perhaps"}]
        path = _write(tmp_path, "pw.json", records)
        with pytest.warns(UserWarning):
            result = load("ProofWriter", path)
        assert not result.problems
        assert result.errors[0].kind == "UnknownLabel"

    def test_depth_field(self, tmp_path):
        records = [{"id": "1", "context": "c", "question": "q", "answer": "unknown", "depth": 3}]
        path = _write(tmp_path, "pw.json", records)
        with pytest.warns(UserWarning):
            result = load("ProofWriter", path)
        assert result.problems[0].depth == 3

    def test_jsonl_accepted(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"id": "1", "context": "c", "question": "q", "answer": "true"}\n'
            '{"id": "2", "context": "c", "question": "q", "answer": "false"}\n'
        )
        with pytest.warns(UserWarning):
            result = load("ProntoQA", path)
        assert len(result.problems) == 2

    def test_malformed_records_collected_others_load(self, tmp_path):
        good = {"id": "ok", "context": "c", "question": "q", "answer": "true"}
        array = _write(tmp_path, "pw.json", [1, good, ["x"]])
        with pytest.warns(UserWarning):
            result = load("ProofWriter", array)
        assert [p.id for p in result.problems] == ["ok"]
        assert [(e.record_id, e.kind) for e in result.errors] == [
            ("record-0", "Malformed"), ("record-2", "Malformed")]
        assert result.errors[0].detail == "expected a JSON object, got int"

        lines = tmp_path / "normalized.jsonl"
        record = dict(good, dataset="ProofWriter", gold="True")
        lines.write_text(f"{json.dumps(record)}\n{{not json\n\n{json.dumps(dict(record, id='ok2'))}\n",
                         encoding="utf-8")
        result = load_normalized(lines)
        assert [p.id for p in result.problems] == ["ok", "ok2"]
        assert [(e.record_id, e.kind) for e in result.errors] == [("record-1", "Malformed")]
        assert result.errors[0].detail.startswith("invalid JSON: ")

    def test_malformed_options_collected_others_load(self, tmp_path):
        base = {"context": "ctx", "question": "q", "answer": "A"}
        records = [dict(base, id="num", options=5), dict(base, id="ok", options=["A) x", "B) y"]),
                   dict(base, id="text", options="A) x"),
                   dict(base, id="six", options=["A) a", "B) b", "C) c", "D) d", "E) e", "F) f"])]
        with pytest.warns(UserWarning):
            result = load("LogicalDeduction", _write(tmp_path, "ld.json", records))
        assert [p.id for p in result.problems] == ["ok"]
        assert [(e.record_id, e.kind, e.detail) for e in result.errors] == [
            ("num", "Malformed", "options must be a list, got int"),
            ("text", "Malformed", "options must be a list, got str"),
            ("six", "Malformed", "at most 5 options (A-E), got 6"),
        ]

    @pytest.mark.parametrize("depth", ["deep", 2.5, True, [3], {"d": 1}])
    def test_non_integer_depth_is_malformed(self, tmp_path, depth):
        records = [{"id": "bad", "context": "c", "question": "q", "answer": "true", "depth": depth},
                   {"id": "ok", "context": "c", "question": "q", "answer": "true", "depth": "4"}]
        with pytest.warns(UserWarning):
            result = load("ProofWriter", _write(tmp_path, "pw.json", records))
        assert [(p.id, p.depth) for p in result.problems] == [("ok", 4)]
        assert [(e.record_id, e.kind) for e in result.errors] == [("bad", "Malformed")]
        assert result.errors[0].detail == f"depth must be an integer, got {depth!r}"

    def test_normalization_idempotent(self, tmp_path, corpus):
        dumped = dump_problems(list(corpus.problems))
        path = tmp_path / "normalized.jsonl"
        path.write_text(dumped, encoding="utf-8")
        reloaded = load_normalized(path)
        assert not reloaded.errors
        assert dump_problems(reloaded.problems) == dumped

    def test_problem_holding_line_separators_round_trips(self, tmp_path, corpus):
        # dump_problems writes U+2028, U+2029 and U+0085 unescaped; they
        # are not line ends of the JSON-lines file
        problem = corpus.problems[0]
        odd = dataclasses.replace(problem, id="odd", context=f"one\u2028two\u2029three\x85four {problem.context}",
                                  question=f"{problem.question}\u2028again")
        dumped = dump_problems([problem, odd])
        path = tmp_path / "normalized.jsonl"
        path.write_text(dumped, encoding="utf-8")
        reloaded = load_normalized(path)
        assert not reloaded.errors
        assert reloaded.problems == [problem, odd]

    def test_dataset_aliases(self):
        assert dataset_info("ar-lsat").name == "ARLSAT"
        assert dataset_info("prontoqa").name == "ProntoQA"
        with pytest.raises(CorpusError):
            dataset_info("made-up")


_GOOD = {"id": "ok", "dataset": "ProofWriter", "context": "c", "question": "q", "gold": "True"}
_LINE, _LINE2 = json.dumps(_GOOD), json.dumps(dict(_GOOD, id="ok2"))
_ARRAY = json.dumps([_GOOD, dict(_GOOD, id="ok2")])
_BOM_ERROR = "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"


class TestLoaderLayouts:
    """How ``load_normalized`` reads each file layout: which problems load,
    and each error's (record id, kind, detail)."""

    @pytest.mark.parametrize("text,ids,errors", [
        ("\n\n  \n" + _ARRAY, ["ok", "ok2"], []),
        # the first non-whitespace character lies beyond any small read size
        (" \t\r\n" * 1200 + _ARRAY + "\n", ["ok", "ok2"], []),
        (" \t\r\n" * 1200 + f"{_LINE}\n{_LINE2}\n", ["ok", "ok2"], []),
        (" \n\t\r\n" * 1500, [], []),
        # blank lines are skipped and not counted in record-<i>
        (f"\n{_LINE}\n\n   \n[1]\n\t\n{_LINE2}\n\n", ["ok", "ok2"],
         [("record-1", "Malformed", "expected a JSON object, got list")]),
        (f"{_LINE}\r\n\r\n{_LINE2}\r\n", ["ok", "ok2"], []),
        (f"{_LINE}\r{_LINE2}\r", ["ok", "ok2"], []),
        # a byte-order mark is not whitespace: the file is read as JSON lines
        (f"\ufeff{_LINE}\n{_LINE2}\n", ["ok2"], [("record-0", "Malformed", _BOM_ERROR)]),
        ("\ufeff" + _ARRAY, [], [("record-0", "Malformed", _BOM_ERROR)]),
        (f"{_LINE}\n{{not json\n{_LINE2}", ["ok", "ok2"], [(
            "record-1", "Malformed",
            "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)")]),
        (f"{_LINE}\n{_LINE2[:24]}", ["ok"],
         [("record-1", "Malformed", "invalid JSON: Expecting value: line 1 column 25 (char 24)")]),
        (f"{_LINE2[:24]}\n{_LINE}\n", ["ok"],
         [("record-0", "Malformed", "invalid JSON: Expecting value: line 1 column 25 (char 24)")]),
        (f"5\n{_LINE}\n\"text\"\n", ["ok"],
         [("record-0", "Malformed", "expected a JSON object, got int"),
          ("record-2", "Malformed", "expected a JSON object, got str")]),
        (json.dumps([1, _GOOD, ["x"], None]), ["ok"],
         [("record-0", "Malformed", "expected a JSON object, got int"),
          ("record-2", "Malformed", "expected a JSON object, got list"),
          ("record-3", "Malformed", "expected a JSON object, got NoneType")]),
    ], ids=["array-after-blank-lines", "array-after-4k-whitespace", "lines-after-4k-whitespace",
            "whitespace-only", "lines-with-blank-lines", "lines-with-crlf", "lines-with-cr",
            "bom-lines", "bom-array", "unparsable-line", "truncated-last-line",
            "truncated-line-then-newline", "non-object-lines", "non-objects-in-array"])
    def test_layout(self, tmp_path, text, ids, errors):
        path = tmp_path / "data.jsonl"
        path.write_bytes(text.encode("utf-8"))
        result = load_normalized(path)
        assert [p.id for p in result.problems] == ids
        assert [(e.record_id, e.kind, e.detail) for e in result.errors] == errors
