import json
from fractions import Fraction

import pytest

from symchain.evalkit import (
    EvalReport, FaithfulnessTally, IdMismatchError, accuracy, build_report, depth_breakdown,
    execution_rate, faithfulness_tally, label_metrics,
    prediction_distribution, read_annotations, render_comparison, render_report,
    stage_output_lengths,
)
from symchain.corpus import Problem, mini_corpus
from symchain.fixtures import ScriptedCorpusBackend
from symchain.logic import Label
from symchain.pipeline import Method, RunConfig, RunRecord, StageRecord, run_batch


def rec(problem_id, label, executed=True, dataset="ProofWriter", stages=()):
    return RunRecord(
        problem_id=problem_id,
        dataset=dataset,
        method=Method.TRANSLATE_THEN_SOLVE,
        stages=list(stages),
        executed=executed,
        final_label=label,
    )


class TestAccuracy:
    def test_all_correct(self):
        records = [rec(f"p{i}", Label.TRUE) for i in range(4)]
        golds = {f"p{i}": Label.TRUE for i in range(4)}
        assert accuracy(records, golds) == 1.0

    def test_none_correct(self):
        records = [rec(f"p{i}", Label.FALSE) for i in range(3)]
        golds = {f"p{i}": Label.TRUE for i in range(3)}
        assert accuracy(records, golds) == 0.0

    def test_undecided_counts_incorrect(self):
        records = [rec("a", Label.TRUE), rec("b", Label.UNDECIDED)]
        golds = {"a": Label.TRUE, "b": Label.FALSE}
        assert accuracy(records, golds) == 0.5

    def test_id_mismatch(self):
        with pytest.raises(IdMismatchError):
            accuracy([rec("missing", Label.TRUE)], {"other": Label.TRUE})

    def test_permutation_invariant(self):
        records = [rec("a", Label.TRUE), rec("b", Label.FALSE), rec("c", Label.UNKNOWN)]
        golds = {"a": Label.TRUE, "b": Label.TRUE, "c": Label.UNKNOWN}
        assert accuracy(records, golds) == accuracy(list(reversed(records)), golds)


class TestExecutionRate:
    def test_eighty_of_hundred(self):
        records = [rec(f"p{i}", Label.TRUE, executed=(i < 80)) for i in range(100)]
        assert execution_rate(records) == 0.80

    def test_all_executed(self):
        records = [rec(f"p{i}", Label.TRUE) for i in range(5)]
        assert execution_rate(records) == 1.0

    def test_empty_is_vacuous_one_with_warning(self):
        with pytest.warns(UserWarning, match="vacuously"):
            assert execution_rate([]) == 1.0


# Hand-computed oracle matrix (gold rows, predicted columns):
#            True  False Unknown
#   True      50     5      5
#   False      4    30      6
#   Unknown    6     4     10
HAND_MATRIX = {
    ("True", "True"): 50, ("True", "False"): 5, ("True", "Unknown"): 5,
    ("False", "True"): 4, ("False", "False"): 30, ("False", "Unknown"): 6,
    ("Unknown", "True"): 6, ("Unknown", "False"): 4, ("Unknown", "Unknown"): 10,
}

# Expected values computed by hand with exact fractions.
P_TRUE = Fraction(50, 60)
R_TRUE = Fraction(50, 60)
F_TRUE = Fraction(50, 60)  # P == R makes F1 equal them
P_FALSE = Fraction(30, 39)
R_FALSE = Fraction(30, 40)
F_FALSE = 2 * P_FALSE * R_FALSE / (P_FALSE + R_FALSE)
P_UNK = Fraction(10, 21)
R_UNK = Fraction(10, 20)
F_UNK = 2 * P_UNK * R_UNK / (P_UNK + R_UNK)


class TestLabelMetrics:
    def test_identity_confusion(self):
        confusion = {("True", "True"): 7, ("False", "False"): 3}
        metrics = label_metrics(confusion)
        for scores in metrics.per_label.values():
            assert scores.precision == scores.recall == scores.f1 == 1.0

    def test_hand_matrix(self):
        metrics = label_metrics(HAND_MATRIX)
        assert metrics.per_label["True"].precision == pytest.approx(float(P_TRUE), abs=1e-9)
        assert metrics.per_label["True"].recall == pytest.approx(float(R_TRUE), abs=1e-9)
        assert metrics.per_label["True"].f1 == pytest.approx(float(F_TRUE), abs=1e-9)
        assert metrics.per_label["False"].precision == pytest.approx(float(P_FALSE), abs=1e-9)
        assert metrics.per_label["False"].recall == pytest.approx(float(R_FALSE), abs=1e-9)
        assert metrics.per_label["False"].f1 == pytest.approx(float(F_FALSE), abs=1e-9)
        assert metrics.per_label["Unknown"].precision == pytest.approx(float(P_UNK), abs=1e-9)
        assert metrics.per_label["Unknown"].f1 == pytest.approx(float(F_UNK), abs=1e-9)
        assert not metrics.zero_division_labels

    def test_macro_is_mean_of_per_label(self):
        metrics = label_metrics(HAND_MATRIX)
        f1s = [s.f1 for s in metrics.per_label.values()]
        assert metrics.macro_f1 == pytest.approx(sum(f1s) / len(f1s), abs=1e-12)

    def test_never_predicted_label_flagged_zero(self):
        confusion = {("True", "True"): 5, ("False", "True"): 2}
        metrics = label_metrics(confusion)
        assert metrics.per_label["False"].precision == 0.0
        assert "False" in metrics.zero_division_labels

    def test_f1_harmonic_mean_property(self):
        metrics = label_metrics(HAND_MATRIX)
        for scores in metrics.per_label.values():
            if scores.precision and scores.recall:
                want = 2 * scores.precision * scores.recall / (scores.precision + scores.recall)
                assert scores.f1 == pytest.approx(want, abs=1e-12)


class TestDepthBreakdown:
    def test_buckets(self):
        problems = [
            Problem(id="d5", dataset="ProofWriter", context="c", question="q",
                    gold=Label.TRUE, depth=5),
            Problem(id="d1", dataset="ProofWriter", context="c", question="q",
                    gold=Label.TRUE, depth=1),
        ]
        records = [rec("d5", Label.TRUE), rec("d1", Label.FALSE)]
        golds = {p.id: p.gold for p in problems}
        assert depth_breakdown(records, golds, problems) == {1: 0.0, 5: 1.0}

    def test_missing_depths_omitted(self):
        problems = [Problem(id="x", dataset="FOLIO", context="c", question="q", gold=Label.TRUE)]
        records = [rec("x", Label.TRUE, dataset="FOLIO")]
        assert depth_breakdown(records, {"x": Label.TRUE}, problems) == {}

    def test_minicorpus_proofwriter_depth_table(self):
        from symchain.corpus import mini_corpus
        from symchain.fixtures import ScriptedCorpusBackend
        from symchain.pipeline import Method, RunConfig, run_batch

        corpus = mini_corpus()
        subset = [p for p in corpus.problems if p.dataset == "ProofWriter"]
        records = run_batch(subset, Method.TRANSLATE_THEN_SOLVE, RunConfig(),
                            ScriptedCorpusBackend(corpus))
        table = depth_breakdown(records, corpus.golds(), subset)
        # fixture depths: anne at 2, tiger at 4, both solved correctly
        assert table == {2: 1.0, 4: 1.0}


class TestDistributionsAndLengths:
    def test_distribution_sums_to_one(self):
        records = [rec("a", Label.TRUE), rec("b", Label.FALSE), rec("c", Label.FALSE),
                   rec("d", Label.UNDECIDED)]
        dist = prediction_distribution(records)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        assert dist["False"] == 0.5

    def test_stage_lengths_mean(self):
        stages_a = [StageRecord("solver", "", "", completion_tokens=10),
                    StageRecord("verifier", "", "", completion_tokens=30)]
        stages_b = [StageRecord("solver", "", "", completion_tokens=20)]
        records = [rec("a", Label.TRUE, stages=stages_a), rec("b", Label.TRUE, stages=stages_b)]
        lengths = stage_output_lengths(records)
        assert lengths == {"solver": 15.0, "verifier": 30.0}

    def test_engine_stage_excluded(self):
        stages = [StageRecord("engine", "", "", completion_tokens=0)]
        assert stage_output_lengths([rec("a", Label.TRUE, stages=stages)]) == {}


class TestFaithfulness:
    def test_majority_of_five(self):
        rows = [("p1", f"a{i}", "faithful") for i in range(3)]
        rows += [("p1", "a3", "unfaithful"), ("p1", "a4", "false")]
        tally = faithfulness_tally(rows)
        assert tally.counts == {"faithful": 1, "unfaithful": 0, "false": 0}

    def test_single_annotator(self):
        tally = faithfulness_tally([("p1", "a0", "unfaithful")])
        assert tally.counts["unfaithful"] == 1

    def test_even_split_reported_excluded(self):
        rows = [("p1", "a0", "faithful"), ("p1", "a1", "false"),
                ("p2", "a0", "faithful")]
        tally = faithfulness_tally(rows)
        assert tally.even_splits == ("p1",)
        assert tally.counts == {"faithful": 1, "unfaithful": 0, "false": 0}

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            faithfulness_tally([("p1", "a0", "plausible")])

    def test_annotations_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "annotations.csv"
        path.write_text("problem_id,annotator_id,verdict\np1,a0,faithful\n", encoding="utf-8-sig")
        assert read_annotations(path) == [("p1", "a0", "faithful")]

    def test_annotations_without_a_column_rejected(self, tmp_path):
        path = tmp_path / "annotations.csv"
        path.write_text("problem_id,verdict\np1,faithful\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^no annotator_id column$"):
            read_annotations(path)

    def test_annotations_short_row_reads_empty_cells(self, tmp_path):
        path = tmp_path / "annotations.csv"
        path.write_text("problem_id,annotator_id,verdict\np1,a0\n", encoding="utf-8")
        assert read_annotations(path) == [("p1", "a0", "")]

    def test_missing_verdict_count_reads_as_zero(self):
        tally = FaithfulnessTally.from_dict({"counts": {"false": 2}})
        assert (tally.counts, tally.even_splits) == ({"faithful": 0, "unfaithful": 0, "false": 2}, ())
        assert FaithfulnessTally.from_dict({"even_splits": ["p1"]}).even_splits == ("p1",)


class TestReports:
    def _report(self):
        problems = [
            Problem(id="a", dataset="ProofWriter", context="c", question="q",
                    gold=Label.TRUE, depth=1),
            Problem(id="b", dataset="ProofWriter", context="c", question="q",
                    gold=Label.FALSE, depth=2),
        ]
        records = [rec("a", Label.TRUE), rec("b", Label.FALSE)]
        golds = {p.id: p.gold for p in problems}
        return build_report(records, golds, problems, method="symbcot")

    def test_markdown_two_decimal_convention(self):
        report = self._report()
        report.datasets["ProofWriter"].accuracy = 0.8250
        markdown = render_report(report, "markdown")
        assert "82.50" in markdown

    def test_deterministic_rendering(self):
        a = render_report(self._report(), "markdown")
        b = render_report(self._report(), "markdown")
        assert a == b

    def test_csv_json_agree_on_values(self):
        report = self._report()
        data = json.loads(render_report(report, "json"))
        csv_text = render_report(report, "csv")
        acc = data["datasets"]["ProofWriter"]["accuracy"]
        assert f"accuracy,,{acc!r}" in csv_text.replace('"', "")

    def test_json_round_trip(self):
        report = self._report()
        again = EvalReport.from_dict(json.loads(render_report(report, "json")))
        assert render_report(again, "json") == render_report(report, "json")

    @pytest.mark.parametrize("method", list(Method))
    def test_markdown_after_a_json_round_trip(self, method):
        corpus = mini_corpus()
        problems = list(corpus.problems)
        records = run_batch(problems, method, RunConfig(), ScriptedCorpusBackend(corpus))
        report = build_report(records, corpus.golds(), problems, method=method.value)
        again = EvalReport.from_dict(json.loads(render_report(report, "json")))
        assert render_report(again, "markdown") == render_report(report, "markdown")

    def test_label_rows_in_canonical_order(self):
        records = [rec("a", Label.TRUE), rec("b", Label.FALSE), rec("c", Label.UNKNOWN)]
        golds = {"a": Label.UNKNOWN, "b": Label.FALSE, "c": Label.TRUE}
        report = build_report(records, golds, [], method="cot")
        markdown = render_report(EvalReport.from_dict(json.loads(render_report(report, "json"))))
        rows = [line.split(" | ")[0] for line in markdown.splitlines() if line.startswith("| ")]
        assert rows[rows.index("| Label"):][1:4] == ["| True", "| False", "| Unknown"]

    def test_missing_keys_take_defaults(self):
        report = EvalReport.from_dict({"datasets": {"x": {
            "per_label": {"True": {"precision": 1.0, "recall": 0.5, "f1": 0.75}}, "macro": {"precision": 0.5}}}})
        assert report.method == "?" and report.faithfulness is None
        d = report.datasets["x"]
        assert (d.count, d.accuracy, d.confusion, d.depth_breakdown) == (0, 0.0, {}, {})
        assert d.macro == {"precision": 0.5, "recall": 0.0, "f1": 0.0}
        assert "| macro | 50.00 | 0.00 | 0.00 |" in render_report(report, "markdown")
        assert EvalReport.from_dict({"datasets": {"x": {}}}).datasets["x"].macro == \
            {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_missing_label_scores_read_as_zero(self):
        report = EvalReport.from_dict({"datasets": {"x": {"per_label": {"True": {"recall": 0.5}, "False": {}}}}})
        assert report.datasets["x"].per_label == {"True": {"precision": 0.0, "recall": 0.5, "f1": 0.0},
                                                  "False": {"precision": 0.0, "recall": 0.0, "f1": 0.0}}
        markdown = render_report(report, "markdown")
        assert "| True | 0.00 | 50.00 | 0.00 |\n| False | 0.00 | 0.00 | 0.00 |\n" in markdown
        assert "x,recall,True,0.5\n" in render_report(report, "csv")

    def test_json_without_annotations_has_no_faithfulness_key(self):
        assert "faithfulness" not in json.loads(render_report(self._report(), "json"))
        assert EvalReport.from_dict({"faithfulness": None}).faithfulness is None

    def test_merged_comparison_rows(self):
        r1 = self._report()
        r2 = self._report()
        r2.method = "cot"
        merged = render_comparison([r1, r2])
        assert "| symbcot |" in merged
        assert "| cot |" in merged

    def _annotated_report(self):
        stages = [StageRecord("translator", "", "", completion_tokens=12),
                  StageRecord("solver", "", "", completion_tokens=7),
                  StageRecord("engine", "", "", completion_tokens=0)]
        records = [rec("a", Label.TRUE, stages=stages), rec("b", Label.FALSE, stages=stages[1:])]
        rows = [("a", "x", "faithful"), ("a", "y", "faithful"), ("b", "x", "faithful"), ("b", "y", "false")]
        return build_report(records, {"a": Label.TRUE, "b": Label.TRUE}, [], method="symbcot", annotations=rows)

    def test_faithfulness_section_in_markdown(self):
        markdown = render_report(self._annotated_report(), "markdown")
        assert markdown.endswith("## Faithfulness (symbcot)\n\n- faithful: 1\n- unfaithful: 0\n- false: 0\n"
                                 "- even splits excluded: b\n")

    def test_faithfulness_and_stage_length_rows_in_csv(self):
        lines = render_report(self._annotated_report(), "csv").splitlines()
        assert lines[-5:] == [
            "symbcot,ProofWriter,mean_completion_tokens,solver,7.0",
            "symbcot,ProofWriter,mean_completion_tokens,translator,12.0",
            "symbcot,,faithfulness,faithful,1",
            "symbcot,,faithfulness,unfaithful,0",
            "symbcot,,faithfulness,false,0",
        ]

    def test_faithfulness_json_round_trip(self):
        report = self._annotated_report()
        again = EvalReport.from_dict(json.loads(render_report(report, "json")))
        assert again.faithfulness == report.faithfulness
        for fmt in ("json", "csv", "markdown"):
            assert render_report(again, fmt) == render_report(report, fmt)

    def test_empty_faithfulness_section_omitted(self):
        markdown = render_report(self._report(), "markdown")
        assert "Faithfulness" not in markdown

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(self._report(), "yaml")
