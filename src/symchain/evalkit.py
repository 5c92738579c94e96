"""Metrics over run records: accuracy, execution rate, P/R/F1, depth
breakdowns, prediction distributions, output lengths, and faithfulness
tallies, with deterministic markdown / csv / json report rendering."""

from __future__ import annotations

import csv
import io
import json
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import Problem
from .logic import Label
from .pipeline import CODECS, ENGINE_STAGE, Record, RunRecord, read_object


class IdMismatchError(Exception):
    def __init__(self, missing: list[str]):
        preview = ", ".join(missing[:5])
        super().__init__(f"records without gold labels: {preview}")
        self.missing = missing


def _check_ids(records: Sequence[RunRecord], golds: Mapping[str, Label]) -> None:
    missing = [r.problem_id for r in records if r.problem_id not in golds]
    if missing:
        raise IdMismatchError(missing)


def accuracy(records: Sequence[RunRecord], golds: Mapping[str, Label]) -> float:
    """Fraction of records whose final label equals gold; Undecided counts
    as incorrect."""
    _check_ids(records, golds)
    if not records:
        return 0.0
    correct = sum(1 for r in records if r.final_label == golds[r.problem_id])
    return correct / len(records)


def execution_rate(records: Sequence[RunRecord]) -> float:
    """Executed count over total; an empty set is vacuously 1.0 (warned)."""
    if not records:
        warnings.warn("execution_rate over an empty record set is vacuously 1.0", stacklevel=2)
        return 1.0
    return sum(1 for r in records if r.executed) / len(records)


def undecided_rate(records: Sequence[RunRecord]) -> float:
    if not records:
        return 0.0
    return sum(1 for r in records if r.final_label is Label.UNDECIDED) / len(records)


def confusion_matrix(records: Sequence[RunRecord], golds: Mapping[str, Label]) -> dict[tuple[str, str], int]:
    """Counts keyed by (gold label value, predicted label value)."""
    _check_ids(records, golds)
    counts: Counter = Counter()
    for r in records:
        counts[(golds[r.problem_id].value, r.final_label.value)] += 1
    return dict(counts)


@dataclass(frozen=True)
class LabelScores:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class LabelMetrics:
    per_label: dict[str, LabelScores]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    zero_division_labels: frozenset[str]


def _canonical_labels(values: Iterable[str]) -> list[str]:
    """Label values in ``Label``'s declaration order, then any others sorted."""
    seen = set(values)
    order = [label.value for label in Label]
    return [v for v in order if v in seen] + sorted(seen - set(order))


def label_metrics(confusion: Mapping[tuple[str, str], int]) -> LabelMetrics:
    """Per-label precision/recall/F1 plus macro averages.

    A zero denominator yields 0 and flags the label rather than raising.
    """
    labels = _canonical_labels(v for pair in confusion for v in pair)
    per_label = {}
    flagged = set()
    for label in labels:
        tp = confusion.get((label, label), 0)
        predicted = sum(n for (g, p), n in confusion.items() if p == label)
        actual = sum(n for (g, p), n in confusion.items() if g == label)
        if predicted == 0 or actual == 0:
            flagged.add(label)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        per_label[label] = LabelScores(precision, recall, f1)
    n = len(labels) or 1
    return LabelMetrics(
        per_label=per_label,
        macro_precision=sum(s.precision for s in per_label.values()) / n,
        macro_recall=sum(s.recall for s in per_label.values()) / n,
        macro_f1=sum(s.f1 for s in per_label.values()) / n,
        zero_division_labels=frozenset(flagged),
    )


def depth_breakdown(records: Sequence[RunRecord], golds: Mapping[str, Label],
                    problems: Sequence[Problem]) -> dict[int, float]:
    """Accuracy per reasoning depth, buckets 0..5; missing depths omitted."""
    _check_ids(records, golds)
    depths = {p.id: p.depth for p in problems}
    totals: Counter = Counter()
    correct: Counter = Counter()
    for r in records:
        depth = depths.get(r.problem_id)
        if depth is None or not (0 <= depth <= 5):
            continue
        totals[depth] += 1
        if r.final_label == golds[r.problem_id]:
            correct[depth] += 1
    return {d: correct[d] / totals[d] for d in sorted(totals)}


def prediction_distribution(records: Sequence[RunRecord]) -> dict[str, float]:
    if not records:
        return {}
    counts = Counter(r.final_label.value for r in records)
    return {label: counts[label] / len(records) for label in sorted(counts)}


def stage_output_lengths(records: Sequence[RunRecord]) -> dict[str, float]:
    """Mean completion tokens per stage name across all records."""
    tokens: defaultdict = defaultdict(list)
    for r in records:
        for s in r.stages:
            if s.stage != ENGINE_STAGE:
                tokens[s.stage].append(s.completion_tokens)
    return {stage: sum(values) / len(values) for stage, values in sorted(tokens.items())}


# ---------------------------------------------------------------------------
# Faithfulness annotations

VERDICTS = ("faithful", "unfaithful", "false")


@dataclass
class FaithfulnessTally(Record):
    counts: dict[str, int] = field(default_factory=dict)
    even_splits: tuple[str, ...] = ()

    def __post_init__(self):
        # a verdict count missing from the JSON reads as 0
        self.counts = {**dict.fromkeys(VERDICTS, 0), **self.counts}


def faithfulness_tally(rows: Iterable[tuple[str, str, str]]) -> FaithfulnessTally:
    """Majority vote per problem over (problem_id, annotator_id, verdict)
    rows; even splits are reported and excluded from the counts."""
    by_problem: defaultdict = defaultdict(list)
    for problem_id, annotator_id, verdict in rows:
        verdict = verdict.strip().lower()
        if verdict not in VERDICTS:
            raise ValueError(f"unknown faithfulness verdict {verdict!r} for {problem_id}")
        by_problem[problem_id].append(verdict)
    counts = {v: 0 for v in VERDICTS}
    even = []
    for problem_id in sorted(by_problem):
        tally = Counter(by_problem[problem_id])
        best = tally.most_common()
        if len(best) > 1 and best[0][1] == best[1][1]:
            even.append(problem_id)
            continue
        counts[best[0][0]] += 1
    return FaithfulnessTally(counts, tuple(even))


def read_annotations(path) -> list[tuple[str, str, str]]:
    """CSV with header problem_id,annotator_id,verdict (a missing column raises ``ValueError``)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = {"problem_id", "annotator_id", "verdict"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"no {', '.join(sorted(missing))} column")
        return [(row["problem_id"], row["annotator_id"], row["verdict"]) for row in reader]


# ---------------------------------------------------------------------------
# Reports


@dataclass
class DatasetReport(Record):
    """One dataset's scores in the JSON shape they are written in: confusion
    keyed ``"gold->predicted"``, label scores as ``{"precision", "recall",
    "f1"}`` objects and depth buckets keyed by their decimal text.  A key
    missing from the JSON takes the field's default."""

    count: int = 0
    accuracy: float = 0.0
    execution_rate: float = 0.0
    undecided_rate: float = 0.0
    confusion: dict[str, int] = field(default_factory=dict)
    per_label: dict[str, dict[str, float]] = field(default_factory=dict)
    macro: dict[str, float] = field(default_factory=dict)
    zero_division_labels: list[str] = field(default_factory=list)
    depth_breakdown: dict[str, float] = field(default_factory=dict)
    prediction_distribution: dict[str, float] = field(default_factory=dict)
    stage_output_lengths: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # a label or macro score missing from the JSON reads as 0.0
        zero = {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        self.per_label = {label: {**zero, **scores} for label, scores in self.per_label.items()}
        self.macro = {**zero, **self.macro}


CODECS.update({
    "dict[str, DatasetReport]": (lambda datasets, timing: {name: d.to_dict(timing) for name, d in datasets.items()},
                                 read_object(DatasetReport.from_dict)),
    "Optional[FaithfulnessTally]": (lambda tally, timing: None if tally is None else tally.to_dict(timing),
                                    lambda data: None if data is None else FaithfulnessTally.from_dict(data)),
})


@dataclass
class EvalReport(Record):
    method: str = "?"
    datasets: dict[str, DatasetReport] = field(default_factory=dict)
    faithfulness: Optional[FaithfulnessTally] = None

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = super().to_dict(include_wall_time)
        if self.faithfulness is None:  # a report without annotations has no faithfulness key
            del out["faithfulness"]
        return out


def build_report(records: Sequence[RunRecord], golds: Mapping[str, Label],
                 problems: Sequence[Problem], method: str = "?",
                 annotations: Optional[Iterable[tuple[str, str, str]]] = None) -> EvalReport:
    report = EvalReport(method=method)
    by_dataset: defaultdict = defaultdict(list)
    for r in records:
        by_dataset[r.dataset or "?"].append(r)
    problem_index = {p.id: p for p in problems}
    for name in sorted(by_dataset):
        subset = by_dataset[name]
        subset_problems = [problem_index[r.problem_id] for r in subset if r.problem_id in problem_index]
        confusion = confusion_matrix(subset, golds)
        metrics = label_metrics(confusion)
        report.datasets[name] = DatasetReport(
            count=len(subset),
            accuracy=accuracy(subset, golds),
            execution_rate=execution_rate(subset),
            undecided_rate=undecided_rate(subset),
            confusion={f"{g}->{p}": n for (g, p), n in confusion.items()},
            per_label={label: {"precision": s.precision, "recall": s.recall, "f1": s.f1}
                       for label, s in metrics.per_label.items()},
            macro={"precision": metrics.macro_precision, "recall": metrics.macro_recall, "f1": metrics.macro_f1},
            zero_division_labels=sorted(metrics.zero_division_labels),
            depth_breakdown={str(d): v for d, v in depth_breakdown(subset, golds, subset_problems).items()},
            prediction_distribution=prediction_distribution(subset),
            stage_output_lengths=stage_output_lengths(subset),
        )
    if annotations is not None:
        report.faithfulness = faithfulness_tally(annotations)
    return report


def _pct(value: float) -> str:
    """Percentages rendered to two decimals, e.g. 0.825 -> '82.50'."""
    return f"{value * 100:.2f}"


def render_report(report: EvalReport, fmt: str = "markdown") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), ensure_ascii=False, sort_keys=True, indent=2)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "markdown":
        return render_comparison([report])
    raise ValueError(f"unknown report format {fmt!r}")


def _render_csv(report: EvalReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "dataset", "metric", "key", "value"])
    for name in sorted(report.datasets):
        d = report.datasets[name]
        writer.writerow([report.method, name, "count", "", d.count])
        writer.writerow([report.method, name, "accuracy", "", repr(d.accuracy)])
        writer.writerow([report.method, name, "execution_rate", "", repr(d.execution_rate)])
        writer.writerow([report.method, name, "undecided_rate", "", repr(d.undecided_rate)])
        for label in sorted(d.per_label):
            for metric in ("precision", "recall", "f1"):
                writer.writerow([report.method, name, metric, label, repr(d.per_label[label][metric])])
        writer.writerow([report.method, name, "macro_f1", "", repr(d.macro["f1"])])
        for depth in sorted(d.depth_breakdown):
            writer.writerow([report.method, name, "depth_accuracy", depth, repr(d.depth_breakdown[depth])])
        for label in sorted(d.prediction_distribution):
            writer.writerow([report.method, name, "prediction_fraction", label,
                             repr(d.prediction_distribution[label])])
        for stage in sorted(d.stage_output_lengths):
            writer.writerow([report.method, name, "mean_completion_tokens", stage,
                             repr(d.stage_output_lengths[stage])])
    if report.faithfulness is not None:
        for verdict in VERDICTS:
            writer.writerow([report.method, "", "faithfulness", verdict,
                             report.faithfulness.counts[verdict]])
    return buf.getvalue()


def render_comparison(reports: Sequence[EvalReport]) -> str:
    """Markdown comparison: accuracy and execution-rate tables with one row
    per method and datasets as columns, followed by the detail sections of
    each report."""
    datasets = sorted({name for report in reports for name in report.datasets})
    lines = ["# Evaluation report", ""]
    for title, metric in (("Accuracy", "accuracy"), ("Execution rate", "execution_rate")):
        lines += [f"## {title} (%)", "", "| Method | " + " | ".join(datasets) + " |",
                  "|---" * (len(datasets) + 1) + "|"]
        for report in reports:
            cells = [_pct(getattr(report.datasets[name], metric)) if name in report.datasets else "-"
                     for name in datasets]
            lines.append(f"| {report.method} | " + " | ".join(cells) + " |")
        lines.append("")
    for report in reports:
        for name in sorted(report.datasets):
            d = report.datasets[name]
            lines.append(f"## {report.method} on {name}")
            lines.append("")
            lines.append(f"- problems: {d.count}")
            lines.append(f"- accuracy: {_pct(d.accuracy)}")
            lines.append(f"- execution rate: {_pct(d.execution_rate)}")
            lines.append(f"- undecided: {_pct(d.undecided_rate)}")
            lines.append("")
            if d.per_label:
                lines.append("| Label | Precision | Recall | F1 |")
                lines.append("|---|---|---|---|")
                rows = [(label, d.per_label[label]) for label in _canonical_labels(d.per_label)]
                for label, s in rows + [("macro", d.macro)]:
                    lines.append(f"| {label} | {_pct(s['precision'])} | {_pct(s['recall'])} | {_pct(s['f1'])} |")
                lines.append("")
            if d.depth_breakdown:
                lines.append("| Depth | Accuracy |")
                lines.append("|---|---|")
                for depth in sorted(d.depth_breakdown):
                    lines.append(f"| {depth} | {_pct(d.depth_breakdown[depth])} |")
                lines.append("")
            if d.prediction_distribution:
                dist = ", ".join(f"{label}: {_pct(frac)}" for label, frac in
                                 sorted(d.prediction_distribution.items()))
                lines.append(f"- prediction distribution: {dist}")
            if d.stage_output_lengths:
                lens = ", ".join(f"{stage}: {mean:.1f}" for stage, mean in
                                 sorted(d.stage_output_lengths.items()))
                lines.append(f"- mean output tokens: {lens}")
            lines.append("")
    for report in reports:
        if report.faithfulness is not None:
            lines.append(f"## Faithfulness ({report.method})")
            lines.append("")
            for verdict in VERDICTS:
                lines.append(f"- {verdict}: {report.faithfulness.counts[verdict]}")
            if report.faithfulness.even_splits:
                lines.append(f"- even splits excluded: {', '.join(report.faithfulness.even_splits)}")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"
