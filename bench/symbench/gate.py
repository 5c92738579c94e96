"""The correctness gate every measured batch passes through.

A run that records any failure here reports the failures instead of
numbers.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

from symchain.corpus import Problem
from symchain.evalkit import EvalReport
from symchain.pipeline import Method, RunRecord


def check_batch(problems: Sequence[Problem], method: Method, records: Sequence[RunRecord],
                read_back: Sequence[RunRecord], report: EvalReport,
                reference: Optional[Sequence[bytes]] = None) -> dict[str, str]:
    """Failures of one batch, keyed by problem id (one reason per problem;
    failures of the batch as a whole are keyed ``batch:<first problem id>``).

    * ``records`` come back in input order, one per problem;
    * the records read back from disk are byte-identical to the records
      written (equal ``record_digest``);
    * every record read back from disk has no ``error``, at least one stage,
      and the gold label; ``translate_then_solve`` records are ``executed``;
    * the report built from the read-back records scores 1.0 per dataset;
    * with ``reference`` (digests of the scripted pass's records), each
      record's ``to_json(include_wall_time=False)`` is byte-identical to the
      scripted record (equal SHA-256 digests).
    """
    failures: dict[str, str] = {}

    def fail(pid: str, reason: str) -> None:
        failures.setdefault(pid, reason)

    ids = [p.id for p in problems]
    batch = f"batch:{ids[0] if ids else '?'}"
    if [r.problem_id for r in records] != ids:
        fail(batch, "records are not one per problem in input order")
    if [record_digest(r) for r in read_back] != [record_digest(r) for r in records]:
        fail(batch, "records read back differ from the records written")
    gold = {p.id: p.gold for p in problems}
    for r in read_back:
        if r.error is not None:
            fail(r.problem_id, f"error: {r.error}")
        elif not r.stages:
            fail(r.problem_id, "record has no stages")
        elif r.final_label is not gold.get(r.problem_id):
            fail(r.problem_id, f"label {r.final_label.value} != gold {gold.get(r.problem_id)}")
        elif method is Method.TRANSLATE_THEN_SOLVE and not r.executed:
            fail(r.problem_id, "translate_then_solve record not executed")
    for name, dataset in report.datasets.items():
        if dataset.accuracy != 1.0:
            fail(batch, f"report accuracy on {name} is {dataset.accuracy}")
    if reference is not None:
        if len(reference) != len(records):
            fail(batch, "reference and replay record counts differ")
        for r, expected in zip(records, reference):
            if record_digest(r) != expected:
                fail(r.problem_id, "replay record differs from the scripted pass")
    return failures


def record_digest(record: RunRecord) -> bytes:
    """SHA-256 of the record's replay-comparable JSON form."""
    return hashlib.sha256(record.to_json(include_wall_time=False).encode("utf-8")).digest()
