"""The JSON-lines readers ``read_records``, ``load_normalized`` and ``load``
split a file as ``corpus.json_lines`` does.

Each file below is laid out with "\\n", "\\r\\n" or "\\r" line ends, with
blank lines, or without a newline after its last line, and every text field
of its records holds U+2028, U+2029 and U+0085, which JSON writes unescaped
and ``str.splitlines`` would break at.  Each reader reads the records back
unchanged.
"""

import json
import re
import warnings

import pytest
from click.testing import CliRunner

from symchain.cli import main
from symchain.corpus import Problem, dump_problems, load, load_normalized
from symchain.logic import Label
from symchain.pipeline import Method, RunRecord, StageRecord, read_records, write_records

SEPARATORS = "\u2028\u2029\x85"

LAYOUTS = {
    "lf": lambda lines: "".join(f"{line}\n" for line in lines),
    "crlf": lambda lines: "".join(f"{line}\r\n" for line in lines),
    "cr": lambda lines: "".join(f"{line}\r" for line in lines),
    "blank-lines": lambda lines: "\n  \n" + "".join(f"{line}\n\t\r\n\n" for line in lines),
    "no-final-newline": lambda lines: "\r\n".join(lines),
}


def odd(text: str) -> str:
    """``text`` with the three separators inside it, where no strip removes them."""
    return f"{text[:1]}{SEPARATORS}{text[1:]}"


def lay_out(tmp_path, layout: str, lines: list[str]):
    path = tmp_path / f"{layout}.jsonl"
    path.write_bytes(LAYOUTS[layout](lines).encode("utf-8"))
    return path


RUN_RECORDS = [
    RunRecord(problem_id=odd(f"p{i}"), method=Method.SYMBCOT, executed=True, final_label=Label.FALSE,
              dataset=odd("ProntoQA"), wall_time=0.25, error=odd("GatewayError: none"),
              stages=[StageRecord(stage=odd("solver"), prompt=odd("Context:"), response=odd("Final answer: {false}"),
                                  label=Label.FALSE, completion_tokens=7, diagnostics=[odd("warning"), odd("error")])])
    for i in range(3)
]

PROBLEMS = [
    Problem(id=odd("fol-1"), dataset="ProofWriter", context=odd("Bob is big."), question=odd("Bob is big."),
            gold=Label.TRUE, depth=2),
    Problem(id=odd("csp-1"), dataset="LogicalDeduction", context=odd("Three books."), question=odd("Which?"),
            options=(("A", odd("The red book")), ("B", odd("The blue book"))), gold=Label.B),
]

# raw dataset records under their published field names, and what each loads as
RAW = {
    "ProofWriter": ([{"example_id": odd("pw-1"), "premises": odd("Bob is big."), "conclusion": odd("Bob is big."),
                      "answer": "A", "proof_depth": 1}],
                    [Problem(id=odd("pw-1"), dataset="ProofWriter", context=odd("Bob is big."),
                             question=odd("Bob is big."), gold=Label.TRUE, depth=1)]),
    "ARLSAT": ([{"id": odd("ar-1"), "context": odd("Five slots."), "question": odd("Which could be true?"),
                 "options": [f"A) {odd('first')}", f"(B) {odd('second')}"], "label": "B"}],
               [Problem(id=odd("ar-1"), dataset="ARLSAT", context=odd("Five slots."),
                        question=odd("Which could be true?"), options=(("A", odd("first")), ("B", odd("second"))),
                        gold=Label.B)]),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_read_records_reads_back_unchanged(tmp_path, layout):
    written = tmp_path / "written.jsonl"
    write_records(RUN_RECORDS, written)
    assert all(SEPARATORS in line for line in written.read_text(encoding="utf-8").split("\n") if line)
    path = lay_out(tmp_path, layout, written.read_text(encoding="utf-8").split("\n")[:-1])
    assert read_records(path) == RUN_RECORDS


@pytest.mark.parametrize("layout", LAYOUTS)
def test_load_normalized_reads_back_unchanged(tmp_path, layout):
    path = lay_out(tmp_path, layout, dump_problems(PROBLEMS).split("\n"))
    result = load_normalized(path)
    assert (result.problems, result.errors) == (PROBLEMS, [])


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dataset", RAW)
def test_load_reads_back_unchanged(tmp_path, layout, dataset):
    records, problems = RAW[dataset]
    path = lay_out(tmp_path, layout, [json.dumps(r, ensure_ascii=False) for r in records])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the file is smaller than the published split
        result = load(dataset, path)
    assert (result.problems, result.errors) == (problems, [])


@pytest.mark.parametrize("layout,line", [("lf", 2), ("crlf", 2), ("cr", 2), ("blank-lines", 6),
                                         ("no-final-newline", 2)])
def test_read_records_names_the_physical_line_that_is_not_json(tmp_path, layout, line):
    good = RUN_RECORDS[0].to_json()
    path = lay_out(tmp_path, layout, [good, f"{good[:-1]}{SEPARATORS}", good])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: not JSON "):
        read_records(path)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_load_normalized_skips_the_line_that_is_not_json(tmp_path, layout):
    lines = dump_problems(PROBLEMS).split("\n")
    path = lay_out(tmp_path, layout, [lines[0], lines[1][:-1], lines[1]])
    result = load_normalized(path)
    assert result.problems == [PROBLEMS[0], PROBLEMS[1]]
    assert [(e.record_id, e.kind) for e in result.errors] == [("record-1", "Malformed")]


def test_load_errors_name_the_physical_line(tmp_path):
    """Blank lines before it put the bad record on line 6; the error names
    that line, whatever its position among the records."""
    lines = dump_problems(PROBLEMS).split("\n")
    result = load_normalized(lay_out(tmp_path, "blank-lines", [lines[0], lines[1][:-1], lines[1]]))
    assert [(e.record_id, e.kind, e.line) for e in result.errors] == [("record-1", "Malformed", 6)]
    assert str(result.errors[0]).startswith("Malformed(record-1), line 6: invalid JSON: ")

    (good,), _ = RAW["ProofWriter"]
    bad = {key: value for key, value in good.items() if key != "answer"}
    path = lay_out(tmp_path, "blank-lines", [json.dumps(r, ensure_ascii=False) for r in (good, bad, good)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the file is smaller than the published split
        result = load("ProofWriter", path)
        run = CliRunner().invoke(main, ["run", "--method", "cot", "--dataset", "ProofWriter",
                                        "--data-file", str(path), "--limit", "0",
                                        "--replay", str(tmp_path / "cache"), "--out", str(tmp_path / "out.jsonl")])
    [error] = result.errors
    assert (error.kind, error.line) == ("MissingField", 6)
    assert str(error) == f"MissingField({good['example_id']}), line 6: {error.detail}"
    assert (run.exit_code, run.stderr) == (0, f"{error}\n")


def test_a_line_that_is_not_json_is_named_by_its_line_and_the_decoders_column(tmp_path):
    """Each line is decoded alone, so the decoder's own line is always 1 and
    is left out; its message and column are kept."""
    problem = dump_problems(PROBLEMS).split("\n")[1]
    cut = problem.index('"question"') + 3
    result = load_normalized(lay_out(tmp_path, "blank-lines", [problem, problem[:cut], problem]))
    assert [str(e) for e in result.errors] == [
        f"Malformed(record-1), line 6: invalid JSON: Unterminated string starting at: column {cut - 2}"]

    record = RUN_RECORDS[0].to_json()
    cut = record.index('"method"') + 3
    path = lay_out(tmp_path, "blank-lines", [record, record[:cut]])
    with pytest.raises(ValueError) as caught:
        read_records(path)
    assert str(caught.value) == f"{path}, line 6: not JSON (Unterminated string starting at: column {cut - 2})"


def test_json_array_load_errors_have_no_line(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps([5]), encoding="utf-8")
    [error] = load_normalized(path).errors
    assert (error.line, str(error)) == (None, "Malformed(record-0): expected a JSON object, got int")
