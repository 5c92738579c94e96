"""Golden digests: outputs pinned case by case.

Each case renders one output from fixed seeds over the packaged mini-corpus,
and ``tests/data/golden_digests.json`` holds a short SHA-256 digest of each.
The cases are rendered in fresh interpreters under three ``PYTHONHASHSEED``
values, so an output that follows a set's iteration order fails here too.

Case kinds:

* ``report-json``, ``report-csv``, ``report-markdown``: a seeded record set
  for one method (labels, execution flags, token counts and kept problems
  drawn from the seed), with and without seeded faithfulness annotations;
* ``report-markdown-round-trip``: the same report's markdown after a JSON
  round trip through ``EvalReport.from_dict``;
* ``report-comparison``: the five methods' reports of one seed merged by
  ``render_comparison``;
* ``replay-records``: ``symchain run --replay`` records for one method,
  without ``wall_time``;
* ``forward-chain``: ``forward_chain`` over a seeded ``helpers.random_horn_kb``
  or ``helpers.random_long_body_kb``, each derivation as its ``to_text("kb")``
  literal, its depth and its ``via`` rule text with the binding;
* ``fol-block``: ``parse_translation_block`` of a mini-corpus FOL translation,
  as it is and after a seeded line deletion, header insertion or line
  shuffle, as ``to_text()`` and each diagnostic's severity, offset and
  message;
* ``csp-block``: ``parse_csp_block`` of a mini-corpus CSP translation, with the
  same mutations and CSP section headers, as the model's ``to_text()`` (or
  ``None``) and each diagnostic's severity, offset and message;
* ``extract-label``: ``extract_label`` of a mini-corpus solver, verifier,
  naive or CoT stage text, as it is, after a seeded deletion of 1–3 lines,
  and with another stage text spliced in at a seeded line, so hits of
  several tiers compete; the label with no label space and with the
  problem's ``_surface_space``;
* ``csp-answer``: a seeded ``helpers.random_csp_model`` or a mini-corpus CSP
  model; the ``solve_all`` solutions in order, then the ``evaluate_queries``
  statuses and solution count, or the ``NoSolutionsError`` text, and
  ``select_answer`` under each ``QuestionMode``;
* ``csp-expr``: a seeded ``helpers.random_constraint`` of depth 4 or
  ``helpers.random_chain`` of 63, 64, 65 and 192 boolean levels, as its
  ``print_expr`` text and the ``compile_expr`` check's value, or the name in
  its ``KeyError``, under each of the 64 ``helpers.partial_assignments``;
* ``formula``: a seeded ``helpers.random_formula`` with free variables, some
  atom arguments wrapped in one or two function applications, as its
  ``print_formula`` text, whether ``parse_formula`` of that text gives the
  same formula, and its sorted ``free_variables``.

After an intended output change, rewrite the digests with
``PYTHONPATH=src python tests/test_golden.py``; it prints how many cases
changed, were added and were removed, by kind. State those counts, and why
they moved, in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path
from random import Random
from typing import Iterator

DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"
REPORT_SEEDS = (1, 2, 3)
KB_SEEDS = range(40)
BLOCK_SEEDS = range(8)
HEADERS = ("Predicates:", "Premises:", "Facts:", "Rules:", "Query:", "Conclusion:")
CSP_HEADERS = ("Domain:", "Variables:", "Constraints:", "Query:")
EXPR_SEEDS = range(100)
CHAIN_LEVELS = (63, 64, 65, 192)
CHAIN_SEEDS = range(5)
FORMULA_SEEDS = range(120)


def _cases() -> Iterator[tuple[str, str, str]]:
    """(case id, input description, output) of every case, in a fixed order."""
    from click.testing import CliRunner

    from symchain.cli import main
    from symchain.corpus import mini_corpus
    from symchain.evalkit import EvalReport, build_report, render_comparison, render_report
    from symchain.fixtures import ScriptedCorpusBackend
    from symchain.logic import Label
    from symchain.pipeline import Method, RunConfig, read_records, run_batch

    corpus = mini_corpus()
    problems = list(corpus.problems)
    golds = corpus.golds()
    truth = (Label.TRUE, Label.FALSE, Label.UNKNOWN, Label.UNDECIDED)
    letters = (Label.A, Label.B, Label.C, Label.D, Label.E, Label.UNDECIDED)
    scripted = {method: run_batch(problems, method, RunConfig(), ScriptedCorpusBackend(corpus))
                for method in Method}

    def seeded_records(method: Method, rng: Random) -> list:
        records = []
        for r in scripted[method]:
            if rng.random() < 0.15:
                continue
            gold = golds[r.problem_id]
            label = gold if rng.random() < 0.5 else rng.choice(letters if gold in letters else truth)
            stages = [dataclasses.replace(s, completion_tokens=rng.randrange(400)) for s in r.stages]
            dataset = "" if rng.random() < 0.05 else r.dataset
            records.append(dataclasses.replace(r, final_label=label, executed=rng.random() < 0.8,
                                               stages=stages, dataset=dataset))
        return records

    def seeded_annotations(records: list, rng: Random) -> list[tuple[str, str, str]]:
        rows = []
        for r in records:
            for annotator in range(rng.randrange(5)):
                rows.append((r.problem_id, f"a{annotator}", rng.choice(("faithful", "unfaithful", "false"))))
        return rows

    for seed in REPORT_SEEDS:
        for annotated in (False, True):
            reports = []
            for method in Method:
                rng = Random(f"{seed}/{method.value}/{annotated}")
                records = seeded_records(method, rng)
                rows = seeded_annotations(records, rng) if annotated else None
                report = build_report(records, golds, problems, method=method.value, annotations=rows)
                reports.append(report)
                name = f"{method.value}/seed-{seed}/{'annotated' if annotated else 'plain'}"
                described = (f"seed {seed}, {method.value}, {len(records)} records, "
                             f"{'annotations' if annotated else 'no annotations'}")
                for fmt in ("json", "csv", "markdown"):
                    yield f"report-{fmt}:{name}", described, render_report(report, fmt)
                again = EvalReport.from_dict(json.loads(render_report(report, "json")))
                yield f"report-markdown-round-trip:{name}", described, render_report(again, "markdown")
            name = f"seed-{seed}/{'annotated' if annotated else 'plain'}"
            yield f"report-comparison:{name}", f"seed {seed}, all methods", render_comparison(reports)

    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        for method in Method:
            out = Path(tmp) / f"{method.value}.jsonl"
            result = runner.invoke(main, ["run", "--method", method.value, "--replay", "--out", str(out)])
            if result.exit_code != 0:
                raise AssertionError(f"symchain run --replay --method {method.value} exited "
                                     f"{result.exit_code}: {result.output}")
            records = "".join(r.to_json(include_wall_time=False) + "\n" for r in read_records(out))
            yield f"replay-records:{method.value}", f"symchain run --replay --method {method.value}", records

    yield from _chain_cases()
    yield from _block_cases(corpus)
    yield from _label_cases(corpus)
    yield from _csp_cases(corpus)
    yield from _expr_cases()
    yield from _formula_cases()


def _chain_cases() -> Iterator[tuple[str, str, str]]:
    import helpers

    from symchain.inference import forward_chain
    from symchain.logic import InconsistencyError

    for make in (helpers.random_horn_kb, helpers.random_long_body_kb):
        for seed in KB_SEEDS:
            kb = make(Random(seed))
            try:
                result = forward_chain(kb)
            except InconsistencyError as err:
                output = f"InconsistencyError: {err}"
            else:
                lines = [f"truncated: {result.truncated}"]
                for d in result.derivations:
                    line = f"{d.literal.to_text('kb')} at depth {d.depth}"
                    if d.via is not None:
                        rule, binding = d.via
                        line += f" via {rule.to_text()} with {', '.join(f'{n}={c}' for n, c in binding)}"
                    lines.append(line)
                output = "\n".join(lines)
            yield f"forward-chain:{make.__name__}/{seed}", f"helpers.{make.__name__}(Random({seed}))", output


def _mutated_blocks(corpus, csp: bool) -> Iterator[tuple[str, str, str]]:
    """(problem id, input name, text) of each mini-corpus FOL or CSP translation,
    as it is and after each seeded line deletion, header insertion and line shuffle."""
    headers = CSP_HEADERS if csp else HEADERS

    def mutations(lines: list[str], rng: Random) -> Iterator[tuple[str, list[str]]]:
        kept = list(lines)
        for _ in range(rng.randint(1, 3)):
            del kept[rng.randrange(len(kept))]
        yield "deletion", kept
        yield "header", lines[:(at := rng.randrange(len(lines) + 1))] + [rng.choice(headers)] + lines[at:]
        start = rng.randrange(len(lines) - 1)
        end = rng.randint(start + 2, len(lines))
        window = lines[start:end]
        rng.shuffle(window)
        yield "shuffle", lines[:start] + window + lines[end:]

    for problem in corpus.problems:
        if problem.family.is_csp != csp:
            continue
        text = corpus.translation(problem.id)
        yield problem.id, "as-is", text
        for seed in BLOCK_SEEDS:
            rng = Random(f"{problem.id}/{seed}")
            for name, lines in mutations(text.split("\n"), rng):
                yield problem.id, f"{name}-{seed}", "\n".join(lines)


def _block_cases(corpus) -> Iterator[tuple[str, str, str]]:
    from symchain.csp import parse_csp_block
    from symchain.folparse import parse_translation_block

    for problem_id, name, block_text in _mutated_blocks(corpus, csp=False):
        block = parse_translation_block(block_text)
        output = "\n".join([block.to_text(), *map(str, block.diagnostics)])
        yield f"fol-block:{problem_id}/{name}", f"{problem_id}, {name}:\n{block_text}", output
    for problem_id, name, block_text in _mutated_blocks(corpus, csp=True):
        model, diagnostics = parse_csp_block(block_text)
        output = "\n".join([str(model and model.to_text()), *map(str, diagnostics)])
        yield f"csp-block:{problem_id}/{name}", f"{problem_id}, {name}:\n{block_text}", output


def _label_cases(corpus) -> Iterator[tuple[str, str, str]]:
    from symchain.pipeline import _surface_space, extract_label

    stages = ("solver", "verifier", "naive", "cot")
    texts = {(problem.id, stage): corpus.stage_text(problem.id, stage)
             for problem in corpus.problems for stage in stages}
    for problem in corpus.problems:
        space = _surface_space(problem)
        for stage in stages:
            text = texts[(problem.id, stage)]
            inputs = [("as-is", text)]
            for seed in BLOCK_SEEDS:
                rng = Random(f"{problem.id}/{stage}/{seed}")
                lines = text.split("\n")
                for _ in range(rng.randint(1, min(3, len(lines)))):
                    del lines[rng.randrange(len(lines))]
                inputs.append((f"deletion-{seed}", "\n".join(lines)))
                other = rng.choice(sorted(key for key in texts if key != (problem.id, stage)))
                lines = text.split("\n")
                at = rng.randrange(len(lines) + 1)
                inputs.append((f"splice-{seed}", "\n".join(lines[:at] + texts[other].split("\n") + lines[at:])))
            for name, answer in inputs:
                output = f"any: {extract_label(answer).value}\nsurface: {extract_label(answer, space).value}"
                yield (f"extract-label:{problem.id}/{stage}/{name}",
                       f"{problem.id}, {stage}, {name}, surface space {[l.value for l in space]}:\n{answer}", output)


def _csp_cases(corpus) -> Iterator[tuple[str, str, str]]:
    import helpers

    from symchain.csp import (
        NoSolutionsError, QuestionMode, evaluate_queries, parse_csp_block, select_answer, solve_all,
    )

    models = [(f"random_csp_model/{seed}", f"helpers.random_csp_model(Random({seed}))",
               helpers.random_csp_model(Random(seed))) for seed in KB_SEEDS]
    for problem in corpus.problems:
        if problem.family.is_csp:
            text = corpus.translation(problem.id)
            models.append((problem.id, f"{problem.id}:\n{text}", parse_csp_block(text)[0]))
    for name, described, model in models:
        lines = [" ".join(f"{v}={value}" for v, value in s.items()) for s in solve_all(model).solutions]
        try:
            verdict = evaluate_queries(model)
        except NoSolutionsError as err:
            lines.append(f"NoSolutionsError: {err}")
        else:
            lines.append(f"{verdict.solution_count} solutions: "
                         + ", ".join(f"{letter}:{status.value}" for letter, status in verdict.statuses.items()))
            lines += [f"{mode.value}: {select_answer(verdict, mode)}" for mode in QuestionMode]
        yield f"csp-answer:{name}", described, "\n".join(lines)


def _expr_cases() -> Iterator[tuple[str, str, str]]:
    import helpers

    from symchain.csp import compile_expr, print_expr

    exprs = [(f"random_constraint/{seed}", f"helpers.random_constraint(Random({seed}), 4)",
              helpers.random_constraint(Random(seed), 4)) for seed in EXPR_SEEDS]
    exprs += [(f"random_chain/{levels}/{seed}", f"helpers.random_chain(Random({seed}), {levels})",
               helpers.random_chain(Random(seed), levels)) for levels in CHAIN_LEVELS for seed in CHAIN_SEEDS]
    for name, described, expr in exprs:
        check = compile_expr(expr)
        lines = [print_expr(expr)]
        for assignment in helpers.partial_assignments():
            try:
                value = check(assignment)
            except KeyError as err:
                value = f"KeyError {err.args[0]}"
            lines.append(f"{' '.join(f'{var}={val}' for var, val in assignment.items()) or '-'}: {value}")
        yield f"csp-expr:{name}", described, "\n".join(lines)


def _formula_cases() -> Iterator[tuple[str, str, str]]:
    import helpers

    from symchain.folparse import ParseError, parse_formula, print_formula
    from symchain.logic import Atom, Exists, ForAll, FunctionApp, Not, free_variables

    def wrapped(f, rng: Random):
        """``f`` with each atom argument left as it is or wrapped in one or two
        applications of ``f(t)`` or ``g(t, t)``."""
        if isinstance(f, Atom):
            args = []
            for t in f.args:
                for _ in range(rng.choice((0, 0, 1, 2))):
                    t = FunctionApp("f", (t,)) if rng.random() < 0.7 else FunctionApp("g", (t, t))
                args.append(t)
            return Atom(f.predicate, tuple(args))
        if isinstance(f, Not):
            return Not(wrapped(f.body, rng))
        if isinstance(f, (ForAll, Exists)):
            return type(f)(f.var, wrapped(f.body, rng))
        return type(f)(wrapped(f.left, rng), wrapped(f.right, rng))

    for seed in FORMULA_SEEDS:
        rng = Random(seed)
        formula = wrapped(helpers.random_formula(rng, allow_free=True), rng)
        text = print_formula(formula)
        try:
            same = parse_formula(text) == formula
        except ParseError as err:
            same = f"ParseError {err.message} at {err.position}"
        free = " ".join(sorted(free_variables(formula))) or "-"
        output = "\n".join([text, f"parses back: {same}", f"free: {free}"])
        yield f"formula:random_formula/{seed}", f"seed {seed}: {formula!r}", output


def _digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()[:16]


def digests() -> dict[str, str]:
    return {case: _digest(output) for case, _, output in _cases()}


def test_outputs_match_the_golden_digests_under_three_hash_seeds():
    import helpers

    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    runs = helpers.run_under_hash_seeds("import json, test_golden; print(json.dumps(test_golden.digests()))")
    for seed, stdout in runs.items():
        got = json.loads(stdout)
        if got == expected:
            continue
        for case, described, output in _cases():
            if got.get(case) != expected.get(case):
                kind = case.split(":", 1)[0]
                raise AssertionError(
                    f"under PYTHONHASHSEED={seed}, case {case} ({kind}) digests to {got.get(case)}, "
                    f"expected {expected.get(case)}\ninput: {described}\noutput:\n{output[:2000]}")
        missing = sorted(set(expected) - set(got))
        raise AssertionError(f"under PYTHONHASHSEED={seed}, cases without an output: {missing[:5]}")


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    new = digests()
    moved: dict[str, list[int]] = {}  # kind -> [changed, added, removed]
    for case in old.keys() | new.keys():
        if old.get(case) != new.get(case):
            column = 2 if case not in new else 1 if case not in old else 0
            moved.setdefault(case.split(":", 1)[0], [0, 0, 0])[column] += 1
    for kind, (changed, added, removed) in sorted(moved.items()):
        print(f"{kind}: {changed} changed, {added} added, {removed} removed")
    if not moved:
        print("no case moved")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS} ({len(new)} cases)")
