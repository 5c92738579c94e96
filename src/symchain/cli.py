"""Command-line entry point: parse, solve, run, eval, report, cache.

Exit codes are uniform across subcommands: 0 success, 1 domain failure
(diagnostics, inconsistencies, replay misses), 2 usage error.
"""

from __future__ import annotations

import calendar
import json
import os
import sys
import time
from pathlib import Path

import click

from . import evalkit
from .corpus import CorpusError, LoadResult, Problem, load, load_normalized, mini_corpus
from .folparse import ParseDiagnostic, ParseError, parse_formula, print_formula, read_fol_sections
from .gateway import TIMESTAMP_FORMAT, CachingBackend, CompletionCache, HttpBackend, ReplayBackend
from .logic import Label
from .pipeline import (
    FallbackPolicy, Method, RunConfig, parse_translation,
    read_records, run_batch, solve_translation, write_records,
)


# A missing input file, or a directory, is a usage error naming it. A parse or
# solve SOURCE may be "-", stdin, and a leading byte-order mark is skipped.
_DATA_FILE = click.Path(exists=True, dir_okay=False)
_SOURCE = click.File(encoding="utf-8-sig")


def _data_file(path: str, where: str) -> str:
    """``path``, checked as ``--data-file`` is, with ``where`` it came from in the usage error."""
    try:
        return _DATA_FILE.convert(path, None, None)
    except click.BadParameter as err:
        raise click.BadParameter(err.message, param_hint=where) from None


def _fail(message: str, code: int = 1):
    click.echo(message, err=True)
    sys.exit(code)


@click.group()
def main():
    """Symbolic chain-of-thought reasoning toolkit."""


# ---------------------------------------------------------------------------
# parse


@main.command("parse")
@click.argument("source", required=False, default="-", type=_SOURCE)
@click.option("--format", "fmt", type=click.Choice(["fol", "csp"]), default="fol",
              help="Input notation: FOL translation block or CSP block.")
def cmd_parse(source, fmt):
    """Parse a translation block (file or stdin) and print its canonical form."""
    text = source.read()
    if fmt == "fol":
        headers, lines, _ = read_fol_sections(text)
        if not headers:  # bare formulas, one per line, at offsets from the start of the input
            failures = 0
            for line in lines:
                try:
                    click.echo(print_formula(parse_formula(line.body)))
                except ParseError as err:
                    click.echo(str(ParseDiagnostic(line.offset + err.position, err.message)), err=True)
                    failures += 1
            sys.exit(1 if failures else 0)
    artifact, diagnostics = parse_translation(text, fmt == "csp")
    for d in diagnostics:
        click.echo(str(d), err=True)
    if artifact is None:
        sys.exit(1)
    click.echo(artifact.to_text())


# ---------------------------------------------------------------------------
# solve


@main.command("solve")
@click.argument("source", required=False, default="-", type=_SOURCE)
@click.option("--engine", type=click.Choice(["fol", "csp"]), default="fol")
@click.option("--question", default="",
              help="The question a CSP model answers; its mode (must, could or cannot be true) picks the option.")
def cmd_solve(source, engine, question):
    """Solve a symbolic translation file with the matching engine."""
    csp = engine == "csp"
    artifact, diagnostics = parse_translation(source.read(), csp)
    result = solve_translation(artifact, question)
    if not result.executed:
        for d in diagnostics:
            click.echo(str(d), err=True)
        _fail(result.response)
    if not csp:
        click.echo(result.label.value)
    elif result.label is Label.UNDECIDED:
        click.echo(str(result.answer))
        sys.exit(1)
    else:
        click.echo(f"{result.answer} ({result.verdict.statuses[result.answer].value})")


# ---------------------------------------------------------------------------
# run


def _is_mini_corpus(name: str) -> bool:
    return name.lower() in ("minicorpus", "mini-corpus", "mini")


def _load_problems(dataset: str, data_file, config: RunConfig):
    if _is_mini_corpus(dataset):
        return list(mini_corpus().problems)
    path = data_file or config.dataset_paths.get(dataset)
    if path is None:
        raise click.UsageError(f"no data file known for dataset {dataset!r}; pass --data-file")
    if data_file is None:
        _data_file(path, f"dataset_paths[{dataset!r}]")
    try:
        return _loaded(load(dataset, path))
    except CorpusError as err:  # an unknown dataset name
        raise click.UsageError(str(err)) from None


def _loaded(result: LoadResult) -> list[Problem]:
    """The problems of ``result``, after each of its load errors on stderr."""
    for err in result.errors:
        click.echo(str(err), err=True)
    return result.problems


@main.command("run")
@click.option("--method", type=click.Choice([m.value for m in Method]), default=None,
              help="Defaults to the config file's method.")
@click.option("--dataset", default="minicorpus", show_default=True)
@click.option("--data-file", type=_DATA_FILE, default=None,
              help="Dataset JSON file (defaults to the config's dataset_paths).")
@click.option("--limit", type=click.IntRange(min=0), default=None, help="Run only the first N problems.")
@click.option("--replay", is_flag=False, flag_value="", default=None,
              help="Offline replay; optional cache directory (the packaged mini-corpus fixtures when omitted).")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None, help="JSON-lines output path.")
@click.option("--parallelism", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--fallback", type=click.Choice([p.value for p in FallbackPolicy]), default=None)
def cmd_run(method, dataset, data_file, limit, replay, config_path, out, parallelism, seed, fallback):
    """Run a method over a dataset, writing one RunRecord per line."""
    try:
        config = RunConfig.from_file(config_path) if config_path else RunConfig()
    except ValueError as err:
        raise click.UsageError(f"invalid config file {config_path}: {err}") from None
    if parallelism is not None:
        config.parallelism = parallelism
    if seed is not None:
        config.seed = seed
    if fallback is not None:
        config.fallback = FallbackPolicy(fallback)
    if out is None:
        out = config.output_path
    problems = _load_problems(dataset, data_file, config)
    if limit is not None:
        problems = problems[:limit]

    if replay is not None:
        if replay:
            gateway = ReplayBackend(replay)
        elif _is_mini_corpus(dataset):
            from .fixtures import ScriptedCorpusBackend

            gateway = ScriptedCorpusBackend()
        else:
            raise click.UsageError("--replay without a directory works only for the mini-corpus")
    else:
        api_key = os.environ.get(config.api_key_env)
        live = HttpBackend(config.endpoint, api_key)
        cache_dir = config.cache_dir or ".symchain-cache"
        gateway = CachingBackend(live, CompletionCache(cache_dir))

    records = run_batch(problems, Method(method or config.method), config, gateway)
    write_records(records, out or "-")

    errors = [r for r in records if r.error]
    for r in errors:  # replay misses among them
        click.echo(f"error: {r.problem_id}: {r.error}", err=True)
    sys.exit(1 if errors else 0)


# ---------------------------------------------------------------------------
# eval / report


@main.command("eval")
@click.argument("records_file", type=click.Path(exists=True))
@click.option("--gold", "gold_source", default="minicorpus", show_default=True,
              help="Gold source: 'minicorpus' or a normalized problems JSON/JSONL file.")
@click.option("--format", "fmt", type=click.Choice(["markdown", "csv", "json"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@click.option("--annotations", type=click.Path(exists=True), default=None,
              help="Faithfulness CSV (problem_id,annotator_id,verdict).")
def cmd_eval(records_file, gold_source, fmt, out, annotations):
    """Score a records file against gold labels and emit an EvalReport."""
    try:
        records = read_records(records_file)
    except ValueError as err:
        _fail(str(err))
    problems = (list(mini_corpus().problems) if _is_mini_corpus(gold_source)
                else _loaded(load_normalized(_data_file(gold_source, "'--gold'"))))
    golds = {p.id: p.gold for p in problems}
    method = records[0].method.value if records else "?"
    try:
        rows = evalkit.read_annotations(annotations) if annotations else None
        report = evalkit.build_report(records, golds, problems, method=method, annotations=rows)
    except evalkit.IdMismatchError as err:
        _fail(str(err))
    except ValueError as err:  # a missing column or an unknown verdict; the records were read already
        _fail(f"{annotations}: not an annotations file ({err})")
    rendered = evalkit.render_report(report, fmt)
    if out:
        Path(out).write_text(rendered, encoding="utf-8")
    else:
        click.echo(rendered, nl=False)


@main.command("report")
@click.argument("report_files", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None)
def cmd_report(report_files, out):
    """Merge JSON eval reports into one markdown comparison table."""
    reports = []
    for path in report_files:
        try:
            reports.append(evalkit.EvalReport.from_dict(json.loads(Path(path).read_text(encoding="utf-8-sig"))))
        except ValueError as err:
            _fail(f"{path}: not a report ({err})")
    rendered = evalkit.render_comparison(reports)
    if out:
        Path(out).write_text(rendered, encoding="utf-8")
    else:
        click.echo(rendered, nl=False)


# ---------------------------------------------------------------------------
# cache


@main.group("cache")
def cmd_cache():
    """Inspect or prune the completion cache."""


def _model_and_stamp(cache: CompletionCache, key: str) -> tuple:
    """An entry's model and timestamp, "?" where it has none or cannot be read."""
    try:
        entry = cache.entry(key) or {}
        return entry.get("request", {}).get("model", "?"), entry.get("timestamp", "?")
    except (AttributeError, ValueError):  # not a JSON object, or not JSON
        return "?", "?"


@cmd_cache.command("ls")
@click.option("--dir", "directory", default=".symchain-cache", show_default=True)
def cache_ls(directory):
    cache = CompletionCache(directory)
    for key in cache.keys():
        model, stamp = _model_and_stamp(cache, key)
        click.echo(f"{key}  {model}  {stamp}")


@cmd_cache.command("gc")
@click.option("--dir", "directory", default=".symchain-cache", show_default=True)
@click.option("--older-than", "days", type=float, default=None,
              help="Delete entries older than this many days.")
@click.option("--all", "wipe", is_flag=True, help="Delete every entry.")
def cache_gc(directory, days, wipe):
    if days is None and not wipe:
        raise click.UsageError("pass --older-than DAYS or --all")
    if days is not None and not days >= 0:  # NaN compares false too
        raise click.BadParameter(f"{days} is not a number of days ≥ 0", param_hint="'--older-than'")
    cache = CompletionCache(directory)
    removed = 0
    cutoff = time.time() - (days or 0) * 86400
    for key in cache.keys():
        if wipe:
            removed += cache.remove(key)
            continue
        try:
            age = calendar.timegm(time.strptime(_model_and_stamp(cache, key)[1], TIMESTAMP_FORMAT))
        except (TypeError, ValueError):  # undated
            age = 0
        if age < cutoff:
            removed += cache.remove(key)
    click.echo(f"removed {removed} entries")


if __name__ == "__main__":
    main()
