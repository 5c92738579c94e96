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
from .corpus import load, load_normalized, mini_corpus
from .folparse import ParseError, Severity, parse_formula, print_formula
from .gateway import CachingBackend, CompletionCache, HttpBackend, ReplayBackend
from .inference import UnsupportedFragmentError
from .logic import Label
from .pipeline import (
    NO_KNOWLEDGE_BASE, NOT_EXECUTABLE, FallbackPolicy, Method, RunConfig, parse_translation,
    read_records, run_batch, solve_translation, write_records,
)


def _read_input(source) -> str:
    if source == "-" or source is None:
        return sys.stdin.read()
    return Path(source).read_text(encoding="utf-8")


def _fail(message: str, code: int = 1):
    click.echo(message, err=True)
    sys.exit(code)


@click.group()
def main():
    """Symbolic chain-of-thought reasoning toolkit."""


# ---------------------------------------------------------------------------
# parse


@main.command("parse")
@click.argument("source", required=False, default="-")
@click.option("--format", "fmt", type=click.Choice(["fol", "csp"]), default="fol",
              help="Input notation: FOL translation block or CSP block.")
def cmd_parse(source, fmt):
    """Parse a translation block (file or stdin) and print its canonical form."""
    text = _read_input(source)
    csp = fmt == "csp"
    try:
        artifact, diagnostics = parse_translation(text, csp)
    except ParseError as err:
        if csp or err.message != "no sections found":
            _fail(str(err.diagnostic))
        # bare formulas, one per line
        failures = 0
        for line in text.splitlines():
            if not line.strip():
                continue
            body = line.split(":::", 1)[0].strip()
            try:
                click.echo(print_formula(parse_formula(body)))
            except ParseError as line_err:
                click.echo(str(line_err.diagnostic), err=True)
                failures += 1
        sys.exit(1 if failures else 0)
    for d in diagnostics:
        click.echo(str(d), err=True)
    if artifact is None or (diagnostics if csp else not artifact.executable):
        sys.exit(1)
    click.echo(artifact.to_text())


# ---------------------------------------------------------------------------
# solve


@main.command("solve")
@click.argument("source", required=False, default="-")
@click.option("--engine", type=click.Choice(["fol", "csp"]), default="fol")
def cmd_solve(source, engine):
    """Solve a symbolic translation file with the matching engine."""
    csp = engine == "csp"
    try:
        artifact, diagnostics = parse_translation(_read_input(source), csp)
    except ParseError as err:
        _fail(str(err.diagnostic))
    errors = [str(d) for d in diagnostics if d.severity is Severity.ERROR]
    result = solve_translation(artifact, errors, "", csp)
    if result.response == NOT_EXECUTABLE:
        for d in diagnostics:
            click.echo(str(d), err=True)
        _fail("model is not executable" if csp else "translation is not executable")
    if result.response == NO_KNOWLEDGE_BASE:
        _fail("no knowledge base in translation; general FOL is not auto-decided")
    if isinstance(result.error, UnsupportedFragmentError):
        _fail(f"unsupported query: {result.error}")
    if result.error is not None:
        _fail(str(result.error))
    if not csp:
        click.echo(result.label.value)
    elif result.label is Label.UNDECIDED:
        click.echo(str(result.answer))
        sys.exit(1)
    else:
        click.echo(f"{result.answer} ({result.verdict.statuses[result.answer].value})")


# ---------------------------------------------------------------------------
# run


def _load_problems(dataset: str, data_file, config: RunConfig):
    if dataset.lower() in ("minicorpus", "mini-corpus", "mini"):
        return list(mini_corpus().problems)
    path = data_file or config.dataset_paths.get(dataset)
    if path is None:
        raise click.UsageError(f"no data file known for dataset {dataset!r}; pass --data-file")
    result = load(dataset, path)
    for err in result.errors:
        click.echo(str(err), err=True)
    return result.problems


@main.command("run")
@click.option("--method", type=click.Choice([m.value for m in Method]), default=None,
              help="Defaults to the config file's method.")
@click.option("--dataset", default="minicorpus", show_default=True)
@click.option("--data-file", type=click.Path(exists=True), default=None,
              help="Dataset JSON file (defaults to the config's dataset_paths).")
@click.option("--limit", type=int, default=None, help="Run only the first N problems.")
@click.option("--replay", is_flag=False, flag_value="", default=None,
              help="Offline replay; optional cache directory (embedded fixtures when omitted).")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None, help="JSON-lines output path.")
@click.option("--parallelism", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--fallback", type=click.Choice([p.value for p in FallbackPolicy]), default=None)
def cmd_run(method, dataset, data_file, limit, replay, config_path, out, parallelism, seed, fallback):
    """Run a method over a dataset, writing one RunRecord per line."""
    config = RunConfig.from_file(config_path) if config_path else RunConfig()
    if method is None:
        method = config.method
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
        elif dataset.lower() in ("minicorpus", "mini-corpus", "mini"):
            from .fixtures import ScriptedCorpusBackend

            gateway = ScriptedCorpusBackend()
        else:
            raise click.UsageError("--replay without a directory works only for the mini-corpus")
    else:
        api_key = os.environ.get(config.api_key_env)
        live = HttpBackend(config.endpoint, api_key)
        cache_dir = config.cache_dir or ".symchain-cache"
        gateway = CachingBackend(live, CompletionCache(cache_dir))

    records = run_batch(problems, Method(method), config, gateway)
    write_records(records, out or "-")

    misses = [r for r in records if r.error and "ReplayMiss" in r.error]
    if misses:
        click.echo("replay misses:", err=True)
        for r in misses:
            click.echo(f"  {r.problem_id}: {r.error}", err=True)
        sys.exit(1)
    errors = [r for r in records if r.error]
    if errors:
        for r in errors:
            click.echo(f"error: {r.problem_id}: {r.error}", err=True)
        sys.exit(1)


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
    records = read_records(records_file)
    if gold_source.lower() in ("minicorpus", "mini-corpus", "mini"):
        corpus = mini_corpus()
        problems = list(corpus.problems)
        golds = corpus.golds()
    else:
        result = load_normalized(gold_source)
        problems = result.problems
        golds = {p.id: p.gold for p in problems}
    method = records[0].method.value if records else "?"
    rows = evalkit.read_annotations(annotations) if annotations else None
    try:
        report = evalkit.build_report(records, golds, problems, method=method, annotations=rows)
    except evalkit.IdMismatchError as err:
        _fail(str(err))
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
        reports.append(evalkit.EvalReport.from_dict(json.loads(Path(path).read_text(encoding="utf-8"))))
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


@cmd_cache.command("ls")
@click.option("--dir", "directory", default=".symchain-cache", show_default=True)
def cache_ls(directory):
    cache = CompletionCache(directory)
    for key in cache.keys():
        entry = cache.entry(key)
        model = entry.get("request", {}).get("model", "?") if entry else "?"
        stamp = entry.get("timestamp", "?") if entry else "?"
        click.echo(f"{key}  {model}  {stamp}")


@cmd_cache.command("gc")
@click.option("--dir", "directory", default=".symchain-cache", show_default=True)
@click.option("--older-than", "days", type=float, default=None,
              help="Delete entries older than this many days.")
@click.option("--all", "wipe", is_flag=True, help="Delete every entry.")
def cache_gc(directory, days, wipe):
    if days is None and not wipe:
        raise click.UsageError("pass --older-than DAYS or --all")
    cache = CompletionCache(directory)
    removed = 0
    cutoff = time.time() - (days or 0) * 86400
    for key in cache.keys():
        if wipe:
            removed += cache.remove(key)
            continue
        entry = cache.entry(key)
        stamp = entry.get("timestamp") if entry else None
        try:
            age = calendar.timegm(time.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ")) if stamp else 0
        except (TypeError, ValueError):
            age = 0
        if age < cutoff:
            removed += cache.remove(key)
    click.echo(f"removed {removed} entries")


if __name__ == "__main__":
    main()
