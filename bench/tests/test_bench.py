"""Tests of the benchmark itself: generators, gate, tracer, server, spec.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import copy as copy_module
import gc
import json
import random
from pathlib import Path

import pytest

from symchain import csp, inference
from symchain.corpus import mini_corpus
from symchain.fixtures import ScriptedCorpusBackend
from symchain.folparse import parse_translation_block
from symchain.gateway import CachingBackend, CompletionCache, HttpBackend, ReplayBackend
from symchain.logic import Label
from symchain.pipeline import Method, RunConfig, read_records, run_batch, write_records
from symchain import evalkit, fixtures

import run
from symbench import gate
from symbench.generators import (
    WordSource, engine_cycle, generate_kb, generate_lineup, rename_copies,
)
from symbench.modelserver import ModelServer
from symbench.tracing import GcPauses, Tracer
from symbench.workloads import WORKLOADS, EngineHeavy, ReplayScaled, Totals, measure

ROOT = Path(__file__).resolve().parents[2]


def _solve(generated):
    if generated.problem.family.is_csp:
        model, diagnostics = csp.parse_csp_block(generated.translation)
        assert not diagnostics
        verdict = csp.evaluate_queries(model)
        return Label(csp.select_answer(verdict, csp.detect_question_mode(generated.problem.question)))
    block = parse_translation_block(generated.translation)
    assert block.executable, block.diagnostics
    return inference.decide_formula(block.kb, block.statement)


# -- generators ---------------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    base = mini_corpus()
    assert rename_copies(base, 2, seed=5) == rename_copies(base, 2, seed=5)
    assert rename_copies(base, 1, seed=5) != rename_copies(base, 1, seed=6)
    assert engine_cycle(3, 0) == engine_cycle(3, 0)
    assert engine_cycle(3, 0) != engine_cycle(4, 0)


def test_renamed_copies_share_no_prompt_or_translation():
    copies = rename_copies(mini_corpus(), 3, seed=1)
    contexts = [p.context for c in copies for p in c.problems]
    translations = [t for c in copies for t in c.translations.values()]
    assert len(set(contexts)) == len(contexts)
    assert len(set(translations)) == len(translations)


@pytest.mark.parametrize("method", list(Method))
def test_renamed_copy_keeps_gold_labels_under_the_scripted_backend(method):
    copy = rename_copies(mini_corpus(), 1, seed=9, start=4)[0]
    records = run_batch(list(copy.problems), method, RunConfig(), ScriptedCorpusBackend(copy))
    for problem, record in zip(copy.problems, records):
        assert record.error is None
        assert record.final_label is problem.gold, problem.id


@pytest.mark.parametrize("gold", [Label.TRUE, Label.FALSE, Label.UNKNOWN])
def test_kb_gold_holds_by_construction(gold):
    rng = random.Random(11)
    for rules, constants in ((20, 10), (40, 15)):
        generated = generate_kb(rng, WordSource(rng), rules, constants, gold, "kb")
        assert _solve(generated) is gold


def test_kb_has_multi_literal_and_negative_rules():
    rng = random.Random(2)
    block = parse_translation_block(generate_kb(rng, WordSource(rng), 40, 15, Label.TRUE, "kb").translation)
    assert len(block.kb.rules) == 40
    assert any(len(rule.body) > 1 for rule in block.kb.rules)
    assert any(not rule.head.polarity for rule in block.kb.rules)
    assert any(not lit.polarity for rule in block.kb.rules for lit in rule.body)


@pytest.mark.parametrize("objects,tight", [(5, False), (5, True), (6, True)])
def test_lineup_has_a_unique_correct_option(objects, tight):
    for seed in range(5):
        rng = random.Random(seed)
        generated = generate_lineup(rng, WordSource(rng), objects, tight, "lineup")
        assert _solve(generated) is generated.problem.gold


# -- gate ---------------------------------------------------------------------


def _batch(problems, method, gateway, tmp_path, reference=None):
    records = run_batch(problems, method, RunConfig(), gateway)
    write_records(records, tmp_path / "records.jsonl")
    back = read_records(tmp_path / "records.jsonl")
    report = evalkit.build_report(back, {p.id: p.gold for p in problems}, problems, method.value)
    return gate.check_batch(problems, method, records, back, report, reference)


def test_gate_passes_correct_records(tmp_path):
    copy = rename_copies(mini_corpus(), 1, seed=1)[0]
    problems = list(copy.problems)
    assert _batch(problems, Method.TRANSLATE_THEN_SOLVE, ScriptedCorpusBackend(copy), tmp_path) == {}


def test_gate_catches_a_planted_wrong_label(tmp_path):
    copy = rename_copies(mini_corpus(), 1, seed=1)[0]
    problems = list(copy.problems)
    victim = problems[0]
    wrong = "Answer: {B}" if victim.gold is Label.TRUE else "Answer: {A}"
    backend = ScriptedCorpusBackend(copy, overrides={(victim.id, "naive"): wrong})
    failures = _batch(problems, Method.NAIVE, backend, tmp_path)
    assert "label" in failures.pop(victim.id)
    assert set(failures) <= {f"batch:{victim.id}"}  # the report's accuracy, if any


def test_gate_catches_a_planted_replay_miss_and_a_drifted_record(tmp_path):
    copy = rename_copies(mini_corpus(), 1, seed=1)[0]
    problems = list(copy.problems)
    cache = CompletionCache(tmp_path / "fixtures")
    scripted = run_batch(problems, Method.COT, RunConfig(),
                         CachingBackend(ScriptedCorpusBackend(copy), cache))
    reference = [gate.record_digest(r) for r in scripted]
    assert _batch(problems, Method.COT, ReplayBackend(cache), tmp_path, reference) == {}

    drifted = list(reference)
    drifted[1] = b"\0" * 32
    failures = _batch(problems, Method.COT, ReplayBackend(cache), tmp_path, drifted)
    assert list(failures) == [problems[1].id]

    cache.remove(cache.keys()[0])
    failures = _batch(problems, Method.COT, ReplayBackend(cache), tmp_path, reference)
    missed = [pid for pid, reason in failures.items() if "ReplayMissError" in reason]
    assert len(missed) == 1
    assert set(failures) <= {missed[0], f"batch:{problems[0].id}"}


def test_gate_catches_a_lossy_record_write(tmp_path):
    copy = rename_copies(mini_corpus(), 1, seed=1)[0]
    problems = list(copy.problems)
    method = Method.TRANSLATE_THEN_SOLVE
    records = run_batch(problems, method, RunConfig(), ScriptedCorpusBackend(copy))
    lossy = copy_module.deepcopy(records)
    for record in lossy:
        for stage in record.stages:
            stage.prompt = ""  # a writer that stopped writing stage prompts
    write_records(lossy, tmp_path / "records.jsonl")
    back = read_records(tmp_path / "records.jsonl")
    report = evalkit.build_report(back, {p.id: p.gold for p in problems}, problems, method.value)
    failures = gate.check_batch(problems, method, records, back, report)
    assert failures == {f"batch:{problems[0].id}": "records read back differ from the records written"}


# -- tracer -------------------------------------------------------------------


def _bindings():
    import sys

    out = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("symchain"):
            out.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    from symchain.gateway import CompletionCache as Cache, CompletionRequest

    for cls in (Cache, CompletionRequest):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _bindings()
    tracer = Tracer()
    workload = EngineHeavy(1, tmp_path, tracer)
    workload.cycles = 1
    workload.setup()
    workload.trace_gateway(tracer)
    with tracer.installed():
        totals = measure(workload, 0.0)
    assert totals.failures == {}
    assert tracer.missing == []
    assert "complete" not in vars(workload.gateway)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {span[0] for span in tracer.spans}
    assert {"pipeline.run_problem", "inference.forward_chain", "csp.solve_all",
            "gateway.complete", "gateway.cache_key"} <= names


def test_replay_set_up_builds_fixtures_with_the_programs_function(tmp_path, monkeypatch):
    calls = []
    build = fixtures.build_replay_fixtures
    monkeypatch.setattr(fixtures, "build_replay_fixtures",
                        lambda *a, **k: calls.append(k["corpus"]) or build(*a, **k))
    workload = ReplayScaled(1, tmp_path)
    workload.copies = 1
    workload.setup()
    assert workload.setup_failures == {}
    assert len(calls) == 2  # the spare copy and the measured one
    assert fixtures.run_batch is run_batch
    assert sorted(workload.reference) == sorted((i, m) for i in range(2) for m in Method)
    totals = measure(workload, 0.0)
    assert totals.failures == {} and totals.records == 13 * len(Method)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner[3] == 0
    self_times = tracer.self_times()
    assert self_times["outer"] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))


def test_gc_pauses_counts_collections_while_installed():
    pauses = GcPauses()
    callbacks = list(gc.callbacks)
    with pauses.installed():
        gc.collect()
    gc.collect()
    assert gc.callbacks == callbacks
    assert pauses.collections[2] == 1
    assert pauses.pause_s > 0


# -- model server ---------------------------------------------------------------


def test_model_server_answers_counts_and_delays_by_seed():
    copy = rename_copies(mini_corpus(), 1, seed=1)[0]
    server = ModelServer(copy, seed=3, median_s=0.001)
    records = run_batch(list(copy.problems[:2]), Method.COT, RunConfig(),
                        HttpBackend("http://model.invalid", post=server.post))
    assert all(r.error is None for r in records)
    assert server.calls == 2
    body = {"model": "m", "messages": [{"role": "user", "content": "x"}], "temperature": 0.0,
            "max_tokens": 1}
    assert server.delay_for(body) == ModelServer(copy, seed=3, median_s=0.001).delay_for(body)
    assert server.delay_for(body) != ModelServer(copy, seed=4, median_s=0.001).delay_for(body)
    prompt = records[0].stages[0].prompt
    reply = server.post("e", json={"model": "m", "messages": [{"role": "user", "content": prompt}],
                                   "temperature": 0.0, "max_tokens": 1024})
    assert reply.status_code == 200
    assert reply.json()["usage"]["completion_tokens"] > 0


def test_model_server_span_hides_the_servers_own_cache_key_calls():
    copy = rename_copies(mini_corpus(), 1, seed=1)[0]
    server = ModelServer(copy, seed=3, median_s=0.001)
    live = HttpBackend("http://model.invalid", post=lambda *a, **k: server.post(*a, **k))
    tracer = Tracer()
    tracer.wrap_instance(server, "post", "gateway.model", opaque=True)
    with tracer.installed():
        records = run_batch(list(copy.problems[:2]), Method.COT, RunConfig(), live)
    assert all(r.error is None for r in records)
    names = [span[0] for span in tracer.spans]
    assert names.count("gateway.model") == 2
    # HttpBackend hashes nothing; every cache_key call here was the server's
    assert "gateway.cache_key" not in names
    assert "post" not in vars(server)


# -- the spec and the baselines --------------------------------------------------


def test_benchmark_json_records_each_workload_why_and_size():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        cls = WORKLOADS[entry["name"]]
        assert entry["why"] == cls.why
        assert "problems" in entry["why"]  # each why states the workload's size
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(
        Totals(wall_s=1, cpu_s=1, records=1, correct=1, rounds=[[(1, 1.0, 1.0)]]), [1.0]))
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


def test_traced_engine_heavy_run_reports_the_roadmap_baselines():
    totals, metrics = run.run_traced(EngineHeavy, seed=1, seconds=0.0)
    assert totals.failures == {}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)
    assert metrics["baseline.kb_100x30_decide_s"][0] > 0
    assert metrics["baseline.lineup_7_loose_evaluate_s"][0] > 0
    assert metrics["inference.forward_chain_s"][0] > metrics["inference.decide_s"][0]
    assert metrics["csp.solve_all_s"][0] > metrics["csp.evaluate_s"][0]
