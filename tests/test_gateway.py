import hashlib
import json
import os
import textwrap
import threading
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from pathlib import Path

import pytest
import requests
from click.testing import CliRunner

from symchain.cli import main
from symchain.corpus import mini_corpus
from symchain.fixtures import ScriptedCorpusBackend
from symchain.gateway import (
    AuthError, Backend, CachingBackend, CompletionCache, CompletionRequest,
    CompletionResponse, GatewayError, HttpBackend, MAX_RETRY_AFTER_S, MalformedResponseError,
    NetworkError, ReplayBackend, ReplayMissError, ScriptedBackend,
)
from symchain.pipeline import Method, RunConfig, read_records, run_batch, write_records

import helpers


def req(content="hello", model="m1"):
    return CompletionRequest(model=model, messages=(("user", content),))


class TestCompletionRequest:
    def test_empty_messages_rejected(self):
        with pytest.raises(GatewayError):
            CompletionRequest(model="m", messages=())

    def test_first_non_system_must_be_user(self):
        with pytest.raises(GatewayError):
            CompletionRequest(model="m", messages=(("assistant", "hi"),))
        CompletionRequest(model="m", messages=(("system", "s"), ("user", "u")))

    @pytest.mark.parametrize("kwargs,message", [
        ({"messages": (("user", "a"),), "temperature": -0.1}, "temperature must be ≥ 0"),
        ({"messages": (("user", "a"), ("tool", "b"))}, "unknown message role 'tool'"),
    ], ids=["negative-temperature", "unknown-role"])
    def test_invalid_request_rejected(self, kwargs, message):
        with pytest.raises(GatewayError, match=f"^{message}$"):
            CompletionRequest(model="m", **kwargs)

    @pytest.mark.parametrize("tokens", [(-1, 0), (0, -1)], ids=["prompt", "completion"])
    def test_negative_token_counts_rejected(self, tokens):
        with pytest.raises(GatewayError, match="^token counts must be ≥ 0$"):
            CompletionResponse("a", *tokens)

    @pytest.mark.parametrize("args,message", [
        ((5,), "content must be a string, found int"),
        ((None,), "content must be a string, found NoneType"),
        (("a", 1.0), "token counts must be integers, found 1.0"),
        (("a", 0, True), "token counts must be integers, found True"),
        (("a", 0, "3"), "token counts must be integers, found '3'"),
    ], ids=["int-content", "null-content", "float-count", "bool-count", "string-count"])
    def test_response_that_is_not_a_completion_rejected(self, args, message):
        with pytest.raises(MalformedResponseError, match=f"^{message}$"):
            CompletionResponse(*args)

    def test_cache_key_stability(self):
        a = req("same prompt").cache_key()
        b = req("same prompt").cache_key()
        assert a == b
        assert len(a) == 64
        # frozen value: changing the canonical serialization would break
        # every shipped replay fixture, so pin it
        assert req("hello").cache_key() == (
            "4fdead942de2ef7a50a617059132664313af5e099c87961ad9a85d06498cd4f5"
        )

    def test_cache_key_sensitivity(self):
        assert req("a").cache_key() != req("b").cache_key()
        assert req("a", model="m2").cache_key() != req("a").cache_key()
        assert (
            CompletionRequest(model="m", messages=(("user", "a"),), temperature=0.5).cache_key()
            != CompletionRequest(model="m", messages=(("user", "a"),)).cache_key()
        )

    @pytest.mark.parametrize("request_", [
        CompletionRequest(model="m", messages=(("user", "∀x (Dog(x) → ¬Cat(x)) ∧ ∃y Owns(y, x)"),)),
        CompletionRequest(model="gpt-\"q\"", messages=(("user", 'say "hi" \\ then \\\\ again'),)),
        CompletionRequest(model="m", messages=(("user", "line one\nline two\r\n\ttab\u2028"),)),
        CompletionRequest(model="m", messages=(("user", "a"),), temperature=0.7, max_tokens=64),
        CompletionRequest(model="m", messages=(("system", "Be brief ⊕ exact."), ("user", "Q: P(a)?"),
                                               ("assistant", "True"), ("user", "Why?\n"))),
    ], ids=["logic-symbols", "quotes-backslashes", "newlines", "float-temperature", "several-messages"])
    def test_cache_key_is_the_hash_of_the_canonical_json(self, request_):
        payload = {
            "model": request_.model,
            "messages": [[role, content] for role, content in request_.messages],
            "temperature": request_.temperature,
            "max_tokens": request_.max_tokens,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert request_.cache_key() == hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestScriptedBackend:
    def test_fixture_map_by_key(self):
        request = req("mapped")
        backend = ScriptedBackend({request.cache_key(): "the fixture"})
        assert backend.complete(request).content == "the fixture"

    def test_fixture_map_miss(self):
        backend = ScriptedBackend({})
        with pytest.raises(ReplayMissError):
            backend.complete(req())

    def test_token_counts(self):
        backend = ScriptedBackend({req("two words").cache_key(): "three word reply"})
        response = backend.complete(req("two words"))
        assert response.completion_tokens == 3
        assert response.prompt_tokens == 2

    @pytest.mark.parametrize("method", [Method.SYMBCOT, Method.TRANSLATE_THEN_SOLVE])
    def test_parallel_batch_gets_each_problem_its_own_answer(self, method):
        # key map from one logged pass of the corpus's scripted backend
        corpus = mini_corpus()
        logged = ScriptedCorpusBackend(corpus)
        run_batch(list(corpus.problems), method, RunConfig(), logged)
        backend = ScriptedBackend({key: corpus.stage_text(pid, stage) for key, pid, stage in logged.log})
        runs = {n: run_batch(list(corpus.problems), method, RunConfig(parallelism=n), backend) for n in (1, 4)}
        assert all(r.error is None for r in runs[1])
        assert [r.to_json(include_wall_time=False) for r in runs[4]] == [
            r.to_json(include_wall_time=False) for r in runs[1]]


class TestCache:
    def test_round_trip_byte_identical(self, tmp_path):
        cache = CompletionCache(tmp_path)
        request = req("prompt with ünïcode ∀x")
        response = CompletionResponse("answer ∃y", prompt_tokens=5, completion_tokens=7)
        cache.store(request, response)
        loaded = cache.load(request.cache_key())
        assert loaded.content == response.content
        assert loaded.prompt_tokens == 5
        assert loaded.completion_tokens == 7
        assert loaded.backend == "cache"

    def test_atomic_layout(self, tmp_path):
        cache = CompletionCache(tmp_path)
        request = req("x")
        key = cache.store(request, CompletionResponse("y"))
        files = list(tmp_path.iterdir())
        assert [p.name for p in files] == [f"{key}.json"]
        entry = json.loads(files[0].read_text())
        assert entry["request"]["model"] == "m1"
        assert entry["response"]["content"] == "y"
        assert "timestamp" in entry

    def test_concurrent_writes(self, tmp_path):
        cache = CompletionCache(tmp_path)
        request = req("contended")

        def write(i):
            cache.store(request, CompletionResponse(f"value-{i}"))

        threads = [threading.Thread(target=write, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        loaded = cache.load(request.cache_key())
        assert loaded.content.startswith("value-")


class TestReplayBackend:
    def test_replay_hit(self, tmp_path):
        cache = CompletionCache(tmp_path)
        request = req("cached")
        cache.store(request, CompletionResponse("stored", completion_tokens=2))
        backend = ReplayBackend(tmp_path)
        response = backend.complete(request)
        assert response.content == "stored"
        assert response.backend == "replay"

    def test_replay_miss_is_hard_error(self, tmp_path):
        backend = ReplayBackend(tmp_path)
        with pytest.raises(ReplayMissError):
            backend.complete(req("never seen"))

    def test_entry_removed_after_an_existence_check_is_a_miss(self, tmp_path, monkeypatch):
        # as if the file went away between a check and the read
        cache = CompletionCache(tmp_path)
        monkeypatch.setattr(Path, "exists", lambda self: True)
        key = req("removed").cache_key()
        assert cache.load(key) is None
        assert cache.remove(key) is False
        with pytest.raises(ReplayMissError):
            ReplayBackend(cache).complete(req("removed"))


def _missing(cache, key):
    pass


def _removed_after_keys(cache, key):
    # listed by every keys() call, then gone before it is read
    listed = CompletionCache.keys

    def keys_then_remove(self):
        self.path_for(key).write_text("{}", encoding="utf-8")
        found = listed(self)
        os.remove(self.path_for(key))
        return found

    return keys_then_remove


def _bytes(data):
    def write(cache, key):
        cache.path_for(key).write_bytes(data)
    return write


# An entry the cache cannot serve, which ``load`` reads as a miss: what
# ``entry`` gives (its value, or the exception type it raises) and the line
# ``symchain cache ls`` prints for it ("" when it lists nothing).
UNSERVABLE_ENTRIES = [
    ("missing", _missing, None, ""),
    ("removed-after-keys", _removed_after_keys, None, "?  ?"),
    ("not-json", _bytes(b"not json"), json.JSONDecodeError, "?  ?"),
    ("invalid-utf-8", _bytes(b'{"response": {"content": "\xff"}}'), UnicodeDecodeError, "?  ?"),
    ("lone-invalid-byte", _bytes(b"\xff"), UnicodeDecodeError, "?  ?"),
    ("utf-8-bom", _bytes(b'\xef\xbb\xbf{"response": {"content": "a"}}'), json.JSONDecodeError, "?  ?"),
    ("null", _bytes(b"null"), None, "?  ?"),
    ("not-an-object", _bytes(b'["response"]'), ["response"], "?  ?"),
    ("no-response", _bytes(b'{"timestamp": "t"}'), {"timestamp": "t"}, "?  t"),
    ("response-not-an-object", _bytes(b'{"response": "a"}'), {"response": "a"}, "?  ?"),
    ("no-content", _bytes(b'{"response": {"prompt_tokens": 1}}'), {"response": {"prompt_tokens": 1}}, "?  ?"),
    ("content-not-a-string", _bytes(b'{"response": {"content": 5}}'), {"response": {"content": 5}}, "?  ?"),
    ("negative-count", _bytes(b'{"response": {"content": "x", "prompt_tokens": -1}}'),
     {"response": {"content": "x", "prompt_tokens": -1}}, "?  ?"),
    ("float-count", _bytes(b'{"response": {"content": "x", "completion_tokens": 5.0}}'),
     {"response": {"content": "x", "completion_tokens": 5.0}}, "?  ?"),
]


class TestUnservableEntries:
    @pytest.fixture(params=UNSERVABLE_ENTRIES, ids=[row[0] for row in UNSERVABLE_ENTRIES])
    def case(self, request, tmp_path, monkeypatch):
        _, make, entry, listing = request.param
        cache = CompletionCache(tmp_path)
        key = req("unservable").cache_key()
        keys = make(cache, key)
        if keys is not None:
            monkeypatch.setattr(CompletionCache, "keys", keys)
            assert cache.keys() == [key]  # removes the entry
        return cache, key, entry, listing

    def test_entry_and_load(self, case):
        cache, key, entry, _ = case
        assert cache.load(key) is None
        if not isinstance(entry, type):
            assert cache.entry(key) == entry
            return
        with pytest.raises(entry) as caught:
            cache.entry(key)
        assert type(caught.value) is entry

    def test_backends(self, case):
        cache, key, _, _ = case
        with pytest.raises(ReplayMissError):
            ReplayBackend(cache).complete(req("unservable"))
        live = ScriptedBackend({req("unservable").cache_key(): "live"})
        response = CachingBackend(live, cache).complete(req("unservable"))
        assert (response.content, response.backend) == ("live", "scripted")
        # the live reply overwrites the entry
        assert cache.load(key) == CompletionResponse("live", 1, 1, backend="cache")

    def test_cache_ls(self, case):
        cache, key, _, listing = case
        result = CliRunner().invoke(main, ["cache", "ls", "--dir", str(cache.directory)])
        assert result.exit_code == 0, result.output
        assert result.output == (f"{key}  {listing}\n" if listing else "")

    def test_crlf_entry_reads_as_written(self, tmp_path):
        cache = CompletionCache(tmp_path)
        key = cache.store(req("crlf"), CompletionResponse("a\nb", prompt_tokens=1))
        written = cache.entry(key)
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert cache.entry(key) == written


class TestResponseSource:
    def test_one_entry_is_tagged_by_the_backend_that_reads_it(self, tmp_path):
        cache = CompletionCache(tmp_path)
        cache.store(req("tagged"), CompletionResponse("stored", prompt_tokens=3, completion_tokens=1))
        replayed = ReplayBackend(cache).complete(req("tagged"))
        cached = CachingBackend(ScriptedBackend({}), cache).complete(req("tagged"))
        assert replayed == CompletionResponse("stored", 3, 1, backend="replay")
        assert cached == CompletionResponse("stored", 3, 1, backend="cache")
        assert cache.load(req("tagged").cache_key()) == cached


class CountingBackend(Backend):
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self.inner.complete(request)


class TestCachingBackend:
    def test_second_call_served_from_cache(self, tmp_path):
        counting = CountingBackend(ScriptedBackend({req("q").cache_key(): "live answer"}))
        backend = CachingBackend(counting, tmp_path)
        first = backend.complete(req("q"))
        second = backend.complete(req("q"))
        assert counting.calls == 1
        assert first.content == second.content == "live answer"
        assert second.backend == "cache"

    def test_no_live_traffic_in_replay_mode(self, tmp_path):
        # populate, then replay must not touch the inner backend at all
        counting = CountingBackend(ScriptedBackend({req("q").cache_key(): "only once"}))
        CachingBackend(counting, tmp_path).complete(req("q"))
        replay = ReplayBackend(tmp_path)
        replay.complete(req("q"))
        replay.complete(req("q"))
        assert counting.calls == 1


class FakeResponse:
    def __init__(self, status_code=200, content="ok", headers=None, usage=True):
        self.status_code = status_code
        self.headers = headers or {}
        self._content = content
        self._usage = usage
        self.text = "error body"

    def json(self):
        payload = {"choices": [{"message": {"content": self._content}}]}
        if self._usage:
            payload["usage"] = {"prompt_tokens": 11, "completion_tokens": 22}
        return payload


class RawResponse(FakeResponse):
    """A status-200 reply whose body is the given text."""

    def __init__(self, body):
        super().__init__()
        self._body = body

    def json(self):
        return json.loads(self._body)


MALFORMED_BODIES = [
    '{"choices": []}',
    '{"id": "no-choices"}',
    '{"choices": [{"message": {"content": null}}]}',
    '{"choices": [{"message": {"content": "ok"}}], "usage": null}',
    '[]',
    'not json',
]


class TestHttpBackend:
    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_reply_keeps_completed_stages(self, body):
        # the translator's reply is well formed, the planner's is not
        replies = iter([FakeResponse(content="Predicates:\nP(x)"), RawResponse(body)])

        def post(url, json=None, headers=None, timeout=None):
            return next(replies)

        backend = HttpBackend("http://example", post=post, sleep=lambda s: None)
        with pytest.raises(MalformedResponseError):
            HttpBackend("http://example", post=lambda url, **kwargs: RawResponse(body)).complete(req())
        [record] = run_batch(list(mini_corpus().problems)[:1], Method.SYMBCOT, RunConfig(), backend)
        assert [stage.stage for stage in record.stages] == ["translator"]
        assert record.error.startswith("MalformedResponseError: ")

    def test_float_token_count_is_malformed_and_not_cached(self, tmp_path):
        body = ('{"choices": [{"message": {"content": "ok"}}], '
                '"usage": {"prompt_tokens": 1, "completion_tokens": 5.0}}')
        live = HttpBackend("http://example", post=lambda url, **kwargs: RawResponse(body))
        backend = CachingBackend(live, tmp_path / "cache")
        with pytest.raises(MalformedResponseError, match=r"^token counts must be integers, found 5\.0$"):
            backend.complete(req())
        assert backend.cache.keys() == []
        # the run's records name the fault, and read back
        out = tmp_path / "records.jsonl"
        write_records(run_batch(list(mini_corpus().problems)[:1], Method.COT, RunConfig(), backend), out)
        assert [r.error for r in read_records(out)] == [
            "MalformedResponseError: token counts must be integers, found 5.0"]

    def test_parses_chat_completion_shape(self):
        def post(url, json=None, headers=None, timeout=None):
            assert json["messages"][0] == {"role": "user", "content": "hi"}
            return FakeResponse(content="served")

        backend = HttpBackend("http://example/v1", "key", post=post, sleep=lambda s: None)
        response = backend.complete(req("hi"))
        assert response.content == "served"
        assert response.prompt_tokens == 11
        assert response.completion_tokens == 22
        assert response.backend == "live"

    def test_retries_network_errors_up_to_five(self):
        attempts = []

        def post(url, **kwargs):
            attempts.append(1)
            raise requests.ConnectionError("down")

        sleeps = []
        backend = HttpBackend("http://example", post=post, sleep=sleeps.append)
        with pytest.raises(NetworkError):
            backend.complete(req())
        assert len(attempts) == 5
        assert sleeps == [1.0, 2.0, 4.0, 8.0]  # exponential backoff

    def test_recovers_after_transient_failure(self):
        calls = {"n": 0}

        def post(url, **kwargs):
            calls["n"] += 1
            if calls["n"] < 3:
                raise requests.ConnectionError("flaky")
            return FakeResponse()

        backend = HttpBackend("http://example", post=post, sleep=lambda s: None)
        assert backend.complete(req()).content == "ok"

    def test_rate_limit_honors_server_hint(self):
        calls = {"n": 0}

        def post(url, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                return FakeResponse(status_code=429, headers={"Retry-After": "7"})
            return FakeResponse()

        sleeps = []
        backend = HttpBackend("http://example", post=post, sleep=sleeps.append)
        assert backend.complete(req()).content == "ok"
        assert sleeps == [7.0]

    @staticmethod
    def _sleeps_after_rate_limit(retry_after):
        replies = iter([FakeResponse(status_code=429, headers={"Retry-After": retry_after}),
                        FakeResponse()])
        sleeps = []
        backend = HttpBackend("http://example", post=lambda url, **kwargs: next(replies),
                              sleep=sleeps.append)
        assert backend.complete(req()).content == "ok"
        return sleeps

    @pytest.mark.parametrize("retry_after", ["86400", "1e12"])
    def test_rate_limit_wait_is_capped(self, retry_after):
        assert self._sleeps_after_rate_limit(retry_after) == [MAX_RETRY_AFTER_S]

    def test_rate_limit_honors_http_date(self):
        now = datetime.now(timezone.utc)
        [wait] = self._sleeps_after_rate_limit(format_datetime(now + timedelta(seconds=30), usegmt=True))
        assert 25 <= wait <= 30
        far = format_datetime(now + timedelta(days=1), usegmt=True)
        assert self._sleeps_after_rate_limit(far) == [MAX_RETRY_AFTER_S]
        assert self._sleeps_after_rate_limit("Wed, 21 Oct 2015 07:28:00 GMT") == [0.0]

    def test_rate_limit_reads_an_http_date_without_a_zone_as_utc(self):
        # "-0000" marks a UTC time whose source zone is unknown: the parsed date is naive
        naive = datetime.now(timezone.utc).replace(tzinfo=None) + timedelta(seconds=30)
        [wait] = self._sleeps_after_rate_limit(format_datetime(naive))
        assert format_datetime(naive).endswith(" -0000")
        assert 25 <= wait <= 30

    @pytest.mark.parametrize("retry_after", ["soon", "", "nan", "inf", "-5"])
    def test_unreadable_retry_after_falls_back_to_backoff(self, retry_after):
        assert self._sleeps_after_rate_limit(retry_after) == [1.0]

    def test_auth_error_not_retried(self):
        calls = {"n": 0}

        def post(url, **kwargs):
            calls["n"] += 1
            return FakeResponse(status_code=401)

        backend = HttpBackend("http://example", post=post, sleep=lambda s: None)
        with pytest.raises(AuthError):
            backend.complete(req())
        assert calls["n"] == 1

    def test_unexpected_status_not_retried(self):
        calls = []

        def post(url, **kwargs):
            calls.append(url)
            return FakeResponse(status_code=404)

        backend = HttpBackend("http://example", post=post, sleep=lambda s: None)
        with pytest.raises(GatewayError) as caught:
            backend.complete(req())
        assert type(caught.value) is GatewayError
        assert str(caught.value) == "unexpected status 404: error body"
        assert calls == ["http://example"]

    def test_server_errors_retried(self):
        calls = {"n": 0}

        def post(url, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                return FakeResponse(status_code=503)
            return FakeResponse()

        backend = HttpBackend("http://example", post=post, sleep=lambda s: None)
        assert backend.complete(req()).content == "ok"

    def test_default_post_is_looked_up_at_call_time(self, monkeypatch):
        backend = HttpBackend("http://example/v1", sleep=lambda s: None)
        calls = []

        def post(url, **kwargs):
            calls.append(url)
            return FakeResponse(content="served")

        monkeypatch.setattr(requests, "post", post)
        assert backend.complete(req()).content == "served"
        assert calls == ["http://example/v1"]

    def test_offline_process_never_imports_the_http_stack(self):
        # the HTTP client and the HTTP-date parser load on a live call only
        snippet = textwrap.dedent("""
            import os, sys, tempfile
            from click.testing import CliRunner
            import symchain.cli, symchain.corpus, symchain.evalkit, symchain.fixtures, symchain.pipeline
            with tempfile.TemporaryDirectory() as tmp:
                records, report = os.path.join(tmp, "records.jsonl"), os.path.join(tmp, "report.json")
                for args in (["run", "--method", "symbcot", "--dataset", "minicorpus", "--replay", "--out", records],
                             ["eval", records, "--gold", "minicorpus", "--format", "json", "--out", report],
                             ["report", report]):
                    result = CliRunner().invoke(symchain.cli.main, args)
                    assert result.exit_code == 0, (args, result.output)
            print(sorted(m for m in ("requests", "urllib3", "email.utils") if m in sys.modules))
        """)
        (out,) = helpers.run_under_hash_seeds(snippet, seeds=(0,)).values()
        assert out == "[]\n"

    def test_parallelism_is_not_capped(self):
        # every run_batch worker must reach the model at once: a post that
        # waits for all six breaks the barrier if any request is held back
        barrier = threading.Barrier(6, timeout=2)

        def post(url, json=None, headers=None, timeout=None):
            barrier.wait()
            return FakeResponse(content="The answer is {True}.")

        problems = list(mini_corpus().problems)[:6]
        records = run_batch(problems, Method.NAIVE, RunConfig(parallelism=6),
                            HttpBackend("http://example", post=post, sleep=lambda s: None))
        assert [r.error for r in records] == [None] * 6
