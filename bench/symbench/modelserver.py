"""An in-process chat-completions server with injected, seeded latency.

``ModelServer.post`` has the signature of ``requests.post`` as
``HttpBackend`` calls it, so it plugs in through the ``post=`` seam.  It
answers from the scaled corpus's canned stage texts, sleeps a per-request
delay drawn from a log-normal distribution, and counts what it receives.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import threading
import time
from dataclasses import dataclass

from symchain.corpus import MiniCorpus
from symchain.fixtures import ScriptedCorpusBackend
from symchain.gateway import CompletionRequest


@dataclass
class FakeResponse:
    """The subset of ``requests.Response`` that ``HttpBackend`` reads on success."""

    status_code: int
    body: dict

    def json(self) -> dict:
        return self.body


class ModelServer:
    """Serves a renamed corpus with a seeded delay per call.

    The delay of a call is a function of the seed and the request body, not
    of arrival order, so concurrent workers see the same delays on every run
    with the same seed.  ``cpu_s`` is the CPU time the server itself spent
    (identifying the problem and building the body), measured per thread, so
    the benchmark can subtract it from the process's CPU time.
    """

    def __init__(self, corpus: MiniCorpus, seed: int, median_s: float = 0.02, sigma: float = 0.25):
        self.load(corpus)
        self.seed = seed
        self.median_s = median_s
        self.sigma = sigma
        self._lock = threading.Lock()
        self.calls = 0
        self.cpu_s = 0.0

    def load(self, corpus: MiniCorpus) -> None:
        """Serve ``corpus`` from now on (the problems of the next round)."""
        self._backend = ScriptedCorpusBackend(corpus)

    def delay_for(self, body: dict) -> float:
        digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
        z = random.Random(f"{self.seed}:{digest}").gauss(0.0, 1.0)
        return self.median_s * math.exp(self.sigma * z)

    def post(self, endpoint, json=None, headers=None, timeout=None) -> FakeResponse:
        cpu_start = time.thread_time()
        request = CompletionRequest(
            model=json["model"],
            messages=tuple((m["role"], m["content"]) for m in json["messages"]),
            temperature=json["temperature"],
            max_tokens=json["max_tokens"],
        )
        answer = self._backend.complete(request)
        delay = self.delay_for(json)
        body = {
            "choices": [{"index": 0, "message": {"role": "assistant", "content": answer.content}}],
            "usage": {
                "prompt_tokens": answer.prompt_tokens,
                "completion_tokens": answer.completion_tokens,
                "total_tokens": answer.prompt_tokens + answer.completion_tokens,
            },
        }
        cpu = time.thread_time() - cpu_start
        with self._lock:
            self.calls += 1
            self.cpu_s += cpu
        time.sleep(delay)
        return FakeResponse(200, body)
