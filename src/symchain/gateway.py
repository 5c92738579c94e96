"""Chat-completion backends: live HTTP, write-through cache, replay, scripted.

Requests are keyed by a content hash of (model, messages, temperature,
max_tokens); the cache stores one JSON file per key, written atomically, so
a populated cache directory doubles as a portable replay fixture set.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

# ``requests`` (which loads urllib3, ssl, http and email) and the HTTP-date
# parser are imported where a live call needs them: offline runs (replay,
# scripted, eval, parse, solve) never make one, and would otherwise pay
# their import time and memory in every process.


class GatewayError(Exception):
    pass


class NetworkError(GatewayError):
    pass


class RateLimitedError(GatewayError):
    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class AuthError(GatewayError):
    pass


class MalformedResponseError(GatewayError):
    """A status-200 reply without a chat completion's ``choices[0].message.content`` text."""


class ReplayMissError(GatewayError):
    """The replay cache has no entry for this request; never goes live."""

    def __init__(self, key: str):
        super().__init__(f"replay miss for request key {key}")
        self.key = key


@dataclass(frozen=True)
class CompletionRequest:
    model: str
    messages: tuple[tuple[str, str], ...]
    temperature: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self):
        if not self.messages:
            raise GatewayError("messages must be non-empty")
        if self.temperature < 0:
            raise GatewayError("temperature must be ≥ 0")
        for role, _ in self.messages:
            if role not in ("system", "user", "assistant"):
                raise GatewayError(f"unknown message role {role!r}")
        non_system = [role for role, _ in self.messages if role != "system"]
        if non_system and non_system[0] != "user":
            raise GatewayError("the first non-system message must be from the user")

    def cache_key(self) -> str:
        payload = {
            "model": self.model,
            "messages": [[role, content] for role, content in self.messages],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "messages": [{"role": r, "content": c} for r, c in self.messages],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }


@dataclass(frozen=True)
class CompletionResponse:
    content: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    backend: str = "scripted"

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise GatewayError("token counts must be ≥ 0")


def approx_tokens(text: str) -> int:
    """Whitespace token count, used by offline backends that have no usage data."""
    return len(text.split())


# ---------------------------------------------------------------------------
# Cache storage


class CompletionCache:
    """One JSON file per request key; writes are atomic (temp + rename)."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[CompletionResponse]:
        path = self.path_for(key)
        if not path.exists():
            return None
        data = json.loads(path.read_text(encoding="utf-8"))
        resp = data["response"]
        return CompletionResponse(
            content=resp["content"],
            prompt_tokens=resp.get("prompt_tokens", 0),
            completion_tokens=resp.get("completion_tokens", 0),
            backend="cache",
        )

    def store(self, request: CompletionRequest, response: CompletionResponse) -> str:
        key = request.cache_key()
        payload = {
            "request": request.to_dict(),
            "response": {
                "content": response.content,
                "prompt_tokens": response.prompt_tokens,
                "completion_tokens": response.completion_tokens,
            },
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        final = self.path_for(key)
        tmp = final.with_suffix(f".{uuid.uuid4().hex}.tmp")
        tmp.write_text(json.dumps(payload, ensure_ascii=False, indent=2), encoding="utf-8")
        os.replace(tmp, final)
        return key

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def entry(self, key: str) -> Optional[dict]:
        path = self.path_for(key)
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    def remove(self, key: str) -> bool:
        path = self.path_for(key)
        if path.exists():
            path.unlink()
            return True
        return False


# ---------------------------------------------------------------------------
# Backends


class Backend:
    def complete(self, request: CompletionRequest) -> CompletionResponse:
        raise NotImplementedError


class ScriptedBackend(Backend):
    """Deterministic test backend serving canned responses.

    Accepts either a mapping from request cache key to response text, or a
    sequence consumed in call order.  Running out of (or missing) fixtures
    is a hard error.
    """

    def __init__(self, responses: Union[dict[str, str], Sequence[str]]):
        self._lock = threading.Lock()
        if isinstance(responses, dict):
            self._by_key: Optional[dict[str, str]] = dict(responses)
            self._queue: list[str] = []
        else:
            self._by_key = None
            self._queue = list(responses)
        self.calls = 0

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        with self._lock:
            self.calls += 1
            if self._by_key is not None:
                key = request.cache_key()
                if key not in self._by_key:
                    raise ReplayMissError(key)
                content = self._by_key[key]
            else:
                if not self._queue:
                    raise GatewayError("scripted backend ran out of responses")
                content = self._queue.pop(0)
        prompt_text = "\n".join(c for _, c in request.messages)
        return CompletionResponse(
            content=content,
            prompt_tokens=approx_tokens(prompt_text),
            completion_tokens=approx_tokens(content),
            backend="scripted",
        )


class ReplayBackend(Backend):
    """Serves exclusively from a cache directory; a miss never goes live."""

    def __init__(self, cache: Union[CompletionCache, str, Path]):
        self.cache = cache if isinstance(cache, CompletionCache) else CompletionCache(cache)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        response = self.cache.load(request.cache_key())
        if response is None:
            raise ReplayMissError(request.cache_key())
        return CompletionResponse(
            content=response.content,
            prompt_tokens=response.prompt_tokens,
            completion_tokens=response.completion_tokens,
            backend="replay",
        )


class CachingBackend(Backend):
    """Write-through cache around another backend (normally the live one)."""

    def __init__(self, inner: Backend, cache: Union[CompletionCache, str, Path]):
        self.inner = inner
        self.cache = cache if isinstance(cache, CompletionCache) else CompletionCache(cache)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        cached = self.cache.load(request.cache_key())
        if cached is not None:
            return cached
        response = self.inner.complete(request)
        self.cache.store(request, response)
        return response


# The longest wait a server's Retry-After can impose before the next attempt.
MAX_RETRY_AFTER_S = 60.0


class HttpBackend(Backend):
    """Live chat-completions client (messages array in, choices[0] out).

    Retries network failures with exponential backoff (max 5 attempts) and
    honors a server-provided Retry-After on rate limits, up to
    ``MAX_RETRY_AFTER_S``.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: Optional[str] = None,
        *,
        max_attempts: int = 5,
        backoff_base: float = 1.0,
        post: Optional[Callable] = None,
        sleep: Callable[[float], None] = time.sleep,
        timeout: float = 120.0,
    ):
        self.endpoint = endpoint
        self.api_key = api_key
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._post = post
        self._sleep = sleep

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        import requests

        post = self._post or requests.post
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = request.to_dict()

        last_error: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            if attempt:
                self._sleep(self._delay(attempt, last_error))
            try:
                resp = post(self.endpoint, json=body, headers=headers, timeout=self.timeout)
            except requests.RequestException as err:
                last_error = NetworkError(str(err))
                continue
            if resp.status_code in (401, 403):
                raise AuthError(f"authentication failed ({resp.status_code})")
            if resp.status_code == 429:
                retry_after = _parse_retry_after(resp)
                last_error = RateLimitedError("rate limited", retry_after)
                continue
            if resp.status_code >= 500:
                last_error = NetworkError(f"server error {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise GatewayError(f"unexpected status {resp.status_code}: {resp.text[:200]}")
            try:
                data = resp.json()
                usage = data.get("usage", {})
                content = data["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"content is {type(content).__name__}")
                return CompletionResponse(
                    content=content,
                    prompt_tokens=usage.get("prompt_tokens", 0),
                    completion_tokens=usage.get("completion_tokens", 0),
                    backend="live",
                )
            except (ValueError, LookupError, TypeError, AttributeError) as err:
                raise MalformedResponseError(f"malformed completion reply: {type(err).__name__}: {err}") from err
        raise last_error if last_error else NetworkError("no attempts made")

    def _delay(self, attempt: int, last_error: Optional[Exception]) -> float:
        if isinstance(last_error, RateLimitedError) and last_error.retry_after is not None:
            return min(last_error.retry_after, MAX_RETRY_AFTER_S)
        return self.backoff_base * (2 ** (attempt - 1))


def _parse_retry_after(resp) -> Optional[float]:
    """Seconds to wait from a Retry-After header, in delay-seconds or
    HTTP-date form (RFC 9110 §10.2.3); None when absent or unreadable."""
    value = resp.headers.get("Retry-After") if hasattr(resp, "headers") else None
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        import email.utils
        from datetime import datetime, timezone

        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:  # "-0000": a UTC time with no zone
            when = when.replace(tzinfo=timezone.utc)
        return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())
    return seconds if math.isfinite(seconds) and seconds >= 0 else None
