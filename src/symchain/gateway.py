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
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

# ``requests`` (which loads urllib3, ssl, http and email) and the HTTP-date
# parser are imported where a live call needs them: offline runs (replay,
# scripted, eval, parse, solve) never make one, and would otherwise pay
# their import time and memory in every process.


# The canonical request encoding behind every cache key: one encoder, built
# once, with the settings the shipped fixtures were keyed with.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


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
    """A reply that is not a completion: a status-200 reply without a chat
    completion's ``choices[0].message.content`` text, or a content or token
    count that ``CompletionResponse`` refuses."""


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
        return hashlib.sha256(_CANONICAL.encode(payload).encode("utf-8")).hexdigest()

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
        """The one check of a completion, from any backend or cache entry: a
        string content and integer token counts ≥ 0 (``bool`` is an ``int``
        subclass, so types are compared exactly, as records are read)."""
        if type(self.content) is not str:
            raise MalformedResponseError(f"content must be a string, found {type(self.content).__name__}")
        for count in (self.prompt_tokens, self.completion_tokens):
            if type(count) is not int:
                raise MalformedResponseError(f"token counts must be integers, found {count!r}")
            if count < 0:
                raise MalformedResponseError("token counts must be ≥ 0")


def scripted_response(request: CompletionRequest, content: str) -> CompletionResponse:
    """An offline backend's reply of ``content``: with no usage data, its token
    counts are the whitespace tokens of the joined prompt and of ``content``."""
    prompt = "\n".join(text for _, text in request.messages)
    return CompletionResponse(content, len(prompt.split()), len(content.split()), backend="scripted")


# ---------------------------------------------------------------------------
# Cache storage

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"  # an entry's write time, UTC, for time.strftime and time.strptime


class CompletionCache:
    """One JSON file per request key; writes are atomic (temp + rename)."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._prefix = os.path.join(self.directory, "")

    def path_for(self, key: str) -> Path:
        return Path(self._file(key))

    def _file(self, key: str) -> str:
        # a plain string: reading an entry on every cache hit builds no Path
        return f"{self._prefix}{key}.json"

    def load(self, key: str, backend: str = "cache") -> Optional[CompletionResponse]:
        """The stored response, tagged with the ``backend`` that asked for it;
        None when there is no entry or it cannot be served: not UTF-8, not
        JSON, prefixed by a byte-order mark, no object holding
        ``response.content``, or a response ``CompletionResponse`` refuses."""
        try:
            resp = self.entry(key)["response"]
            return CompletionResponse(
                content=resp["content"],
                prompt_tokens=resp.get("prompt_tokens", 0),
                completion_tokens=resp.get("completion_tokens", 0),
                backend=backend,
            )
        except (TypeError, KeyError, ValueError, MalformedResponseError):  # TypeError: no entry, or not an object
            return None

    def store(self, request: CompletionRequest, response: CompletionResponse) -> str:
        key = request.cache_key()
        payload = {
            "request": request.to_dict(),
            "response": {
                "content": response.content,
                "prompt_tokens": response.prompt_tokens,
                "completion_tokens": response.completion_tokens,
            },
            "timestamp": time.strftime(TIMESTAMP_FORMAT, time.gmtime()),
        }
        final = self.path_for(key)
        tmp = final.with_suffix(f".{uuid.uuid4().hex}.tmp")
        tmp.write_text(json.dumps(payload, ensure_ascii=False, indent=2), encoding="utf-8")
        os.replace(tmp, final)
        return key

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def entry(self, key: str) -> Optional[dict]:
        """The stored entry, or None when there is none (or it was just removed)."""
        try:
            with open(self._file(key), "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            return None
        # decoded first: json.loads would take bytes with a BOM or in UTF-16
        return json.loads(raw.decode("utf-8"))

    def remove(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            return False
        return True


# ---------------------------------------------------------------------------
# Backends


class Backend:
    def complete(self, request: CompletionRequest) -> CompletionResponse:
        raise NotImplementedError


class ScriptedBackend(Backend):
    """Deterministic offline backend: serves the canned text mapped to each
    request's cache key; a request with no entry is a ``ReplayMissError``."""

    def __init__(self, responses: dict[str, str]):
        self._by_key = dict(responses)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        key = request.cache_key()
        content = self._by_key.get(key)
        if content is None:
            raise ReplayMissError(key)
        return scripted_response(request, content)


class ReplayBackend(Backend):
    """Serves exclusively from a cache directory; a miss never goes live."""

    def __init__(self, cache: Union[CompletionCache, str, Path]):
        self.cache = cache if isinstance(cache, CompletionCache) else CompletionCache(cache)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        key = request.cache_key()
        response = self.cache.load(key, "replay")
        if response is None:
            raise ReplayMissError(key)
        return response


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


# Attempts per request, the first backoff wait (doubled after each failed
# attempt), the per-attempt timeout, and the longest wait a server's
# Retry-After can impose before the next attempt.
MAX_ATTEMPTS = 5
BACKOFF_BASE_S = 1.0
TIMEOUT_S = 120.0
MAX_RETRY_AFTER_S = 60.0


class HttpBackend(Backend):
    """Live chat-completions client (messages array in, choices[0] out).

    Retries network failures with exponential backoff (``MAX_ATTEMPTS``
    attempts from ``BACKOFF_BASE_S``) and honors a server-provided
    Retry-After on rate limits, up to ``MAX_RETRY_AFTER_S``.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: Optional[str] = None,
        *,
        post: Optional[Callable] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint
        self.api_key = api_key
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
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                self._sleep(self._delay(attempt, last_error))
            try:
                resp = post(self.endpoint, json=body, headers=headers, timeout=TIMEOUT_S)
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
                return CompletionResponse(
                    content=data["choices"][0]["message"]["content"],
                    prompt_tokens=usage.get("prompt_tokens", 0),
                    completion_tokens=usage.get("completion_tokens", 0),
                    backend="live",
                )
            except (ValueError, LookupError, TypeError, AttributeError) as err:
                raise MalformedResponseError(f"malformed completion reply: {type(err).__name__}: {err}") from err
        raise last_error

    def _delay(self, attempt: int, last_error: Optional[Exception]) -> float:
        if isinstance(last_error, RateLimitedError) and last_error.retry_after is not None:
            return min(last_error.retry_after, MAX_RETRY_AFTER_S)
        return BACKOFF_BASE_S * (2 ** (attempt - 1))


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
