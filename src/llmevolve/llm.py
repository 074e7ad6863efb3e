"""Model layer: weighted model ensemble, meta model, backends.

It sends chat messages that the operators assemble with the templates.

Every call carries the key ``(island_id, index)`` that the caller assigned
(see ``core.IslandState.next_call_index``); a retry reuses its call's key.
A backend's ``complete`` may be called concurrently, for one island as for
several, under distinct keys.

Two backends ship with the package: an OpenAI-compatible chat-completions
client on ``urllib.request``, and a replay backend that serves the scripted
response under each key, for fully deterministic offline runs. Either one
returns text: a reply or transcript record without text is an error.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


class TransportError(RuntimeError):
    """All transport attempts for a generation call failed."""


class RejectedError(TransportError):
    """The backend refused the call; retrying cannot change that, so it is raised at once."""


class ReplayError(RejectedError):
    """A replay transcript has no response, or a different digest, for a call."""


class EmptyResponseError(RuntimeError):
    """The backend returned an empty payload where text was required."""


def _check_sampling(temperature: float, top_p: float) -> None:
    if not temperature >= 0:
        raise ValueError("temperature must be >= 0")
    if not (0 < top_p <= 1):
        raise ValueError("top_p must be in (0, 1]")


@dataclass
class EnsembleMember:
    name: str
    weight: float
    temperature: float = 0.7
    top_p: float = 0.95
    max_output_tokens: Optional[int] = None

    def __post_init__(self) -> None:
        _check_sampling(self.temperature, self.top_p)
        if not self.weight >= 0:
            raise ValueError(f"member {self.name!r} has a negative weight")
        tokens = self.max_output_tokens
        if tokens is not None and not (type(tokens) is int and tokens >= 1):
            raise ValueError("max_output_tokens must be a positive integer or unset")


@dataclass
class MetaModel:
    name: str
    temperature: float = 0.7
    top_p: float = 0.95

    def __post_init__(self) -> None:
        _check_sampling(self.temperature, self.top_p)


@dataclass
class RetryPolicy:
    max_attempts: int = 3
    backoff_seconds: tuple[float, ...] = (0.5, 1.0, 2.0)

    def __post_init__(self) -> None:
        # YAML reads a sequence back as a list.
        self.backoff_seconds = tuple(self.backoff_seconds)
        if self.max_attempts < 1:
            raise ValueError("retry max_attempts must be >= 1")
        if not all(math.isfinite(d) and d >= 0 for d in self.backoff_seconds):
            raise ValueError("retry backoff_seconds must be finite and >= 0")


@dataclass
class EnsembleConfig:
    members: list[EnsembleMember]
    meta_model: MetaModel
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        total = sum(m.weight for m in self.members)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"ensemble weights sum to {total}, expected 1")

    @classmethod
    def default(cls) -> "EnsembleConfig":
        return cls(
            members=[
                EnsembleMember(name="flash", weight=0.8),
                EnsembleMember(name="pro", weight=0.2),
            ],
            meta_model=MetaModel(name="flash"),
        )


def sample_model(config: EnsembleConfig, rng: random.Random) -> EnsembleMember:
    """Pick an ensemble member according to the configured weights."""
    u = rng.random()
    acc = 0.0
    for member in config.members:
        acc += member.weight
        if u < acc:
            return member
    return config.members[-1]


API_KEY_ENV = "LLMEVOLVE_API_KEY"
HTTP_TIMEOUT_SECONDS = 120.0

# Statuses that a retry cannot change: a bad request, key, model or URL.
_HTTP_REJECTED = frozenset({400, 401, 403, 404})


class HttpBackend:
    """OpenAI-compatible chat-completions client on ``urllib.request``.

    The API key comes from ``LLMEVOLVE_API_KEY``; the base URL is
    configuration. Each call builds its own request and opens its own
    connection, so calls share no state and may run on any thread. Proxies
    come from ``http_proxy``, ``https_proxy`` and ``no_proxy``.
    """

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")
        self.api_key = os.environ.get(API_KEY_ENV, "")

    def complete(
        self,
        model: str,
        messages: list[dict[str, str]],
        island_id: int,
        index: Optional[int] = None,
        temperature: float = 0.7,
        top_p: float = 0.95,
        max_output_tokens: Optional[int] = None,
    ) -> str:
        """Send one chat-completions request; ``index`` is not needed over HTTP."""
        # Not at module load: these load ssl, which adds ~3 MB to a replay run's peak RSS.
        import http.client
        import urllib.error
        import urllib.request

        payload: dict = {
            "model": model,
            "messages": messages,
            "temperature": temperature,
            "top_p": top_p,
        }
        if max_output_tokens is not None:
            payload["max_tokens"] = max_output_tokens
        headers = {"Authorization": f"Bearer {self.api_key}", "Content-Type": "application/json"}
        url = f"{self.base_url}/chat/completions"
        try:
            data = json.dumps(payload, allow_nan=False).encode("utf-8")
            request = urllib.request.Request(url, data=data, headers=headers)
            with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_SECONDS) as resp:
                content = json.load(resp)["choices"][0]["message"]["content"]
        except urllib.error.HTTPError as exc:
            exc.close()
            error = RejectedError if exc.code in _HTTP_REJECTED else TransportError
            raise error(f"{exc.code} {exc.reason} for {url}") from None
        except (OSError, http.client.HTTPException, LookupError, TypeError, ValueError) as exc:
            raise TransportError(str(exc)) from exc
        if not isinstance(content, str):
            raise TransportError(f"reply content is {type(content).__name__}, not text")
        return content


class ReplayBackend:
    """Deterministic stand-in serving scripted responses.

    Responses are keyed by (island, call index), the key the caller passes.
    Transcripts are line-delimited JSON records ``{"island": i, "index": j,
    "response": text}`` (records without an island apply to island 0).
    ``strict_digests`` optionally pins a call to a digest of its messages.

    ``counters`` holds each island's next index: one past the highest served.
    A call without an index takes it. The counters and ``get_state`` /
    ``set_state`` remain only for the benchmark's probes, which read them;
    they go once the benchmark counts calls itself.
    """

    def __init__(self, responses: dict[tuple[int, int], str], strict_digests: Optional[dict[tuple[int, int], str]] = None):
        self.responses = responses
        self.strict_digests = strict_digests or {}
        self.counters: dict[int, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayBackend":
        """Load a transcript; a malformed record is a ``ValueError`` that names its line."""
        responses: dict[tuple[int, int], str] = {}
        digests: dict[tuple[int, int], str] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    if not isinstance(rec, dict):
                        raise ValueError("the record is not a JSON object")
                    key = (rec.get("island", 0), rec.get("index"))
                    if not all(type(i) is int for i in key):
                        raise ValueError("the island and index are not both integers")
                    if not isinstance(rec.get("response"), str):
                        raise ValueError("the response is missing or not text")
                except ValueError as exc:  # a JSONDecodeError too
                    raise ValueError(f"{path} line {lineno}: {exc}") from None
                responses[key] = rec["response"]
                if "digest" in rec:
                    digests[key] = rec["digest"]
        return cls(responses, digests)

    def complete(
        self,
        model: str,
        messages: list[dict[str, str]],
        island_id: int,
        index: Optional[int] = None,
        temperature: float = 0.7,
        top_p: float = 0.95,
        max_output_tokens: Optional[int] = None,
    ) -> str:
        with self._lock:
            after = self.counters.get(island_id, 0)
            if index is None:
                index = after
            self.counters[island_id] = max(after, index + 1)
        key = (island_id, index)
        if key not in self.responses:
            raise ReplayError(f"replay transcript exhausted at island {island_id} call {index}")
        expected = self.strict_digests.get(key)
        if expected is not None:
            actual = request_digest(messages)
            if actual != expected:
                raise ReplayError(
                    f"replay digest mismatch at island {island_id} call {index}"
                )
        return self.responses[key]

    def get_state(self) -> dict[int, int]:
        return dict(self.counters)

    def set_state(self, state: dict[int, int]) -> None:
        self.counters = dict(state or {})


def request_digest(messages: list[dict[str, str]]) -> str:
    import hashlib

    blob = json.dumps(messages, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _call_with_retries(policy: RetryPolicy, fn) -> str:
    last: Exception | None = None
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except RejectedError:
            raise
        except TransportError as exc:
            last = exc
            if attempt + 1 < policy.max_attempts:
                idx = min(attempt, len(policy.backoff_seconds) - 1)
                delay = policy.backoff_seconds[idx] if policy.backoff_seconds else 0
                if delay:
                    time.sleep(delay)
    raise TransportError(f"all {policy.max_attempts} attempts failed: {last}")


def generate(
    config: EnsembleConfig,
    messages: list[dict[str, str]],
    backend,
    member: EnsembleMember,
    island_id: int,
    index: int,
) -> str:
    """Send ``messages`` to ``member`` (see ``sample_model``) as call ``index``.

    Returns the raw response text. Transport errors are retried per the
    retry policy and surface as TransportError when exhausted; a
    RejectedError is raised at once.
    """
    return _call_with_retries(
        config.retry,
        lambda: backend.complete(
            member.name,
            messages,
            island_id,
            index=index,
            temperature=member.temperature,
            top_p=member.top_p,
            max_output_tokens=member.max_output_tokens,
        ),
    )


def meta_prompt(
    config: EnsembleConfig,
    messages: list[dict[str, str]],
    backend,
    island_id: int,
    index: int,
) -> str:
    """Send the meta model a prompt-rewriting request as call ``index``; return the new prompt."""
    meta = config.meta_model
    text = _call_with_retries(
        config.retry,
        lambda: backend.complete(
            meta.name,
            messages,
            island_id,
            index=index,
            temperature=meta.temperature,
            top_p=meta.top_p,
        ),
    )
    if not text.strip():
        raise EmptyResponseError("meta model returned an empty prompt")
    return text
