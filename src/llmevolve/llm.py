"""Generation engine: weighted model ensemble, meta model, backends.

Two backends ship with the package: an OpenAI-compatible chat-completions
client over HTTP, and a replay backend that serves scripted responses keyed
by per-island call index for fully deterministic offline runs.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import templates


class TransportError(RuntimeError):
    """All transport attempts for a generation call failed."""


class ReplayError(TransportError):
    """A replay transcript has no response, or a different digest, for a call.

    Retrying cannot change the transcript, so it is raised at once.
    """


class EmptyResponseError(RuntimeError):
    """The backend returned an empty payload where text was required."""


@dataclass
class EnsembleMember:
    name: str
    weight: float
    temperature: float = 0.7
    top_p: float = 0.95
    max_output_tokens: Optional[int] = None


@dataclass
class MetaModel:
    name: str
    temperature: float = 0.7
    top_p: float = 0.95


@dataclass
class RetryPolicy:
    max_attempts: int = 3
    backoff_seconds: tuple[float, ...] = (0.5, 1.0, 2.0)

    def __post_init__(self) -> None:
        # YAML reads a sequence back as a list.
        self.backoff_seconds = tuple(self.backoff_seconds)


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
        for m in self.members:
            if m.temperature < 0:
                raise ValueError("temperature must be >= 0")
            if not (0 < m.top_p <= 1):
                raise ValueError("top_p must be in (0, 1]")

    @classmethod
    def default(cls) -> "EnsembleConfig":
        return cls(
            members=[
                EnsembleMember(name="flash", weight=0.8),
                EnsembleMember(name="pro", weight=0.2),
            ],
            meta_model=MetaModel(name="flash"),
        )


@dataclass
class GenerationRequest:
    prompt_text: str
    parent_code: str
    ancestor_codes: list[str] = field(default_factory=list)
    inspiration_codes: list[str] = field(default_factory=list)
    execution_feedback: Optional[str] = None
    problem_brief: str = ""

    def __post_init__(self) -> None:
        if not self.prompt_text:
            raise ValueError("prompt_text must be non-empty")


def sample_model(config: EnsembleConfig, rng: random.Random) -> str:
    """Pick an ensemble member name according to the configured weights."""
    u = rng.random()
    acc = 0.0
    for member in config.members:
        acc += member.weight
        if u < acc:
            return member.name
    return config.members[-1].name


class HttpBackend:
    """OpenAI-compatible chat-completions client.

    The API key comes from the environment (``LLMEVOLVE_API_KEY`` by
    default); the base URL is configuration.
    """

    def __init__(
        self,
        base_url: str,
        api_key_env: str = "LLMEVOLVE_API_KEY",
        timeout: float = 120.0,
    ):
        import requests

        self.base_url = base_url.rstrip("/")
        self.api_key = os.environ.get(api_key_env, "")
        self.timeout = timeout
        self._session = requests.Session()

    def complete(
        self,
        model: str,
        messages: list[dict[str, str]],
        island_id: int,
        temperature: float = 0.7,
        top_p: float = 0.95,
        max_output_tokens: Optional[int] = None,
    ) -> str:
        import requests

        payload: dict = {
            "model": model,
            "messages": messages,
            "temperature": temperature,
            "top_p": top_p,
        }
        if max_output_tokens is not None:
            payload["max_tokens"] = max_output_tokens
        headers = {"Authorization": f"Bearer {self.api_key}"}
        try:
            resp = self._session.post(
                f"{self.base_url}/chat/completions",
                json=payload,
                headers=headers,
                timeout=self.timeout,
            )
            resp.raise_for_status()
            body = resp.json()
            return body["choices"][0]["message"]["content"]
        except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
            raise TransportError(str(exc)) from exc

    def get_state(self) -> None:
        return None

    def set_state(self, state) -> None:
        pass


class ReplayBackend:
    """Deterministic stand-in serving scripted responses.

    Responses are keyed by (island, per-island call index); every call on an
    island consumes the next index. Transcripts are line-delimited JSON
    records ``{"island": i, "index": j, "response": text}`` (records without
    an island apply to island 0). ``strict_digests`` optionally pins a call
    to a digest of its messages.
    """

    def __init__(self, responses: dict[tuple[int, int], str], strict_digests: Optional[dict[tuple[int, int], str]] = None):
        self.responses = responses
        self.strict_digests = strict_digests or {}
        self.counters: dict[int, int] = {}

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayBackend":
        responses: dict[tuple[int, int], str] = {}
        digests: dict[tuple[int, int], str] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                key = (int(rec.get("island", 0)), int(rec["index"]))
                responses[key] = rec["response"]
                if "digest" in rec:
                    digests[key] = rec["digest"]
        return cls(responses, digests)

    def complete(
        self,
        model: str,
        messages: list[dict[str, str]],
        island_id: int,
        temperature: float = 0.7,
        top_p: float = 0.95,
        max_output_tokens: Optional[int] = None,
    ) -> str:
        index = self.counters.get(island_id, 0)
        self.counters[island_id] = index + 1
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


def _call_with_retries(config: EnsembleConfig, fn) -> str:
    policy = config.retry
    last: Exception | None = None
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except ReplayError:
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
    request: GenerationRequest,
    backend,
    rng: random.Random,
    island_id: int = 0,
) -> tuple[str, str]:
    """Sample a model, assemble the instruction, call the backend.

    Returns (model_name, raw response text). Transport errors are retried
    per the retry policy and surface as TransportError when exhausted; a
    ReplayError is raised at once.
    """
    model = sample_model(config, rng)
    member = next(m for m in config.members if m.name == model)
    messages = templates.build_generation_messages(
        problem_brief=request.problem_brief,
        prompt_text=request.prompt_text,
        parent_code=request.parent_code,
        ancestor_codes=request.ancestor_codes,
        inspiration_codes=request.inspiration_codes,
        execution_feedback=request.execution_feedback,
    )
    text = _call_with_retries(
        config,
        lambda: backend.complete(
            model,
            messages,
            island_id,
            temperature=member.temperature,
            top_p=member.top_p,
            max_output_tokens=member.max_output_tokens,
        ),
    )
    return model, text


def meta_prompt(
    config: EnsembleConfig,
    parent_prompt_text: str,
    parent_code: str,
    backend,
    island_id: int = 0,
    problem_brief: str = "",
) -> str:
    """Ask the meta model to rewrite a prompt given the solution it produced."""
    if not parent_prompt_text or not parent_code:
        raise ValueError("meta-prompting needs a non-empty prompt and code")
    messages = templates.build_meta_messages(
        problem_brief=problem_brief,
        parent_prompt_text=parent_prompt_text,
        parent_code=parent_code,
    )
    meta = config.meta_model
    text = _call_with_retries(
        config,
        lambda: backend.complete(
            meta.name,
            messages,
            island_id,
            temperature=meta.temperature,
            top_p=meta.top_p,
        ),
    )
    if not text.strip():
        raise EmptyResponseError("meta model returned an empty prompt")
    return text
