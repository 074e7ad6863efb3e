"""Model layer: weighted model ensemble, meta model, backends.

It sends chat messages that the operators assemble with the templates.

A backend answers ``complete(model, messages, island_id, index)``: ``model``
is the ``EnsembleMember`` or ``MetaModel`` itself, whose name and sampling
settings the backend reads, so each default is declared once. Every call
carries the key ``(island_id, index)`` that the caller assigned
(see ``core.IslandState.next_call_index``); a retry reuses its call's key.
A backend's ``complete`` may be called concurrently, for one island as for
several, under distinct keys.

Two backends ship with the package: an OpenAI-compatible chat-completions
client on ``urllib.request``, and a replay backend that serves the scripted
response under each key, for fully deterministic offline runs. A transcript
file's records are all checked when it is loaded, but each reply is read from
the file only when its call arrives, so a run holds no more of its model
traffic than an index. Either backend returns text: a reply or transcript
record without text is an error.

A call fails in one of three ways. A ``TransportError`` is retried under the
config's ``RetryPolicy``. A ``RejectedError`` fails its step at once: a
refused request, a replay miss, digest mismatch or record changed since
loading, or a blank meta reply. A
``KeyRefusedError`` ends the run. ``generate`` is the one function here that
sends a call.
"""

from __future__ import annotations

import json
import os
import random
import socket
import stat
import sys
import threading
import time
import weakref
import zlib
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


class TransportError(RuntimeError):
    """A transport attempt for a generation call failed, or all of them did.

    ``retry_after`` is the wait in seconds that the server asked for, if any.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class RejectedError(TransportError):
    """Retrying cannot change this call's outcome, so it is raised at once and
    fails its step: the backend refused the request, a replay transcript has no
    response or a different digest for the call, or a changed record, or the
    meta model's reply is blank."""


class KeyRefusedError(RuntimeError):
    """The endpoint refused the API key (HTTP 401 or 403).

    No later call can succeed, so it is not retried and fails no step: it
    ends the run, which can resume from its last checkpoint with a good key.
    """


# The largest integer a config field takes, the signed 64-bit maximum: far
# past any count a run needs, and short enough to write in decimal. YAML
# reads a hex, octal or binary integer of any length.
MAX_INTEGER = (1 << 63) - 1


def check_field(name: str, value, kind: str, low=None, high=None) -> None:
    """Raise ``ValueError`` unless ``value`` is of ``kind`` and from ``low`` to
    ``high`` (``None``: no bound; a positive number's ``low`` is open). A bool
    is a boolean, not a number: YAML reads one from ``yes``. The type comes
    first, so an int is never made a float, and NaN, ±inf or an int past
    floats fails a finite bound. A class's ``RANGES`` rows hold these arguments."""
    types = {"integer": (int,), "integer or null": (int, type(None)), "number": (int, float),
             "positive number": (int, float), "boolean": (bool,), "string": (str,), "list": (list, tuple)}[kind]
    if type(value) not in types or value is not None and not (
            (low is None or (value > low if kind == "positive number" else value >= low))
            and (high is None or value <= high)):
        interval = f"{'(' if kind == 'positive number' else '['}{low}, {high}]"
        bounds = "" if low is None else f" >= {low}" if high is None else f" in {interval}"
        raise ValueError(f"{name} must be {'an' if kind[0] == 'i' else 'a'} {kind}{bounds}")


def quote(value) -> str:
    """``repr(value)``, for a message that names a refused value. Python writes
    no integer of more than 4,300 decimal digits, which YAML reads from a long
    hex literal; a value that holds one is described instead."""
    try:
        return repr(value)
    except ValueError:
        what = "an integer" if type(value) is int else f"a {type(value).__name__} holding an integer"
        return f"<{what} too long to write in decimal>"


class _Model:
    """A model's checks: a name, and the sampling values that every request sends."""

    RANGES = (("temperature", "number", 0, sys.float_info.max), ("top_p", "positive number", 0, 1))

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name):
            raise ValueError(f"model name {quote(self.name)} must be a non-empty string")
        for name, *rule in self.RANGES:
            check_field(f"model {self.name!r} {name}", getattr(self, name), *rule)


@dataclass
class EnsembleMember(_Model):
    name: str
    weight: float
    temperature: float = 0.7
    top_p: float = 0.95
    max_output_tokens: Optional[int] = None

    # The weights sum to 1, so none is above it.
    RANGES = (("weight", "number", 0, 1), *_Model.RANGES, ("max_output_tokens", "integer or null", 1, MAX_INTEGER))


@dataclass
class MetaModel(_Model):
    name: str
    temperature: float = 0.7
    top_p: float = 0.95
    # Not a field, so the config has no such key: a meta call sends no cap.
    max_output_tokens = None


@dataclass
class RetryPolicy:
    """A call makes one attempt more than there are back-offs, and sleeps
    ``backoff_seconds[i]`` before retry ``i + 1``. Each back-off is from 0
    to ``HTTP_TIMEOUT_SECONDS``, the cap on a server's ``Retry-After``."""

    backoff_seconds: tuple[float, ...] = (0.5, 1.0)

    def __post_init__(self) -> None:
        check_field("retry backoff_seconds", self.backoff_seconds, "list")  # YAML reads a sequence back as a list
        self.backoff_seconds = tuple(self.backoff_seconds)
        for i, seconds in enumerate(self.backoff_seconds):
            check_field(f"retry backoff_seconds[{i}]", seconds, "number", 0, HTTP_TIMEOUT_SECONDS)


@dataclass
class EnsembleConfig:
    members: list[EnsembleMember]
    meta_model: MetaModel
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
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
# No chat reply comes near this; a larger body is not read any further.
HTTP_REPLY_CAP_BYTES = 16 << 20

# Statuses that a retry cannot change: a bad request, model or URL fails its
# step, and a bad key the run.
_HTTP_REJECTED = frozenset({400, 404})
_HTTP_KEY_REFUSED = frozenset({401, 403})


def _retry_after(exc) -> Optional[float]:
    """The seconds that a 429 or 5xx ``HTTPError`` asks the client to wait;
    None without a ``Retry-After`` header, or for one that holds an HTTP date."""
    if exc.code != 429 and exc.code < 500:
        return None
    value = exc.headers.get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


def _read_reply(resp) -> bytearray:
    """The body of ``resp``, read in chunks as they arrive; past
    ``HTTP_REPLY_CAP_BYTES`` it is a ``TransportError``."""
    body = bytearray()
    while chunk := resp.read1(1 << 16):
        body += chunk
        if len(body) > HTTP_REPLY_CAP_BYTES:
            raise TransportError(f"reply is larger than {HTTP_REPLY_CAP_BYTES >> 20} MiB")
    return body


def _shut_down(sock) -> None:
    try:  # the plain socket's shutdown: ssl's would also drop the TLS state a read is using
        socket.socket.shutdown(sock, socket.SHUT_RDWR)
    except OSError:  # already closed
        pass


def _deadline_opener(deadline: float, timers: list):
    """A ``urllib`` opener that shuts each connection down at ``deadline``
    (a ``time.monotonic`` value), so that a read still blocked on it
    returns at once, whether for the status line, a header or the body.

    Each connection's timer is appended to ``timers``, for the caller to
    cancel. The default handlers stay, the proxy handler among them.
    """
    import urllib.request

    class Deadline:
        def do_open(self, http_class, req, **kwargs):
            class Connection(http_class):
                def connect(conn):
                    super().connect()  # for https, ``conn.sock`` is then the TLS socket
                    timer = threading.Timer(deadline - time.monotonic(), _shut_down, (conn.sock,))
                    timer.daemon = True
                    timers.append(timer)
                    timer.start()

            return super().do_open(Connection, req, **kwargs)

    class HTTPHandler(Deadline, urllib.request.HTTPHandler):
        pass

    class HTTPSHandler(Deadline, urllib.request.HTTPSHandler):
        pass

    return urllib.request.build_opener(HTTPHandler, HTTPSHandler)


class HttpBackend:
    """OpenAI-compatible chat-completions client on ``urllib.request``.

    The API key comes from ``LLMEVOLVE_API_KEY``; the base URL is
    configuration. Each call builds its own request and opens its own
    connection, so calls share no state and may run on any thread. Proxies
    come from ``http_proxy``, ``https_proxy`` and ``no_proxy``.

    A reply, status line and headers included, must arrive whole within
    ``HTTP_TIMEOUT_SECONDS`` of the call's start, and its body may hold at
    most ``HTTP_REPLY_CAP_BYTES``; either limit is a ``TransportError``. At
    the deadline the connection is shut down, however slowly its bytes
    trickle in; connecting waits at most ``HTTP_TIMEOUT_SECONDS`` on its own.
    """

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")
        self.api_key = os.environ.get(API_KEY_ENV, "")

    def complete(
        self, model: EnsembleMember | MetaModel, messages: list[dict[str, str]], island_id: int, index: int
    ) -> str:
        """Send one chat-completions request; the key is not needed over HTTP."""
        # Not at module load: these load ssl, which adds ~3 MB to a replay run's peak RSS.
        import http.client
        import urllib.error
        import urllib.request

        payload: dict = {
            "model": model.name,
            "messages": messages,
            "temperature": model.temperature,
            "top_p": model.top_p,
        }
        if model.max_output_tokens is not None:
            payload["max_tokens"] = model.max_output_tokens
        headers = {"Authorization": f"Bearer {self.api_key}", "Content-Type": "application/json"}
        url = f"{self.base_url}/chat/completions"
        deadline, timers = time.monotonic() + HTTP_TIMEOUT_SECONDS, []
        try:
            data = json.dumps(payload, allow_nan=False).encode("utf-8")
            request = urllib.request.Request(url, data=data, headers=headers)
            with _deadline_opener(deadline, timers).open(request, timeout=HTTP_TIMEOUT_SECONDS) as resp:
                body = _read_reply(resp)
            content = json.loads(body)["choices"][0]["message"]["content"]
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code in _HTTP_KEY_REFUSED:
                raise KeyRefusedError(f"{exc.code} {exc.reason} for {url}: check {API_KEY_ENV}") from None
            if exc.code in _HTTP_REJECTED:
                raise RejectedError(f"{exc.code} {exc.reason} for {url}") from None
            raise TransportError(f"{exc.code} {exc.reason} for {url}", _retry_after(exc)) from None
        except (OSError, http.client.HTTPException, LookupError, TypeError, ValueError) as exc:
            if time.monotonic() >= deadline:  # the reply was cut off at the deadline
                raise TransportError(f"reply is not complete after {HTTP_TIMEOUT_SECONDS:g} s") from exc
            raise TransportError(str(exc)) from exc
        finally:
            for timer in timers:
                timer.cancel()
        if not isinstance(content, str):
            raise TransportError(f"reply content is {type(content).__name__}, not text")
        return content


def _record(line: bytes) -> Optional[tuple[tuple[int, int], dict]]:
    """The key and record of a transcript line, or None for a blank line; a
    ``ValueError`` says what is wrong with any other."""
    text = line.decode("utf-8")
    if not text.strip():
        return None
    rec = json.loads(text)
    if not isinstance(rec, dict):
        raise ValueError("the record is not a JSON object")
    key = (rec.get("island", 0), rec.get("index"))
    if not all(type(i) is int for i in key):
        raise ValueError("the island and index are not both integers")
    if not isinstance(rec.get("response"), str):
        raise ValueError("the response is missing or not text")
    if "digest" in rec and not _is_digest(rec["digest"]):
        raise ValueError("the digest is not 64 lowercase hex digits")
    return key, rec


class _Transcript(Mapping):
    """A transcript file's replies by key, each read from the file when it is asked for.

    It holds of each record only where it lies: its byte offset, length, line
    number and CRC-32. A reply is read with ``os.pread``, which moves no shared
    file position, so calls on any threads need no lock; a record whose bytes
    changed since ``add`` is a ``RejectedError`` that names its line. The
    mapping owns its descriptor, and closes it when it is collected.
    """

    def __init__(self, path: str | Path):
        # O_NONBLOCK: opening a FIFO would otherwise wait for a writer.
        self.fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        self.close = weakref.finalize(self, os.close, self.fd)
        if not stat.S_ISREG(os.fstat(self.fd).st_mode):
            self.close()
            raise ValueError(f"{path}: not a regular file")
        self.path = path
        self._slots: dict[tuple[int, int], int] = {}
        self._places = array("q")  # offset, length, line and CRC-32 of each slot's record

    def add(self, key: tuple[int, int], offset: int, line: bytes, lineno: int) -> None:
        """Serve ``key`` from ``line``, which lies at ``offset`` in the file."""
        self._slots[key] = len(self._places) // 4
        self._places.extend((offset, len(line), lineno, zlib.crc32(line)))

    def __getitem__(self, key: tuple[int, int]) -> str:
        at = 4 * self._slots[key]
        offset, length, lineno, crc = self._places[at:at + 4]
        line = os.pread(self.fd, length, offset)
        try:
            if zlib.crc32(line) != crc:
                raise ValueError("the record changed after the transcript was loaded")
            return _record(line)[1]["response"]
        except ValueError as exc:
            raise RejectedError(f"{self.path} line {lineno}: {exc}") from None

    def __contains__(self, key) -> bool:
        return key in self._slots

    def __iter__(self):
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)


class ReplayBackend:
    """Deterministic stand-in serving scripted responses.

    Responses are keyed by (island, call index), the key the caller passes,
    in a dict or, from ``from_file``, in a transcript that reads each reply
    from its file when its call arrives. Transcripts are line-delimited JSON
    records ``{"island": i, "index": j, "response": text}`` (records without
    an island apply to island 0). ``strict_digests`` optionally pins a call
    to a digest of its messages.

    ``counters`` holds each island's next index: one past the highest served.
    A call without an index takes it. The counters and ``get_state`` /
    ``set_state`` remain only for the benchmark's probes, which read them;
    they go once the benchmark counts calls itself.
    """

    def __init__(self, responses: Mapping[tuple[int, int], str], strict_digests: Optional[dict[tuple[int, int], str]] = None):
        self.responses = responses
        self.strict_digests = strict_digests or {}
        self.counters: dict[int, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayBackend":
        """Check every record of a transcript, and keep where each lies.

        A malformed record, or a second under one key, is a ``ValueError``
        that names its line; a path that is not a regular file is one that
        names the path. The file must stay in place and unchanged while the
        backend serves it: a call whose record changed fails.
        """
        responses = _Transcript(path)
        digests: dict[tuple[int, int], str] = {}
        offset = 0
        try:
            with open(responses.fd, "rb", closefd=False) as fh:
                for lineno, line in enumerate(fh, 1):
                    try:
                        record = _record(line)
                        if record and record[0] in responses:
                            raise ValueError(f"a record for island {record[0][0]} index {record[0][1]} came earlier")
                    except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError too
                        raise ValueError(f"{path} line {lineno}: {exc}") from None
                    if record:
                        key, rec = record
                        responses.add(key, offset, line, lineno)
                        if "digest" in rec:
                            digests[key] = rec["digest"]
                    offset += len(line)
        except BaseException:
            responses.close()
            raise
        return cls(responses, digests)

    def complete(self, model, messages: list[dict[str, str]], island_id: int, index: Optional[int] = None) -> str:
        """The scripted response under the key; the model is not read."""
        with self._lock:
            after = self.counters.get(island_id, 0)
            if index is None:
                index = after
            self.counters[island_id] = max(after, index + 1)
        key = (island_id, index)
        if key not in self.responses:
            raise RejectedError(f"replay transcript exhausted at island {island_id} call {index}")
        expected = self.strict_digests.get(key)
        if expected is not None:
            actual = request_digest(messages)
            if actual != expected:
                raise RejectedError(f"replay digest mismatch at island {island_id} call {index}")
        return self.responses[key]

    def get_state(self) -> dict[int, int]:
        return dict(self.counters)

    def set_state(self, state: dict[int, int]) -> None:
        self.counters = dict(state or {})


def request_digest(messages: list[dict[str, str]]) -> str:
    import hashlib

    blob = json.dumps(messages, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _is_digest(value) -> bool:
    """Whether ``value`` has the form of what ``request_digest`` returns."""
    return type(value) is str and len(value) == 64 and set(value) <= set("0123456789abcdef")


def generate(
    config: EnsembleConfig,
    messages: list[dict[str, str]],
    backend,
    model: EnsembleMember | MetaModel,
    island_id: int,
    index: int,
) -> str:
    """Send ``messages`` to ``model``, an ensemble member (see ``sample_model``) or
    the meta model, as call ``index``; return the reply verbatim.

    A ``TransportError`` is retried once for each of the config's back-offs,
    and surfaces when they are exhausted; a ``RejectedError`` is raised at
    once. Before a retry it sleeps its back-off, or the server's
    ``retry_after`` if that is longer (but no longer than
    ``HTTP_TIMEOUT_SECONDS``).
    """
    last: Exception | None = None
    for delay in (*config.retry.backoff_seconds, None):  # None: the last attempt
        try:
            return backend.complete(model, messages, island_id, index=index)
        except RejectedError:
            raise
        except TransportError as exc:
            last = exc
            if delay is None:
                break
            if exc.retry_after is not None:
                delay = max(delay, min(exc.retry_after, HTTP_TIMEOUT_SECONDS))
            if delay:
                time.sleep(delay)
    raise TransportError(f"all {len(config.retry.backoff_seconds) + 1} attempts failed: {last}")


def meta_prompt(
    config: EnsembleConfig,
    messages: list[dict[str, str]],
    backend,
    island_id: int,
    index: int,
) -> str:
    """Send the meta model a prompt-rewriting request as call ``index``; return the new prompt.

    The call goes through ``generate``, so it is retried alike, and sends no
    output-token cap. A blank reply is a ``RejectedError``: it is not retried.
    """
    text = generate(config, messages, backend, config.meta_model, island_id, index)
    if not text.strip():
        raise RejectedError("meta model returned an empty prompt")
    return text
