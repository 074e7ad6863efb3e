"""Ensemble sampling, retries, replay backend, template assembly."""

import http.server
import json
import os
import random
import signal
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import standard_config
from llmevolve import templates
from llmevolve.core import STATUS_GENERATION_FAILED, IslandState
from llmevolve.llm import (
    EnsembleConfig,
    EnsembleMember,
    HttpBackend,
    MetaModel,
    RejectedError,
    ReplayBackend,
    RetryPolicy,
    TransportError,
    generate,
    meta_prompt,
    sample_model,
)
from llmevolve.operators import initialize_island
from llmevolve.problems import get_problem


def two_model_config(attempts=3):
    return EnsembleConfig(
        members=[
            EnsembleMember(name="flash", weight=0.8),
            EnsembleMember(name="pro", weight=0.2),
        ],
        meta_model=MetaModel(name="flash"),
        retry=RetryPolicy(backoff_seconds=(0.0,) * (attempts - 1)),
    )


class TestEnsembleConfig:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            EnsembleConfig(
                members=[EnsembleMember(name="a", weight=0.5)],
                meta_model=MetaModel(name="a"),
            )

    def test_top_p_range_checked(self):
        with pytest.raises(ValueError):
            EnsembleConfig(
                members=[EnsembleMember(name="a", weight=1.0, top_p=1.5)],
                meta_model=MetaModel(name="a"),
            )

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: EnsembleMember(name="a", weight=10**400), "weight"),
            (lambda: EnsembleMember(name="a", weight=1.0, temperature=float("inf")), "temperature"),
            (lambda: MetaModel(name="m", temperature=float("inf")), "temperature"),
        ],
        ids=["huge_weight", "infinite_member_temperature", "infinite_meta_temperature"],
    )
    def test_a_model_refuses_a_number_out_of_range_when_built(self, build, field):
        with pytest.raises(ValueError, match=f"model '[am]' {field} must be a number in "):
            build()

    def test_default_matches_reference_settings(self):
        cfg = EnsembleConfig.default()
        assert [(m.weight, m.temperature, m.top_p) for m in cfg.members] == [
            (0.8, 0.7, 0.95),
            (0.2, 0.7, 0.95),
        ]


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "policy, sleeps", [(RetryPolicy(backoff_seconds=()), []), (RetryPolicy(), [0.5, 1.0])],
        ids=["no_back_off", "default"],
    )
    def test_one_attempt_more_than_back_offs(self, monkeypatch, policy, sleeps):
        from llmevolve import llm

        slept = []
        monkeypatch.setattr(llm.time, "sleep", slept.append)
        backend = FlakyBackend(failures=5)
        cfg = EnsembleConfig(members=[MODEL], meta_model=MetaModel(name="m"), retry=policy)
        with pytest.raises(TransportError, match=f"all {len(sleeps) + 1} attempts failed"):
            generate(cfg, MESSAGES, backend, MODEL, 0, 0)
        assert backend.calls == len(sleeps) + 1
        assert slept == sleeps

    @pytest.mark.parametrize(
        "backoff",
        [(0.5, -1.0), (float("nan"),), (float("inf"),), (True,), ("0.5",), "", "12", {0.5: 1},
         (10**400,), (1e300,), (121,)],
    )
    def test_back_off_is_finite_and_nonnegative(self, backoff):
        with pytest.raises(ValueError, match="backoff_seconds"):
            RetryPolicy(backoff_seconds=backoff)

    def test_a_back_off_may_be_as_long_as_the_http_timeout(self):
        from llmevolve.llm import HTTP_TIMEOUT_SECONDS

        assert RetryPolicy(backoff_seconds=[0, HTTP_TIMEOUT_SECONDS, 120]).backoff_seconds == (0, 120.0, 120)


class TestSampleModel:
    def test_weighted_frequencies(self):
        cfg = two_model_config()
        rng = random.Random(31)
        counts = Counter(sample_model(cfg, rng).name for _ in range(100_000))
        assert counts["flash"] / 100_000 == pytest.approx(0.8, abs=0.01)

    def test_single_member_always_chosen(self):
        cfg = EnsembleConfig(
            members=[EnsembleMember(name="only", weight=1.0)],
            meta_model=MetaModel(name="only"),
        )
        assert all(sample_model(cfg, random.Random(i)) is cfg.members[0] for i in range(20))

    def test_seeded_sequence_reproducible(self):
        cfg = two_model_config()
        seq1 = [sample_model(cfg, random.Random(9)).name for _ in range(1)]
        seq2 = [sample_model(cfg, random.Random(9)).name for _ in range(1)]
        assert seq1 == seq2


class FlakyBackend:
    """Fails with transport errors a fixed number of times, then succeeds."""

    def __init__(self, failures, payload="ok"):
        self.failures = failures
        self.payload = payload
        self.calls = 0

    def complete(self, model, messages, island_id, **kwargs):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("flaky")
        return self.payload


MESSAGES = templates.build_generation_messages("task", "improve it", "print(1)")
MODEL = EnsembleMember(name="m", weight=1.0)


class TestGenerate:
    def test_replay_returns_scripted_response_verbatim(self):
        backend = ReplayBackend({(0, 0): "scripted", (0, 1): "other"})
        cfg = two_model_config()
        assert generate(cfg, MESSAGES, backend, cfg.members[1], 0, 1) == "other"
        assert generate(cfg, MESSAGES, backend, cfg.members[0], 0, 0) == "scripted"

    def test_retries_then_succeeds(self):
        backend = FlakyBackend(failures=2)
        cfg = two_model_config(attempts=3)
        assert generate(cfg, MESSAGES, backend, cfg.members[0], 0, 0) == "ok"
        assert backend.calls == 3

    def test_exhausted_retries_raise_transport_error(self):
        backend = FlakyBackend(failures=5)
        cfg = two_model_config(attempts=3)
        with pytest.raises(TransportError):
            generate(cfg, MESSAGES, backend, cfg.members[0], 0, 0)

    @pytest.mark.parametrize(
        "backend",
        [
            lambda: ReplayBackend({}),
            lambda: ReplayBackend({(0, 0): "scripted"}, strict_digests={(0, 0): "0" * 64}),
        ],
        ids=["missing_key", "digest_mismatch"],
    )
    def test_a_replay_miss_is_not_retried(self, backend):
        backend = backend()
        indices = []
        complete = backend.complete
        backend.complete = lambda *args, **kwargs: indices.append(kwargs["index"]) or complete(*args, **kwargs)
        cfg = EnsembleConfig.default()
        start = time.monotonic()
        with pytest.raises(TransportError) as exc:  # under the default retry policy
            generate(cfg, MESSAGES, backend, cfg.members[0], 0, 0)
        assert time.monotonic() - start < 0.1
        assert isinstance(exc.value, RejectedError)
        assert indices == [0]


META_MESSAGES = templates.build_meta_messages("task", "old prompt", "code")


class TestMetaPrompt:
    def test_replay_scripted_prompt(self):
        backend = ReplayBackend({(0, 0): "richer prompt"})
        out = meta_prompt(two_model_config(), META_MESSAGES, backend, 0, 0)
        assert out == "richer prompt"

    def test_empty_response_is_an_error(self):
        backend = ReplayBackend({(0, 0): "   "})
        with pytest.raises(RejectedError, match="^meta model returned an empty prompt$"):
            meta_prompt(two_model_config(), META_MESSAGES, backend, 0, 0)


class TestReplayBackend:
    def test_per_island_counters_are_independent(self):
        backend = ReplayBackend({(0, 0): "a", (1, 0): "b", (0, 1): "c"})
        assert backend.complete("m", [], 0) == "a"
        assert backend.complete("m", [], 1) == "b"
        assert backend.complete("m", [], 0) == "c"

    def test_serves_the_key_it_is_given(self):
        backend = ReplayBackend({(0, 0): "a", (0, 1): "b", (1, 0): "c"})
        assert backend.complete("m", [], 0, index=1) == "b"
        assert backend.complete("m", [], 0, index=0) == "a"
        assert backend.complete("m", [], 1, index=0) == "c"
        # Each island's counter is one past the highest index it served.
        assert backend.get_state() == {0: 2, 1: 1}

    @pytest.mark.parametrize("built", ["from_dict", "from_file"])
    def test_concurrent_calls_leave_the_counter_past_the_highest_key(self, tmp_path, built):
        n = 64
        responses = {(0, i): str(i) for i in range(n)}
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps({"index": i, "response": str(i)}) + "\n" for i in range(n)))
        make = {"from_dict": lambda: ReplayBackend(responses), "from_file": lambda: ReplayBackend.from_file(path)}[built]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to shake out a lost update
        try:
            for _ in range(20):
                backend = make()
                with ThreadPoolExecutor(max_workers=16) as pool:
                    replies = list(pool.map(lambda i: backend.complete("m", [], 0, index=i), range(n)))
                assert replies == [str(i) for i in range(n)]
                assert backend.get_state() == {0: n}
        finally:
            sys.setswitchinterval(interval)

    def test_exhausted_transcript_raises(self):
        backend = ReplayBackend({})
        with pytest.raises(TransportError):
            backend.complete("m", [], 0)

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"island": 2, "index": 0, "response": "hello"}) + "\n"
        )
        backend = ReplayBackend.from_file(path)
        assert backend.complete("m", [], 2) == "hello"

    def test_from_file_holds_where_each_record_lies_not_its_reply(self, tmp_path):
        # About 2,000 records of 2 KB, some of whose characters take two bytes.
        replies = [f"{i}:" + "é" * (i % 7) + "x" * 2040 for i in range(2000)]
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i, reply in enumerate(replies):
                fh.write(json.dumps({"index": i, "response": reply}, ensure_ascii=False) + "\n")
        tracemalloc.start()
        try:
            backend = ReplayBackend.from_file(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 500_000
        assert backend.complete("m", [], 0, index=len(replies) - 1) == replies[-1]
        assert backend.complete("m", [], 0, index=6) == replies[6]

    @pytest.mark.parametrize(
        "change",
        [(55, b'"c"'), (40, b"7"), (33, b"")],
        ids=["reply_rewritten", "key_rewritten", "truncated"],
    )
    def test_a_record_changed_after_loading_fails_its_call(self, tmp_path, change):
        # Line 2 starts at byte 30: its index at byte 40, its response at byte 55.
        path = tmp_path / "t.jsonl"
        path.write_text('{"index": 0, "response": "a"}\n{"index": 1, "response": "b"}\n{"index": 2, "response": "d"}\n')
        backend = ReplayBackend.from_file(path)
        offset, data = change
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(data)
            if not data:
                fh.truncate()
        assert backend.complete("m", [], 0, index=0) == "a"
        with pytest.raises(RejectedError, match=f"^{path} line 2: the record changed after the transcript was loaded$"):
            backend.complete("m", [], 0, index=1)

    @pytest.mark.parametrize("move", ["rename", "unlink"])
    def test_moving_the_file_after_loading_changes_no_reply(self, tmp_path, move):
        path = tmp_path / "t.jsonl"
        path.write_text('{"index": 0, "response": "a"}\n{"index": 1, "response": "b"}\n')
        backend = ReplayBackend.from_file(path)
        if move == "rename":
            path.rename(tmp_path / "moved.jsonl")
        else:
            path.unlink()
        path.write_text('{"index": 0, "response": "x"}\n{"index": 1, "response": "y"}\n')
        assert [backend.complete("m", [], 0) for _ in range(2)] == ["a", "b"]

    def test_from_file_refuses_a_fifo_without_waiting_for_a_writer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        os.mkfifo(path)

        def hung(signum, frame):
            raise TimeoutError("opening the transcript blocked")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            with pytest.raises(ValueError, match=f"^{path}: not a regular file$"):
                ReplayBackend.from_file(path)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_from_file_pins_each_call_to_its_digest(self, tmp_path):
        from llmevolve.llm import request_digest

        path = tmp_path / "t.jsonl"
        records = [
            {"index": 0, "response": "pinned", "digest": request_digest(MESSAGES)},
            {"index": 1, "response": "other", "digest": "0" * 64},  # well formed, but not MESSAGES's
        ]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        backend = ReplayBackend.from_file(path)
        indices = []
        complete = backend.complete
        backend.complete = lambda *args, **kwargs: indices.append(kwargs["index"]) or complete(*args, **kwargs)
        cfg = EnsembleConfig.default()  # the default retry policy
        assert generate(cfg, MESSAGES, backend, cfg.members[0], 0, 0) == "pinned"
        with pytest.raises(RejectedError, match="^replay digest mismatch at island 0 call 1$"):
            generate(cfg, MESSAGES, backend, cfg.members[0], 0, 1)
        assert indices == [0, 1]  # one attempt each

    @pytest.mark.parametrize("response", [None, 42, ["text"]])
    def test_from_file_rejects_a_response_that_is_not_text(self, tmp_path, response):
        path = tmp_path / "t.jsonl"
        records = [{"index": 0, "response": "ok"}, {"index": 1, "response": response}]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        with pytest.raises(ValueError, match="line 2"):
            ReplayBackend.from_file(path)

    @pytest.mark.parametrize(
        "line",
        [
            "{not json",
            '["a", "list"]',
            '{"response": "ok"}',
            '{"index": "1", "response": "ok"}',
            '{"index": 1.5, "response": "ok"}',
            '{"index": null, "response": "ok"}',
            '{"island": true, "index": 1, "response": "ok"}',
            '{"index": 1}',
            '{"island": 0, "index": 0, "response": "again"}',
            '{"index": 1, "response": "ok", "digest": 5}',
            '{"index": 1, "response": "ok", "digest": "%s"}' % ("ab" * 31),
            '{"index": 1, "response": "ok", "digest": "%s"}' % ("AB" * 32),
            b'{"index": 1, "response": "\xff"}',
        ],
        ids=[
            "not_json", "not_an_object", "no_index", "string_index", "fractional_index",
            "null_index", "boolean_island", "no_response", "second_record_under_a_key",
            "non_text_digest", "short_digest", "upper_case_digest", "not_utf8",
        ],
    )
    def test_from_file_names_the_line_of_a_malformed_record(self, tmp_path, line):
        path = tmp_path / "t.jsonl"
        line = line if isinstance(line, bytes) else line.encode()
        path.write_bytes(json.dumps({"index": 0, "response": "ok"}).encode() + b"\n\n" + line + b"\n")
        with pytest.raises(ValueError, match=f"^{path} line 3: "):
            ReplayBackend.from_file(path)

    def test_state_round_trip(self):
        backend = ReplayBackend({(0, 0): "a", (0, 1): "b"})
        backend.complete("m", [], 0)
        saved = backend.get_state()
        assert backend.complete("m", [], 0) == "b"
        backend.set_state(saved)
        assert backend.complete("m", [], 0) == "b"


class TestTemplateAssembly:
    def test_ancestors_nearest_first_and_inspirations_labeled(self):
        messages = templates.build_generation_messages(
            "task",
            "improve it",
            "print(1)",
            ancestor_codes=["nearest", "middle", "root"],
            inspiration_codes=["insp1", "insp2"],
            execution_feedback="it crashed",
        )
        user = messages[1]["content"]
        assert user.index("nearest") < user.index("middle") < user.index("root")
        assert user.index("root") < user.index("Target program")
        assert "for inspiration only" in user
        assert user.index("print(1)") < user.index("insp1") < user.index("insp2")
        assert "it crashed" in user

    def test_system_message_carries_grammar_and_brief(self):
        messages = templates.build_generation_messages("pack circles", "p", "c")
        system = messages[0]["content"]
        assert "pack circles" in system
        assert "<<<<<<< SEARCH" in system
        assert ">>>>>>> REPLACE" in system

    def test_meta_messages_contain_pair(self):
        messages = templates.build_meta_messages("brief", "old instruction", "the code")
        assert "old instruction" in messages[1]["content"]
        assert "the code" in messages[1]["content"]


class ChatStub:
    """A chat-completions server on 127.0.0.1 that records requests and plays scripted replies."""

    def __init__(self):
        self.requests: list[tuple[str, dict, dict]] = []  # (path, headers, JSON body)
        # (status, JSON body or body -> JSON body[, extra headers]), in order
        self.replies: list[tuple] = []
        self.byte_delay = 0.0  # seconds to wait after each byte of a reply; 0 sends it at once
        self.header_delay = 0.0  # seconds to wait after each byte of a 100-byte head instead of the usual one
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                stub.requests.append((self.path, dict(self.headers), body))
                status, reply, *headers = stub.replies.pop(0)
                if callable(reply):  # a reply made from the request body
                    reply = reply(body)
                data = json.dumps(reply).encode()
                if stub.header_delay:
                    head = f"HTTP/1.0 {status} OK\r\nContent-Length: {len(data)}\r\nX-Pad: ".encode()
                    head += b"x" * (96 - len(head)) + b"\r\n\r\n"
                    try:
                        for i in range(len(head)):
                            self.wfile.write(head[i:i + 1])
                            time.sleep(stub.header_delay)
                        self.wfile.write(data)
                    except (BrokenPipeError, ConnectionResetError):
                        pass  # the client stopped reading
                    return
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in (headers[0] if headers else {}).items():
                    self.send_header(name, value)
                self.end_headers()
                try:
                    if stub.byte_delay:
                        for i in range(len(data)):
                            self.wfile.write(data[i:i + 1])
                            time.sleep(stub.byte_delay)
                    else:
                        self.wfile.write(data)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client stopped reading

            def log_message(self, *args):
                pass

        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}/v1"
        serve = threading.Thread(target=self.server.serve_forever, args=(0.05,), daemon=True)
        serve.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


def _chat_reply(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


# A model call as call (0, 0) through each of the two functions that send one.
SENDS = {
    "generate": lambda cfg, backend: generate(cfg, MESSAGES, backend, cfg.members[0], 0, 0),
    "meta_prompt": lambda cfg, backend: meta_prompt(cfg, META_MESSAGES, backend, 0, 0),
}


class TestHttpBackend:
    @pytest.fixture
    def stub(self, monkeypatch):
        monkeypatch.setenv("LLMEVOLVE_API_KEY", "test-key")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        monkeypatch.setitem(sys.modules, "requests", None)  # the client needs no requests package
        stub = ChatStub()
        yield stub
        stub.close()

    def test_request_carries_the_sampling_settings_and_the_key(self, stub):
        stub.replies += [(200, _chat_reply("first")), (200, _chat_reply("second"))]
        backend = HttpBackend(stub.url + "/")
        m1 = EnsembleMember(name="m1", weight=0.5, temperature=0.3, top_p=0.9)
        m2 = EnsembleMember(name="m2", weight=0.5, max_output_tokens=64)
        assert backend.complete(m1, MESSAGES, 0, 0) == "first"
        assert backend.complete(m2, MESSAGES, 1, 0) == "second"
        (path, headers, body), (_, _, capped) = stub.requests
        assert path == "/v1/chat/completions"
        assert headers["Authorization"] == "Bearer test-key"
        assert body == {"model": "m1", "messages": MESSAGES, "temperature": 0.3, "top_p": 0.9}
        assert capped == {
            "model": "m2", "messages": MESSAGES, "temperature": 0.7, "top_p": 0.95, "max_tokens": 64
        }

    @pytest.mark.parametrize(
        "reply", [(500, {"error": "overloaded"}), (200, {"id": "no choices"})], ids=["status_500", "no_choices"]
    )
    def test_a_failed_reply_is_a_transport_error(self, stub, reply):
        stub.replies.append(reply)
        with pytest.raises(TransportError):
            HttpBackend(stub.url).complete(MODEL, MESSAGES, 0, 0)

    @pytest.mark.parametrize("send", SENDS.values(), ids=SENDS.keys())
    def test_a_500_is_retried(self, stub, send):
        stub.replies += [(500, {"error": "overloaded"}), (200, _chat_reply("recovered"))]
        cfg = EnsembleConfig(
            members=[EnsembleMember(name="only", weight=1.0)],
            meta_model=MetaModel(name="only"),
            retry=RetryPolicy(backoff_seconds=(0.0,)),
        )
        assert send(cfg, HttpBackend(stub.url)) == "recovered"
        assert len(stub.requests) == 2

    def test_meta_prompt_sends_the_meta_model_without_a_token_cap(self, stub):
        stub.replies.append((200, _chat_reply("richer prompt")))
        cfg = EnsembleConfig(
            members=[EnsembleMember(name="member", weight=1.0, max_output_tokens=64)],
            meta_model=MetaModel(name="meta", temperature=0.3, top_p=0.8),
        )
        assert meta_prompt(cfg, META_MESSAGES, HttpBackend(stub.url), 0, 0) == "richer prompt"
        [(_, _, body)] = stub.requests
        assert body == {"model": "meta", "messages": META_MESSAGES, "temperature": 0.3, "top_p": 0.8}

    def test_a_trickled_reply_fails_at_the_call_deadline(self, stub, monkeypatch):
        from llmevolve import llm

        monkeypatch.setattr(llm, "HTTP_TIMEOUT_SECONDS", 0.5)
        stub.byte_delay = 0.05  # the reply would take about 3 s
        stub.replies.append((200, _chat_reply("ok")))
        start = time.monotonic()
        with pytest.raises(TransportError, match="not complete after 0.5 s"):
            HttpBackend(stub.url).complete(MODEL, MESSAGES, 0, 0)
        assert time.monotonic() - start < 1.5

    def test_trickled_headers_fail_at_the_call_deadline(self, stub, monkeypatch):
        from llmevolve import llm

        monkeypatch.setattr(llm, "HTTP_TIMEOUT_SECONDS", 0.5)
        stub.header_delay = 0.02  # the head alone would take about 2 s
        stub.replies.append((200, _chat_reply("ok")))
        start = time.monotonic()
        with pytest.raises(TransportError, match="not complete after 0.5 s"):
            HttpBackend(stub.url).complete(MODEL, MESSAGES, 0, 0)
        assert time.monotonic() - start < 1.0

    def test_a_reply_over_16_mib_fails(self, stub):
        stub.replies.append((200, _chat_reply("x" * (16 << 20))))
        with pytest.raises(TransportError, match="larger than 16 MiB"):
            HttpBackend(stub.url).complete(MODEL, MESSAGES, 0, 0)

    def test_a_long_reply_arrives_whole(self, stub):
        content = "".join(f"line {i}\n" for i in range(40_000))  # about 0.3 MB, many reads
        stub.replies.append((200, _chat_reply(content)))
        assert HttpBackend(stub.url).complete(MODEL, MESSAGES, 0, 0) == content

    @pytest.mark.parametrize(
        "status, retry_after, slept",
        [
            (429, "3", 3.0),
            (503, " 2 ", 2.0),
            (500, "0", 0.5),  # shorter than the back-off
            (429, "100000", 120.0),  # capped at HTTP_TIMEOUT_SECONDS
            (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5),  # an HTTP date is ignored
            (503, "1.5", 0.5),  # not a whole number of seconds
            (408, "3", 0.5),  # only 429 and 5xx are honoured
            (502, None, 0.5),
        ],
    )
    def test_a_retry_waits_as_long_as_the_server_asks(self, stub, monkeypatch, status, retry_after, slept):
        from llmevolve import llm

        sleeps = []
        monkeypatch.setattr(llm.time, "sleep", sleeps.append)
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        stub.replies += [(status, {"error": "slow down"}, headers), (200, _chat_reply("ok"))]
        cfg = EnsembleConfig(
            members=[EnsembleMember(name="only", weight=1.0)],
            meta_model=MetaModel(name="only"),
            retry=RetryPolicy(backoff_seconds=(0.5,)),
        )
        assert generate(cfg, MESSAGES, HttpBackend(stub.url), cfg.members[0], 0, 0) == "ok"
        assert sleeps == [slept]
        assert len(stub.requests) == 2

    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    @pytest.mark.parametrize("send", SENDS.values(), ids=SENDS.keys())
    def test_a_rejected_request_is_not_retried(self, stub, send, status):
        from llmevolve.llm import KeyRefusedError

        stub.replies.append((status, {"error": "rejected"}))
        cfg = EnsembleConfig.default()
        start = time.monotonic()
        error = KeyRefusedError if status in (401, 403) else RejectedError  # a bad key fails no step
        with pytest.raises(error, match=str(status)):  # under the default retry policy
            send(cfg, HttpBackend(stub.url))
        assert time.monotonic() - start < 0.4  # the first back-off is 0.5 s
        assert len(stub.requests) == 1

    @pytest.mark.parametrize(
        "body", [_chat_reply(None), ["not", "an", "object"]], ids=["null_content", "not_an_object"]
    )
    def test_a_reply_without_text_fails_its_step(self, stub, body):
        stub.replies += [(200, body)] * 2
        config = standard_config(init_population=1, ensemble=two_model_config(attempts=2))
        backend = HttpBackend(stub.url)
        with ThreadPoolExecutor(max_workers=1) as pool:  # its one call goes out on this thread
            _, pending, failures = initialize_island(IslandState(0, 40, master_seed=0), config, backend, pool.submit)
        assert [sol.code for sol in pending] == [get_problem(config.problem_id).trivial_code]
        assert [sol.status for sol in failures] == [STATUS_GENERATION_FAILED]
        assert len(stub.requests) == 2  # retried, as a 500 is

    def test_a_refused_key_ends_the_run_and_a_good_key_resumes_it(self, stub, tmp_path, monkeypatch):
        from conftest import fenced, packing_program, write_transcript
        from llmevolve import engine
        from llmevolve.llm import KeyRefusedError

        config = standard_config(
            num_islands=1, epochs=4, migration_every=2, init_population=1, p_explore=0.0,
            backend="http", base_url=stub.url,
        )
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=1, calls_per_island=10)
        engine.run(config, run_dir, backend=ReplayBackend.from_file(run_dir / "transcripts.jsonl"), stop_after_epoch=2)
        checkpointed = (run_dir / "events.jsonl").read_bytes()
        stub.replies.append((401, {"error": "invalid key"}))
        with pytest.raises(KeyRefusedError, match="401"):
            engine.resume(run_dir)
        assert len(stub.requests) == 1  # not retried
        assert (run_dir / "events.jsonl").read_bytes() == checkpointed
        monkeypatch.setenv("LLMEVOLVE_API_KEY", "good-key")
        stub.replies += [(200, _chat_reply(fenced(packing_program(26, 2e-3))))] * 2
        summary = engine.resume(run_dir)
        assert (summary.finished, summary.epochs_run) == (True, 4)
        assert [headers["Authorization"] for _, headers, _ in stub.requests[1:]] == ["Bearer good-key"] * 2
        events = (run_dir / "events.jsonl").read_bytes()
        assert events.startswith(checkpointed)
        resumed = [json.loads(line) for line in events[len(checkpointed):].splitlines()]
        assert [(e["epoch"], e["status"]) for e in resumed if e["type"] == "step"] == [(3, "valid"), (4, "valid")]

    def test_concurrent_calls_each_get_their_own_reply(self, stub):
        n = 8
        in_flight = threading.Barrier(n, timeout=5)

        def echo_model(body):
            in_flight.wait()  # no reply until all n requests have reached the server
            return _chat_reply(body["model"])

        stub.replies += [(200, echo_model)] * n
        backend = HttpBackend(stub.url)
        with ThreadPoolExecutor(max_workers=n) as pool:
            replies = list(pool.map(lambda i: backend.complete(MetaModel(name=f"m{i}"), MESSAGES, i, 0), range(n)))
        assert replies == [f"m{i}" for i in range(n)]
