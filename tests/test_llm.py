"""Ensemble sampling, retries, replay backend, template assembly."""

import http.server
import json
import random
import sys
import threading
import time
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
    ReplayBackend,
    RetryPolicy,
    TransportError,
    generate,
    meta_prompt,
    sample_model,
)
from llmevolve.operators import IslandRngs, initialize_island
from llmevolve.problems import get_problem


def two_model_config(**retry):
    return EnsembleConfig(
        members=[
            EnsembleMember(name="flash", weight=0.8),
            EnsembleMember(name="pro", weight=0.2),
        ],
        meta_model=MetaModel(name="flash"),
        retry=RetryPolicy(backoff_seconds=(), **retry),
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

    def test_default_matches_reference_settings(self):
        cfg = EnsembleConfig.default()
        assert [(m.weight, m.temperature, m.top_p) for m in cfg.members] == [
            (0.8, 0.7, 0.95),
            (0.2, 0.7, 0.95),
        ]


class TestRetryPolicy:
    def test_at_least_one_attempt(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    @pytest.mark.parametrize("backoff", [(0.5, -1.0), (float("nan"),), (float("inf"),)])
    def test_back_off_is_finite_and_nonnegative(self, backoff):
        with pytest.raises(ValueError, match="backoff_seconds"):
            RetryPolicy(backoff_seconds=backoff)


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


class TestGenerate:
    def test_replay_returns_scripted_response_verbatim(self):
        backend = ReplayBackend({(0, 0): "scripted", (0, 1): "other"})
        cfg = two_model_config()
        assert generate(cfg, MESSAGES, backend, cfg.members[1], 0, 1) == "other"
        assert generate(cfg, MESSAGES, backend, cfg.members[0], 0, 0) == "scripted"

    def test_retries_then_succeeds(self):
        backend = FlakyBackend(failures=2)
        cfg = two_model_config(max_attempts=3)
        assert generate(cfg, MESSAGES, backend, cfg.members[0], 0, 0) == "ok"
        assert backend.calls == 3

    def test_exhausted_retries_raise_transport_error(self):
        backend = FlakyBackend(failures=5)
        cfg = two_model_config(max_attempts=3)
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
        from llmevolve import llm

        backend = backend()
        indices = []
        complete = backend.complete
        backend.complete = lambda *args, **kwargs: indices.append(kwargs["index"]) or complete(*args, **kwargs)
        cfg = EnsembleConfig.default()
        start = time.monotonic()
        with pytest.raises(TransportError) as exc:  # under the default retry policy
            generate(cfg, MESSAGES, backend, cfg.members[0], 0, 0)
        assert time.monotonic() - start < 0.1
        assert isinstance(exc.value, llm.ReplayError)
        assert indices == [0]


META_MESSAGES = templates.build_meta_messages("task", "old prompt", "code")


class TestMetaPrompt:
    def test_replay_scripted_prompt(self):
        backend = ReplayBackend({(0, 0): "richer prompt"})
        out = meta_prompt(two_model_config(), META_MESSAGES, backend, 0, 0)
        assert out == "richer prompt"

    def test_empty_response_is_an_error(self):
        backend = ReplayBackend({(0, 0): "   "})
        from llmevolve.llm import EmptyResponseError

        with pytest.raises(EmptyResponseError):
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

    def test_concurrent_calls_leave_the_counter_past_the_highest_key(self):
        n = 64
        responses = {(0, i): str(i) for i in range(n)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to shake out a lost update
        try:
            for _ in range(20):
                backend = ReplayBackend(responses)
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
        ],
        ids=[
            "not_json", "not_an_object", "no_index", "string_index", "fractional_index",
            "null_index", "boolean_island", "no_response",
        ],
    )
    def test_from_file_names_the_line_of_a_malformed_record(self, tmp_path, line):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"index": 0, "response": "ok"}) + "\n\n" + line + "\n")
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
        self.replies: list[tuple[int, object]] = []  # (status, JSON body or body -> JSON body), in order
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                stub.requests.append((self.path, dict(self.headers), body))
                status, reply = stub.replies.pop(0)
                if callable(reply):  # a reply made from the request body
                    reply = reply(body)
                data = json.dumps(reply).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

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
        assert backend.complete("m1", MESSAGES, 0, temperature=0.3, top_p=0.9) == "first"
        assert backend.complete("m2", MESSAGES, 1, max_output_tokens=64) == "second"
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
            HttpBackend(stub.url).complete("m", MESSAGES, 0)

    def test_generate_retries_a_500(self, stub):
        stub.replies += [(500, {"error": "overloaded"}), (200, _chat_reply("recovered"))]
        cfg = EnsembleConfig(
            members=[EnsembleMember(name="only", weight=1.0)],
            meta_model=MetaModel(name="only"),
            retry=RetryPolicy(max_attempts=2, backoff_seconds=(0.0,)),
        )
        assert generate(cfg, MESSAGES, HttpBackend(stub.url), cfg.members[0], 0, 0) == "recovered"
        assert len(stub.requests) == 2

    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    def test_a_rejected_request_is_not_retried(self, stub, status):
        from llmevolve.llm import RejectedError

        stub.replies.append((status, {"error": "rejected"}))
        cfg = EnsembleConfig.default()
        start = time.monotonic()
        with pytest.raises(RejectedError, match=str(status)):  # under the default retry policy
            generate(cfg, MESSAGES, HttpBackend(stub.url), cfg.members[0], 0, 0)
        assert time.monotonic() - start < 0.4  # the first back-off is 0.5 s
        assert len(stub.requests) == 1

    @pytest.mark.parametrize(
        "body", [_chat_reply(None), ["not", "an", "object"]], ids=["null_content", "not_an_object"]
    )
    def test_a_reply_without_text_fails_its_step(self, stub, body):
        stub.replies += [(200, body)] * 2
        config = standard_config(init_population=1, ensemble=two_model_config(max_attempts=2))
        rngs = IslandRngs(*(random.Random(seed) for seed in range(3)))
        backend = HttpBackend(stub.url)
        _, pending, failures = initialize_island(IslandState(0, capacity=40), config, backend, rngs)
        assert [sol.code for sol in pending] == [get_problem(config.problem_id).trivial_code]
        assert [sol.status for sol in failures] == [STATUS_GENERATION_FAILED]
        assert len(stub.requests) == 2  # retried, as a 500 is

    def test_concurrent_calls_each_get_their_own_reply(self, stub):
        n = 8
        in_flight = threading.Barrier(n, timeout=5)

        def echo_model(body):
            in_flight.wait()  # no reply until all n requests have reached the server
            return _chat_reply(body["model"])

        stub.replies += [(200, echo_model)] * n
        backend = HttpBackend(stub.url)
        with ThreadPoolExecutor(max_workers=n) as pool:
            replies = list(pool.map(lambda i: backend.complete(f"m{i}", MESSAGES, i, index=0), range(n)))
        assert replies == [f"m{i}" for i in range(n)]
