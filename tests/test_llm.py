"""Ensemble sampling, retries, replay backend, template assembly."""

import json
import random
import time
from collections import Counter

import pytest

from llmevolve import templates
from llmevolve.llm import (
    EnsembleConfig,
    EnsembleMember,
    GenerationRequest,
    MetaModel,
    ReplayBackend,
    RetryPolicy,
    TransportError,
    generate,
    meta_prompt,
    sample_model,
)


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


class TestSampleModel:
    def test_weighted_frequencies(self):
        cfg = two_model_config()
        rng = random.Random(31)
        counts = Counter(sample_model(cfg, rng) for _ in range(100_000))
        assert counts["flash"] / 100_000 == pytest.approx(0.8, abs=0.01)

    def test_single_member_always_chosen(self):
        cfg = EnsembleConfig(
            members=[EnsembleMember(name="only", weight=1.0)],
            meta_model=MetaModel(name="only"),
        )
        assert all(sample_model(cfg, random.Random(i)) == "only" for i in range(20))

    def test_seeded_sequence_reproducible(self):
        cfg = two_model_config()
        seq1 = [sample_model(cfg, random.Random(9)) for _ in range(1)]
        seq2 = [sample_model(cfg, random.Random(9)) for _ in range(1)]
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

    def get_state(self):
        return None

    def set_state(self, state):
        pass


def simple_request(**kwargs):
    defaults = dict(prompt_text="improve it", parent_code="print(1)", problem_brief="task")
    defaults.update(kwargs)
    return GenerationRequest(**defaults)


class TestGenerate:
    def test_replay_returns_scripted_response_verbatim(self):
        backend = ReplayBackend({(0, 0): "scripted"})
        _, text = generate(two_model_config(), simple_request(), backend, random.Random(0))
        assert text == "scripted"

    def test_retries_then_succeeds(self):
        backend = FlakyBackend(failures=2)
        _, text = generate(
            two_model_config(max_attempts=3), simple_request(), backend, random.Random(0)
        )
        assert text == "ok"
        assert backend.calls == 3

    def test_exhausted_retries_raise_transport_error(self):
        backend = FlakyBackend(failures=5)
        with pytest.raises(TransportError):
            generate(two_model_config(max_attempts=3), simple_request(), backend, random.Random(0))

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
        start = time.monotonic()
        with pytest.raises(TransportError) as exc:  # under the default retry policy
            generate(EnsembleConfig.default(), simple_request(), backend, random.Random(0))
        assert time.monotonic() - start < 0.1
        assert isinstance(exc.value, llm.ReplayError)
        assert backend.get_state() == {0: 1}

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            simple_request(prompt_text="")


class TestMetaPrompt:
    def test_replay_scripted_prompt(self):
        backend = ReplayBackend({(0, 0): "richer prompt"})
        out = meta_prompt(two_model_config(), "old prompt", "code", backend)
        assert out == "richer prompt"

    def test_empty_response_is_an_error(self):
        backend = ReplayBackend({(0, 0): "   "})
        from llmevolve.llm import EmptyResponseError

        with pytest.raises(EmptyResponseError):
            meta_prompt(two_model_config(), "old prompt", "code", backend)


class TestReplayBackend:
    def test_per_island_counters_are_independent(self):
        backend = ReplayBackend({(0, 0): "a", (1, 0): "b", (0, 1): "c"})
        assert backend.complete("m", [], 0) == "a"
        assert backend.complete("m", [], 1) == "b"
        assert backend.complete("m", [], 0) == "c"

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

    def test_state_round_trip(self):
        backend = ReplayBackend({(0, 0): "a", (0, 1): "b"})
        backend.complete("m", [], 0)
        saved = backend.get_state()
        assert backend.complete("m", [], 0) == "b"
        backend.set_state(saved)
        assert backend.complete("m", [], 0) == "b"


class TestTemplateAssembly:
    def test_ancestors_nearest_first_and_inspirations_labeled(self):
        request = simple_request(
            ancestor_codes=["nearest", "middle", "root"],
            inspiration_codes=["insp1", "insp2"],
            execution_feedback="it crashed",
        )
        messages = templates.build_generation_messages(
            problem_brief=request.problem_brief,
            prompt_text=request.prompt_text,
            parent_code=request.parent_code,
            ancestor_codes=request.ancestor_codes,
            inspiration_codes=request.inspiration_codes,
            execution_feedback=request.execution_feedback,
        )
        user = messages[1]["content"]
        assert user.index("nearest") < user.index("middle") < user.index("root")
        assert user.index("root") < user.index("Target program")
        assert "for inspiration only" in user
        assert user.index("print(1)") < user.index("insp1") < user.index("insp2")
        assert "it crashed" in user

    def test_system_message_carries_grammar_and_brief(self):
        messages = templates.build_generation_messages(
            problem_brief="pack circles",
            prompt_text="p",
            parent_code="c",
            ancestor_codes=[],
            inspiration_codes=[],
            execution_feedback=None,
        )
        system = messages[0]["content"]
        assert "pack circles" in system
        assert "<<<<<<< SEARCH" in system
        assert ">>>>>>> REPLACE" in system

    def test_meta_messages_contain_pair(self):
        messages = templates.build_meta_messages("brief", "old instruction", "the code")
        assert "old instruction" in messages[1]["content"]
        assert "the code" in messages[1]["content"]
