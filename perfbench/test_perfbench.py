"""Tests for the benchmark's own code: interval arithmetic, percentiles,
span nesting, the delay backend and the mixed workload's scripted shares."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

import run
import workloads
from spans import Span, Tracer, percentile, self_time, union_length



def _benchmark() -> dict:
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _span(start: float, end: float) -> Span:
    return Span(id=0, name="x.y", start=start, end=end, parent=None, thread=0, run="r")


@pytest.mark.parametrize(
    "intervals, expected",
    [
        ([], 0.0),
        ([(0.0, 1.0), (2.0, 3.0)], 2.0),
        ([(0.0, 1.0), (0.5, 2.0)], 2.0),
        ([(0.0, 10.0), (2.0, 3.0)], 10.0),
        ([(1.0, 2.0), (0.0, 1.0)], 2.0),
        ([(3.0, 4.0), (0.0, 1.0), (0.5, 3.5)], 4.0),
    ],
)
def test_union_length(intervals, expected):
    assert union_length(intervals) == pytest.approx(expected)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    parent = _span(0.0, 10.0)
    children = [_span(1.0, 3.0), _span(2.0, 4.0), _span(8.0, 12.0), _span(11.0, 13.0)]
    assert self_time(parent, children) == pytest.approx(10.0 - 3.0 - 2.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_percentile_interpolates_and_reports_its_sample_count():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == (pytest.approx(50.5), 100)
    assert percentile(values, 95) == (pytest.approx(95.05), 100)
    assert percentile([7.0], 95) == (7.0, 1)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tracer_nests_spans_per_thread_and_marks_errors():
    tracer = Tracer("t")

    def boom():
        raise KeyError("x")

    inner = tracer.wrap("b.inner", lambda: 1)
    failing = tracer.wrap("b.failing", boom)

    def outer_body():
        inner()
        with pytest.raises(KeyError):
            failing()

    tracer.wrap("a.outer", outer_body)()
    spans = {s.name: s for s in tracer.spans}
    assert spans["a.outer"].parent is None
    assert spans["b.inner"].parent == spans["a.outer"].id
    assert spans["b.failing"].attrs["error"] == "KeyError"
    assert all(s.end >= s.start for s in tracer.spans)


def test_delay_backend_forwards_calls_and_state(tmp_path):
    wl = workloads.latency(0, 1, delay_s=0.001)
    wl.write_inputs(tmp_path)
    backend = wl.make_backend(tmp_path)
    assert isinstance(backend, workloads.DelayBackend)
    first = backend.complete("flash", [], 1)
    assert first == next(r["response"] for r in wl.records if (r["island"], r["index"]) == (1, 0))
    assert backend.get_state() == {1: 1}
    backend.set_state({1: 0})
    assert backend.complete("flash", [], 1) == first


def test_mixed_transcript_holds_the_deck_shares_exactly():
    wl = workloads.mixed(3, 2)
    deck = sum(workloads.MIXED_DECK.values())
    init = wl.config.init_population
    for island in range(wl.config.num_islands):
        kinds = [wl.kinds[(island, init + i)] for i in range(deck * 4)]
        assert Counter(kinds) == Counter({k: 4 * n for k, n in workloads.MIXED_DECK.items()})
    timeouts = [key for key, kind in wl.kinds.items() if kind == workloads.FULL_TIMEOUT]
    assert len(timeouts) == len(workloads.MIXED_TIMEOUT_ISLANDS)


def test_mixed_run_reaches_every_scripted_status_and_nothing_else(tmp_path):
    """A short segmented mixed run: each candidate ends in its scripted status."""
    from probes import LayerTrace

    wl = workloads.mixed(1, 2, segments=[4], epochs=10)
    layers = LayerTrace("test", wl.config.problem_id)
    record = run.execute(wl, tmp_path / "run", trace=layers)
    assert record.finalised == wl.attempted
    assert record.failed == 0
    scripted = set(workloads.SCRIPTED_STATUS.values())
    assert scripted <= set(record.statuses)

    metrics = layers.metrics(record.wall_s, record.cpu_s, record.child_cpu_s, 2, tmp_path / "run")
    metrics["trace.overhead_s"] = 0.0
    per_layer = _benchmark()["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in per_layer)
    assert metrics["diffengine.apply_calls"] > 0
    assert 0 < metrics["diffengine.apply_ok_share"] < 1
    assert metrics["engine.load_s"] > 0
    assert metrics["sandbox.status.timeout"] == len(workloads.MIXED_TIMEOUT_ISLANDS)
    for m in per_layer:
        assert m["unit"] == run.unit_of(m["name"])


def test_best_artifact_follows_migrant_copies_only(tmp_path, monkeypatch):
    """A missing best/artifact.json is tolerated only for a migrant copy."""
    from types import SimpleNamespace

    from llmevolve import engine

    solutions = [
        SimpleNamespace(id="i1-s1", provenance={}),
        SimpleNamespace(id="i2-s5", provenance={"original_id": "i1-s1"}),
        SimpleNamespace(id="i0-s9", provenance={"original_id": "i2-s5"}),
        SimpleNamespace(id="i0-s3", provenance={}),
    ]
    state = SimpleNamespace(islands=[SimpleNamespace(all_solutions=lambda: solutions)])
    monkeypatch.setattr(engine, "load_latest_checkpoint", lambda run_dir: (None, state))
    stored = tmp_path / "solutions" / "i1-s1.artifact.json"
    stored.parent.mkdir()
    stored.write_text("{}")

    path, known = run.best_artifact(tmp_path, "i0-s9")
    assert path == stored
    assert len(known) == 1 and "i0-s9" in known[0]
    assert run.best_artifact(tmp_path, "i0-s3") == (None, [])

    exported = tmp_path / "best" / "artifact.json"
    exported.parent.mkdir()
    exported.write_text("{}")
    assert run.best_artifact(tmp_path, "i0-s9") == (exported, [])


def test_benchmark_file_lists_every_end_to_end_metric():
    benchmark = _benchmark()
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
