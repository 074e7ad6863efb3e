"""Wrappers around the engine's layer boundaries, installed from outside.

``StepProbe`` holds the few wrappers the end-to-end metrics need: when set-up
ends, when each step starts and ends, and whether each candidate reached the
status its workload scripted. ``LayerTrace`` adds a span around every layer's
public calls for the per-layer split. Both patch module and class attributes
and restore them on exit; nothing inside the package is edited.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import time
from pathlib import Path
from typing import Optional

from llmevolve import core, diffengine, engine, llm, operators, problems, sandbox, selection, templates
from llmevolve.core import STATUS_GENERATION_FAILED, STATUS_VALID

from spans import Span, Tracer, percentile, self_time, union_length
from workloads import Workload, expected_status


@contextlib.contextmanager
def patched(target, attr: str, value):
    """Set ``target.attr`` to ``value`` until exit.

    ``unittest.mock.patch.object`` does the same, but importing it pulls in
    asyncio, which adds about 3.5 MB to the peak RSS the benchmark reports.
    """
    original = getattr(target, attr)
    setattr(target, attr, value)
    try:
        yield
    finally:
        setattr(target, attr, original)


class StepProbe:
    """Step timing, set-up end and scripted-status checks for one run."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.first_step: Optional[float] = None
        self.step_ms: list[float] = []
        self.finalised = 0
        self.unscripted: list[str] = []
        self._started: dict[str, float] = {}
        self._expected: dict[str, Optional[str]] = {}
        self._code_status: dict[str, str] = {}

    def install(self, stack: contextlib.ExitStack) -> None:
        evolve_step = operators.evolve_step
        initialize_island = operators.initialize_island
        try_insert = core.IslandState.try_insert
        kinds = self.workload.kinds

        def probed_initialize(island, config, backend, *rest):
            before = backend.get_state().get(island.id, 0)
            prompt, pending, failures = initialize_island(island, config, backend, *rest)
            self._expected[pending[0].id] = STATUS_VALID  # the problem's trivial program
            for offset, sol in enumerate(pending[1:]):
                self._expected[sol.id] = expected_status(kinds[(island.id, before + offset)], None)
            for sol in failures:  # no scripted initial response fails to generate
                self.finalised += 1
                self.unscripted.append(sol.id)
            return prompt, pending, failures

        def probed_step(island, config, backend, *rest):
            start = time.perf_counter()
            if self.first_step is None:
                self.first_step = start
            outcome = evolve_step(island, config, backend, *rest)
            sol = outcome.new_solution
            index = backend.get_state()[island.id] - 1
            # A failed generation keeps its parent's code, so the status a
            # program reaches is looked up by its code, not by its id.
            parent = self._code_status.get(island.lookup(sol.parent_id).code)
            self._started[sol.id] = start
            self._expected[sol.id] = expected_status(kinds[(island.id, index)], parent)
            return outcome

        def probed_insert(island, candidate):
            result = try_insert(island, candidate)
            end = time.perf_counter()
            start = self._started.pop(candidate.id, None)
            if start is not None:
                self.step_ms.append((end - start) * 1e3)
            if candidate.status != STATUS_GENERATION_FAILED:
                self._code_status[candidate.code] = candidate.status
            if candidate.id in self._expected:
                self.finalised += 1
                if candidate.status != self._expected.pop(candidate.id):
                    self.unscripted.append(candidate.id)
            return result

        stack.enter_context(patched(operators, "initialize_island", probed_initialize))
        stack.enter_context(patched(operators, "evolve_step", probed_step))
        stack.enter_context(patched(core.IslandState, "try_insert", probed_insert))


def _messages_kb(span: Span, args: tuple, messages) -> None:
    span.attrs["kb"] = sum(len(m["content"]) for m in messages) / 1024


def _sandbox_outcome(span: Span, args: tuple, outcome) -> None:
    span.attrs.update(
        status=outcome.status,
        child_s=outcome.wall_time,
        log_kb=(len(outcome.stdout) + len(outcome.stderr)) / 1024,
        code=hashlib.sha256(args[0].encode()).hexdigest(),
    )


def _artifact_size(span: Span, args: tuple, result) -> None:
    span.attrs["kb"] = len(args[0]) / 1024


def _report_valid(span: Span, args: tuple, report) -> None:
    span.attrs["valid"] = report.valid


def _ancestor_depth(span: Span, args: tuple, chain) -> None:
    span.attrs["depth"] = len(chain)


def _step_outcome(span: Span, args: tuple, outcome) -> None:
    span.attrs["explore"] = outcome.operator == operators.OP_EXPLORE
    span.attrs["gen_failed"] = outcome.new_solution.status == STATUS_GENERATION_FAILED


def _checkpoint_size(span: Span, args: tuple, path) -> None:
    span.attrs["kb"] = Path(path).stat().st_size / 1024


class LayerTrace:
    """Spans around every layer's public calls during one traced run."""

    def __init__(self, run: str, problem_id: str):
        self.tracer = Tracer(run)
        self.problem = problems.get_problem(problem_id)
        self.pools = 0
        self.islands: dict[int, core.IslandState] = {}

    def install(self, stack: contextlib.ExitStack) -> None:
        wrap = self.tracer.wrap
        trace = self

        def insert_outcome(span: Span, args: tuple, result) -> None:
            span.attrs["accepted"] = result.outcome != "rejected"
            trace.islands[args[0].id] = args[0]

        class CountingPool(engine.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                trace.pools += 1
                super().__init__(*args, **kwargs)

        targets = [
            (llm, "generate", "llm.generate", None),
            (llm, "meta_prompt", "llm.meta_prompt", None),
            (templates, "build_generation_messages", "templates.generation", _messages_kb),
            (templates, "build_meta_messages", "templates.meta", _messages_kb),
            (diffengine, "parse_response", "diffengine.parse_response", None),
            (diffengine, "apply_blocks", "diffengine.apply_blocks", None),
            (sandbox, "run_candidate", "sandbox.run_candidate", _sandbox_outcome),
            (self.problem, "parser", "problems.parse", _artifact_size),
            (self.problem, "scorer", "problems.score", _report_valid),
            (core.IslandState, "try_insert", "core.try_insert", insert_outcome),
            (core.IslandState, "ancestors", "core.ancestors", _ancestor_depth),
            (selection, "rank_sample", "selection.rank_sample", None),
            (selection, "uniform_sample", "selection.uniform_sample", None),
            (selection, "sample_inspirations", "selection.sample_inspirations", None),
            (operators, "evolve_step", "operators.evolve_step", _step_outcome),
            (operators, "initialize_island", "operators.initialize_island", None),
            (engine._Run, "checkpoint", "engine.checkpoint", _checkpoint_size),
            (engine, "load_checkpoint", "engine.load_checkpoint", None),
        ]
        for target, attr, name, on_result in targets:
            traced = wrap(name, getattr(target, attr), on_result)
            stack.enter_context(patched(target, attr, traced))
        stack.enter_context(patched(engine, "ThreadPoolExecutor", CountingPool))

    def wrap_backend(self, backend):
        """Time the backend's ``complete`` on this instance."""
        backend.complete = self.tracer.wrap("llm.complete", backend.complete)
        return backend

    def metrics(
        self, wall_s: float, cpu_s: float, child_cpu_s: float, nproc: int, run_dir: Path
    ) -> dict[str, float]:
        """Per-layer metrics of the traced run that took ``wall_s`` seconds."""
        spans = self.tracer.spans
        by_id = {s.id: s for s in spans}
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)

        def named(*names: str) -> list[Span]:
            return [s for s in spans if s.name in names]

        def outermost(layer: str) -> list[Span]:
            """Spans of ``layer`` not nested inside another span of the same layer."""
            out = []
            for s in spans:
                if s.layer != layer:
                    continue
                p = by_id.get(s.parent)
                while p is not None and p.layer != layer:
                    p = by_id.get(p.parent)
                if p is None:
                    out.append(s)
            return out

        def busy(ss: list[Span]) -> float:
            return sum(s.duration for s in ss)

        def span_of(ss: list[Span]) -> float:
            return union_length((s.start, s.end) for s in ss)

        m: dict[str, float] = {}

        llm_spans = outermost("llm")
        completes = named("llm.complete")
        m["llm.calls"] = len(llm_spans)
        m["llm.meta_calls"] = len(named("llm.meta_prompt"))
        m["llm.retries"] = len(completes) - len(llm_spans)
        m["llm.failed"] = sum("error" in s.attrs for s in llm_spans)
        m["llm.busy_s"] = busy(llm_spans)
        m["llm.span_s"] = span_of(llm_spans)
        m["llm.concurrency"] = ratio(m["llm.busy_s"], m["llm.span_s"])

        tpl = named("templates.generation", "templates.meta")
        prompt_kb = [s.attrs["kb"] for s in tpl if "kb" in s.attrs]
        m["templates.calls"] = len(tpl)
        m["templates.busy_s"] = busy(tpl)
        m["templates.prompt_kb_p50"] = percentile(prompt_kb, 50)[0] if prompt_kb else 0.0
        m["templates.prompt_kb_max"] = max(prompt_kb, default=0.0)

        applies = named("diffengine.apply_blocks")
        m["diffengine.calls"] = len(named("diffengine.parse_response"))
        m["diffengine.apply_calls"] = len(applies)
        m["diffengine.busy_s"] = busy(outermost("diffengine"))
        m["diffengine.apply_ok_share"] = ratio(sum("error" not in s.attrs for s in applies), len(applies))

        runs = named("sandbox.run_candidate")
        done = [s for s in runs if "status" in s.attrs]
        m["sandbox.calls"] = len(runs)
        m["sandbox.busy_s"] = busy(runs)
        m["sandbox.span_s"] = span_of(runs)
        m["sandbox.concurrency"] = ratio(m["sandbox.busy_s"], m["sandbox.span_s"])
        m["sandbox.child_s"] = sum(s.attrs["child_s"] for s in done)
        m["sandbox.overhead_s"] = m["sandbox.busy_s"] - m["sandbox.child_s"]
        run_ms = [s.duration * 1e3 for s in runs]
        m["sandbox.run_p50_ms"] = percentile(run_ms, 50)[0] if run_ms else 0.0
        m["sandbox.run_p95_ms"] = percentile(run_ms, 95)[0] if run_ms else 0.0
        m["sandbox.child_cpu_s"] = child_cpu_s
        for status in (
            sandbox.STATUS_OK,
            sandbox.STATUS_NONZERO_EXIT,
            sandbox.STATUS_TIMEOUT,
            sandbox.STATUS_MEMORY_EXCEEDED,
            sandbox.STATUS_SPAWN_ERROR,
        ):
            m[f"sandbox.status.{status}"] = sum(s.attrs["status"] == status for s in done)
        m["sandbox.unique_code_share"] = ratio(len({s.attrs["code"] for s in done}), len(done))
        m["sandbox.log_kb"] = sum(s.attrs["log_kb"] for s in done)

        parses, scores = named("problems.parse"), named("problems.score")
        m["problems.calls"] = len(parses)
        m["problems.parse_s"] = busy(parses)
        m["problems.score_s"] = busy(scores)
        m["problems.valid_share"] = ratio(sum(s.attrs.get("valid", False) for s in scores), len(scores))
        parsed_kb = [s.attrs["kb"] for s in parses if "kb" in s.attrs]
        m["problems.artifact_kb"] = ratio(sum(parsed_kb), len(parsed_kb))

        inserts, ancestors = named("core.try_insert"), named("core.ancestors")
        m["core.insert_calls"] = len(inserts)
        m["core.insert_s"] = busy(inserts)
        m["core.insert_accept_share"] = ratio(sum(s.attrs.get("accepted", False) for s in inserts), len(inserts))
        m["core.ancestors_s"] = busy(ancestors)
        m["core.lineage_depth_max"] = max((s.attrs.get("depth", 0) for s in ancestors), default=0)
        m["core.archive_size"] = sum(len(i.archive) for i in self.islands.values())

        sel = outermost("selection")
        m["selection.calls"] = len(sel)
        m["selection.busy_s"] = busy(sel)

        steps = named("operators.evolve_step")
        ops = named("operators.evolve_step", "operators.initialize_island")
        m["operators.steps"] = len(steps)
        m["operators.self_s"] = sum(self_time(s, children.get(s.id, [])) for s in ops)
        m["operators.explore_share"] = ratio(sum(s.attrs.get("explore", False) for s in steps), len(steps))
        m["operators.gen_failed_share"] = ratio(sum(s.attrs.get("gen_failed", False) for s in steps), len(steps))

        layered = [s for s in spans if s.layer != "engine"]
        checkpoints = named("engine.checkpoint")
        files = [p for p in run_dir.rglob("*") if p.is_file()]
        m["engine.self_s"] = wall_s - span_of(layered)
        m["engine.pools_created"] = self.pools
        m["engine.cpu_util"] = cpu_s / (wall_s * nproc)
        m["engine.checkpoints"] = len(checkpoints)
        m["engine.checkpoint_kb_max"] = max((s.attrs.get("kb", 0.0) for s in checkpoints), default=0.0)
        m["engine.load_s"] = busy(named("engine.load_checkpoint"))
        m["engine.run_dir_kb"] = sum(p.stat().st_size for p in files) / 1024
        m["engine.files_written"] = len(files)
        m["trace.spans"] = len(spans)
        return m


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when there is nothing to divide by."""
    return num / den if den else 0.0


def rusage_s() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime
