"""Command line entry points: run, resume, score, report."""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict

import click

from . import engine, llm
from .config import ABLATION_PRESETS, BACKENDS, ConfigError, load_config
from .problems import REGISTRY, ArtifactError, get_problem


@click.group()
def main() -> None:
    """Evolve candidate programs against exact mathematical scorers."""


def _print_summary(summary: engine.RunSummary) -> None:
    click.echo(f"problem: {summary.problem_id}")
    click.echo(f"epochs run: {summary.epochs_run}")
    click.echo(f"best solution: {summary.best_solution_id}")
    click.echo(f"best fitness: {summary.best_fitness:.12g}")
    if summary.best_objective is not None:
        click.echo(f"best objective: {summary.best_objective:.12g}")
        baseline, ours, direction = get_problem(summary.problem_id).reference
        delta = summary.best_objective - ours
        click.echo(
            f"reference objectives ({direction}): "
            f"baseline={baseline} reference={ours} delta={delta:+.6g}"
        )
    click.echo(f"migration events: {summary.migration_events}")
    click.echo(f"status counts: {json.dumps(summary.step_counts, sort_keys=True)}")


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--run-dir", required=True, type=click.Path())
@click.option("--epochs", type=int, default=None, help="Override total epochs.")
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@click.option("--backend", type=click.Choice(BACKENDS), default=None)
@click.option("--problem", "problem_id", default=None, help="Override the problem id.")
@click.option("--ablation", type=click.Choice(list(ABLATION_PRESETS)), default=None,
              help="Override the fields that an ablation preset sets.")
def cmd_run(config_path, run_dir, epochs, seed, backend, problem_id, ablation) -> None:
    """Launch a fresh run from a config file."""
    try:
        cfg = load_config(
            config_path,
            epochs=epochs,
            master_seed=seed,
            backend=backend,
            problem_id=problem_id,
            **ABLATION_PRESETS.get(ablation, {}),
        )
    except (ConfigError, OSError) as exc:
        raise click.ClickException(f"invalid config: {exc}") from exc
    try:
        summary = engine.run(cfg, run_dir)
    except (ConfigError, llm.KeyRefusedError) as exc:
        raise click.ClickException(str(exc)) from exc
    _print_summary(summary)


@main.command("resume")
@click.option("--run-dir", required=True, type=click.Path(exists=True))
def cmd_resume(run_dir) -> None:
    """Continue a checkpointed run to completion."""
    try:
        summary = engine.resume(run_dir)
    except (engine.CheckpointError, ConfigError, llm.KeyRefusedError) as exc:
        raise click.ClickException(str(exc)) from exc
    _print_summary(summary)


@main.command("score")
@click.argument("problem_id", type=click.Choice(list(REGISTRY)))
@click.argument("artifact_path", type=click.Path(exists=True, dir_okay=False))
def cmd_score(problem_id, artifact_path) -> None:
    """Score an artifact file; exit 0 iff it is a regular file within the problem's size cap and the construction is valid."""
    spec = get_problem(problem_id)
    try:
        # Opening a FIFO this way does not wait for a writer.
        with open(os.open(artifact_path, os.O_RDONLY | os.O_NONBLOCK), "rb") as fh:
            artifact = spec.parser(spec.read_artifact(fh))
    except (OSError, ArtifactError) as exc:  # OSError: a socket, say, or a file not ours to read
        error = exc.strerror if isinstance(exc, OSError) else str(exc)
        click.echo(json.dumps({"valid": False, "error": error}, sort_keys=True))
        sys.exit(1)
    rep = spec.scorer(artifact)
    click.echo(json.dumps({"problem": problem_id, **asdict(rep)}, sort_keys=True))
    if not rep.valid:
        sys.exit(1)


@main.command("report")
@click.option("--run-dir", required=True, type=click.Path(exists=True))
@click.option("--ceiling", "-m", type=float, default=None,
              help="Fitness ceiling for the log-gap transform (default: run max).")
@click.option("--epsilon", type=float, default=1e-4)
def cmd_report(run_dir, ceiling, epsilon) -> None:
    """Emit per-epoch best-fitness tables as tab-delimited text."""
    # Each island's best-so-far, and its value at each epoch's last step; an
    # island reads 0.0, the floor of a best-so-far, until its first record.
    best: dict[int, float] = {}
    rows: dict[int, dict[int, float]] = {}
    try:
        for rec in engine.read_events(run_dir):
            if rec["type"] in ("init", "step"):
                best[rec["island"]] = max(best.get(rec["island"], 0.0), rec["fitness"])
            if rec["type"] == "step":
                rows[rec["epoch"]] = dict(best)
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"cannot read the event log of {run_dir}: {exc}") from exc
    if not rows:
        raise click.ClickException("event log contains no epochs")
    islands = sorted(best)
    if ceiling is None:
        ceiling = max(max(row.values()) for row in rows.values())
    click.echo("\t".join(["epoch", *(f"island_{i}" for i in islands), "global", "transformed"]))
    for epoch, row in rows.items():
        top = max(row.values())
        gap = ceiling + epsilon - top
        cells = [str(epoch), *(f"{row.get(i, 0.0):.12g}" for i in islands), f"{top:.12g}"]
        cells.append(f"{-math.log(gap):.12g}" if gap > 0 else "undefined")
        click.echo("\t".join(cells))


if __name__ == "__main__":
    main()
