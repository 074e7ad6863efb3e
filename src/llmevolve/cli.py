"""Command line entry points: run, resume, score, report."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import engine, report
from .config import AblationToggles, ConfigError, load_config
from .problems import ArtifactError, parse_artifact, reference_best, score_artifact


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
        try:
            baseline, ours, direction = reference_best(summary.problem_id)
        except KeyError:
            pass
        else:
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
@click.option("--backend", type=click.Choice(["http", "replay"]), default=None)
@click.option("--problem", "problem_id", default=None, help="Override the problem id.")
@click.option(
    "--ablation",
    type=click.Choice(["full", "mp", "insp", "none", "no-evolution"]),
    default=None,
)
def cmd_run(config_path, run_dir, epochs, seed, backend, problem_id, ablation) -> None:
    """Launch a fresh run from a config file."""
    try:
        cfg = load_config(
            config_path,
            epochs=epochs,
            master_seed=seed,
            backend=backend,
            problem_id=problem_id,
            ablation=AblationToggles.from_name(ablation) if ablation else None,
        )
    except (ConfigError, KeyError, OSError) as exc:
        raise click.ClickException(f"invalid config: {exc}") from exc
    try:
        summary = engine.run(cfg, run_dir)
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc
    _print_summary(summary)


@main.command("resume")
@click.option("--run-dir", required=True, type=click.Path(exists=True))
def cmd_resume(run_dir) -> None:
    """Continue a checkpointed run to completion."""
    try:
        summary = engine.resume(run_dir)
    except (engine.CheckpointError, ConfigError) as exc:
        raise click.ClickException(str(exc)) from exc
    _print_summary(summary)


@main.command("score")
@click.argument("problem_id")
@click.argument("artifact_path", type=click.Path(exists=True, dir_okay=False))
def cmd_score(problem_id, artifact_path) -> None:
    """Score an artifact file; exit 0 iff the construction is valid."""
    raw = Path(artifact_path).read_bytes()
    try:
        artifact = parse_artifact(problem_id, raw)
    except KeyError as exc:
        raise click.ClickException(str(exc)) from exc
    except ArtifactError as exc:
        click.echo(json.dumps({"valid": False, "error": str(exc)}, sort_keys=True))
        sys.exit(1)
    rep = score_artifact(problem_id, artifact)
    click.echo(
        json.dumps(
            {
                "problem": problem_id,
                "objective": rep.objective,
                "fitness": rep.fitness,
                "valid": rep.valid,
                "violations": rep.violations,
                "metrics": rep.metrics,
            },
            sort_keys=True,
        )
    )
    if not rep.valid:
        sys.exit(1)


@main.command("report")
@click.option("--run-dir", required=True, type=click.Path(exists=True))
@click.option("--ceiling", "-m", type=float, default=None,
              help="Fitness ceiling for the log-gap transform (default: run max).")
@click.option("--epsilon", type=float, default=1e-4)
def cmd_report(run_dir, ceiling, epsilon) -> None:
    """Emit per-epoch best-fitness tables as tab-delimited text."""
    series = report.load_series(run_dir)
    if not series.epochs:
        raise click.ClickException("event log contains no epochs")
    if ceiling is None:
        ceiling = max(series.global_best)
    click.echo(report.render_table(series, ceiling, epsilon), nl=False)


if __name__ == "__main__":
    main()
