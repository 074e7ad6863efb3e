"""Fitness trajectories from run event logs, plus the log-gap transform."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .engine import read_events


@dataclass
class ReportSeries:
    """Per-epoch best-so-far fitness, per island and globally."""

    epochs: list[int]
    per_island: dict[int, list[float]]
    global_best: list[float]

    def transformed(self, ceiling: float, epsilon: float) -> list[float | None]:
        """-log(ceiling + epsilon - y) per epoch; None where the gap is <= 0."""
        out: list[float | None] = []
        for y in self.global_best:
            gap = ceiling + epsilon - y
            out.append(-math.log(gap) if gap > 0 else None)
        return out


def load_series(run_dir: str | Path) -> ReportSeries:
    """Fold the event log into best-so-far fitness trajectories."""
    best: dict[int, float] = {}
    epochs: list[int] = []
    per_island: dict[int, list[float]] = {}
    global_best: list[float] = []
    current_epoch = 0

    def flush(epoch: int) -> None:
        epochs.append(epoch)
        for i, b in best.items():
            per_island.setdefault(i, []).append(b)
        global_best.append(max(best.values(), default=0.0))

    for rec in read_events(run_dir):
        if rec["type"] == "step" and rec["epoch"] != current_epoch:
            if current_epoch > 0:
                flush(current_epoch)
            current_epoch = rec["epoch"]
        if rec["type"] in ("init", "step"):
            best[rec["island"]] = max(best.get(rec["island"], 0.0), rec["fitness"])
    if current_epoch > 0:
        flush(current_epoch)
    return ReportSeries(epochs=epochs, per_island=per_island, global_best=global_best)


def render_table(series: ReportSeries, ceiling: float, epsilon: float) -> str:
    """Tab-delimited rows: epoch, per-island bests, global best, transform."""
    islands = sorted(series.per_island)
    header = ["epoch"] + [f"island_{i}" for i in islands] + ["global", "transformed"]
    lines = ["\t".join(header)]
    transformed = series.transformed(ceiling, epsilon)
    for row, epoch in enumerate(series.epochs):
        cells = [str(epoch)]
        cells += [f"{series.per_island[i][row]:.12g}" for i in islands]
        cells.append(f"{series.global_best[row]:.12g}")
        t = transformed[row]
        cells.append("undefined" if t is None else f"{t:.12g}")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
