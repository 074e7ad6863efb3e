"""Benchmark definitions: artifact schemas, exact scorers, fitness mapping.

Four problem families are supported:

* step-function autoconvolution ratio maximization ("p1"),
* max/min pairwise distance ratio minimization over point sets
  ("p2.a": 16 points in 2-d, "p2.b": 14 points in 3-d),
* circle packing in the unit square maximizing the sum of radii
  ("p3.a": 26 circles, "p3.b": 32 circles),
* circle packing in a perimeter-4 rectangle ("p4": 21 circles).

Artifacts are JSON files; every construction is re-verified here rather than
trusting any score printed by the candidate itself. Minimization objectives
map to nonnegative fitness through 1/(1+objective), which is strictly
decreasing, so maximizing fitness minimizes the objective.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

DEFAULT_TOL = 1e-9

# Name of the environment variable through which the sandbox tells a
# candidate where to write its artifact file.
ARTIFACT_PATH_ENV = "ARTIFACT_PATH"


class ArtifactError(ValueError):
    """Raised when raw artifact bytes cannot be decoded into a valid artifact."""


@dataclass
class StepFunctionArtifact:
    """Nonnegative step function on [0,1] with n uniform bins."""

    heights: list[float]

    def __post_init__(self) -> None:
        if len(self.heights) < 1:
            raise ArtifactError("step function needs at least one height")
        if any(not math.isfinite(h) or h < 0 for h in self.heights):
            raise ArtifactError("heights must be finite and nonnegative")
        if all(h == 0 for h in self.heights):
            raise ArtifactError("at least one height must be positive")


@dataclass
class PointSetArtifact:
    points: list[list[float]]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ArtifactError("point set needs at least two points")
        dims = {len(p) for p in self.points}
        if len(dims) != 1:
            raise ArtifactError("points must share one dimensionality")
        for p in self.points:
            if any(not math.isfinite(x) for x in p):
                raise ArtifactError("coordinates must be finite")


@dataclass
class CirclePackingArtifact:
    circles: list[tuple[float, float, float]]
    rect_width: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.rect_width < 2):
            raise ArtifactError("rect_width must lie in (0, 2)")
        clean = []
        for c in self.circles:
            if len(c) != 3:
                raise ArtifactError("each circle is an (x, y, r) triple")
            x, y, r = (float(v) for v in c)
            if not all(math.isfinite(v) for v in (x, y, r)):
                raise ArtifactError("circle values must be finite")
            clean.append((x, y, r))
        self.circles = clean


@dataclass
class ScoreReport:
    """Verified objective and fitness for one artifact; metrics form h(S)."""

    objective: float
    fitness: float
    valid: bool
    violations: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.valid:
            assert self.fitness == 0.0
        assert self.fitness >= 0.0


def _invalid(reason: str, magnitude: float = 1.0, **metrics: float) -> ScoreReport:
    return ScoreReport(
        objective=0.0,
        fitness=0.0,
        valid=False,
        violations={reason: magnitude},
        metrics=dict(metrics),
    )


def minimization_fitness(objective: float) -> float:
    """Map a minimization objective to a bounded nonnegative maximization score."""
    return 1.0 / (1.0 + objective)


# -- P1: autoconvolution ratio --

# Scoring is quadratic in the height count: 0.7 s at this ceiling on one
# Xeon core (numpy 2.4), 2.7 s at twice it.
P1_MAX_HEIGHTS = 2**16


def score_p1(artifact: StepFunctionArtifact) -> ScoreReport:
    """Ratio of the squared 2-norm of f*f to the product of its 1- and sup-norms.

    For a step function with n uniform bins of width h = 1/n, f*f is
    continuous piecewise linear with knots at multiples of h: with the
    discrete autoconvolution c_m = sum_{i+j=m} a_i a_j, the knot values are
    v_0 = v_{2n} = 0 and v_k = h * c_{k-1}. The norms follow exactly from
    the piecewise-linear form. More than ``P1_MAX_HEIGHTS`` heights is
    invalid, and is rejected before the quadratic work.
    """
    n = len(artifact.heights)
    if n > P1_MAX_HEIGHTS:
        return _invalid("too_many_heights", magnitude=n - P1_MAX_HEIGHTS)
    a = np.asarray(artifact.heights, dtype=float)
    h = 1.0 / n
    # Heights large enough to overflow end as a non-finite objective below.
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.convolve(a, a)  # c_m, m = 0..2n-2
        v = np.zeros(2 * n + 1)
        v[1:2 * n] = h * c
        sup_norm = float(v.max())
        one_norm = float((h * a.sum()) ** 2)
        # Integral of the square of a piecewise-linear function, segment by segment.
        l2_sq = float(np.sum(h * (v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2) / 3.0))
    denom = one_norm * sup_norm
    if denom <= 0:
        return _invalid("zero_denominator")
    objective = l2_sq / denom
    if not math.isfinite(objective):
        return _invalid("non_finite_objective")
    return ScoreReport(
        objective=objective,
        fitness=objective,
        valid=True,
        metrics={
            "objective": objective,
            "l2_sq": l2_sq,
            "one_norm": one_norm,
            "sup_norm": sup_norm,
            "num_steps": float(n),
        },
    )


# -- P2: max/min distance ratio --


def score_p2(
    artifact: PointSetArtifact,
    expected_count: Optional[int] = None,
    expected_dim: Optional[int] = None,
) -> ScoreReport:
    """Ratio of the maximum to the minimum squared pairwise distance (minimize).

    The reported benchmark numbers correspond to this squared-distance ratio.
    """
    count, dim = len(artifact.points), len(artifact.points[0])
    if expected_count is not None and count != expected_count:
        return _invalid("wrong_point_count", magnitude=abs(count - expected_count))
    if expected_dim is not None and dim != expected_dim:
        return _invalid("wrong_dimension", magnitude=abs(dim - expected_dim))
    pts = np.asarray(artifact.points, dtype=float)
    # Coordinates large enough to overflow end as a non-finite objective below.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.sum(diff * diff, axis=-1)
    iu = np.triu_indices(len(pts), k=1)
    pair_d2 = d2[iu]
    min_d2 = float(pair_d2.min())
    max_d2 = float(pair_d2.max())
    if min_d2 <= 0:
        return _invalid("duplicate_points", magnitude=math.sqrt(max(max_d2, 0)))
    objective = max_d2 / min_d2
    if not math.isfinite(objective):
        return _invalid("non_finite_objective")
    return ScoreReport(
        objective=objective,
        fitness=minimization_fitness(objective),
        valid=True,
        metrics={
            "objective": objective,
            "min_distance": math.sqrt(min_d2),
            "max_distance": math.sqrt(max_d2),
            "num_points": float(len(pts)),
        },
    )


# -- P3/P4: circle packing --


def _score_packing(
    artifact: CirclePackingArtifact,
    width: float,
    height: float,
    expected_count: Optional[int],
    tol: float,
) -> ScoreReport:
    circles = artifact.circles
    if expected_count is not None and len(circles) != expected_count:
        return _invalid("wrong_circle_count", magnitude=abs(len(circles) - expected_count))
    violations: dict[str, float] = {}
    for i, (x, y, r) in enumerate(circles):
        if r < 0:
            violations[f"negative_radius_{i}"] = -r
            continue
        if x - r < -tol:
            violations[f"left_bound_{i}"] = -(x - r)
        if x + r > width + tol:
            violations[f"right_bound_{i}"] = (x + r) - width
        if y - r < -tol:
            violations[f"bottom_bound_{i}"] = -(y - r)
        if y + r > height + tol:
            violations[f"top_bound_{i}"] = (y + r) - height
    for i in range(len(circles)):
        xi, yi, ri = circles[i]
        for j in range(i + 1, len(circles)):
            xj, yj, rj = circles[j]
            dist = math.hypot(xi - xj, yi - yj)
            if dist < ri + rj - tol:
                violations[f"overlap_{i}_{j}"] = (ri + rj) - dist
    total = sum(c[2] for c in circles)
    metrics = {
        "objective": total,
        "num_circles": float(len(circles)),
        "tolerance": tol,
    }
    if violations:
        return ScoreReport(
            objective=total, fitness=0.0, valid=False, violations=violations, metrics=metrics
        )
    return ScoreReport(objective=total, fitness=total, valid=True, metrics=metrics)


def score_p3(
    artifact: CirclePackingArtifact,
    expected_count: Optional[int] = None,
    tol: float = DEFAULT_TOL,
) -> ScoreReport:
    """Sum of radii of non-overlapping circles inside the unit square."""
    if artifact.rect_width != 1.0:
        return _invalid("rect_width_not_one", magnitude=abs(artifact.rect_width - 1.0))
    return _score_packing(artifact, 1.0, 1.0, expected_count, tol)


def score_p4(
    artifact: CirclePackingArtifact,
    expected_count: Optional[int] = None,
    tol: float = DEFAULT_TOL,
) -> ScoreReport:
    """Sum of radii of non-overlapping circles inside a w x (2-w) rectangle."""
    w = artifact.rect_width
    return _score_packing(artifact, w, 2.0 - w, expected_count, tol)


# -- problem registry --


@dataclass
class ProblemSpec:
    """Everything the engine needs to run one benchmark instance."""

    id: str
    brief: str
    wall_seconds: float
    memory_bytes: int
    trivial_code: str
    # ``scorer`` takes what ``parser`` returns.
    scorer: Callable[[Any], ScoreReport]
    parser: Callable[[bytes], object]
    # A longer artifact is invalid; the engine checks before ``parser`` decodes it.
    max_artifact_bytes: int = 64 * 1024


def _at_most(items, limit: int, what: str) -> list:
    """``items`` as a list, if it holds at most ``limit`` of them.

    The registered parsers check each list with it before converting any
    element, so an over-long list costs no more than its JSON decoding.
    """
    if not isinstance(items, list):  # JSON's lists are not copied
        items = list(items)
    if len(items) > limit:
        raise ArtifactError(f"{len(items)} {what}, more than the {limit} allowed")
    return items


def _parse_p1(raw: bytes) -> StepFunctionArtifact:
    doc = _load_json(raw)
    try:
        heights = [float(x) for x in _at_most(doc["heights"], P1_MAX_HEIGHTS, "heights")]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"bad step-function payload: {exc}") from exc
    return StepFunctionArtifact(heights=heights)


def _parse_p2(raw: bytes, count: int, dim: int) -> PointSetArtifact:
    doc = _load_json(raw)
    try:
        points = [
            [float(x) for x in _at_most(row, dim, "coordinates")]
            for row in _at_most(doc["points"], count, "points")
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"bad point-set payload: {exc}") from exc
    return PointSetArtifact(points=points)


def _parse_p3(raw: bytes, count: int) -> CirclePackingArtifact:
    doc = _load_json(raw)
    try:
        circles = [tuple(float(v) for v in c) for c in _at_most(doc["circles"], count, "circles")]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"bad circle payload: {exc}") from exc
    return CirclePackingArtifact(circles=circles, rect_width=1.0)


def _parse_p4(raw: bytes, count: int) -> CirclePackingArtifact:
    doc = _load_json(raw)
    try:
        circles = [tuple(float(v) for v in c) for c in _at_most(doc["circles"], count, "circles")]
        width = float(doc["rect_width"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"bad circle payload: {exc}") from exc
    return CirclePackingArtifact(circles=circles, rect_width=width)


def _load_json(raw: bytes) -> dict:
    # ValueError covers UnicodeDecodeError, JSONDecodeError and the digit
    # limit on integer literals; RecursionError covers deep nesting.
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ArtifactError(f"artifact is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArtifactError("artifact root must be a JSON object")
    return doc


_TRIVIAL_P1 = f"""\
import json, os
with open(os.environ["{ARTIFACT_PATH_ENV}"], "w") as fh:
    json.dump({{"heights": [1.0]}}, fh)
"""

def _trivial_p2(n: int, d: int) -> str:
    return f"""\
import json, os
points = [[float(i)] + [0.0] * ({d} - 1) for i in range({n})]
with open(os.environ["{ARTIFACT_PATH_ENV}"], "w") as fh:
    json.dump({{"points": points}}, fh)
"""

def _trivial_packing(n: int, width: float, include_width: bool) -> str:
    height = 2.0 - width if include_width else 1.0
    cols = max(1, int(math.ceil(math.sqrt(n * width / height))))
    rows = int(math.ceil(n / cols))
    doc_extra = f'"rect_width": {width}, ' if include_width else ""
    return f"""\
import json, os
circles = []
n, cols, rows = {n}, {cols}, {rows}
for i in range(n):
    cx = ({width} / cols) * (i % cols + 0.5)
    cy = ({height} / rows) * (i // cols + 0.5)
    circles.append([cx, cy, 1e-3])
with open(os.environ["{ARTIFACT_PATH_ENV}"], "w") as fh:
    json.dump({{{doc_extra}"circles": circles}}, fh)
"""


GB = 1024**3


def _make_registry() -> dict[str, ProblemSpec]:
    specs: dict[str, ProblemSpec] = {}

    specs["p1"] = ProblemSpec(
        id="p1",
        brief=(
            "Write a program that outputs a nonnegative step function on [0,1] "
            "maximizing the ratio of the squared 2-norm of its autoconvolution "
            "to the product of the autoconvolution's 1-norm and sup-norm. "
            f'Write JSON {{"heights": [a0, a1, ...]}} with at most {P1_MAX_HEIGHTS} '
            f"heights to the file named by the {ARTIFACT_PATH_ENV} environment variable."
        ),
        wall_seconds=360.0,
        memory_bytes=5 * GB,
        trivial_code=_TRIVIAL_P1,
        scorer=score_p1,
        parser=_parse_p1,
        max_artifact_bytes=4 * 1024**2,  # room for P1_MAX_HEIGHTS heights at full precision
    )

    for pid, n, d in (("p2.a", 16, 2), ("p2.b", 14, 3)):
        specs[pid] = ProblemSpec(
            id=pid,
            brief=(
                f"Write a program that places {n} distinct {d}-dimensional points "
                "minimizing the ratio of their maximum to minimum pairwise "
                f'distance. Write JSON {{"points": [[x, ...], ...]}} to the file '
                f"named by the {ARTIFACT_PATH_ENV} environment variable."
            ),
            wall_seconds=360.0,
            memory_bytes=5 * GB,
            trivial_code=_trivial_p2(n, d),
            scorer=lambda art, n=n, d=d: score_p2(art, expected_count=n, expected_dim=d),
            parser=lambda raw, n=n, d=d: _parse_p2(raw, n, d),
        )

    for pid, n in (("p3.a", 26), ("p3.b", 32)):
        specs[pid] = ProblemSpec(
            id=pid,
            brief=(
                f"Write a program that packs exactly {n} non-overlapping circles "
                "inside the unit square maximizing the sum of their radii. "
                f'Write JSON {{"circles": [[x, y, r], ...]}} to the file named by '
                f"the {ARTIFACT_PATH_ENV} environment variable."
            ),
            wall_seconds=180.0,
            memory_bytes=1 * GB,
            trivial_code=_trivial_packing(n, 1.0, include_width=False),
            scorer=lambda art, n=n: score_p3(art, expected_count=n),
            parser=lambda raw, n=n: _parse_p3(raw, n),
        )

    specs["p4"] = ProblemSpec(
        id="p4",
        brief=(
            "Write a program that chooses a rectangle of perimeter 4 (width w, "
            "height 2-w) and packs exactly 21 non-overlapping circles inside it "
            'maximizing the sum of their radii. Write JSON {"rect_width": w, '
            '"circles": [[x, y, r], ...]} to the file named by the '
            f"{ARTIFACT_PATH_ENV} environment variable."
        ),
        wall_seconds=360.0,
        memory_bytes=1 * GB,
        trivial_code=_trivial_packing(21, 1.0, include_width=True),
        scorer=lambda art: score_p4(art, expected_count=21),
        parser=lambda raw: _parse_p4(raw, 21),
    )
    return specs


REGISTRY = _make_registry()


def get_problem(problem_id: str) -> ProblemSpec:
    try:
        return REGISTRY[problem_id]
    except KeyError:
        raise KeyError(f"unknown problem id: {problem_id!r}") from None


def parse_artifact(problem_id: str, raw: bytes):
    """Decode raw artifact bytes into the typed artifact for a problem."""
    return get_problem(problem_id).parser(raw)


def score_artifact(problem_id: str, artifact) -> ScoreReport:
    return get_problem(problem_id).scorer(artifact)


# Published best objectives used for reporting deltas:
# (alphaevolve, ours-reference, objective direction).
_REFERENCE_BEST = {
    "p1": (0.89627, 0.93768, "maximize"),
    "p2.a": (12.88926, 12.88923, "minimize"),
    "p2.b": (4.16585, 4.16578, "minimize"),
    "p3.a": (2.63586, 2.63596, "maximize"),
    "p3.b": (2.93794, 2.93957, "maximize"),
    "p4": (2.36583, 2.36583, "maximize"),
}


def reference_best(problem_id: str) -> tuple[float, float, str]:
    """Published reference objectives (comparison baseline, this framework)."""
    try:
        return _REFERENCE_BEST[problem_id]
    except KeyError:
        raise KeyError(f"unknown problem id: {problem_id!r}") from None
