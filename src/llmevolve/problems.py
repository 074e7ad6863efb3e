"""Benchmark definitions: artifact schemas, exact scorers, fitness mapping.

Four problem families are supported:

* step-function autoconvolution ratio maximization ("p1"),
* max/min pairwise distance ratio minimization over point sets
  ("p2.a": 16 points in 2-d, "p2.b": 14 points in 3-d),
* circle packing in the unit square maximizing the sum of radii
  ("p3.a": 26 circles, "p3.b": 32 circles),
* circle packing in a perimeter-4 rectangle ("p4": 21 circles).

Artifacts are JSON files; every construction is re-verified here rather than
trusting any score printed by the candidate itself, and only
``ProblemSpec.read_artifact`` reads an artifact file. Minimization objectives
map to nonnegative fitness through 1/(1+objective), which is strictly
decreasing, so maximizing fitness minimizes the objective.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, BinaryIO, Callable, Optional

from .sandbox import ARTIFACT_PATH_ENV, ResourceLimits

DEFAULT_TOL = 1e-9


class ArtifactError(ValueError):
    """Raised when raw artifact bytes cannot be decoded into a valid artifact."""


@dataclass
class StepFunctionArtifact:
    """Nonnegative step function on [0,1] with n uniform bins."""

    heights: list[float]

    def __post_init__(self) -> None:
        if len(self.heights) < 1:
            raise ArtifactError("step function needs at least one height")
        if not all(map(math.isfinite, self.heights)) or min(self.heights) < 0:
            raise ArtifactError("heights must be finite and nonnegative")
        if max(self.heights) == 0:
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
        if not all(map(math.isfinite, chain.from_iterable(self.points))):
            raise ArtifactError("coordinates must be finite")


@dataclass
class CirclePackingArtifact:
    circles: list[tuple[float, float, float]]
    rect_width: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.rect_width < 2):
            raise ArtifactError("rect_width must lie in (0, 2)")
        if not all(len(c) == 3 for c in self.circles):
            raise ArtifactError("each circle is an (x, y, r) triple")
        self.circles = [(float(x), float(y), float(r)) for x, y, r in self.circles]
        if not all(map(math.isfinite, chain.from_iterable(self.circles))):
            raise ArtifactError("circle values must be finite")


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


def _invalid(reason: str, magnitude: float = 1.0) -> ScoreReport:
    return ScoreReport(objective=0.0, fitness=0.0, valid=False, violations={reason: magnitude})


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
    import numpy as np  # here, so that a run of p3 or p4 never loads it
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
    import numpy as np
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
) -> ScoreReport:
    """Sum of radii in a ``width`` x ``height`` rectangle; each constraint may miss by ``DEFAULT_TOL``."""
    circles = artifact.circles
    if expected_count is not None and len(circles) != expected_count:
        return _invalid("wrong_circle_count", magnitude=abs(len(circles) - expected_count))
    violations: dict[str, float] = {}
    for i, (x, y, r) in enumerate(circles):
        if r < 0:
            violations[f"negative_radius_{i}"] = -r
            continue
        if x - r < -DEFAULT_TOL:
            violations[f"left_bound_{i}"] = -(x - r)
        if x + r > width + DEFAULT_TOL:
            violations[f"right_bound_{i}"] = (x + r) - width
        if y - r < -DEFAULT_TOL:
            violations[f"bottom_bound_{i}"] = -(y - r)
        if y + r > height + DEFAULT_TOL:
            violations[f"top_bound_{i}"] = (y + r) - height
    for i in range(len(circles)):
        xi, yi, ri = circles[i]
        for j in range(i + 1, len(circles)):
            xj, yj, rj = circles[j]
            dist = math.hypot(xi - xj, yi - yj)
            if dist < ri + rj - DEFAULT_TOL:
                violations[f"overlap_{i}_{j}"] = (ri + rj) - dist
    total = sum(c[2] for c in circles)
    metrics = {
        "objective": total,
        "num_circles": float(len(circles)),
        "tolerance": DEFAULT_TOL,
    }
    if violations:
        return ScoreReport(
            objective=total, fitness=0.0, valid=False, violations=violations, metrics=metrics
        )
    return ScoreReport(objective=total, fitness=total, valid=True, metrics=metrics)


def score_p3(artifact: CirclePackingArtifact, expected_count: Optional[int] = None) -> ScoreReport:
    """Sum of radii of non-overlapping circles inside the unit square."""
    if artifact.rect_width != 1.0:
        return _invalid("rect_width_not_one", magnitude=abs(artifact.rect_width - 1.0))
    return _score_packing(artifact, 1.0, 1.0, expected_count)


def score_p4(artifact: CirclePackingArtifact, expected_count: Optional[int] = None) -> ScoreReport:
    """Sum of radii of non-overlapping circles inside a w x (2-w) rectangle."""
    w = artifact.rect_width
    return _score_packing(artifact, w, 2.0 - w, expected_count)


# -- problem registry --


@dataclass
class ProblemSpec:
    """Everything the engine needs to run one benchmark instance."""

    brief: str
    limits: ResourceLimits  # each candidate's, unless a run's config sets its own
    trivial_code: str
    # ``scorer`` takes what ``parser`` returns.
    scorer: Callable[[Any], ScoreReport]
    parser: Callable[[bytes], object]
    # Published best objectives, for reporting deltas: (AlphaEvolve, this
    # framework's reference, objective direction).
    reference: tuple[float, float, str]
    # A longer artifact is invalid, and ``read_artifact`` reads none of it.
    max_artifact_bytes: int = 64 * 1024

    def read_artifact(self, fh: BinaryIO) -> bytes:
        """The bytes of the artifact file ``fh``, the size its ``fstat`` gives should it still grow;
        one that is not regular or is over the cap is an ``ArtifactError``, unread. The caller closes ``fh``."""
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise ArtifactError("not a regular file")
        if info.st_size > self.max_artifact_bytes:
            raise ArtifactError(f"{info.st_size} bytes, more than the {self.max_artifact_bytes} allowed")
        return fh.read(info.st_size)


# The types ``json`` decodes a number to; a bool is neither.
_NUMBER_TYPES = frozenset((int, float))


def _array(value, limit: int, what: str) -> list:
    """``value``, if it is a JSON array of at most ``limit`` items.

    The length is checked before any item, so an over-long array costs no
    more than its JSON decoding.
    """
    if type(value) is not list:
        raise ArtifactError(f"{what} must be a JSON array")
    if len(value) > limit:
        raise ArtifactError(f"{len(value)} {what}, more than the {limit} allowed")
    return value


def _numbers(value, limit: int, what: str) -> list[float]:
    """The floats of ``value``, a JSON array of at most ``limit`` JSON numbers."""
    items = _array(value, limit, what)
    if not _NUMBER_TYPES.issuperset(map(type, items)):
        raise ArtifactError(f"{what} must be JSON numbers")
    try:
        return list(map(float, items))
    except OverflowError:  # an integer beyond float range
        raise ArtifactError(f"{what} must lie within float range") from None


def _parse_p1(raw: bytes) -> StepFunctionArtifact:
    doc = _load_json(raw)
    return StepFunctionArtifact(heights=_numbers(doc.get("heights"), P1_MAX_HEIGHTS, "heights"))


def _parse_p2(raw: bytes, count: int, dim: int) -> PointSetArtifact:
    doc = _load_json(raw)
    rows = _array(doc.get("points"), count, "points")
    return PointSetArtifact(points=[_numbers(row, dim, "coordinates") for row in rows])


def _parse_packing(raw: bytes, count: int, with_width: bool) -> CirclePackingArtifact:
    """Circles in the unit square (p3), or in a rectangle whose width the artifact names (p4)."""
    doc = _load_json(raw)
    circles = [_numbers(c, 3, "circle values") for c in _array(doc.get("circles"), count, "circles")]
    width = _numbers([doc.get("rect_width")], 1, "rect_width")[0] if with_width else 1.0
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

def _trivial_packing(n: int, include_width: bool) -> str:
    """A grid of ``n`` tiny circles in the unit square, which is p4's width-1 rectangle."""
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    doc_extra = '"rect_width": 1.0, ' if include_width else ""
    return f"""\
import json, os
circles = []
n, cols, rows = {n}, {cols}, {rows}
for i in range(n):
    cx = (1.0 / cols) * (i % cols + 0.5)
    cy = (1.0 / rows) * (i // cols + 0.5)
    circles.append([cx, cy, 1e-3])
with open(os.environ["{ARTIFACT_PATH_ENV}"], "w") as fh:
    json.dump({{{doc_extra}"circles": circles}}, fh)
"""


GB = 1024**3


def _make_registry() -> dict[str, ProblemSpec]:
    specs: dict[str, ProblemSpec] = {}

    specs["p1"] = ProblemSpec(
        brief=(
            "Write a program that outputs a nonnegative step function on [0,1] "
            "maximizing the ratio of the squared 2-norm of its autoconvolution "
            "to the product of the autoconvolution's 1-norm and sup-norm. "
            f'Write JSON {{"heights": [a0, a1, ...]}} with at most {P1_MAX_HEIGHTS} '
            f"heights to the file named by the {ARTIFACT_PATH_ENV} environment variable."
        ),
        limits=ResourceLimits(360.0, 5 * GB),
        trivial_code=_TRIVIAL_P1,
        scorer=score_p1,
        parser=_parse_p1,
        reference=(0.89627, 0.93768, "maximize"),
        max_artifact_bytes=4 * 1024**2,  # room for P1_MAX_HEIGHTS heights at full precision
    )

    for pid, n, d, reference in (
        ("p2.a", 16, 2, (12.88926, 12.88923, "minimize")),
        ("p2.b", 14, 3, (4.16585, 4.16578, "minimize")),
    ):
        specs[pid] = ProblemSpec(
            brief=(
                f"Write a program that places {n} distinct {d}-dimensional points "
                "minimizing the ratio of their maximum to minimum pairwise "
                f'distance. Write JSON {{"points": [[x, ...], ...]}} to the file '
                f"named by the {ARTIFACT_PATH_ENV} environment variable."
            ),
            limits=ResourceLimits(360.0, 5 * GB),
            trivial_code=_trivial_p2(n, d),
            scorer=lambda art, n=n, d=d: score_p2(art, expected_count=n, expected_dim=d),
            parser=lambda raw, n=n, d=d: _parse_p2(raw, n, d),
            reference=reference,
        )

    for pid, n, reference in (
        ("p3.a", 26, (2.63586, 2.63596, "maximize")),
        ("p3.b", 32, (2.93794, 2.93957, "maximize")),
    ):
        specs[pid] = ProblemSpec(
            brief=(
                f"Write a program that packs exactly {n} non-overlapping circles "
                "inside the unit square maximizing the sum of their radii. "
                f'Write JSON {{"circles": [[x, y, r], ...]}} to the file named by '
                f"the {ARTIFACT_PATH_ENV} environment variable."
            ),
            limits=ResourceLimits(180.0, 1 * GB),
            trivial_code=_trivial_packing(n, include_width=False),
            scorer=lambda art, n=n: score_p3(art, expected_count=n),
            parser=lambda raw, n=n: _parse_packing(raw, n, with_width=False),
            reference=reference,
        )

    specs["p4"] = ProblemSpec(
        brief=(
            "Write a program that chooses a rectangle of perimeter 4 (width w, "
            "height 2-w) and packs exactly 21 non-overlapping circles inside it "
            'maximizing the sum of their radii. Write JSON {"rect_width": w, '
            '"circles": [[x, y, r], ...]} to the file named by the '
            f"{ARTIFACT_PATH_ENV} environment variable."
        ),
        limits=ResourceLimits(360.0, 1 * GB),
        trivial_code=_trivial_packing(21, include_width=True),
        scorer=lambda art: score_p4(art, expected_count=21),
        parser=lambda raw: _parse_packing(raw, 21, with_width=True),
        reference=(2.36583, 2.36583, "maximize"),
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
