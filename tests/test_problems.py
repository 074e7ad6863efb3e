"""Exact scorers: closed-form values, invariances, validity rules."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llmevolve.problems import (
    P1_MAX_HEIGHTS,
    REGISTRY,
    ArtifactError,
    CirclePackingArtifact,
    PointSetArtifact,
    StepFunctionArtifact,
    get_problem,
    parse_artifact,
    reference_best,
    score_p1,
    score_p2,
    score_p3,
    score_p4,
)

# A float whose JSON form is as long as any: 24 characters.
FULL = -1.2345678901234567e-300


class TestScoreP1:
    def test_single_step_is_two_thirds(self):
        report = score_p1(StepFunctionArtifact([1.0]))
        assert report.valid
        assert report.objective == pytest.approx(2 / 3, abs=1e-12)

    def test_refinement_invariance_pair(self):
        # Same function on a finer grid.
        assert score_p1(StepFunctionArtifact([1.0, 1.0])).objective == pytest.approx(
            2 / 3, abs=1e-12
        )

    def test_dilation_invariance_pair(self):
        report = score_p1(StepFunctionArtifact([1.0, 0.0]))
        assert report.objective == pytest.approx(2 / 3, abs=1e-12)
        assert report.metrics["l2_sq"] == pytest.approx(1 / 12, abs=1e-12)
        assert report.metrics["one_norm"] == pytest.approx(1 / 4, abs=1e-12)
        assert report.metrics["sup_norm"] == pytest.approx(1 / 2, abs=1e-12)

    def test_all_zero_heights_invalid(self):
        with pytest.raises(ArtifactError):
            StepFunctionArtifact([0.0, 0.0])

    def test_negative_height_invalid(self):
        with pytest.raises(ArtifactError):
            StepFunctionArtifact([1.0, -0.1])

    def test_amplitude_scaling_invariance_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            heights = rng.uniform(0, 1, size=rng.integers(1, 30)).tolist()
            if sum(heights) == 0:
                continue
            base = score_p1(StepFunctionArtifact(heights)).objective
            scaled = score_p1(
                StepFunctionArtifact([3.7 * h for h in heights])
            ).objective
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_refinement_invariance_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            heights = rng.uniform(0, 1, size=rng.integers(1, 20)).tolist()
            if sum(heights) == 0:
                continue
            base = score_p1(StepFunctionArtifact(heights)).objective
            refined = score_p1(
                StepFunctionArtifact([h for h in heights for _ in range(2)])
            ).objective
            assert refined == pytest.approx(base, rel=1e-12)

    def test_oracle_quadrature_agreement(self):
        """Independent check: dense sampled autoconvolution + trapezoid rule."""
        rng = np.random.default_rng(2)
        for _ in range(5):
            n = int(rng.integers(1, 8))
            heights = rng.uniform(0.1, 1, size=n)
            report = score_p1(StepFunctionArtifact(heights.tolist()))
            samples_per_bin = 2000
            dx = 1.0 / (n * samples_per_bin)
            f = np.repeat(heights, samples_per_bin)
            conv = np.convolve(f, f) * dx
            l2 = np.trapezoid(conv**2, dx=dx)
            l1 = np.trapezoid(conv, dx=dx)
            sup = conv.max()
            oracle = l2 / (l1 * sup)
            assert report.objective == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.filterwarnings("error")  # overflow is a result, not a warning
    def test_overflowing_heights_are_invalid(self):
        report = score_p1(StepFunctionArtifact([1e200, 1e200]))
        assert not report.valid
        assert report.violations == {"non_finite_objective": 1.0}

    def test_heights_over_the_ceiling_are_rejected_before_scoring(self):
        scorer = get_problem("p1").scorer
        over = StepFunctionArtifact([1.0] * (P1_MAX_HEIGHTS + 1))
        start = time.perf_counter()
        report = scorer(over)
        assert time.perf_counter() - start < 0.1  # scoring it would take about 0.7 s
        assert not report.valid
        assert report.violations == {"too_many_heights": 1}
        at_ceiling = scorer(StepFunctionArtifact([1.0] * P1_MAX_HEIGHTS))
        assert at_ceiling.valid
        assert at_ceiling.objective == pytest.approx(2 / 3, rel=1e-9)


class TestScoreP2:
    def test_two_points(self):
        report = score_p2(PointSetArtifact([[0.0, 0.0], [1.0, 0.0]]))
        assert report.objective == pytest.approx(1.0)

    def test_unit_square_corners(self):
        corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        report = score_p2(PointSetArtifact(corners))
        assert report.objective == pytest.approx(2.0, abs=1e-15)

    def test_equilateral_triangle(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
        assert score_p2(PointSetArtifact(pts)).objective == pytest.approx(1.0)

    def test_duplicate_points_invalid(self):
        report = score_p2(PointSetArtifact([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        assert not report.valid
        assert report.fitness == 0.0

    def test_rigid_motion_and_scaling_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pts = rng.uniform(-1, 1, size=(8, 2))
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )
            moved = 2.5 * pts @ rot.T + rng.uniform(-5, 5, size=2)
            a = score_p2(PointSetArtifact(pts.tolist())).objective
            b = score_p2(PointSetArtifact(moved.tolist())).objective
            assert b == pytest.approx(a, rel=1e-9)

    def test_minimization_fitness_strictly_decreasing(self):
        near = score_p2(PointSetArtifact([[0, 0], [1, 0], [2, 0]])).fitness
        far = score_p2(PointSetArtifact([[0, 0], [1, 0], [9, 0]])).fitness
        assert near > far

    @pytest.mark.filterwarnings("error")  # overflow is a result, not a warning
    def test_overflowing_coordinates_are_invalid(self):
        report = score_p2(PointSetArtifact([[1e200, 0.0], [1.0, 0.0], [0.0, 0.0]]))
        assert not report.valid
        assert report.violations == {"non_finite_objective": 1.0}

    @pytest.mark.parametrize("pid,count,dim", [("p2.a", 16, 2), ("p2.b", 14, 3)])
    def test_registry_rejects_wrong_point_count(self, pid, count, dim):
        scorer = get_problem(pid).scorer
        report = scorer(PointSetArtifact([[float(i)] + [0.0] * (dim - 1) for i in range(2)]))
        assert not report.valid
        assert report.fitness == 0.0
        assert report.violations == {"wrong_point_count": count - 2}

    @pytest.mark.parametrize("pid,count,dim", [("p2.a", 16, 2), ("p2.b", 14, 3)])
    def test_registry_rejects_wrong_dimension(self, pid, count, dim):
        scorer = get_problem(pid).scorer
        report = scorer(PointSetArtifact([[float(i)] + [0.0] * dim for i in range(count)]))
        assert not report.valid
        assert report.fitness == 0.0
        assert report.violations == {"wrong_dimension": 1}


class TestScoreP3:
    def test_single_inscribed_circle(self):
        report = score_p3(CirclePackingArtifact([(0.5, 0.5, 0.5)]), expected_count=1)
        assert report.valid
        assert report.objective == pytest.approx(0.5)

    def test_overlap_detected_with_magnitude(self):
        circles = [(0.3, 0.5, 0.25), (0.6, 0.5, 0.25)]
        report = score_p3(CirclePackingArtifact(circles))
        assert not report.valid
        assert report.fitness == 0.0
        assert report.violations["overlap_0_1"] == pytest.approx(0.2)

    def test_two_circle_diagonal_optimum_validates(self):
        r = math.sqrt(2) / (2 * (1 + math.sqrt(2)))
        circles = [(r, r, r), (1 - r, 1 - r, r)]
        report = score_p3(CirclePackingArtifact(circles))
        assert report.valid
        assert report.objective == pytest.approx(2 - math.sqrt(2), abs=1e-12)

    def test_out_of_bounds_detected(self):
        report = score_p3(CirclePackingArtifact([(0.95, 0.5, 0.1)]))
        assert not report.valid
        assert "right_bound_0" in report.violations

    def test_wrong_circle_count_invalid(self):
        report = score_p3(CirclePackingArtifact([(0.5, 0.5, 0.1)]), expected_count=26)
        assert not report.valid
        assert "wrong_circle_count" in report.violations

    def test_negative_radius_invalid(self):
        report = score_p3(CirclePackingArtifact([(0.5, 0.5, -0.1)]))
        assert not report.valid

    def test_shrinking_radii_keeps_validity_and_reduces_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            centers = rng.uniform(0.2, 0.8, size=(5, 2))
            radii = np.full(5, 0.01)
            circles = [(x, y, r) for (x, y), r in zip(centers, radii)]
            base = score_p3(CirclePackingArtifact(circles))
            if not base.valid:
                continue
            delta = 0.001
            shrunk = [(x, y, r - delta) for x, y, r in circles]
            report = score_p3(CirclePackingArtifact(shrunk))
            assert report.valid
            assert report.objective == pytest.approx(base.objective - 5 * delta)


class TestScoreP4:
    def test_reduces_to_p3_at_unit_width(self):
        circles = [(0.5, 0.5, 0.3), (0.1, 0.1, 0.05)]
        p3 = score_p3(CirclePackingArtifact(circles))
        p4 = score_p4(CirclePackingArtifact(circles, rect_width=1.0))
        assert (p3.valid, p3.objective) == (p4.valid, p4.objective)

    def test_single_circle_in_strip(self):
        report = score_p4(CirclePackingArtifact([(0.25, 0.75, 0.25)], rect_width=0.5))
        assert report.valid
        assert report.objective == pytest.approx(0.25)

    def test_width_bounds_respected(self):
        report = score_p4(CirclePackingArtifact([(0.6, 0.5, 0.05)], rect_width=0.5))
        assert not report.valid
        assert "right_bound_0" in report.violations

    def test_random_agreement_with_p3_at_unit_width(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            circles = [
                (float(x), float(y), float(r))
                for x, y, r in zip(
                    rng.uniform(0, 1, k), rng.uniform(0, 1, k), rng.uniform(0, 0.3, k)
                )
            ]
            p3 = score_p3(CirclePackingArtifact(circles))
            p4 = score_p4(CirclePackingArtifact(list(circles), rect_width=1.0))
            assert p3.valid == p4.valid
            assert p3.objective == p4.objective


class TestParseArtifact:
    def test_p3_payload(self):
        raw = json.dumps({"circles": [[0.1, 0.2, 0.05]] * 26}).encode()
        artifact = parse_artifact("p3.a", raw)
        assert len(artifact.circles) == 26

    def test_truncated_payload_invalid(self):
        with pytest.raises(ArtifactError):
            parse_artifact("p3.a", b'{"circles": [[0.1, 0.2')

    def test_negative_height_invalid(self):
        with pytest.raises(ArtifactError):
            parse_artifact("p1", json.dumps({"heights": [1.0, -0.5]}).encode())

    def test_p4_includes_width(self):
        raw = json.dumps({"rect_width": 0.8, "circles": [[0.1, 0.1, 0.05]]}).encode()
        artifact = parse_artifact("p4", raw)
        assert artifact.rect_width == 0.8

    def test_full_double_precision_round_trip(self):
        value = 0.1234567890123456789
        raw = json.dumps({"heights": [value]}).encode()
        assert parse_artifact("p1", raw).heights[0] == float(f"{value!r}")

    @pytest.mark.parametrize("pid", sorted(REGISTRY))
    @pytest.mark.parametrize(
        "number", ["1" + "0" * 400, "1" * 5000], ids=["beyond_float", "beyond_digit_limit"]
    )
    def test_huge_integer_is_an_artifact_error(self, pid, number):
        raw = (
            f'{{"heights": [{number}], "points": [[{number}, 0], [0, 0]], '
            f'"circles": [[{number}, 0, 0]], "rect_width": {number}}}'
        ).encode()
        with pytest.raises(ArtifactError):
            parse_artifact(pid, raw)

    def test_deep_nesting_is_an_artifact_error(self):
        with pytest.raises(ArtifactError):
            parse_artifact("p1", b'{"heights": ' + b"[" * 100_000 + b"]" * 100_000 + b"}")

    @pytest.mark.parametrize(
        "pid, doc, counts",
        [
            ("p1", {"heights": [1.0] * (P1_MAX_HEIGHTS + 1)}, (P1_MAX_HEIGHTS + 1, P1_MAX_HEIGHTS)),
            ("p2.a", {"points": [[float(i), 0.0] for i in range(17)]}, (17, 16)),
            ("p2.b", {"points": [[0.0, 0.0, 0.0, 0.0]] * 14}, (4, 3)),
            ("p3.a", {"circles": [[0.5, 0.5, 0.01]] * 27}, (27, 26)),
            ("p3.b", {"circles": [[0.5, 0.5, 0.01]] * 33}, (33, 32)),
            ("p4", {"rect_width": 1.0, "circles": [[0.5, 0.5, 0.01]] * 22}, (22, 21)),
        ],
        ids=["p1", "p2.a", "p2.b_row", "p3.a", "p3.b", "p4"],
    )
    def test_over_long_list_is_rejected_by_the_parser(self, pid, doc, counts):
        with pytest.raises(ArtifactError, match=r"\b{} \w+, more than the {} allowed".format(*counts)):
            get_problem(pid).parser(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "pid, doc",
        [
            ("p1", {"heights": [FULL] * P1_MAX_HEIGHTS}),
            ("p2.a", {"points": [[FULL] * 2] * 16}),
            ("p2.b", {"points": [[FULL] * 3] * 14}),
            ("p3.a", {"circles": [[FULL] * 3] * 26}),
            ("p3.b", {"circles": [[FULL] * 3] * 32}),
            ("p4", {"rect_width": FULL, "circles": [[FULL] * 3] * 21}),
        ],
    )
    def test_the_byte_limit_admits_the_largest_artifact_at_full_precision(self, pid, doc):
        assert len(json.dumps(doc, indent=4)) <= get_problem(pid).max_artifact_bytes

    def test_short_list_still_gets_the_scorers_count_violation(self):
        problem = get_problem("p3.a")
        report = problem.scorer(problem.parser(json.dumps({"circles": [[0.5, 0.5, 0.01]] * 25}).encode()))
        assert report.violations == {"wrong_circle_count": 1}

    def test_over_long_list_costs_about_its_json_decoding(self):
        # Converting 200,000 circles before the count check took 2.9x the
        # decoding alone; checking first takes about 1.0x (best of 3 each).
        raw = json.dumps({"circles": [[0.5, 0.5, 0.01]] * 200_000}).encode()
        problem = get_problem("p3.a")

        def best_of_3(call):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                try:
                    call()
                except ArtifactError:
                    pass
                times.append(time.perf_counter() - start)
            return min(times)

        decoding = best_of_3(lambda: json.loads(raw))
        assert best_of_3(lambda: problem.scorer(problem.parser(raw))) < 1.5 * decoding + 0.05


# What a valid report promises about its artifact, per registered problem.
_REGISTERED_SHAPE = {
    "p1": lambda a: 1 <= len(a.heights) <= P1_MAX_HEIGHTS,
    "p2.a": lambda a: len(a.points) == 16 and all(len(p) == 2 for p in a.points),
    "p2.b": lambda a: len(a.points) == 14 and all(len(p) == 3 for p in a.points),
    "p3.a": lambda a: len(a.circles) == 26,
    "p3.b": lambda a: len(a.circles) == 32,
    "p4": lambda a: len(a.circles) == 21,
}

# Integers beyond float range, non-finite floats (written as NaN/Infinity,
# which json reads back) and strings where numbers belong.
_numbers = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.integers(min_value=-3, max_value=3),
    st.floats(),
    st.text(max_size=3),
)
_json = st.recursive(
    st.none() | st.booleans() | _numbers,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
_documents = st.fixed_dictionaries(
    {},
    optional={
        "heights": st.lists(_numbers, max_size=6) | _json,
        "points": st.lists(st.lists(_numbers, min_size=2, max_size=3), max_size=16) | _json,
        "circles": st.lists(st.lists(_numbers, min_size=3, max_size=3), max_size=32) | _json,
        "rect_width": _numbers,
    },
)
_raw_artifacts = st.one_of(
    (_documents | _json).map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=32),
)


@pytest.mark.parametrize("pid", sorted(REGISTRY))
@settings(max_examples=150, deadline=None)
@given(raw=_raw_artifacts)
def test_parser_and_scorer_hold_on_arbitrary_json(pid, raw):
    """Only ArtifactError escapes; fitness is finite and nonnegative; valid means well-shaped."""
    problem = get_problem(pid)
    try:
        artifact = problem.parser(raw)
    except ArtifactError:
        return
    report = problem.scorer(artifact)
    assert math.isfinite(report.fitness) and report.fitness >= 0
    if report.valid:
        assert _REGISTERED_SHAPE[pid](artifact)


class TestReferenceBest:
    def test_table_values(self):
        assert reference_best("p1") == (0.89627, 0.93768, "maximize")
        assert reference_best("p2.a") == (12.88926, 12.88923, "minimize")
        assert reference_best("p3.b") == (2.93794, 2.93957, "maximize")

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            reference_best("p99")


class TestProblemRegistry:
    @pytest.mark.parametrize("pid", ["p1", "p2.a", "p2.b", "p3.a", "p3.b", "p4"])
    def test_trivial_program_scores_valid(self, pid, tmp_path):
        """Every trivial program emits an artifact its own scorer accepts."""
        import os
        import subprocess
        import sys

        problem = get_problem(pid)
        artifact_path = tmp_path / "artifact.json"
        env = dict(os.environ, ARTIFACT_PATH=str(artifact_path))
        script = tmp_path / "trivial.py"
        script.write_text(problem.trivial_code)
        subprocess.run([sys.executable, str(script)], env=env, check=True)
        artifact = problem.parser(artifact_path.read_bytes())
        report = problem.scorer(artifact)
        assert report.valid, report.violations
        assert report.fitness > 0
