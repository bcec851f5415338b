"""The array builders give the loop builders' grid and program, bit for bit.

``loop_builders`` keeps the per-split loops that ``build_split_grid`` and
``build_improvement_problem`` once were.  Every field of ``SplitGrid`` and
``ImprovementProblem`` must come out the same: the candidate splits float
for float, the baseline splits, and the program's arrays byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_builders
from riskshare.improve import build_improvement_problem, build_split_grid
from riskshare.measures import BALL_TOL, MERGE_TOL, BallConfig, validate_joint_law


def _exact(value):
    """Nested tuples with each float as its hex string, so -0.0 and ulps count."""
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    return (type(value).__name__, value.hex() if isinstance(value, float) else value)


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_builders_agree(gamma0, h, ball, eps):
    grid = build_split_grid(gamma0, h, ball)
    ref_grid = loop_builders.build_split_grid(gamma0, h, ball)
    assert _exact(grid.candidates) == _exact(ref_grid.candidates)
    assert _exact(grid.baseline_splits) == _exact(ref_grid.baseline_splits)
    assert grid.aggregate == ref_grid.aggregate
    assert grid.h == ref_grid.h and grid.ball == ref_grid.ball

    problem = build_improvement_problem(gamma0, grid, eps)
    ref = loop_builders.build_improvement_problem(gamma0, ref_grid, eps)
    for field in ("A", "b", "c"):
        assert _same_array(getattr(problem.program, field), getattr(ref.program, field)), field
    assert _same_array(problem.baseline, ref.baseline)
    assert _exact(problem.gamma_cols) == _exact(ref.gamma_cols)
    assert _exact(problem.marginal_rows) == _exact(ref.marginal_rows)
    return grid


#: Offsets of a share from the integer lattice: on it, rounding-close to it
#: (inside the identity keys' resolution), and 1e-7 off it (outside).
OFFSETS = (0.0, 5e-12, -5e-12, 1e-7, -1e-7)


@st.composite
def cases(draw):
    p = draw(st.sampled_from((2, 3)))
    d = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(1, 3))
    coord = st.tuples(st.integers(-2, 2), st.sampled_from(OFFSETS)).map(lambda t: t[0] + t[1])
    atoms = [
        (
            tuple(tuple(draw(coord) for _ in range(d)) for _ in range(p)),
            draw(st.floats(0.2, 1.0)),
        )
        for _ in range(n)
    ]
    total = sum(w for _, w in atoms)
    gamma0 = validate_joint_law([(tup, w / total) for tup, w in atoms])
    center = draw(
        st.none() | st.tuples(*[st.sampled_from((-0.5, -0.25, 0.3)) for _ in range(d)])
    )
    c = (0.0,) * d if center is None else center
    reach = max(math.dist(pt, c) for tup, _ in gamma0.atoms for pt in tup)
    radius = reach + draw(st.sampled_from((0.0, 0.3, 1.0)))
    h = draw(st.sampled_from((1.0, 0.75, 2.0) if d == 2 and p == 3 else (0.5, 0.75, 1.0, 2.0)))
    eps = [draw(st.sampled_from((1.0, 0.5, 1.7))) for _ in range(p)]
    return gamma0, h, BallConfig(radius=max(radius, 0.1), center=center), eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
@example(
    # every lattice split falls outside this ball: the grid is the baseline's
    (
        validate_joint_law([(((0.3,), (0.3,)), 0.5), (((0.35,), (0.3,)), 0.5)]),
        1.0,
        BallConfig(radius=0.1, center=(0.3,)),
        [1.0, 1.0],
    )
)
def test_builders_match_the_loops(case):
    assert_builders_agree(*case)


def test_ball_without_lattice_split():
    gamma0 = validate_joint_law([(((0.3, 0.0), (0.3, 0.0)), 0.5), (((0.35, 0.0), (0.3, 0.0)), 0.5)])
    grid = assert_builders_agree(gamma0, 1.0, BallConfig(radius=0.1, center=(0.3, 0.0)), [1.0, 1.0])
    assert grid.total_candidates == gamma0.size


def _sphere_rows(k: float) -> np.ndarray:
    """k * (3, 4), its turns by quarter circles, and its one-ulp neighbours."""
    x, y = 3.0 * k, 4.0 * k
    up, down = np.nextafter([x, y], np.inf), np.nextafter([x, y], -np.inf)
    return np.array(
        [[x, y], [-y, x], [up[0], y], [down[0], y], [x, up[1]], [x, down[1]], [0.0, 5.0 * k]]
    )


@pytest.mark.parametrize("center", [None, (1.0, -2.0)])
def test_ball_rows_on_the_sphere(center):
    # k * (3, 4) lies on the sphere of radius 5k.  With 5k the ball rule's
    # limit R (1 + BALL_TOL) + MERGE_TOL, math.dist and the NumPy norm round
    # apart on some of these rows (R = 2 is one); the array rule must follow
    # ``contains`` on every one, and on the plain sphere R = 5k too
    for radius in [m / 8.0 for m in range(1, 801)]:
        ball = BallConfig(radius=radius, center=center)
        shift = np.zeros(2) if center is None else np.array(center)
        limit = radius * (1.0 + BALL_TOL) + MERGE_TOL
        rows = np.concatenate([_sphere_rows(limit / 5.0), _sphere_rows(radius / 5.0)]) + shift
        expected = [ball.contains(r) for r in rows.tolist()]
        assert ball.contains_rows(rows).tolist() == expected, radius


def test_ball_rows_nan_and_overflow():
    ball = BallConfig(radius=2e300)
    rows = np.array([[np.nan, 0.0], [1e300, 1e300], [2e300, 1e300], [1.7e308, -1.7e308]])
    assert ball.contains_rows(rows).tolist() == [ball.contains(r) for r in rows.tolist()]
