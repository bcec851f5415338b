"""The benchmark's catalogue of laws, rebuilt for the tests.

``perfbench/workloads.py`` defines the same laws; the tests keep their own
copy so that they do not import the benchmark.
"""

import numpy as np

from riskshare.measures import validate_joint_law

#: The grid-ladder workload: (name, atoms, ball radius, steps); the steps go
#: coarse to fine and are nested.
LADDER = (
    (
        "improvable-1d",
        [(((2.0,), (-1.0,)), 0.25), (((-1.0,), (1.0,)), 0.35), (((0.0,), (-2.0,)), 0.4)],
        2.5,
        (0.25, 0.125, 0.0625),
    ),
    (
        "efficient-1d",
        [(((-1.0,), (-2.0,)), 0.3), (((0.0,), (0.0,)), 0.3), (((1.0,), (2.0,)), 0.4)],
        2.5,
        (0.25, 0.125, 0.0625),
    ),
    (
        "improvable-2d",
        [(((1.0, 0.0), (-1.0, 1.0)), 0.5), (((0.0, 1.0), (1.0, -1.0)), 0.5)],
        2.0,
        (1.0, 0.5),
    ),
    (
        "efficient-2d",
        [(((0.0, 0.0), (0.0, 0.0)), 0.5), (((1.0, 1.0), (1.0, 0.0)), 0.5)],
        2.0,
        (1.0, 0.5),
    ),
)

#: The sandwich-1d workload's ball radius and grid step.
SANDWICH_RADIUS = 6.0
SANDWICH_STEP = 0.5

#: The three designed sandwich laws, on which the pure quadratic potential
#: is already optimal.
DESIGNED = (
    [(((1.0,), (-1.0,)), 0.5), (((0.0,), (2.0,)), 0.5)],
    [(((0.0,), (0.0,)), 0.5), (((1.0,), (1.0,)), 0.5)],
    [(((0.0,), (0.0,)), 0.3), (((0.5,), (0.5,)), 0.3), (((1.0,), (1.0,)), 0.4)],
)


def sandwich_laws() -> list:
    """The sandwich-1d laws: the 17 random two-agent laws of acceptance
    criterion 4 (``RandomState(404)``), then the 3 designed ones."""
    rng = np.random.RandomState(404)
    laws = []
    for _ in range(17):
        n = rng.randint(2, 6)
        pts = rng.randint(-2, 3, size=(n, 2, 1)).astype(float)
        w = rng.rand(n) + 0.2
        w /= w.sum()
        laws.append(validate_joint_law([(tuple(map(tuple, pts[i])), w[i]) for i in range(n)]))
    return laws + [validate_joint_law(atoms) for atoms in DESIGNED]
