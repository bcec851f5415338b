"""Finitely supported measures on R^d and joint allocation laws on (R^d)^p.

A measure is stored as a canonical tuple of ``(coords, weight)`` atoms:
weights are strictly positive and sum to one, atoms are pairwise distinct
(Euclidean distance > MERGE_TOL) and listed in lexicographic order, so two
equal laws compare equal as Python objects and serialize identically.

A joint law is the law of an allocation ``(Y_1, ..., Y_p)``: each atom is a
p-tuple of points in R^d.  ``marginal`` and ``sum_pushforward`` are the two
pushforwards the rest of the package consumes.

Both classes are immutable, so a law computes each pushforward and each
array view (``support_array``, ``weights_array``, ``component_array``) once,
on first use, and keeps it beside its fields.  The arrays come back
read-only.  What a law keeps takes no part in equality, hashing or
pickling: a law with a warm cache is the same value as a cold one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InputError,
    NonPositiveWeight,
    WeightSumOutOfTolerance,
)

# Coordinates are plain tuples of floats; dedicated point classes would buy
# nothing at desk scale.
Coords = tuple[float, ...]

#: Atoms closer than this (Euclidean) are considered the same support point.
MERGE_TOL = 1e-12
#: A difference of at most this fraction of its scale is rounding.  Each use
#: names its scale: ``1 + |v|``, the radius, a Lipschitz bound, one lattice step.
ROUNDING = 1e-12
#: Weight sums further than this from 1 are an error, not silently fixed.
WEIGHT_SUM_TOL = 1e-9
#: Default tolerance of verdicts, residuals and approximate equality.
DEFAULT_TOL = 1e-8
#: Relative slack of the ball rule: a point is in the ball when
#: ``|y - c| <= R (1 + BALL_TOL) + MERGE_TOL`` (see ``BallConfig.contains``).
BALL_TOL = 1e-9


def _as_coords(raw: Sequence[float], dim: int | None = None) -> Coords:
    try:
        coords = tuple(float(c) for c in raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"point {raw!r} is not a sequence of numbers") from exc
    if len(coords) < 1:
        raise DimensionMismatch("point must have dimension >= 1")
    if dim is not None and len(coords) != dim:
        raise DimensionMismatch(f"point has dimension {len(coords)}, expected {dim}")
    if not all(math.isfinite(c) for c in coords):
        raise InputError(f"non-finite coordinate in point {coords!r}")
    return coords


def _checked_number(value, ok: Callable[[float], bool], rule: str) -> float:
    """``value`` as a float if ``ok`` holds for it, else an ``InputError``
    stating ``rule`` and naming it; a non-number is tried as NaN."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not ok(number):
        raise InputError(f"{rule}, got {value!r}")
    return number


def _as_weight(raw, at) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"atom weight {raw!r} at {at!r} is not a number") from exc


@dataclass(frozen=True)
class BallConfig:
    """Closed ball that must contain every individual share.

    ``center=None`` means the origin of whatever dimension is being checked.
    """

    radius: float
    center: Coords | None = None

    def __post_init__(self) -> None:
        radius = _checked_number(
            self.radius,
            lambda r: math.isfinite(r) and r > 0,
            "ball radius must be positive and finite",
        )
        object.__setattr__(self, "radius", radius)
        if self.center is not None:
            object.__setattr__(self, "center", _as_coords(self.center))

    def center_for(self, dim: int) -> np.ndarray:
        if self.center is None:
            return np.zeros(dim)
        if len(self.center) != dim:
            raise DimensionMismatch(
                f"ball center has dimension {len(self.center)}, expected {dim}"
            )
        return np.asarray(self.center)

    def contains(self, coords: Sequence[float]) -> bool:
        """The package's one ball rule: ``|y - c| <= R (1 + BALL_TOL) + MERGE_TOL``.

        A NaN coordinate is outside.  With the default centre no array is
        built: the 1-D sharing map checks every share with this.
        """
        center = (0.0,) * len(coords) if self.center is None else self.center_for(len(coords))
        return math.dist(coords, center) <= self._limit()

    def contains_rows(self, points: np.ndarray) -> np.ndarray:
        """``contains`` on each row of the ``(n, dim)`` array ``points``.

        ``math.dist`` and the NumPy norm can differ by an ulp when
        ``dim >= 2``, so a row whose NumPy distance lies within rounding of
        the limit, or is not finite, takes ``contains`` itself.
        """
        limit = self._limit()
        with np.errstate(over="ignore", invalid="ignore"):
            dist = np.hypot.reduce(np.abs(points - self.center_for(points.shape[1])), axis=1)
            inside = dist <= limit
            unsure = ~(np.abs(dist - limit) > ROUNDING * limit) | np.isinf(dist)
        for k in np.flatnonzero(unsure).tolist():
            inside[k] = self.contains(points[k].tolist())
        return inside

    def _limit(self) -> float:
        return self.radius * (1.0 + BALL_TOL) + MERGE_TOL


class _Memo:
    """Values an immutable law computes once and keeps beside its fields.

    They live in the instance ``__dict__`` under ``_cache``, which is not a
    dataclass field, so equality, hashing and ``repr`` do not see them, and
    pickling leaves them out.
    """

    def _memo(self, key, compute):
        cache = self.__dict__.setdefault("_cache", {})
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_cache"}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _array(rows: list, shape: tuple[int, ...]) -> np.ndarray:
    return _read_only(np.array(rows, dtype=float).reshape(shape))


def _merge_targets(
    points: list[Coords], merge_tol: float = MERGE_TOL
) -> tuple[list[int], list[int]]:
    """Group support points closer than ``merge_tol``.

    Returns the indices of ``points`` in lexicographic order, and for each
    point the index of the group it joins.  Groups are numbered in that
    order and each is represented by its first point; candidates for a
    merge always sit inside the window where the first coordinate differs
    by <= merge_tol, so the scan is near-linear.
    """
    order = sorted(range(len(points)), key=points.__getitem__)
    heads: list[Coords] = []
    target = [0] * len(points)
    for k in order:
        coords = points[k]
        hit = len(heads)
        for q in range(len(heads) - 1, -1, -1):
            ref = heads[q]
            if coords[0] - ref[0] > merge_tol:
                break
            if math.dist(coords, ref) <= merge_tol:
                hit = q
                break
        if hit == len(heads):
            heads.append(coords)
        target[k] = hit
    return order, target


def _merge_weighted(
    items: list[tuple[Coords, float]], merge_tol: float = MERGE_TOL
) -> list[tuple[Coords, float]]:
    """Merge support points closer than ``merge_tol``, summing weights in
    lexicographic order; each merged point is the first of its group."""
    order, target = _merge_targets([c for c, _ in items], merge_tol)
    merged: list[tuple[Coords, float]] = []
    for k in order:
        coords, w = items[k]
        t = target[k]
        if t == len(merged):
            merged.append((coords, w))
        else:
            merged[t] = (merged[t][0], merged[t][1] + w)
    return merged


@dataclass(frozen=True)
class DiscreteMeasure(_Memo):
    """Probability measure with finite support in R^dim, in canonical form."""

    dim: int
    atoms: tuple[tuple[Coords, float], ...]

    @property
    def size(self) -> int:
        return len(self.atoms)

    def support_array(self) -> np.ndarray:
        """Shape (size, dim) array of the support points, read-only."""
        return self._memo(
            "support", lambda: _array([a[0] for a in self.atoms], (self.size, self.dim))
        )

    def weights_array(self) -> np.ndarray:
        """The atom weights, read-only."""
        return self._memo("weights", lambda: _array([a[1] for a in self.atoms], (self.size,)))

    def mean(self) -> np.ndarray:
        return self.weights_array() @ self.support_array()

    def total_mass(self) -> float:
        return float(sum(a[1] for a in self.atoms))


def _canonical(items: list[tuple[Coords, float]], what: str) -> list[tuple[Coords, float]]:
    """The canonical atoms of a measure or (flattened) joint law.

    Weights must be finite and positive.  Duplicate support points
    (distance <= MERGE_TOL) are merged with weights summed.  The weight sum
    may be renormalized only when it is within WEIGHT_SUM_TOL of 1; larger
    drift raises WeightSumOutOfTolerance.
    """
    if not items:
        raise InputError(f"{what} needs at least one atom")
    for coords, w in items:
        if not math.isfinite(w) or w <= 0.0:
            raise NonPositiveWeight(
                f"atom weight must be positive and finite, got {w!r} at {coords!r}"
            )
    merged = _merge_weighted(items)
    total = math.fsum(w for _, w in merged)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumOutOfTolerance(
            f"atom weights sum to {total!r}, off from 1 by more than {WEIGHT_SUM_TOL}"
        )
    if total != 1.0:
        merged = [(c, w / total) for c, w in merged]
    return merged


def validate_measure(
    atoms: Iterable[tuple[Sequence[float], float]], dim: int | None = None
) -> DiscreteMeasure:
    """Canonicalize raw ``(coords, weight)`` pairs into a DiscreteMeasure."""
    items: list[tuple[Coords, float]] = []
    for coords_raw, w_raw in atoms:
        coords = _as_coords(coords_raw, dim)
        dim = len(coords)
        items.append((coords, _as_weight(w_raw, coords)))
    merged = _canonical(items, "measure")
    assert dim is not None
    return DiscreteMeasure(dim=dim, atoms=tuple(merged))


def dirac(coords: Sequence[float]) -> DiscreteMeasure:
    """Point mass at ``coords``."""
    c = _as_coords(coords)
    return DiscreteMeasure(dim=len(c), atoms=((c, 1.0),))


@dataclass(frozen=True)
class JointLaw(_Memo):
    """Law of a p-agent allocation: atoms are p-tuples of points in R^dim."""

    agents: int
    dim: int
    atoms: tuple[tuple[tuple[Coords, ...], float], ...]

    @property
    def size(self) -> int:
        return len(self.atoms)

    def weights_array(self) -> np.ndarray:
        """The atom weights, read-only."""
        return self._memo("weights", lambda: _array([a[1] for a in self.atoms], (self.size,)))

    def component_array(self) -> np.ndarray:
        """Shape (size, agents, dim) array of the support tuples, read-only."""
        return self._memo(
            "components",
            lambda: _array([a[0] for a in self.atoms], (self.size, self.agents, self.dim)),
        )


def _tuple_key(tup: tuple[Coords, ...]) -> Coords:
    return tuple(c for pt in tup for c in pt)


def validate_joint_law(
    atoms: Iterable[tuple[Sequence[Sequence[float]], float]],
    agents: int | None = None,
    dim: int | None = None,
) -> JointLaw:
    """Canonicalize raw joint-law atoms: the measure rules on the flattened tuples."""
    flat_items: list[tuple[Coords, float]] = []
    for tup_raw, w_raw in atoms:
        tup = []
        for pt in tup_raw:
            tup.append(_as_coords(pt, dim))
            dim = len(tup[-1])
        if not tup:
            raise DimensionMismatch("allocation tuple must have at least one agent")
        if agents is None:
            agents = len(tup)
        if len(tup) != agents:
            raise DimensionMismatch(f"tuple has {len(tup)} agents, expected {agents}")
        flat_items.append((_tuple_key(tup), _as_weight(w_raw, tup)))
    merged = _canonical(flat_items, "joint law")
    assert agents is not None and dim is not None
    split = tuple(
        (tuple(flat[i * dim : (i + 1) * dim] for i in range(agents)), w) for flat, w in merged
    )
    return JointLaw(agents=agents, dim=dim, atoms=split)


def require_shares_in_ball(law: JointLaw, ball: BallConfig) -> None:
    """Raise InputError naming the first share of ``law`` outside ``ball``;
    the law keeps the verdict of each ball."""
    inside = law._memo(
        ("in ball", ball),
        lambda: _read_only(ball.contains_rows(law.component_array().reshape(-1, law.dim))),
    )
    if not inside.all():
        a, i = divmod(int(np.argmin(inside)), law.agents)
        pt = law.atoms[a][0][i]
        raise InputError(f"share {pt!r} lies outside the ball of radius {ball.radius}")


def marginal(law: JointLaw, agent: int) -> DiscreteMeasure:
    """Law of agent ``agent`` (zero-based) under the allocation, computed once."""
    if not 0 <= agent < law.agents:
        raise IndexOutOfRange(f"agent index {agent} outside 0..{law.agents - 1}")
    return law._memo(
        ("marginal", agent),
        lambda: validate_measure([(tup[agent], w) for tup, w in law.atoms], dim=law.dim),
    )


def _tuple_sum(tup: tuple[Coords, ...], dim: int) -> Coords:
    return tuple(math.fsum(pt[k] for pt in tup) for k in range(dim))


def _sums(law: JointLaw) -> tuple[Coords, ...]:
    return law._memo("sums", lambda: tuple(_tuple_sum(tup, law.dim) for tup, _ in law.atoms))


def sum_pushforward(law: JointLaw) -> DiscreteMeasure:
    """Law of the coordinate sum Y_1 + ... + Y_p, computed once; colliding sums merge."""
    return law._memo(
        "sum",
        lambda: validate_measure(
            [(s, w) for s, (_, w) in zip(_sums(law), law.atoms)], dim=law.dim
        ),
    )


def _atom_targets(law: JointLaw, agent: Optional[int] = None) -> tuple[int, ...]:
    """For each atom of ``law``, the index of the atom it merges into in
    ``marginal(law, agent)``, or in ``sum_pushforward(law)`` when ``agent``
    is None; computed once."""

    def targets() -> tuple[int, ...]:
        points = _sums(law) if agent is None else [tup[agent] for tup, _ in law.atoms]
        return tuple(_merge_targets(list(points))[1])

    return law._memo(("targets", agent), targets)


def measures_equal(a: DiscreteMeasure, b: DiscreteMeasure, tol: float = DEFAULT_TOL) -> bool:
    """Approximate equality of two canonical measures.

    Compares positionally after canonical sorting: same atom count, support
    points within ``tol`` (Euclidean) and weights within ``tol``.
    """
    if a.dim != b.dim or a.size != b.size:
        return False
    for (ca, wa), (cb, wb) in zip(a.atoms, b.atoms):
        if math.dist(ca, cb) > tol or abs(wa - wb) > tol:
            return False
    return True


def joint_laws_equal(a: JointLaw, b: JointLaw, tol: float = DEFAULT_TOL) -> bool:
    """``measures_equal`` on the flattened tuples of two canonical joint laws."""
    flat = [
        DiscreteMeasure(law.agents * law.dim, tuple((_tuple_key(t), w) for t, w in law.atoms))
        for law in (a, b)
    ]
    return a.agents == b.agents and measures_equal(*flat, tol=tol)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------
# measure:   {"dim": d, "atoms": [{"x": [r, ...], "w": r}, ...]}
# joint law: {"agents": p, "dim": d, "atoms": [{"x": [[r, ...], ...], "w": r}, ...]}
# Parsers reject NaN/Infinity in any numeric position.


def _reject_constant(name: str) -> float:
    raise InputError(f"non-finite JSON number {name!r} is not allowed")


def parse_strict_json(text: str):
    """json.loads that refuses NaN/Infinity literals."""
    return json.loads(text, parse_constant=_reject_constant)


def measure_to_obj(m: DiscreteMeasure) -> dict:
    return {
        "dim": m.dim,
        "atoms": [{"x": list(c), "w": w} for c, w in m.atoms],
    }


def measure_from_obj(obj: dict) -> DiscreteMeasure:
    try:
        dim = int(obj["dim"])
        atoms = [(a["x"], a["w"]) for a in obj["atoms"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed measure object: {exc}") from exc
    return validate_measure(atoms, dim=dim)


def joint_law_to_obj(law: JointLaw) -> dict:
    return {
        "agents": law.agents,
        "dim": law.dim,
        "atoms": [{"x": [list(pt) for pt in tup], "w": w} for tup, w in law.atoms],
    }


def joint_law_from_obj(obj: dict) -> JointLaw:
    try:
        agents = int(obj["agents"])
        dim = int(obj["dim"])
        atoms = [(a["x"], a["w"]) for a in obj["atoms"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed joint-law object: {exc}") from exc
    return validate_joint_law(atoms, agents=agents, dim=dim)


def measure_from_json(text: str) -> DiscreteMeasure:
    return measure_from_obj(parse_strict_json(text))


def measure_to_json(m: DiscreteMeasure) -> str:
    return json.dumps(measure_to_obj(m))


def joint_law_from_json(text: str) -> JointLaw:
    return joint_law_from_obj(parse_strict_json(text))


def joint_law_to_json(law: JointLaw) -> str:
    return json.dumps(joint_law_to_obj(law))
