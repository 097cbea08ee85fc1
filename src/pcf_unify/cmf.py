"""Conservative matrix fields: conserving-property checks, trajectory
matrices, companion conversion, and direction scans.

A d-dimensional field of rank m is one matrix of multivariate rational
functions per axis, with every pair satisfying the path-independence
identity

    M_i(p) * M_j(p + e_i)  =  M_j(p) * M_i(p + e_j).

Displacements compose along a canonical path (axes in order, positive
steps before negative ones); the trajectory matrix of a start point and an
integer direction is the displacement restricted to the line through the
point, a 2x2 matrix over Q(n) that reduces to a recurrence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import gcd

from .matrix import Mat, identity, mat_adjugate_inverse, projective_eq
from .metrics import irrationality_delta
from .multivar import MPoly
from .parsing import parse_mrat
from .transforms import TransformTrace, companion_reduce, to_pcf_canonical


@dataclass(frozen=True)
class CMF:
    variables: tuple[str, ...]
    matrices: dict  # axis name -> Mat of MRat
    rank: int = 2

    @property
    def dim(self) -> int:
        return len(self.variables)

    @staticmethod
    def from_json(data: dict) -> "CMF":
        names = tuple(data["variables"])
        mats = {}
        for axis, rows in data["matrices"].items():
            if axis not in names:
                raise ValueError(f"matrix axis {axis!r} is not a declared variable")
            mats[axis] = Mat(
                [[parse_mrat(e, names) for e in row] for row in rows]
            )
        return CMF(variables=names, matrices=mats, rank=int(data.get("rank", 2)))

    @staticmethod
    def load(path) -> "CMF":
        with open(path) as f:
            return CMF.from_json(json.load(f))


def pi_cmf() -> CMF:
    """The bundled 3D rank-2 field generating the pi formula families."""
    raw = resources.files("pcf_unify.data").joinpath("pi_cmf.json").read_text()
    return CMF.from_json(json.loads(raw))


# -- conserving property ---------------------------------------------------------


def _shift_axis(m: Mat, names, axis: str) -> Mat:
    one = MPoly.var(names, axis) + MPoly.const(names, 1)
    return m.map(lambda e: e.subst({axis: one}))


def check_conserving(cmf: CMF):
    """Pairwise path-independence; returns [] or the list of violating pairs."""
    violations = []
    names = cmf.variables
    for i in range(cmf.dim):
        for j in range(i + 1, cmf.dim):
            ai, aj = names[i], names[j]
            mi, mj = cmf.matrices[ai], cmf.matrices[aj]
            lhs = mi * _shift_axis(mj, names, ai)
            rhs = mj * _shift_axis(mi, names, aj)
            if not projective_eq(lhs, rhs):
                violations.append((ai, aj))
    return violations


# -- displacements and trajectories --------------------------------------------------


class TrajectorySingularity(ArithmeticError):
    pass


def _path_steps(cmf: CMF, direction) -> list[tuple[str, int]]:
    """Canonical step order: axes ascending, positive steps, then negatives."""
    steps = []
    for name, v in zip(cmf.variables, direction):
        for _ in range(max(0, int(v))):
            steps.append((name, +1))
    for name, v in zip(cmf.variables, direction):
        for _ in range(max(0, -int(v))):
            steps.append((name, -1))
    return steps


def _walk(cmf: CMF, point, direction, restrict) -> Mat:
    """Product of the canonical path's steps from ``point`` by ``direction``.

    ``restrict(entry, position)`` turns a field entry at a lattice position
    into a value (a number, or a function of n on a line); a negative step
    is the adjugate of the step it undoes.
    """
    pos = [Fraction(p) for p in point]
    out = None
    for axis, sgn in _path_steps(cmf, direction):
        k = cmf.variables.index(axis)
        if sgn < 0:
            pos[k] -= 1
        try:
            step = cmf.matrices[axis].map(lambda e: restrict(e, pos))
            if sgn < 0:
                step, _det = mat_adjugate_inverse(step)
        except ZeroDivisionError as exc:
            where = ", ".join(map(str, pos))
            raise TrajectorySingularity(f"axis {axis} at ({where}): {exc}") from exc
        if sgn > 0:
            pos[k] += 1
        out = step if out is None else out * step
    if out is None:
        raise ValueError("direction must be nonzero")
    return out


def displacement(cmf: CMF, point, direction) -> Mat:
    """Exact rational matrix carrying the walk from point to point+direction."""
    if len(point) != cmf.dim or len(direction) != cmf.dim:
        raise ValueError("point/direction length mismatch")
    if not any(int(v) for v in direction):
        return identity(cmf.rank)
    names = cmf.variables
    return _walk(cmf, point, direction, lambda e, pos: e.eval(dict(zip(names, pos))))


@dataclass(frozen=True)
class TrajectoryMatrix:
    matrix: Mat  # entries in Q(n)
    origin: tuple
    direction: tuple


def _on_line(line_direction):
    """Restriction of an entry based at a lattice position to the line
    position + (n-1)*line_direction, as a function of n."""
    line = [int(v) for v in line_direction]
    return lambda e, pos: e.substitute_affine(pos, line)


def trajectory_matrix(cmf: CMF, point, direction) -> TrajectoryMatrix:
    """T(n) = M_v(point + (n-1) v): one step of the trajectory at time n."""
    m = _walk(cmf, point, direction, _on_line(direction))
    return TrajectoryMatrix(m, tuple(Fraction(p) for p in point), tuple(map(int, direction)))


def parallel_gauge(cmf: CMF, point, line_direction, offset_direction) -> Mat:
    """U(n) = M_w(point + (n-1) v): the coboundary transform between the
    v-trajectories based at ``point`` and at ``point + w``."""
    return _walk(cmf, point, offset_direction, _on_line(line_direction))


def trajectory_pcf(cmf: CMF, point, direction, max_start_shifts: int = 8):
    """Canonical PCF of a trajectory, applying the start-shift rule on
    singularities (move the base point one direction-step forward)."""
    point = [Fraction(p) for p in point]
    direction = [int(v) for v in direction]
    trace = TransformTrace()
    for k in range(max_start_shifts):
        try:
            traj = trajectory_matrix(cmf, point, direction)
            rec, _gauge, t1 = companion_reduce(traj.matrix)
            pcf, t2 = to_pcf_canonical(rec)
            if k:
                trace.record("start-shift", steps=k)
            trace.extend(t1)
            trace.extend(t2)
            return pcf, trace
        except (TrajectorySingularity, ZeroDivisionError, ValueError):
            point = [p + v for p, v in zip(point, direction)]
    raise TrajectorySingularity(
        f"no regular start point along {direction} after {max_start_shifts} shifts"
    )


def canonical_directions(radius: int, dim: int = 3, primitive_only: bool = True):
    """Nonzero directions up to sign, lexicographic order, |coord| <= radius."""
    out = []

    def rec(prefix):
        if len(prefix) == dim:
            v = tuple(prefix)
            if all(c == 0 for c in v):
                return
            lead = next(c for c in v if c != 0)
            if lead < 0:
                return  # keep the sign-canonical representative
            if primitive_only:
                g = 0
                for c in v:
                    g = gcd(g, abs(c))
                if g != 1:
                    return
            out.append(v)
            return
        for c in range(-radius, radius + 1):
            rec(prefix + [c])

    rec([])
    return out


def scan_trajectories(
    cmf: CMF,
    start,
    radius: int = 10,
    metric_depth: int = 2000,
    directions=None,
    primitive_only: bool = True,
):
    """Canonical PCFs and deltas for all directions in the scan box.

    Returns a list of (direction, PCF, DeltaEstimate) in deterministic
    direction order; directions whose trajectory stays singular are skipped
    with a (direction, None, None) placeholder.
    """
    if directions is None:
        directions = canonical_directions(radius, cmf.dim, primitive_only)
    results = []
    for v in directions:
        try:
            pcf, _trace = trajectory_pcf(cmf, start, v)
        except TrajectorySingularity:
            results.append((tuple(v), None, None))
            continue
        delta = irrationality_delta(pcf, metric_depth)
        results.append((tuple(v), pcf, delta))
    return results
