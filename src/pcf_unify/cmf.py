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

One walk serves displacements (a line of direction 0), trajectories and
parallel gauges.  Each axis matrix is split once, lazily, into integer
polynomial numerators over one integer polynomial denominator; a step
restricts them to the line as integer coefficient vectors in n, and the
walk multiplies integer polynomial matrices over one scalar denominator and
reduces to rational functions once at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from importlib import resources
from math import gcd

from .matrix import Mat, identity, projective_eq
from .metrics import irrationality_delta
from .multivar import MPoly, integer_split, restrict_to_line
from .parsing import parse_mrat
from .poly import Poly, _int_add, _int_mul
from .ratfunc import RationalFunction
from .transforms import companion_reduce, to_pcf_canonical


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

    @cached_property
    def _split(self) -> dict:
        """axis -> (numerators, denominator): integer-coefficient polynomials
        with the axis matrix's entries, row by row, equal to numerator / den."""
        return {
            axis: integer_split([e for row in m.rows for e in row])
            for axis, m in self.matrices.items()
        }

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


def _check_line(cmf: CMF, point, direction) -> tuple[list[Fraction], list[int]]:
    """(point, direction) as rationals and integers; ValueError unless both
    have the field's dimension and the direction is nonzero."""
    point = [Fraction(p) for p in point]
    direction = [int(v) for v in direction]
    for what, vec in (("point", point), ("direction", direction)):
        if len(vec) != cmf.dim:
            raise ValueError(
                f"{what} has {len(vec)} entries, the field has {cmf.dim} variables"
            )
    if not any(direction):
        raise ValueError("direction must be nonzero")
    return point, direction


def _singular(axis: str, pos, why: str) -> TrajectorySingularity:
    where = ", ".join(map(str, pos))
    return TrajectorySingularity(f"axis {axis} at ({where}): {why}")


def _int_mat_mul(a, b):
    """Product of matrices of integer coefficient vectors."""
    return [[reduce(_int_add, map(_int_mul, row, col), []) for col in zip(*b)] for row in a]


def _walk(cmf: CMF, point, direction, line) -> Mat:
    """Product of the canonical path's steps from ``point`` by ``direction``,
    each step restricted to the line ``position + (n-1)*line`` through its
    lattice position: a matrix over Q(n), constant when ``line`` is 0.

    A step is an integer polynomial matrix over one scalar denominator (the
    axis split restricted to the line); a negative step is the adjugate of
    the step it undoes, over the same denominator.  The walk multiplies the
    integer matrices and the denominators, and reduces once at the end.
    """
    pos, direction = _check_line(cmf, point, direction)
    prod, den = None, [1]
    for axis, sgn in _path_steps(cmf, direction):
        k = cmf.variables.index(axis)
        if sgn < 0:
            pos[k] -= 1
        nums, d = cmf._split[axis]
        *flat, d = restrict_to_line([*nums, d], pos, line)
        if not d:
            if any(line):
                raise _singular(
                    axis, pos, "denominator vanishes identically along the substitution line"
                )
            raise _singular(axis, pos, f"pole at {dict(zip(cmf.variables, pos))}")
        size = cmf.matrices[axis].ncols
        step = [flat[i : i + size] for i in range(0, len(flat), size)]
        if sgn < 0:
            (a, b), (c, e) = step
            if not _int_add(_int_mul(a, e), _int_mul(b, c), -1):
                raise _singular(axis, pos, "matrix is identically singular")
            step = [[e, [-x for x in b]], [[-x for x in c], a]]
        else:
            pos[k] += 1
        prod = step if prod is None else _int_mat_mul(prod, step)
        den = _int_mul(den, d)
    den = Poly(den)
    return Mat([[RationalFunction(Poly(e), den) for e in row] for row in prod])


def displacement(cmf: CMF, point, direction) -> Mat:
    """Exact rational matrix carrying the walk from point to point+direction."""
    if len(point) != cmf.dim or len(direction) != cmf.dim:
        raise ValueError("point/direction length mismatch")
    if not any(int(v) for v in direction):
        return identity(cmf.rank)
    return _walk(cmf, point, direction, [0] * cmf.dim).map(lambda e: e.num[0])


@dataclass(frozen=True)
class TrajectoryMatrix:
    matrix: Mat  # entries in Q(n)
    origin: tuple
    direction: tuple


def trajectory_matrix(cmf: CMF, point, direction) -> TrajectoryMatrix:
    """T(n) = M_v(point + (n-1) v): one step of the trajectory at time n."""
    m = _walk(cmf, point, direction, direction)
    return TrajectoryMatrix(m, tuple(Fraction(p) for p in point), tuple(map(int, direction)))


def parallel_gauge(cmf: CMF, point, line_direction, offset_direction) -> Mat:
    """U(n) = M_w(point + (n-1) v): the coboundary transform between the
    v-trajectories based at ``point`` and at ``point + w``."""
    return _walk(cmf, point, offset_direction, line_direction)


def trajectory_pcf(cmf: CMF, point, direction):
    """Canonical PCF of the trajectory from ``point`` along ``direction``,
    with the trace of the companion reduction and canonicalisation.

    A singular walk raises the walk's TrajectorySingularity (which axis, at
    which lattice point, and why).  A trajectory matrix that carries no
    second-order recurrence raises TrajectorySingularity with the reason.
    Both depend on the line only: moving the start point along the
    direction maps T(n) to T(n+1), so no start point on the line mends them.
    """
    point, direction = _check_line(cmf, point, direction)
    try:
        rec, _gauge, t1 = companion_reduce(trajectory_matrix(cmf, point, direction).matrix)
        pcf, t2 = to_pcf_canonical(rec)
    except ValueError as exc:  # the inputs are checked, so the line is at fault
        raise TrajectorySingularity(
            f"trajectory along {direction} is degenerate: {exc}"
        ) from exc
    t1.extend(t2)
    return pcf, t1


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
