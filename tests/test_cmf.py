import json
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcf_unify import cmf as cmf_module
from pcf_unify.cli import main
from pcf_unify.cmf import (
    parallel_gauge,
    CMF,
    TrajectorySingularity,
    canonical_directions,
    check_conserving,
    displacement,
    pi_cmf,
    scan_trajectories,
    trajectory_matrix,
    trajectory_pcf,
)
from pcf_unify.coboundary import verify_coboundary
from pcf_unify.matrix import Mat, identity, mat_adjugate_inverse, projective_eq
from pcf_unify.parsing import parse_poly, parse_ratfunc
from pcf_unify.poly import Poly
from pcf_unify.ratfunc import RationalFunction
from pcf_unify.transforms import companion_reduce
from pcf_unify.recurrence import PCF
from pcf_unify.transforms import fold_pcf


@pytest.fixture(scope="module")
def field():
    return pi_cmf()


def pcf(a, b):
    return PCF(parse_poly(a), parse_poly(b))


def test_pi_cmf_is_conserving(field):
    assert check_conserving(field) == []


def _pi_json() -> dict:
    return json.loads(
        resources.files("pcf_unify.data").joinpath("pi_cmf.json").read_text()
    )


def test_perturbed_cmf_reports_violation(field):
    raw = _pi_json()
    raw["matrices"]["x"][0][1] = "y + 1"
    bad = CMF.from_json(raw)
    violations = check_conserving(bad)
    assert ("x", "y") in violations


def test_constant_diagonal_matrices_conserve():
    data = {
        "variables": ["x", "y"],
        "rank": 2,
        "matrices": {
            "x": [["2", "0"], ["0", "3"]],
            "y": [["5", "0"], ["0", "7"]],
        },
    }
    assert check_conserving(CMF.from_json(data)) == []


def test_displacement_zero_and_unit(field):
    p = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert displacement(field, p, (0, 0, 0)) == identity(2)
    ux = displacement(field, p, (1, 0, 0))
    direct = field.matrices["x"].map(
        lambda e: e.eval({"x": p[0], "y": p[1], "z": p[2]})
    )
    assert ux == direct


@pytest.mark.parametrize(
    "v", [(-1, 0, 0), (0, -2, 1), (1, -1, -1), (-2, 2, -1), (2, 1, -2), (-1, -1, -1)]
)
def test_displacement_is_trajectory_at_one(field, v):
    # negative entries take the adjugate steps of both restrictions
    p = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11))
    at_one = trajectory_matrix(field, p, v).matrix.map(lambda e: e(1))
    assert displacement(field, p, v) == at_one


def test_displacement_path_independence(field):
    p = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    rng = random.Random(11)
    checked = 0
    while checked < 20:
        v = tuple(rng.randint(-2, 2) for _ in range(3))
        w = tuple(rng.randint(-2, 2) for _ in range(3))
        try:
            lhs = displacement(field, p, tuple(a + b for a, b in zip(v, w)))
            rhs = displacement(field, p, v) * displacement(
                field, tuple(a + b for a, b in zip(p, v)), w
            )
        except ArithmeticError:
            continue
        assert projective_eq(lhs, rhs)
        checked += 1


def test_trajectory_matrix_euler_example(field):
    # start (1/2, -1/2, 3/2), direction e3
    t = trajectory_matrix(
        field, (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)), (0, 0, 1)
    )
    expect = [
        ["((2n+1)^2) / (4n(n+1))", "(-2n - 1) / (8n(n+1))"],
        ["(2n+1) / (2n(n+1))", "(-(2n+1)^2) / (4n(n+1))"],
    ]
    for i in range(2):
        for j in range(2):
            assert t.matrix[i, j] == parse_ratfunc(expect[i][j])


def test_trajectory_entry_matches_spec_value(field):
    t = trajectory_matrix(
        field, (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)), (0, 0, 1)
    )
    assert t.matrix[1, 0] == parse_ratfunc("(2n+1) / (2n(n+1))")


def test_euler_pipeline_end_to_end(field):
    p, trace = trajectory_pcf(
        field, (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)), (0, 0, 1)
    )
    assert p == pcf("1", "n(n+1)")
    assert any(s["kind"] == "gauge" for s in trace.steps)


def test_scan_directions_match_published_forms(field):
    start = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    p100, _ = trajectory_pcf(field, start, (1, 0, 0))
    assert p100 == pcf("3n+1", "n(1-2n)")
    p111, _ = trajectory_pcf(field, start, (1, 1, 1))
    assert p111 == pcf("2", "(2n-1)^2")


def test_to_companion_identity_gauge_branch():
    # already-companion input goes through the nonzero lower-left branch
    t = trajectory_matrix(
        pi_cmf(), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), (1, 0, 0)
    )
    rec, gauge, _ = companion_reduce(t.matrix)
    assert rec.order == 2


def test_fold_is_multiple_direction(field):
    # trajectory of 2v equals the 2-fold of the trajectory of v, projectively
    start = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    single, _ = trajectory_pcf(field, start, (1, 0, 0))
    double, _ = trajectory_pcf(field, start, (2, 0, 0))
    folded, _ = fold_pcf(single, 2)
    assert double == folded


def test_parallel_trajectory_coboundary(field):
    # T_{x,v} and T_{x+w,v} are coboundary with U(n) = T_{x,w}(n); the base
    # point (1/2, 1/3, 1/4) keeps every lattice path off the singular planes
    rng = random.Random(23)
    start = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    done = 0
    while done < 8:
        v = tuple(rng.randint(-2, 2) for _ in range(3))
        w = tuple(rng.randint(-1, 1) for _ in range(3))
        if all(c == 0 for c in v) or all(c == 0 for c in w):
            continue
        t_xv = trajectory_matrix(field, start, v)
        x2 = tuple(a + b for a, b in zip(start, w))
        t_x2v = trajectory_matrix(field, x2, v)
        gauge = parallel_gauge(field, start, v, w)
        cert = verify_coboundary(t_xv.matrix, t_x2v.matrix, gauge)
        assert cert.verified
        done += 1


def test_canonical_directions():
    ds = canonical_directions(1, 3)
    assert (1, 0, 0) in ds and (0, 0, 1) in ds
    assert (-1, 0, 0) not in ds  # sign-canonical representative kept
    assert all(any(c for c in d) for d in ds)
    ds2 = canonical_directions(2, 3, primitive_only=True)
    assert (2, 0, 0) not in ds2
    assert (2, 1, 1) in ds2


def test_scan_trajectories_smoke(field):
    start = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    out = scan_trajectories(
        field, start, metric_depth=400, directions=[(1, 0, 0), (1, 1, 1)]
    )
    assert [d for d, _, _ in out] == [(1, 0, 0), (1, 1, 1)]
    assert out[0][1] == pcf("3n+1", "n(1-2n)")
    assert abs(out[0][2].delta - (-0.65)) < 0.08


# -- the integer walk against a Mat-of-RationalFunction reference -------------------


def _restrict(entry, pos, line):
    """RationalFunction of an MRat on the line pos + (n-1)*line, expanded term by
    term in Poly arithmetic."""

    def univariate(p):
        out = Poly()
        for expo, c in p.terms.items():
            term = Poly.const(c)
            for x0, v, k in zip(pos, line, expo):
                term = term * Poly([x0 - v, v]) ** k
            out = out + term
        return out

    return RationalFunction(univariate(entry.num), univariate(entry.den))


def reference_walk(field, point, direction, line) -> Mat:
    """The canonical path (axes ascending, positive steps, then negative ones
    as adjugates) multiplied as matrices of reduced rational functions."""
    pos = [Fraction(p) for p in point]
    steps = [(k, +1) for k, v in enumerate(direction) for _ in range(max(0, v))]
    steps += [(k, -1) for k, v in enumerate(direction) for _ in range(max(0, -v))]
    out = None
    for k, sgn in steps:
        if sgn < 0:
            pos[k] -= 1
        step = field.matrices[field.variables[k]].map(lambda e: _restrict(e, pos, line))
        if sgn < 0:
            step, _det = mat_adjugate_inverse(step)
        else:
            pos[k] += 1
        out = step if out is None else out * step
    return out


def scaled_pi_cmf() -> CMF:
    """The pi field with its x matrix scaled by 2/3: Fraction coefficients and,
    within one matrix, entries over 1 and over x.  A constant scale keeps the
    field conserving."""
    raw = _pi_json()
    raw["matrices"]["x"] = [[f"2/3*({e})" for e in row] for row in raw["matrices"]["x"]]
    return CMF.from_json(raw)


FIELDS = {"pi": pi_cmf(), "pi with x scaled by 2/3": scaled_pi_cmf()}


def test_scaled_field_is_conserving():
    assert check_conserving(FIELDS["pi with x scaled by 2/3"]) == []


@st.composite
def off_plane_points(draw):
    # distinct nonzero fractional parts: no lattice shift of the point meets
    # x = 0, y = 0, z = 0, x = z or y = z, nor makes a step singular
    parts = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=7).filter(
                lambda f: 0 < f < 1
            ),
            min_size=3,
            max_size=3,
            unique=True,
        )
    )
    return tuple(draw(st.integers(-2, 2)) + f for f in parts)


def nonzero_vectors(bound):
    return st.tuples(*[st.integers(-bound, bound)] * 3).filter(any)


@given(
    st.sampled_from(sorted(FIELDS)),
    off_plane_points(),
    nonzero_vectors(2),
    nonzero_vectors(1),
)
@settings(max_examples=40, deadline=None)
def test_walk_matches_reference(name, point, v, w):
    field = FIELDS[name]
    assert trajectory_matrix(field, point, v).matrix == reference_walk(field, point, v, v)
    assert parallel_gauge(field, point, v, w) == reference_walk(field, point, w, v)
    at_point = reference_walk(field, point, v, (0, 0, 0)).map(lambda e: e.num[0])
    assert displacement(field, point, v) == at_point


def test_scaled_field_trajectory_matches_reference():
    field = FIELDS["pi with x scaled by 2/3"]
    p = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11))
    for v in [(1, 0, 0), (-2, 1, 0), (1, -1, 2)]:
        t = trajectory_matrix(field, p, v).matrix
        assert t == reference_walk(field, p, v, v)
    # the scale shows: one x step is 2/3 of the pi field's
    ratio = Mat(
        [
            [a / b for a, b in zip(ra, rb)]
            for ra, rb in zip(
                trajectory_matrix(field, p, (1, 0, 0)).matrix.rows,
                trajectory_matrix(FIELDS["pi"], p, (1, 0, 0)).matrix.rows,
            )
        ]
    )
    assert all(e == RationalFunction(Fraction(2, 3)) for row in ratio for e in row)


# -- singularities -----------------------------------------------------------------


def test_line_in_singular_plane_raises(field):
    # after the x step the z step's positions (3/2 + (n-1), 1/3, 3/2 + (n-1))
    # lie in the plane x = z, where the z matrix has its pole
    with pytest.raises(TrajectorySingularity) as e:
        trajectory_matrix(field, (Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)), (1, 0, 1))
    assert str(e.value) == (
        "axis z at (3/2, 1/3, 3/2): denominator vanishes identically along the"
        " substitution line"
    )


def test_identically_singular_negative_step_raises(field):
    # det M_x = (2x - 2z + 2)/x vanishes on x - z = -1
    with pytest.raises(TrajectorySingularity) as e:
        trajectory_matrix(field, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)), (-1, 0, -1))
    assert str(e.value) == "axis x at (-1/2, 1/3, 1/2): matrix is identically singular"


def test_displacement_at_pole_raises(field):
    with pytest.raises(TrajectorySingularity, match=r"^axis x at \(0, 1/2, 1/2\): pole at"):
        displacement(field, (0, Fraction(1, 2), Fraction(1, 2)), (1, 0, 0))


def test_singular_trajectory_reports_the_walk_reason_at_once(field, monkeypatch):
    # a start shift only maps T(n) to T(n + 1), so the walk's own reason is
    # the answer, after one walk
    calls = []
    real = cmf_module.trajectory_matrix
    monkeypatch.setattr(
        cmf_module, "trajectory_matrix", lambda *a: calls.append(a) or real(*a)
    )
    with pytest.raises(TrajectorySingularity) as e:
        trajectory_pcf(field, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), (1, -1, -1))
    assert str(e.value) == "axis y at (3/2, -1/2, 1/2): matrix is identically singular"
    assert len(calls) == 1


def test_degenerate_trajectory_is_singular_without_shifts(field, monkeypatch):
    # T(n) is diagonal along this line: no second-order recurrence, and a
    # start shift (n -> n + 1) cannot change that
    calls = []
    real = cmf_module.trajectory_matrix
    monkeypatch.setattr(
        cmf_module, "trajectory_matrix", lambda *a: calls.append(a) or real(*a)
    )
    start = (Fraction(6, 5), Fraction(4, 5), Fraction(3, 2))
    with pytest.raises(TrajectorySingularity) as e:
        trajectory_pcf(field, start, (2, 0, 1))
    assert str(e.value) == (
        "trajectory along [2, 0, 1] is degenerate: matrix cannot generate a"
        " second-order recurrence"
    )
    assert len(calls) == 1


@pytest.mark.parametrize(
    "direction, message",
    [
        ("0,0,0", "error: direction must be nonzero"),
        ("1,0", "error: direction has 2 entries, the field has 3 variables"),
    ],
)
def test_cli_trajectory_reports_bad_direction(direction, message, capsys):
    assert main(["cmf", "trajectory", "--direction", direction]) == 2
    assert capsys.readouterr().err.strip() == message
