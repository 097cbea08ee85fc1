import random
from fractions import Fraction

import pytest

from pcf_unify.cmf import (
    parallel_gauge,
    CMF,
    canonical_directions,
    check_conserving,
    displacement,
    pi_cmf,
    scan_trajectories,
    trajectory_matrix,
    trajectory_pcf,
)
from pcf_unify.coboundary import verify_coboundary
from pcf_unify.matrix import Mat, identity, projective_eq
from pcf_unify.parsing import parse_poly, parse_ratfunc
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


def test_perturbed_cmf_reports_violation(field):
    import json
    from importlib import resources

    raw = json.loads(
        resources.files("pcf_unify.data").joinpath("pi_cmf.json").read_text()
    )
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
