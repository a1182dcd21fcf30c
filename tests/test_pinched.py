import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowlin import InvalidInput, pinched
from flowlin.cli import main
from flowlin.flows import TimeOutOfDomain, evolve, sample_trajectory, torus_angles
from flowlin.linalg import matrix_exp
from flowlin.pinched import (
    LINEARITY_TOL,
    ArcSet,
    NotInFamily,
    canonical_embedding,
    embedding_generator,
    kernel_direction,
    make_point,
    make_spec,
    sample_points,
    verify_family,
)

FULL_CIRCLE = [[("0", "1")]]
POINT_ZERO = [[("0", "0")]]


def single_pinch_spec():
    """Fiber circles over a base circle, collapsed over the base point 0."""
    return make_spec(n=2, m=1, M=[[0, 1]], base_boxes=FULL_CIRCLE,
                     loci_boxes=[POINT_ZERO, []])


def two_pinch_spec():
    return make_spec(
        n=2, m=1, M=[[0, 1]], base_boxes=FULL_CIRCLE,
        loci_boxes=[[[("0", "0")], [("1/2", "1/2")]], []],
    )


def plain_torus_spec():
    return make_spec(n=2, m=1, M=[[0, 1]], base_boxes=FULL_CIRCLE, loci_boxes=[[], []])


def _collapsed(spec, points):
    """Which angles of each row ``[theta | base]`` lie over their pinch locus."""
    return np.stack([locus.contains(points[:, spec.n:]) for locus in spec.pinch_loci], axis=-1)


# --- kernel directions ------------------------------------------------------------


def test_kernel_single_row():
    assert kernel_direction([[0, 1]]) == ((2, (1, 0)),)
    np.testing.assert_allclose(plain_torus_spec().omega, [np.sqrt(2.0), 0.0])


def test_kernel_zero_map():
    assert kernel_direction([[0, 0]]) == ((2, (1, 0)), (3, (0, 1)))
    spec = make_spec(n=2, m=1, M=[[0, 0]], base_boxes=FULL_CIRCLE, loci_boxes=[[], []])
    np.testing.assert_allclose(spec.omega, [np.sqrt(2.0), np.sqrt(3.0)])


def test_kernel_trivial():
    assert kernel_direction(np.eye(2, dtype=int)) == ()
    spec = make_spec(n=2, m=2, M=np.eye(2, dtype=int),
                     base_boxes=[[("0", "1"), ("0", "1")]], loci_boxes=[[], []])
    np.testing.assert_array_equal(spec.omega, np.zeros(2))


def test_kernel_vectors_annihilated_exactly():
    M = np.array([[2, -3, 1], [0, 1, -1]])
    terms = kernel_direction(M)
    # exactness lives in the rational terms; the prime-mixed float omega only
    # cancels to rounding when entries need a rounded product like 3*sqrt(2)
    assert terms
    for _, vec in terms:
        assert all(v.denominator == 1 for v in vec)
        assert all(v == 0 for v in M @ np.array(vec, dtype=object))
    spec = make_spec(n=3, m=2, M=M, base_boxes=[[("0", "1"), ("0", "1")]],
                     loci_boxes=[[], [], []])
    np.testing.assert_allclose(M @ spec.omega, np.zeros(2), atol=1e-14)


def test_kernel_has_a_prime_per_vector():
    # eight kernel vectors need eight distinct primes, or some angle is stationary
    M = np.zeros((1, 8), dtype=int)
    spec = make_spec(n=8, m=1, M=M, base_boxes=FULL_CIRCLE, loci_boxes=[[]] * 8)
    assert [prime for prime, _ in spec.omega_terms] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert np.all(spec.omega != 0.0)
    for _, vec in spec.omega_terms:
        assert all(v == 0 for v in M @ np.array(vec, dtype=object))


# --- embedding values ---------------------------------------------------------------


def test_pinch_point_embedding_collapses_fiber():
    spec = single_pinch_spec()
    p = make_point(spec, [0.25, 0.0])
    np.testing.assert_array_equal(p, [0.0, 0.0, 0.0])  # theta_1 collapsed over base 0
    emb = canonical_embedding(spec, p)
    np.testing.assert_array_equal(emb[:2], [0.0, 0.0])  # z_1 = 0 at the pinch
    np.testing.assert_allclose(emb[4:], [1.0, 0.0])  # w = 1

    # independent of the collapsed fiber angle
    q = make_point(spec, [0.8, 0.0])
    np.testing.assert_array_equal(canonical_embedding(spec, q), emb)


def test_regular_fiber_embedding_value():
    spec = single_pinch_spec()
    p = make_point(spec, [0.0, 0.5])
    emb = canonical_embedding(spec, p)
    # rho = circle distance from base 1/2 to the pinch locus {0}
    np.testing.assert_allclose(emb[:2], [0.5, 0.0])
    np.testing.assert_allclose(emb[4:], [-1.0, 0.0], atol=1e-15)


def test_flow_identity_and_period():
    spec = single_pinch_spec()
    p = make_point(spec, [0.0, 0.5])
    np.testing.assert_array_equal(evolve(spec.system, p, 0.0), p)
    moved = evolve(spec.system, p, 1.0 / np.sqrt(2.0))
    d = abs(moved[0] - 0.0)
    assert min(d, 1.0 - d) <= 1e-15
    assert moved[1] == 0.5


def test_collapsed_point_is_flow_fixed():
    spec = single_pinch_spec()
    p = make_point(spec, [0.3, 0.0])
    for t in (0.1, 1.7, 12.0):
        np.testing.assert_array_equal(
            canonical_embedding(spec, evolve(spec.system, p, t)), canonical_embedding(spec, p)
        )


def test_embedding_linearity_exact():
    spec = single_pinch_spec()
    B = embedding_generator(spec)
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(100):
        p = make_point(spec, rng.random(2))
        t = float(rng.uniform(-5.0, 5.0))
        lhs = canonical_embedding(spec, evolve(spec.system, p, t))
        rhs = matrix_exp(B, t) @ canonical_embedding(spec, p)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    assert worst <= 1e-12


def _embedding_reference(spec, point):
    """Reference: the canonical embedding of one point, one factor at a time."""
    theta, base = point[:spec.n], point[spec.n:]
    out = []
    for j in range(spec.n):
        locus = spec.pinch_loci[j]
        rho = 1.0 if locus.empty else float(locus.distance(base))
        out += [rho * np.cos(2 * np.pi * theta[j]), rho * np.sin(2 * np.pi * theta[j])]
    for k in range(spec.m):
        out += [np.cos(2 * np.pi * base[k]), np.sin(2 * np.pi * base[k])]
    return out


@pytest.mark.parametrize("make", [single_pinch_spec, two_pinch_spec, plain_torus_spec])
def test_embedding_and_flow_batch_match_each_row(make):
    spec = make()
    rng = np.random.default_rng(55)
    theta = rng.random((60, 2))
    theta[:10, 1] = 0.0  # on the pinch locus {0} of the first factor
    theta[10:20, 1] = 0.5
    points = make_point(spec, theta)
    times = rng.uniform(-5.0, 5.0, 60)
    moved = evolve(spec.system, points, times)
    embeds, moved_embeds = canonical_embedding(spec, points), canonical_embedding(spec, moved)
    for i in range(60):
        row = make_point(spec, theta[i])
        np.testing.assert_array_equal(row, points[i])
        np.testing.assert_array_equal(canonical_embedding(spec, row), embeds[i])
        np.testing.assert_array_equal(embeds[i], _embedding_reference(spec, row))
        row_moved = evolve(spec.system, row, times[i])
        np.testing.assert_array_equal(row_moved, moved[i])
        np.testing.assert_array_equal(canonical_embedding(spec, row_moved), moved_embeds[i])


def test_flow_keeps_base_and_collapsed_zeros():
    spec = two_pinch_spec()
    points = make_point(spec, [[0.3, 0.0], [0.3, 0.5], [0.3, 0.25]])
    moved = evolve(spec.system, points, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(moved[:, 2], points[:, 2])  # the base column
    # theta_1 is collapsed over the bases 0 and 1/2 only, theta_2 never
    np.testing.assert_array_equal(
        _collapsed(spec, moved), [[True, False], [True, False], [False, False]]
    )
    np.testing.assert_array_equal(moved[:2, 0], [0.0, 0.0])
    assert moved[2, 0] != 0.0
    # one start flowed along many times: one row per time
    orbit = sample_trajectory(spec.system, make_point(spec, [0.3, 0.25]), np.linspace(0.0, 1.0, 7))
    assert orbit.states.shape == (7, 3)
    assert canonical_embedding(spec, orbit.states).shape == (7, 6)


def test_base_that_rounds_up_to_one_is_zero():
    # M theta = 0.3 - nextafter(0.3, 1) is a tiny negative number, and mod 1
    # rounds it to 1.0; the point's base is 0.0, which a flow keeps
    spec = make_spec(n=2, m=1, M=[[1, -1]], base_boxes=FULL_CIRCLE, loci_boxes=[[], []])
    p = make_point(spec, [0.3, np.nextafter(0.3, 1.0)])
    assert p[2] == 0.0
    assert evolve(spec.system, p, 1.0)[2] == 0.0


# --- family verification --------------------------------------------------------------


def test_single_pinch_family_passes():
    report = verify_family(single_pinch_spec(), n_samples=300, rng=np.random.default_rng(51))
    assert report.max_linearity_residual <= 1e-10
    assert report.quotient_consistent
    assert report.min_separation > 0.0
    assert report.passed


def test_two_pinch_family_passes():
    report = verify_family(two_pinch_spec(), n_samples=300, rng=np.random.default_rng(52))
    assert report.passed


def test_plain_torus_reduces_to_standard_embedding():
    spec = plain_torus_spec()
    p = make_point(spec, [0.25, 0.125])
    emb = canonical_embedding(spec, p)
    ang1, ang2 = 2 * np.pi * 0.25, 2 * np.pi * 0.125
    np.testing.assert_allclose(
        emb, [np.cos(ang1), np.sin(ang1), np.cos(ang2), np.sin(ang2),
              np.cos(ang2), np.sin(ang2)], atol=1e-15,
    )
    points = sample_points(spec, 1000, np.random.default_rng(53))
    margin = torus_angles(spec.n).injectivity_margin(
        points[:, :spec.n], canonical_embedding(spec, points)
    )
    assert margin > 0.1


@st.composite
def pinched_specs(draw):
    """Specs whose pinched factors are fiber circles (zero columns of M).

    The other columns give M full row rank, so M theta is uniform on T^m.
    The base region is a box of arcs on a grid of eighths, and each pinch
    locus is a box of points or arcs inside it on a grid of sixteenths.
    """
    m = draw(st.integers(1, 2))
    n_free = draw(st.integers(m, 2))
    n = n_free + draw(st.integers(1, 2))
    free = np.array(draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=n_free, max_size=n_free),
        min_size=m, max_size=m,
    )))
    assume(np.linalg.matrix_rank(free) == m)
    order = draw(st.permutations(range(n)))
    M = np.zeros((m, n), dtype=int)
    M[:, order[:n_free]] = free
    box = []
    for _ in range(m):
        lo = draw(st.integers(0, 6))
        box.append((Fraction(lo, 8), Fraction(draw(st.integers(lo + 2, 8)), 8)))
    loci = [[] for _ in range(n)]
    for j in order[n_free:]:
        arcs = []
        for lo, hi in box:
            a = draw(st.integers(int(16 * lo), int(16 * hi)))
            b = draw(st.integers(a, int(16 * hi)))
            arcs.append((Fraction(a, 16), Fraction(b, 16)))
        loci[j] = [arcs]
    return make_spec(n=n, m=m, M=M, base_boxes=[box], loci_boxes=loci)


@settings(max_examples=40, deadline=None)
@given(spec=pinched_specs(), seed=st.integers(0, 2**32 - 1), t=st.floats(1e-3, 1e3))
def test_family_points_are_flow_states(spec, seed, t):
    rng = np.random.default_rng(seed)
    points = sample_points(spec, 30, rng)
    collapsed = _collapsed(spec, points)
    for times in (t, -t, rng.uniform(-t, t, len(points))):
        moved = evolve(spec.system, points, times)
        # the base columns bit for bit, the collapsed angles at exactly +0.0
        assert moved[:, spec.n:].tobytes() == points[:, spec.n:].tobytes()
        theta = moved[:, :spec.n]
        assert np.all(theta[collapsed] == 0.0) and not np.signbit(theta[collapsed]).any()
    # a sampled trajectory is one evolve per grid time
    grid = -t + np.cumsum(rng.uniform(0.0, t, 8) + 1e-3)
    traj = sample_trajectory(spec.system, points[0], grid)
    for k, time in enumerate(grid):
        np.testing.assert_array_equal(traj.states[k], evolve(spec.system, points[0], time))


@settings(max_examples=40, deadline=None)
@given(spec=pinched_specs(), seed=st.integers(0, 2**32 - 1))
def test_generated_families_are_exactly_linear_and_quotient_consistent(spec, seed):
    rng = np.random.default_rng(seed)
    report = verify_family(spec, n_samples=100, rng=rng)
    assert report.max_linearity_residual <= LINEARITY_TOL
    assert report.quotient_consistent
    # every collapsed coordinate, set to any raw angle, embeds the same point
    points = sample_points(spec, 100, rng)
    collapsed = _collapsed(spec, points)
    raw = np.concatenate(
        [np.where(collapsed, rng.random(collapsed.shape), points[:, :spec.n]), points[:, spec.n:]],
        axis=1,
    )
    np.testing.assert_array_equal(canonical_embedding(spec, raw), canonical_embedding(spec, points))


def test_fiber_solve_that_leaves_the_base_region_is_skipped():
    # the fiber over the locus midpoint (1, 1/32) solves to a base point
    # (5.6e-17, 1/32) in floating point, outside the arc [1/8, 1]; verify_family
    # must skip those trials rather than raise NotInFamily
    spec = make_spec(
        n=3, m=2, M=[[1, -1, 0], [-2, -1, 0]], base_boxes=[[("1/8", "1"), ("0", "1/4")]],
        loci_boxes=[[], [], [[("1", "1"), ("0", "1/16")]]],
    )
    report = verify_family(spec, n_samples=100, rng=np.random.default_rng(0))
    assert report.quotient_consistent and report.passed


def _leaky_family_report(monkeypatch, leak):
    """verify_family on the spec above, its embedding shifted by 1e-3 * leak(rows)."""
    spec = make_spec(
        n=3, m=2, M=[[1, -1, 0], [-2, -1, 0]], base_boxes=[[("1/8", "1"), ("0", "1/4")]],
        loci_boxes=[[], [], [[("1", "1"), ("0", "1/16")]]],
    )
    canonical = pinched.canonical_embedding
    monkeypatch.setattr(
        pinched, "canonical_embedding",
        lambda spec, point: canonical(spec, point) + 1e-3 * leak(point),
    )
    return verify_family(spec, n_samples=100, rng=np.random.default_rng(0))


def test_quotient_trials_compare_rows(monkeypatch):
    # the same spec with an embedding that leaks the collapsed angle: its
    # trials sit on the exact locus midpoint, so they are compared, and fail
    report = _leaky_family_report(monkeypatch, lambda point: point[..., 2:3])
    assert not report.quotient_consistent and not report.passed


def test_quotient_trials_compare_the_canonical_row(monkeypatch):
    # an embedding that tells a collapsed angle at 0 from any other: the raw
    # trials agree with each other but not with their canonical row
    report = _leaky_family_report(monkeypatch, lambda point: point[..., 2:3] == 0.0)
    assert not report.quotient_consistent and not report.passed


def test_flow_beyond_the_time_bound_raises_naming_the_row():
    spec = single_pinch_spec()
    point = make_point(spec, [0.25, 0.5])
    bound = r"pinched: \|t\| = 1e\+20 beyond time bound 2\*\*52 \(row 1\)"
    with pytest.raises(TimeOutOfDomain, match=bound):
        evolve(spec.system, np.stack([point, point]), np.array([1.0, 1e20]))


def test_membership_gate():
    spec = make_spec(n=2, m=1, M=[[0, 1]], base_boxes=[[("0", "1/4")]],
                     loci_boxes=[POINT_ZERO, []])
    make_point(spec, [0.3, 0.2])  # base 0.2 inside the arc
    with pytest.raises(NotInFamily):
        make_point(spec, [0.3, 0.5])


@pytest.mark.parametrize(
    "theta, message",
    [([0.3], r"takes 2 angles theta, got shape \(1,\)"),
     ([[0.3, 0.2, 0.1]], r"takes 2 angles theta, got shape \(1, 3\)"),
     ([0.3, np.nan], "must be finite, got nan"),
     ([[0.3, 0.2], [np.inf, 0.2]], "must be finite, got inf")],
    ids=["short", "long", "nan", "inf"],
)
def test_make_point_refuses_a_malformed_theta(theta, message):
    with pytest.raises(InvalidInput, match=message):
        make_point(single_pinch_spec(), theta)


def test_locus_must_sit_inside_base_region():
    with pytest.raises(ValueError):
        make_spec(n=2, m=1, M=[[0, 1]], base_boxes=[[("0", "1/4")]],
                  loci_boxes=[[[("1/2", "1/2")]], []])


def test_compactness_proxy_radius():
    report = verify_family(single_pinch_spec(), n_samples=200, rng=np.random.default_rng(54))
    assert report.max_embedding_radius <= 1.0 + 1e-12


# --- arc sets and JSON specs -------------------------------------------------------------


def test_arcset_distance_wraps():
    arcs = ArcSet([[("0", "0")]], 1)
    assert arcs.distance([0.75]) == pytest.approx(0.25)
    assert arcs.distance([0.5]) == pytest.approx(0.5)
    assert arcs.contains([0.0]) and not arcs.contains([0.3])


def test_spec_rejects_a_locus_whose_factor_moves_the_base(tmp_path):
    # M theta = theta_1 + theta_2: collapsing theta_1 over C_1 would move the base point
    with pytest.raises(ValueError, match="factor 1"):
        make_spec(n=2, m=1, M=[[1, 1]], base_boxes=FULL_CIRCLE,
                  loci_boxes=[[[("0", "1/2")]], []])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"n": 2, "m": 1, "M": [[1, 1]], "S": [[["0", "1"]]], "C": [[[["0", "1/2"]]], []]}
    ))
    out = tmp_path / "report.json"
    assert main(["pinched", "--spec", str(path), "--check", "--out", str(out)]) == 2
    assert not out.exists()


def test_spec_rejects_omega_outside_kernel():
    with pytest.raises(ValueError):
        make_spec(n=2, m=1, M=[[0, 1]], base_boxes=FULL_CIRCLE,
                  loci_boxes=[POINT_ZERO, []],
                  omega_terms=[(2, [Fraction(0), Fraction(1)])])
