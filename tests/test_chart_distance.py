"""One chart distance: scalar, one-to-many and all-pairs paths agree bit for bit,
the distance is a metric on the quotient, quotient orbits are closed over every
word in the generators, and the one injectivity margin, behind both the EDMD
lift scan and the embedding quality check, matches the scalar pair loop and the
row loop it replaced on every chart, across its block edges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlin import catalog, edmd
from flowlin.embed import verify_embedding_quality
from flowlin.errors import FlowlinError
from flowlin.flows import PAIR_BLOCK, PAIR_CUTOFF, polar_annulus, torus_angles
from flowlin.linalg import row_norms

# Z2 x Z2: two commuting half shifts, so the orbit needs the word g1 g2
HALF_SHIFTS = torus_angles(
    2, (lambda x: x + np.array([0.5, 0.0]), lambda x: x + np.array([0.0, 0.5]))
)
# Z4 from one quarter shift: the orbit needs g^2 and g^3
QUARTER_SHIFT = torus_angles(2, (lambda x: x + np.array([0.25, 0.0]),))


def _unwrapped_torus_states(rng, count):
    return rng.uniform(-1.5, 2.5, (count, 2))


CHARTS = {
    **{name: (catalog.get(name).system.chart, catalog.get(name).sample_states)
       for name in catalog.names()},
    "half_shifts": (HALF_SHIFTS, _unwrapped_torus_states),
    "quarter_shift": (QUARTER_SHIFT, _unwrapped_torus_states),
}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_distance_paths_agree_bitwise_on_every_chart(seed):
    rng = np.random.default_rng(seed)
    for name, (chart, sampler) in CHARTS.items():
        X = np.asarray(sampler(rng, 9), float)
        pairwise = chart.pairwise_distances(X)
        assert pairwise.shape == (len(X), len(X)), name
        for i, a in enumerate(X):
            row = chart.distances(a, X)
            for j, b in enumerate(X):
                assert chart.distance(a, b) == row[j] == pairwise[i, j], (name, i, j)


# Rounding in an identification's own arithmetic (the Klein bottle's
# x + 0.5 mod 1) leaves up to a few ulps between d(x, y) and d(y, x), and
# between g(g(x)) and x, on a quotient chart; without identifications the
# distance is symmetric bit for bit.
METRIC_TOL = 1e-12
COORDS = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("name", list(CHARTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_chart_distance_is_a_metric_on_the_quotient(name, data):
    chart = CHARTS[name][0]
    state = st.lists(COORDS, min_size=chart.dim, max_size=chart.dim).map(np.array)
    x, y, z = data.draw(state), data.draw(state), data.draw(state)
    d = chart.distance
    assert d(x, x) == 0.0
    if chart.identifications:
        assert abs(d(x, y) - d(y, x)) <= METRIC_TOL
    else:
        assert d(x, y) == d(y, x)
    assert d(x, z) <= d(x, y) + d(y, z) + METRIC_TOL
    for g in chart.identifications:
        assert d(x, np.asarray(g(x), float)) <= METRIC_TOL
        assert abs(d(g(x), y) - d(x, y)) <= METRIC_TOL


def _brute_force(shifts, a, X):
    plain = torus_angles(len(a))
    return np.min([plain.distances(a, X + s) for s in shifts], axis=0)


@pytest.mark.parametrize(
    "chart, shifts",
    [
        (HALF_SHIFTS, [[u, v] for u in (0.0, 0.5) for v in (0.0, 0.5)]),
        (QUARTER_SHIFT, [[k / 4, 0.0] for k in range(4)]),
        (torus_angles(1, (lambda x: x + 1.0 / 12.0,)), [[k / 12] for k in range(12)]),
    ],
    ids=["z2xz2", "z4", "z12"],
)
def test_quotient_distance_is_min_over_the_whole_group(chart, shifts):
    rng = np.random.default_rng(7)
    X = rng.random((50, chart.dim))
    assert len(chart.orbit(X)) == len(shifts)
    expected = np.array([_brute_force(np.array(shifts), a, X) for a in X])
    np.testing.assert_allclose(chart.pairwise_distances(X), expected, rtol=0, atol=1e-12)
    for i in (0, 17):
        assert chart.distance(X[i], X[31]) == pytest.approx(expected[i, 31], abs=1e-12)


def test_infinite_identification_group_is_an_error():
    chart = torus_angles(1, (lambda x: x + (np.sqrt(2.0) - 1.0),))
    with pytest.raises(FlowlinError, match="finite"):
        chart.distance([0.1], [0.2])


def test_nan_state_is_infinitely_far():
    chart = catalog.get("klein_bottle").system.chart
    d = chart.distances([0.1, 0.2], np.array([[np.nan, 0.2], [0.3, 0.2]]))
    assert d[0] == np.inf and np.isfinite(d[1])


def _scalar_pair_loop_margin(chart, X, lifts):
    """The O(n^2) loop over single chart distances that diagnose used to run."""
    margin = np.inf
    for i in range(len(X)):
        for j in range(i + 1, len(X)):
            d_state = chart.distance(X[i], X[j])
            if d_state < 1e-9:
                continue
            margin = min(margin, float(np.linalg.norm(lifts[i] - lifts[j])) / d_state)
    return margin


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_injectivity_margin_matches_scalar_pair_loop_on_every_chart(seed):
    rng = np.random.default_rng(seed)
    for name, (chart, sampler) in CHARTS.items():
        X = np.asarray(sampler(rng, 16), float)
        # identified copies of two states: pairs at chart distance ~0, skipped
        X = np.concatenate([X, *(np.asarray(g(X[:2]), float) for g in chart.identifications)])
        images = rng.normal(size=(len(X), 3))
        margin = chart.injectivity_margin(X, images)
        assert margin == _scalar_pair_loop_margin(chart, X, images), name


@pytest.mark.parametrize(
    "system, dict_kind",
    [("klein_bottle", "fourier:3"), ("annulus_cubic", "custom:polar_fourier_5"),
     ("klein_bottle", "embed")],
)
def test_lift_injectivity_margin_matches_scalar_pair_loop(system, dict_kind):
    entry = catalog.get(system)
    rng = np.random.default_rng(11)
    if dict_kind == "embed":
        states = entry.sample_states(rng, 120)
        images = np.array([entry.exact_embedding.F(x) for x in states])
        quality = verify_embedding_quality(entry.exact_embedding, entry.system, states, ())
        margin = quality.injectivity_margin
    else:
        if dict_kind == "fourier:3":
            dictionary = edmd.fourier_dictionary(entry.system.chart, 3)
        else:
            labels, maps = entry.custom_observables["polar_fourier_5"]
            dictionary = edmd.custom_dictionary(maps, labels)
        train = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 6), 0.1, 300)
        holdout = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 3), 0.1, 120)
        model = edmd.fit(dictionary, train)
        margin = edmd.diagnose(model, dictionary, entry.system, holdout)["lift_injectivity_margin"]
        states, images = holdout.X, dictionary.matrix(holdout.X)
    reference = _scalar_pair_loop_margin(entry.system.chart, states, images)
    assert np.isfinite(reference)
    assert margin == reference


def test_nan_image_row_gives_nan_margin():
    entry = catalog.get("klein_bottle")
    states = entry.sample_states(np.random.default_rng(12), 30)
    images = np.array([entry.exact_embedding.F(x) for x in states])
    images[17] = np.nan
    assert np.isnan(entry.system.chart.injectivity_margin(states, images))


def test_single_state_margin_is_no_evidence():
    entry = catalog.get("klein_bottle")
    states = entry.sample_states(np.random.default_rng(13), 1)
    report = verify_embedding_quality(entry.exact_embedding, entry.system, states, ())
    # NaN: the injectivity check (`margin >= floor`) fails on it
    assert np.isnan(report.injectivity_margin)
    assert not report.injectivity_margin >= 1e-6


def _row_loop_margin(chart, states, images):
    """The margin one state at a time, as the chart computed it before its row blocks."""
    reps = chart.orbit(np.atleast_2d(np.asarray(states, dtype=float)))
    Y = np.asarray(images, dtype=float)
    margin = np.inf
    for i in range(len(reps[0]) - 1):
        d_state = chart._min_over_orbit(reps[0][i], [rep[i + 1 :] for rep in reps])
        apart = d_state > PAIR_CUTOFF
        diff = Y[i] - Y[i + 1 :][apart]
        margin = np.minimum(margin, (row_norms(diff) / d_state[apart]).min(initial=np.inf))
    return float(margin) if margin != np.inf else np.nan


def _same_margin(a, b):
    return (np.isnan(a) and np.isnan(b)) or a.hex() == b.hex()


def _block_starts(n):
    """First rows of the margin's blocks: rows are taken while their pairs i < j
    number at most PAIR_BLOCK, and at least one row."""
    starts, lo = [], 0
    while lo < n - 1:
        starts.append(lo)
        pairs, hi = n - 1 - lo, lo + 1
        while hi < n and pairs + (n - 1 - hi) <= PAIR_BLOCK:
            pairs, hi = pairs + (n - 1 - hi), hi + 1
        lo = hi
    return starts


def _identified_copy(chart, x):
    """A state the chart identifies with x: its image under a generator, or x
    shifted by one period on every angle."""
    if chart.identifications:
        return np.asarray(chart.identifications[0](x), float)
    return x + np.array([0.0 if p is None else p for p in chart.wraps])


@pytest.mark.parametrize("size, blocks", [(2, 1), (3, 1), (91, 1), (92, 2), (150, 3)])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_injectivity_margin_matches_row_loop_across_block_edges(size, blocks, seed):
    # 91 states make 4095 pairs, one full block; 92 and 150 take several
    starts = _block_starts(size)
    assert len(starts) == blocks
    rng = np.random.default_rng(seed)
    for name, (chart, sampler) in CHARTS.items():
        X = np.asarray(sampler(rng, size), float)
        # a skipped pair across every block edge, and one from the first row to the last
        for row in [*starts[1:], size - 1]:
            X[row] = _identified_copy(chart, X[row - 1 if row in starts else 0])
        images = rng.normal(size=(size, 4))
        margin = chart.injectivity_margin(X, images)
        reference = _row_loop_margin(chart, X, images)
        assert _same_margin(margin, reference), (name, margin, reference)
        assert size == 2 or np.isfinite(margin), name
        images[size // 2] = np.nan
        margin = chart.injectivity_margin(X, images)
        assert _same_margin(margin, _row_loop_margin(chart, X, images)), name
        assert size == 2 or np.isnan(margin), name


def _infinite_radius(states, images):
    states[3, 0] = np.inf


def _duplicates_with_infinite_images(states, images):
    states[5] = states[2]
    images[[2, 5]] = np.inf


def _infinite_image_row(states, images):
    images[7] = np.inf


def _mostly_duplicates(states, images):
    states[3:] = states[np.arange(3, len(states)) % 3]


@pytest.mark.parametrize(
    "corrupt, expected",
    [(_infinite_radius, 0.0), (_duplicates_with_infinite_images, None),
     (_infinite_image_row, None), (_mostly_duplicates, None)],
)
def test_injectivity_margin_raises_no_floating_point_error(corrupt, expected):
    # blocks take only pairs i < j, and image differences only of states apart:
    # a diagonal pair of the infinite state, or a skipped pair of infinite
    # images, would be inf - inf
    entry = catalog.get("log_radial")
    rng = np.random.default_rng(23)
    states = entry.sample_states(rng, 100)
    images = rng.normal(size=(100, 5))
    corrupt(states, images)
    with np.errstate(all="raise"):
        margin = entry.system.chart.injectivity_margin(states, images)
        reference = _row_loop_margin(entry.system.chart, states, images)
    assert np.isfinite(margin) and margin.hex() == reference.hex()
    assert expected is None or margin == expected


@pytest.mark.parametrize(
    "chart",
    [torus_angles(1), polar_annulus(), catalog.get("klein_bottle").system.chart],
    ids=["circle", "annulus_angle", "klein_bottle"],
)
def test_angle_wrapped_to_its_period_is_at_distance_zero(chart):
    # np.mod(-1e-20, period) rounds to the period itself
    x = np.ones(chart.dim)
    x[-1] = -1e-20
    y = x.copy()
    y[-1] = 0.0
    assert chart.distance(x, y) == 0.0
