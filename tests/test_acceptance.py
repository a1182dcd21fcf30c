"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import json
import time

import numpy as np

from flowlin import catalog, edmd
from flowlin.cli import main as cli_main
from flowlin.embed import (
    build_smooth_embedding,
    build_topological_embedding,
    overlap_identity_residual,
    verify_embedding_quality,
    verify_linearization,
)
from flowlin.flows import evolve, sample_trajectory
from flowlin.obstruct import (
    CERTIFIED,
    NO_OBSTRUCTION,
    hopf_index_2d,
    quasiperiodic_factor_certificate,
    smooth_linearizability_verdict,
)
from flowlin.phase import GeometricSchedule, estimate_phase
from flowlin.pinched import make_spec, verify_family

EMBEDDED_ENTRIES = [
    "quasiperiodic_torus_1",
    "quasiperiodic_torus_2",
    "quasiperiodic_torus_3",
    "sphere_rotation",
    "klein_bottle",
    "projective_plane",
    "product_attractor",
    "log_radial",
]


class _Timer:
    def __init__(self, number, description, budget):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.description} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded runtime budget"
        return False


def test_criterion_1_exact_embedding_residuals():
    with _Timer(1, "exact embedding residuals <= 1e-8", 5.0):
        rng = np.random.default_rng(100)
        for name in EMBEDDED_ENTRIES:
            entry = catalog.get(name)
            grid = (entry.sample_states(rng, 20), [0.0, 0.1, 1.0, float(np.pi), 10.0])
            residual = verify_linearization(entry.exact_embedding, entry.system, grid)
            assert residual <= 1e-8, f"{name}: residual {residual}"


def test_criterion_2_closed_forms_match_integration():
    with _Timer(2, "closed forms vs adaptive RK <= 1e-7 on [0, 10]", 10.0):
        rng = np.random.default_rng(101)
        for name in ("annulus_cubic", "log_radial"):
            entry = catalog.get(name)
            worst = 0.0
            for x in entry.sample_states(rng, 50):
                grid = np.linspace(0.0, 10.0, 6)
                traj = sample_trajectory(entry.ode_system, x, grid)
                for t, state in zip(grid, traj.states):
                    exact = evolve(entry.system, x, float(t))
                    worst = max(worst, entry.system.chart.distance(state, exact))
            assert worst <= 1e-7, f"{name}: disagreement {worst}"


def test_criterion_3_phase_dichotomy():
    with _Timer(3, "phase estimator: convergence on log_radial, divergence on annulus", 30.0):
        rng = np.random.default_rng(102)
        entry = catalog.get("log_radial")
        schedule = GeometricSchedule(1.0, 2.0, 8)
        for x in entry.sample_states(rng, 50):
            estimate = estimate_phase(entry.system, entry.attractor, x, schedule)
            assert estimate.classification.kind == "converged"
            exact = entry.exact_phase(x)
            for T, e in zip(estimate.horizons, estimate.estimates):
                err = entry.system.chart.distance(e, exact)
                # 3 e^{-T} drops below float resolution past T ~ 36; the
                # additive 1e-12 covers the wrapped-angle rounding floor
                assert err <= 3.0 * np.exp(-T) + 1e-12, (x, T, err)

        entry = catalog.get("annulus_cubic")
        schedule = GeometricSchedule(1.0, 2.0, 12)
        outcomes = [
            estimate_phase(entry.system, entry.attractor, x, schedule).classification.kind
            for x in entry.sample_states(rng, 50)
        ]
        assert outcomes.count("diverged") >= 0.95 * len(outcomes)


def test_criterion_4_constructive_builders():
    with _Timer(4, "built embeddings: residual, injectivity, immersion, overlap", 60.0):
        rng = np.random.default_rng(103)
        for name in ("log_radial", "product_attractor"):
            entry = catalog.get(name)
            validation = entry.sample_states(rng, 40)
            cand = build_topological_embedding(
                entry.system, entry.attractor, entry.exact_phase,
                entry.attractor_embedding, entry.lyapunov, validation,
            )
            quality = verify_embedding_quality(
                cand, entry.system, entry.sample_states(rng, 1000), catalog.STANDARD_TIMES
            )
            residual = quality.linearization_residual
            assert residual <= 1e-6, f"{name}: residual {residual}"
            assert quality.injectivity_margin > 1e-3, name
            assert quality.min_jacobian_sigma > 1e-3, name

        entry = catalog.get("log_radial")
        # kernel check at 50 attractor samples runs inside the smooth builder
        smooth = build_smooth_embedding(
            entry.system, entry.attractor, entry.exact_phase,
            entry.attractor_embedding, entry.transverse,
            entry.lyapunov.V, entry.lyapunov.level, entry.sample_states(rng, 40),
        )
        overlap_states = [
            np.array([np.exp(s * rng.uniform(1.1, 3.0)), rng.uniform(0, 2 * np.pi)])
            for s in rng.choice([-1.0, 1.0], 100)
        ]
        overlap = overlap_identity_residual(
            entry.system, entry.transverse, entry.lyapunov.V, entry.lyapunov.level,
            overlap_states,
        )
        assert overlap <= 1e-7, f"overlap identity residual {overlap}"


def test_criterion_5_index_oracle_agreement():
    with _Timer(5, "Hopf indices agree with the 1e4-sample winding oracle", 5.0):
        fields = {
            "rotation": (lambda p: np.column_stack([-p[:, 1], p[:, 0]]), 1),
            "saddle": (lambda p: np.column_stack([p[:, 0], -p[:, 1]]), -1),
            "node": (lambda p: p.copy(), 1),
            "dipole": (
                lambda p: np.column_stack([p[:, 0] ** 2 - p[:, 1] ** 2,
                                           2 * p[:, 0] * p[:, 1]]),
                2,
            ),
        }
        for name, (field, expected) in fields.items():
            phi = np.linspace(0.0, 2 * np.pi, 10_001)
            pts = np.column_stack([np.cos(phi), np.sin(phi)])
            vals = field(pts)
            angles = np.unwrap(np.arctan2(vals[:, 1], vals[:, 0]))
            oracle = int(round((angles[-1] - angles[0]) / (2 * np.pi)))
            assert oracle == expected, name
            for radius in (1.0, 0.5):
                got = hopf_index_2d(field, (0.0, 0.0), radius, 256).index
                assert got == oracle == expected, name

        entry = catalog.get("sphere_rotation")
        total = sum(
            hopf_index_2d(eq.planar_field, (0.0, 0.0), 0.5, 256).index
            for eq in entry.equilibria
        )
        assert total == 2


def test_criterion_6_verdict_engine():
    with _Timer(6, "verdict engine reproduces the 12-case rule table", 1.0):
        from verdict_fixtures import VERDICT_TABLE

        correct = 0
        for facts, expected, rule in VERDICT_TABLE:
            verdict = smooth_linearizability_verdict(facts)
            assert verdict.conclusion == expected, facts
            if rule is not None:
                assert verdict.reason.startswith(rule), (facts, verdict.reason)
            correct += 1
        assert correct == 12


def test_criterion_7_certificate_soundness():
    with _Timer(7, "quasiperiodic factor certificate: grant, refuse, soundness", 5.0):
        entry = catalog.get("quasiperiodic_torus_2")
        identity = lambda x: np.asarray(x, float)
        granted = quasiperiodic_factor_certificate(
            entry.system, identity, (1.0, np.sqrt(2.0)), 50,
            n_samples=150, tol=1e-9, rng=np.random.default_rng(104),
        )
        assert granted.conclusion == CERTIFIED
        refused = quasiperiodic_factor_certificate(
            entry.system, identity, (1.0, 2.0), 50,
            n_samples=150, rng=np.random.default_rng(105),
        )
        assert refused.conclusion == NO_OBSTRUCTION and "(2, -1)" in refused.reason
        # soundness: the granted system passes the criterion-1 residual with
        # the standard angles-to-circles embedding
        rng = np.random.default_rng(106)
        grid = (entry.sample_states(rng, 20), [0.0, 0.1, 1.0, float(np.pi), 10.0])
        assert verify_linearization(entry.exact_embedding, entry.system, grid) <= 1e-8


def test_criterion_8_pinched_torus_families():
    with _Timer(8, "pinched torus families: linearity, quotient, separation", 5.0):
        single = make_spec(n=2, m=1, M=[[0, 1]], base_boxes=[[("0", "1")]],
                           loci_boxes=[[[("0", "0")]], []])
        double = make_spec(n=2, m=1, M=[[0, 1]], base_boxes=[[("0", "1")]],
                           loci_boxes=[[[("0", "0")], [("1/2", "1/2")]], []])
        for spec in (single, double):
            report = verify_family(spec, n_samples=1000, rng=np.random.default_rng(107))
            assert report.max_linearity_residual <= 1e-10
            assert report.quotient_consistent
            assert report.min_separation > 0.0


def test_criterion_9_edmd_dichotomy():
    with _Timer(9, "EDMD: exact dictionary succeeds, counterexample labeled EXPECTED", 30.0):
        entry = catalog.get("quasiperiodic_torus_2")
        rng = np.random.default_rng(108)
        d = edmd.fourier_dictionary(entry.system.chart, 1)
        snaps = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 10), 0.1, 500)
        holdout = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 5), 0.1, 100)
        model = edmd.fit(d, snaps)
        diag = edmd.diagnose(model, d, entry.system, holdout, entry=entry)
        assert diag["holdout_residual"] <= 1e-7
        expected = np.exp(2j * np.pi * 0.1 * np.array([1.0, -1.0, np.sqrt(2.0), -np.sqrt(2.0)]))
        key = lambda z: (round(z.real, 9), round(z.imag, 9))
        for got, want in zip(sorted(model.spectrum, key=key), sorted(expected, key=key)):
            assert abs(got - want) <= 1e-6

        entry = catalog.get("annulus_cubic")
        labels, maps = entry.custom_observables["polar_fourier_5"]
        d = edmd.custom_dictionary(maps, labels)
        snaps = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 40), 0.1, 2000)
        holdout = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 8), 0.1, 400)
        model = edmd.fit(d, snaps, ridge=1e-10)
        diag = edmd.diagnose(model, d, entry.system, holdout, entry=entry)
        assert diag["phase_divergence_certificate"]["classification"] == "diverged"
        assert diag["residual_floor_label"] == "EXPECTED"


def test_criterion_10_cli_determinism(tmp_path):
    with _Timer(10, "CLI outputs bitwise identical per seed", 30.0):
        invocations = [
            ["catalog", "list"],
            ["verify", "--system", "log_radial", "--samples", "60", "--seed", "11"],
            ["edmd", "--system", "quasiperiodic_torus_2", "--dict", "fourier:1",
             "--pairs", "200", "--seed", "11"],
            ["phase", "--system", "annulus_cubic", "--x", "2,0",
             "--schedule", "geometric:1,2,12", "--seed", "11"],
        ]
        for i, args in enumerate(invocations):
            out = tmp_path / f"out_{i}.json"
            full = args + ["--out", str(out)]
            code_a = cli_main(full)
            bytes_a = out.read_bytes()
            code_b = cli_main(full)
            assert (code_a, bytes_a) == (code_b, out.read_bytes())

        spec_path = tmp_path / "pinch.json"
        spec_path.write_text(json.dumps({
            "n": 2, "m": 1, "M": [[0, 1]], "S": [[["0", "1"]]],
            "C": [[[["0", "0"]]], []],
            "omega": [{"prime_scale": 2, "rational": ["1", "0"]}],
        }))
        x0 = tmp_path / "x0.json"
        x0.write_text(json.dumps({"theta": [0.25, 0.125]}))
        csv_out = tmp_path / "orbit.csv"
        args = ["pinched", "--spec", str(spec_path), "--emit-trajectory", str(x0),
                "--tmax", "3", "--steps", "100", "--out", str(csv_out)]
        assert cli_main(args) == 0
        first = csv_out.read_bytes()
        assert cli_main(args) == 0
        assert first == csv_out.read_bytes()
