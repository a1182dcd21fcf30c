import dataclasses
import json
import re

import numpy as np
import pytest

from flowlin import FlowlinError, catalog, cli, embed, linalg, pinched
from flowlin.cli import main
from flowlin.embed import EmbeddingCandidate

SINGLE_PINCH = {
    "n": 2,
    "m": 1,
    "M": [[0, 1]],
    "S": [[["0", "1"]]],
    "C": [[[["0", "0"]]], []],
    "omega": [{"prime_scale": 2, "rational": ["1", "0"]}],
}


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_catalog_list(tmp_path):
    out = tmp_path / "list.json"
    assert run(["catalog", "list", "--out", str(out)]) == 0
    rows = read_json(out)
    names = [r["name"] for r in rows]
    assert "log_radial" in names and "annulus_cubic" in names
    by_name = {r["name"]: r for r in rows}
    assert by_name["annulus_cubic"]["verdict"] == "not_linearizable"


def test_catalog_options_go_after_the_subcommand(tmp_path, capsys):
    # an option before the subcommand is a usage error, not overwritten by
    # the subcommand's default
    out = tmp_path / "list.json"
    assert run(["catalog", "--out", str(out), "list"]) == 2
    assert not out.exists() and capsys.readouterr().out == ""
    assert run(["catalog", "list", "--out", str(out), "--seed", "3"]) == 0
    assert out.exists()


def test_catalog_show(tmp_path):
    out = tmp_path / "show.json"
    assert run(["catalog", "show", "log_radial", "--out", str(out)]) == 0
    meta = read_json(out)
    assert meta["has_exact_embedding"] and meta["has_exact_phase"]
    assert meta["chart"]["kind"] == "polar_annulus"


def test_catalog_show_unknown_system_is_usage_error(tmp_path):
    assert run(["catalog", "show", "nope", "--out", str(tmp_path / "x.json")]) == 2


def test_verify_exact_log_radial(tmp_path):
    out = tmp_path / "verify.json"
    code = run(
        ["verify", "--system", "log_radial", "--embedding", "exact",
         "--samples", "200", "--tmax", "10", "--tol", "1e-6", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out)
    assert all(c["pass"] for c in report["checks"])
    assert all("threshold" in c for c in report["checks"])
    assert report["provenance"] == "exact"


def test_verify_nan_embedding_at_one_state_exits_1(tmp_path, monkeypatch):
    # NaN at one sampled state only: the Jacobian stays finite while the
    # linearization residual and the injectivity margin become NaN, which
    # must count as failed
    entry = catalog.get("log_radial")
    bad = entry.sample_states(np.random.default_rng(0), 200)[0]
    F = entry.exact_embedding.F
    patchy = lambda x: np.where(np.all(x == bad, axis=-1)[..., None], np.nan, F(x))
    embedding = EmbeddingCandidate(patchy, entry.exact_embedding.B)
    monkeypatch.setitem(
        catalog._CACHE, "log_radial", dataclasses.replace(entry, exact_embedding=embedding)
    )
    out = tmp_path / "verify.json"
    code = run(["verify", "--system", "log_radial", "--embedding", "exact",
                "--samples", "200", "--out", str(out)])
    assert code == 1
    checks = {c["name"]: c for c in read_json(out)["checks"]}
    for name in ("linearization_residual", "injectivity_margin"):
        assert np.isnan(checks[name]["value"]) and not checks[name]["pass"]


def test_verify_flags_a_map_written_for_one_state(tmp_path, monkeypatch):
    # NaN at one state only, but matched against the whole argument: on a
    # batch it never fires, so only the single-state probe of the first
    # sampled state sees the NaN
    entry = catalog.get("log_radial")
    bad = entry.sample_states(np.random.default_rng(0), 200)[0]
    F = entry.exact_embedding.F
    patchy = lambda x: np.full(len(F(x)), np.nan) if np.array_equal(x, bad) else F(x)
    embedding = EmbeddingCandidate(patchy, entry.exact_embedding.B)
    monkeypatch.setitem(
        catalog._CACHE, "log_radial", dataclasses.replace(entry, exact_embedding=embedding)
    )
    out = tmp_path / "verify.json"
    code = run(["verify", "--system", "log_radial", "--embedding", "exact",
                "--samples", "200", "--out", str(out)])
    assert code == 1
    checks = {c["name"]: c for c in read_json(out)["checks"]}
    assert np.isnan(checks["batch_agreement"]["value"])
    assert not checks["batch_agreement"]["pass"]


def test_pinched_nan_separation_fails(tmp_path, monkeypatch):
    # NaN embedding on a band of the first angle: the separation scan must
    # keep the NaN instead of stepping over it
    canonical = pinched.canonical_embedding

    def patchy(spec, point):
        out = canonical(spec, point)
        return np.where((point[..., 0] < 0.05)[..., None], np.nan, out)

    monkeypatch.setattr(pinched, "canonical_embedding", patchy)
    spec_path = tmp_path / "single.json"
    spec_path.write_text(json.dumps(SINGLE_PINCH))
    family = pinched.verify_family(pinched.load_spec(spec_path), rng=np.random.default_rng(0))
    assert np.isnan(family.min_separation) and not family.passed
    out = tmp_path / "pinched.json"
    code = run(["pinched", "--spec", str(spec_path), "--check", "--out", str(out)])
    assert code == 1
    checks = {c["name"]: c for c in read_json(out)["checks"]}
    assert np.isnan(checks["separation_margin"]["value"])
    assert not checks["separation_margin"]["pass"]


def test_pinched_collapsed_family_fails(tmp_path):
    # every sampled point is the same point, and the locus midpoint has no
    # fiber point: no distinct pair to separate and no representative to compare
    spec_path = tmp_path / "collapsed.json"
    spec_path.write_text(json.dumps(
        {"n": 1, "m": 1, "M": [[0]], "S": [[["0", "1"]]], "C": [[[["0", "1"]]]]}
    ))
    out = tmp_path / "pinched.json"
    code = run(["pinched", "--spec", str(spec_path), "--check", "--out", str(out)])
    assert code == 1
    checks = {c["name"]: c for c in read_json(out)["checks"]}
    assert np.isnan(checks["separation_margin"]["value"])
    assert not checks["separation_margin"]["pass"]
    assert checks["quotient_consistency"]["value"] is False
    assert not checks["quotient_consistency"]["pass"]


def test_reports_record_no_machine_facts(tmp_path):
    out = tmp_path / "verdict.json"
    run(["verdict", "--system", "klein_bottle", "--out", str(out)])
    assert "threads" not in read_json(out)


def test_verify_built_annulus_is_config_error(tmp_path):
    code = run(["verify", "--system", "annulus_cubic", "--embedding", "built",
                "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_build_topological_and_smooth(tmp_path):
    for mode in ("topological", "smooth"):
        out = tmp_path / f"build_{mode}.json"
        assert run(["build", "--system", "log_radial", "--mode", mode,
                    "--out", str(out)]) == 0
        report = read_json(out)
        assert all(c["pass"] for c in report["checks"])
        assert report["provenance"] == f"built_{mode}"
    smooth = read_json(tmp_path / "build_smooth.json")
    assert smooth["overlap_identity_residual"] <= 1e-7


@pytest.mark.parametrize("command", [["verify", "--embedding", "built"], ["build"]])
@pytest.mark.parametrize("name, rows", [("log_radial", 1817), ("product_attractor", 2617)])
def test_evidence_pass_sends_each_state_through_F_once(tmp_path, monkeypatch, command, name, rows):
    # 200 states, their copies at 4 times, the Jacobian probes of the states
    # and 16 escape states in one call, then the first state alone
    calls = []
    build = cli.build_topological_embedding

    def recording_build(*args, **kwargs):
        cand = build(*args, **kwargs)

        def F(x):
            calls.append(np.array(x, dtype=float))
            return cand.F(x)

        return EmbeddingCandidate(F, cand.B)

    monkeypatch.setattr(cli, "build_topological_embedding", recording_build)
    out = tmp_path / "report.json"
    assert run([command[0], "--system", name, *command[1:], "--out", str(out)]) == 0
    batch, single = calls
    assert len(batch) + 1 == rows
    assert len(np.unique(batch, axis=0)) == len(batch)
    np.testing.assert_array_equal(single, batch[0])


def test_phase_command(tmp_path):
    out = tmp_path / "phase.json"
    assert run(["phase", "--system", "log_radial", "--x", "2.0,0.3",
                "--schedule", "geometric:1,2,8", "--out", str(out)]) == 0
    report = read_json(out)
    assert report["classification"] == "converged"
    assert len(report["horizons"]) == 8


def test_phase_bad_schedule(tmp_path, capsys):
    # a malformed text gets the format message; a well-formed one the schedule's own
    for schedule, message in [
        ("arithmetic:1,2,8",
         "schedule must look like geometric:T0,ratio,count, got 'arithmetic:1,2,8'"),
        ("geometric:1,2,2000", "schedule's last horizon inf is not finite"),
        ("geometric:1,0.5,4", "geometric schedule requires ratio > 1"),
        ("geometric:1,2," + "9" * 400, "int too large to convert to float"),
    ]:
        assert run(["phase", "--system", "log_radial", "--x", "2,0",
                    "--schedule", schedule, "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == f"flowlin: InvalidInput: {message}\n"


def test_index_command(tmp_path):
    out = tmp_path / "index.json"
    assert run(["index", "--system", "sphere_rotation", "--equilibrium", "0,0,1",
                "--radius", "0.5", "--samples", "256", "--out", str(out)]) == 0
    report = read_json(out)
    assert report["index"] == 1


def test_verdict_command(tmp_path):
    out = tmp_path / "verdict.json"
    assert run(["verdict", "--system", "sphere_rotation", "--out", str(out)]) == 0
    report = read_json(out)
    assert report["conclusion"] == "no_obstruction_found"
    assert run(["verdict", "--system", "saddle_plane",
                "--out", str(tmp_path / "y.json")]) == 2


def test_certify_grant_and_refuse(tmp_path):
    out = tmp_path / "cert.json"
    code = run(["certify", "--system", "quasiperiodic_torus_2",
                "--omega", f"1,{np.sqrt(2):.17g}", "--Q", "50", "--out", str(out)])
    assert code == 0
    assert read_json(out)["conclusion"] == "certified_linearizable"
    code = run(["certify", "--system", "quasiperiodic_torus_2",
                "--omega", "1,2", "--Q", "50", "--out", str(out)])
    assert code == 1  # refusal is a failed check, not a usage error
    code = run(["certify", "--system", "sphere_rotation",
                "--omega", "1,2", "--Q", "50", "--out", str(out)])
    assert code == 2  # dimension mismatch is a configuration problem


def test_pinched_check_and_trajectory(tmp_path):
    spec_path = tmp_path / "pinch.json"
    spec_path.write_text(json.dumps(SINGLE_PINCH))
    out = tmp_path / "pinch_report.json"
    assert run(["pinched", "--spec", str(spec_path), "--check",
                "--samples", "150", "--out", str(out)]) == 0
    assert all(c["pass"] for c in read_json(out)["checks"])

    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps({"theta": [0.0, 0.5]}))
    csv_out = tmp_path / "orbit.csv"
    assert run(["pinched", "--spec", str(spec_path), "--emit-trajectory", str(x0),
                "--tmax", "5", "--steps", "64", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    # 1 + 2 (n + m) columns
    assert lines[0] == "t,x1,x2,x3,x4,x5,x6"
    assert len(lines) == 65


def test_pinched_time_beyond_the_bound_exits_2(tmp_path, capsys):
    spec_path, x0 = tmp_path / "pinch.json", tmp_path / "x0.json"
    spec_path.write_text(json.dumps(SINGLE_PINCH))
    x0.write_text(json.dumps({"theta": [0.0, 0.5]}))
    out = tmp_path / "o.csv"
    assert run(["pinched", "--spec", str(spec_path), "--emit-trajectory", str(x0),
                "--tmax", "1e20", "--steps", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "flowlin: TimeOutOfDomain: pinched: |t| = 5e+19 beyond time bound 2**52 (row 1)\n"
    )
    assert not out.exists()


def test_pinched_needs_check_or_trajectory(tmp_path):
    spec_path = tmp_path / "pinch.json"
    spec_path.write_text(json.dumps(SINGLE_PINCH))
    assert run(["pinched", "--spec", str(spec_path), "--out", str(tmp_path / "x.json")]) == 2


def test_sphere_orbit_latitude_radius(tmp_path):
    out = tmp_path / "sphere.csv"
    z = np.sqrt(0.75)
    assert run(["catalog", "show", "sphere_rotation", "--emit-trajectory",
                "--x", f"{z:.17g},0,0.5", "--tmax", "1", "--steps", "50",
                "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(np.hypot(data[:, 1], data[:, 2]), z, rtol=1e-12)


def test_edmd_command(tmp_path):
    out = tmp_path / "edmd.json"
    assert run(["edmd", "--system", "quasiperiodic_torus_2", "--dict", "fourier:1",
                "--pairs", "300", "--step", "0.1", "--ridge", "1e-10",
                "--seed", "3", "--out", str(out)]) == 0
    report = read_json(out)
    assert report["holdout_residual"] <= 1e-7
    assert report["spectrum_on_unit_circle_fraction"] == 1.0


def test_edmd_unknown_dictionary(tmp_path):
    assert run(["edmd", "--system", "log_radial", "--dict", "custom:missing",
                "--out", str(tmp_path / "x.json")]) == 2


def test_edmd_single_state_custom_map_exits_2(tmp_path, monkeypatch, capsys):
    # written for one state, the map returns the first row of a batch
    observables = catalog.get("log_radial").custom_observables
    monkeypatch.setitem(observables, "first_row", (["r", "theta"], lambda x: x[0]))
    out = tmp_path / "x.json"
    assert run(["edmd", "--system", "log_radial", "--dict", "custom:first_row",
                "--pairs", "200", "--out", str(out)]) == 2
    assert "must act row-wise on batches" in capsys.readouterr().err
    assert not out.exists()


def test_verify_single_state_exact_embedding_exits_2(tmp_path, monkeypatch, capsys):
    # written for one state, the map returns the image of the first row of a batch
    entry = catalog.get("log_radial")
    F = entry.exact_embedding.F
    embedding = EmbeddingCandidate(lambda x: F(np.asarray(x)[0]), entry.exact_embedding.B)
    monkeypatch.setitem(
        catalog._CACHE, "log_radial", dataclasses.replace(entry, exact_embedding=embedding)
    )
    out = tmp_path / "x.json"
    assert run(["verify", "--system", "log_radial", "--embedding", "exact",
                "--samples", "60", "--out", str(out)]) == 2
    assert "must act row-wise on batches" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["catalog", "list"],
        ["verify", "--system", "log_radial", "--samples", "60", "--seed", "5"],
        ["phase", "--system", "log_radial", "--x", "1.5,0.2", "--seed", "1"],
        ["edmd", "--system", "quasiperiodic_torus_2", "--dict", "fourier:1",
         "--pairs", "200", "--seed", "7"],
    ],
)
def test_outputs_bitwise_deterministic(tmp_path, args):
    # the same argv run twice, into two different --out paths, must produce
    # identical bytes
    first, second = tmp_path / "report.json", tmp_path / "elsewhere" / "other.json"
    second.parent.mkdir()
    first_code = run(args + ["--out", str(first)])
    second_code = run(args + ["--out", str(second)])
    assert (first_code, first.read_bytes()) == (second_code, second.read_bytes())


def test_emit_trajectory_requires_state_and_out(tmp_path):
    assert run(["catalog", "show", "sphere_rotation", "--emit-trajectory",
                "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["catalog", "show", "sphere_rotation", "--emit-trajectory",
                "--x", "0,0,1"]) == 2


def test_phase_requires_attractor_model(tmp_path):
    assert run(["phase", "--system", "sphere_rotation", "--x", "0,0,1",
                "--out", str(tmp_path / "x.json")]) == 2


def test_index_unknown_equilibrium(tmp_path):
    assert run(["index", "--system", "sphere_rotation", "--equilibrium", "1,0,0",
                "--out", str(tmp_path / "x.json")]) == 2


def test_timing_flag_adds_wall_time(tmp_path):
    out = tmp_path / "timed.json"
    assert run(["catalog", "list", "--timing", "--out", str(out)]) == 0
    # catalog list has no report wrapper; timing applies to check commands
    out2 = tmp_path / "timed2.json"
    assert run(["verify", "--system", "log_radial", "--samples", "40",
                "--timing", "--out", str(out2)]) == 0
    assert "timing_seconds" in read_json(out2)
    # every report command times itself, the library-only ones too
    out3 = tmp_path / "timed3.json"
    assert run(["verdict", "--system", "klein_bottle", "--timing", "--out", str(out3)]) == 0
    assert read_json(out3)["timing_seconds"] >= 0.0
    out4 = tmp_path / "untimed.json"
    assert run(["verdict", "--system", "klein_bottle", "--out", str(out4)]) == 0
    assert "timing_seconds" not in read_json(out4)


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "--system", "sphere_rotation", "--equilibrium", "0,0"],
        ["index", "--system", "sphere_rotation", "--equilibrium", "0,0,1", "--samples", "10"],
        ["phase", "--system", "log_radial", "--x", "1"],
        ["phase", "--system", "log_radial", "--x", "1,2,3"],
        ["catalog", "show", "log_radial", "--emit-trajectory", "--x", "1"],
        ["edmd", "--system", "log_radial", "--pairs", "0"],
        ["edmd", "--system", "log_radial", "--pairs", "1"],
        ["edmd", "--system", "log_radial", "--step", "0"],
        ["edmd", "--system", "log_radial", "--dict", "fourier:one"],
        ["verify", "--system", "log_radial", "--tmax", "nan"],
        ["pinched", "--spec", "SPEC", "--check", "--samples", "50"],
    ],
)
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv):
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text(json.dumps(SINGLE_PINCH))
    argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
    assert run([*argv, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["pinched", "--spec", "SPEC_N_NULL", "--check"],
        ["pinched", "--spec", "SPEC_C_NULL", "--check"],
        ["pinched", "--spec", "SPEC", "--emit-trajectory", "START_LIST"],
        ["pinched", "--spec", "SPEC", "--emit-trajectory", "START_ONE_ANGLE"],
        ["phase", "--system", "log_radial", "--x", "2,0", "--schedule", "geometric:1,2,2000"],
        ["phase", "--system", "log_radial", "--x", "2,0", "--schedule", "geometric:1,1e308,3"],
        ["catalog", "show", "sphere_rotation", "--emit-trajectory", "--x", "1,0,0",
         "--tmax", "1e308", "--steps", "3"],
        # a number list with an empty entry
        ["phase", "--system", "log_radial", "--x", "2,,0"],
        ["phase", "--system", "log_radial", "--x", "2,0,"],
        ["certify", "--system", "quasiperiodic_torus_2", "--omega", "1,,1.4142135623730951"],
        # refused before the circle is sampled
        ["index", "--system", "sphere_rotation", "--equilibrium", "0,0,1",
         "--samples", str(2**20 + 1)],
    ],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv):
    files = {
        "SPEC": SINGLE_PINCH,
        "SPEC_N_NULL": {**SINGLE_PINCH, "n": None},
        "SPEC_C_NULL": {**SINGLE_PINCH, "C": None},
        "START_LIST": [0.1, 0.2],
        "START_ONE_ANGLE": {"theta": [0.1]},
    }
    for key, data in files.items():
        (tmp_path / key).write_text(json.dumps(data))
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    name = re.match(r"flowlin: (\w+): ", err)
    assert name and name.group(1) in ERROR_NAMES and err.count("\n") == 1, err
    assert not out.exists()


def _subclasses(cls):
    return {cls.__name__}.union(*(_subclasses(sub) for sub in cls.__subclasses__()))


# every name the one-line message of an exit-2 error may start with
ERROR_NAMES = _subclasses(FlowlinError) | {"FloatingPointError"}


@pytest.mark.parametrize(
    "argv, name",
    [
        # r = 0 is off the punctured plane, refused before log(0) divides by zero
        (["phase", "--system", "log_radial", "--x", "0,0", "--schedule", "geometric:1,2,12"],
         "InvalidInput"),
        # the planar field and its norm overflow on the circle
        (["index", "--system", "sphere_rotation", "--equilibrium", "0,0,1",
          "--radius", "1e308"], "FloatingPointError"),
        # the relation search overflows
        (["certify", "--system", "quasiperiodic_torus_2", "--omega", "1,1e308", "--Q", "50"],
         "FloatingPointError"),
        # at t = 1e300 the angle theta + t keeps no bit of theta
        (["edmd", "--system", "annulus_cubic", "--dict", "monomial:3", "--pairs", "2000",
          "--step", "1e300"], "TimeOutOfDomain"),
    ],
)
def test_input_outside_the_arithmetic_exits_2_naming_the_fault(tmp_path, capsys, argv, name):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"flowlin: {name}: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, system, text",
    [
        (["phase", "--system", "log_radial", "--x=-2,0"], "log_radial", "-2,0"),
        (["phase", "--system", "annulus_cubic", "--x", "0,0"], "annulus_cubic", "0,0"),
        (["catalog", "show", "annulus_cubic", "--emit-trajectory", "--x=-1,0"],
         "annulus_cubic", "-1,0"),
    ],
)
def test_start_off_the_punctured_plane_exits_2(tmp_path, capsys, argv, system, text):
    # r <= 0 is off the chart's domain; log_radial at r = 0 is a case of the test above.
    # The library's domain gate names the offending coordinate's value
    out = tmp_path / "o.csv"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"flowlin: InvalidInput: {system}: coordinate x1 of the polar_annulus chart "
        f"must be > 0, got {float(text.split(',')[0]):g}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["phase", "--system", "log_radial", "--x", "1,0,5"],
         "log_radial: a state of the polar_annulus chart has 2 coordinates, got shape (3,)"),
        (["index", "--system", "sphere_rotation", "--equilibrium", "0,1"],
         "sphere_rotation: a state of the euclidean chart has 3 coordinates, got shape (2,)"),
        (["pinched", "--spec", "SPEC", "--emit-trajectory", "START_ONE_ANGLE"],
         "a family point takes 2 angles theta, got shape (1,)"),
        (["pinched", "--spec", "SPEC", "--emit-trajectory", "START_TWO_POINTS"],
         "pinched: a trajectory starts at one state, got shape (2, 3)"),
    ],
)
def test_start_state_is_refused_by_the_library_gate(tmp_path, capsys, argv, message):
    # the CLI parses; the library's domain gate and make_point word the refusal
    files = {"SPEC": SINGLE_PINCH, "START_ONE_ANGLE": {"theta": [0.1]},
             "START_TWO_POINTS": {"theta": [[0.1, 0.2], [0.3, 0.4]]}}
    for key, data in files.items():
        (tmp_path / key).write_text(json.dumps(data))
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"flowlin: InvalidInput: {message}\n"
    assert not out.exists()


def test_certify_refuses_an_oversized_search_box(tmp_path, capsys, monkeypatch):
    # building either half of the coefficient box would raise AttributeError
    monkeypatch.setattr(linalg, "itertools", None)
    out = tmp_path / "out"
    argv = ["certify", "--system", "quasiperiodic_torus_3", "--omega", "1,1.4142,1.7320",
            "--Q", "100000", "--out", str(out)]
    assert run(argv) == 2
    assert "DimensionTooLarge" in capsys.readouterr().err
    assert not out.exists()


def test_built_verify_makes_three_solves_and_two_F_calls(monkeypatch, tmp_path):
    solves, calls = [], []
    impact_time, built_candidate = embed.impact_time, cli._built_candidate

    def counted_solve(*args):
        solves.append(len(np.atleast_2d(args[-1])))
        return impact_time(*args)

    def counted_candidate(entry):
        cand = built_candidate(entry)

        def F(x):
            calls.append(np.shape(x))
            return cand.F(x)

        return dataclasses.replace(cand, F=F)

    monkeypatch.setattr(embed, "impact_time", counted_solve)
    monkeypatch.setattr(cli, "_built_candidate", counted_candidate)
    out = tmp_path / "verify.json"
    assert run(["verify", "--system", "log_radial", "--embedding", "built",
                "--out", str(out)]) == 0
    # the builder's validation, the one evidence batch and the single state
    assert len(solves) == 3 and solves[-1] == 1
    assert len(calls) == 2 and calls[1] == (2,)
    assert read_json(out)["provenance"] == "built_topological"


def test_help_exits_cleanly():
    assert run(["--help"]) == 0
